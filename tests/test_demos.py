"""The demos print the same bytes: each one's stdout MD5 is frozen here.

A change that should not move any figure (a refactor, a speedup) must leave
all six digests alone; a change that moves one must re-derive it and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_MD5 = {
    "campaign_csv": "21d913b6854167a3892f8a10e04b5299",
    "pwl_algebra": "0152bc77180585cc952261632a3a8e3c",
    "quantization_swap": "4ea0b0c8e29750935d4f2aa7b8ce57be",
    "restrict_and_count": "0d60eedf52e2018cc6ff9bff19886950",
    "sandwich_bound": "b50a737452c3e99faaaee37d7e27a5a1",
    "size_floors": "1836eda25e1fc2eb57b9992789ad5ac6",
}


def test_every_demo_is_frozen():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_MD5)


@pytest.mark.parametrize("name", sorted(DEMO_MD5))
def test_demo_stdout_bytes(name):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.md5(proc.stdout).hexdigest() == DEMO_MD5[name]
