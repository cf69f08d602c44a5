"""Structured audit results.

Every numeric check in the package reports through AuditReport so the CLI and
the campaign CSV can serialize them uniformly. Upper-bound audits pass when
measured <= bound, lower-bound audits when measured >= bound, both within the
stated tolerance. The margin and verdict are computed in the inputs' own
arithmetic, exact for int and Fraction, before the stored floats are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class AuditReport:
    kind: str
    parameters: Mapping[str, Any]
    measured: float
    bound: float
    margin: float
    verdict: str
    provenance: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": {k: _json_safe(v) for k, v in self.parameters.items()},
            "measured": _json_safe(self.measured),
            "bound": _json_safe(self.bound),
            "margin": _json_safe(self.margin),
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def _safe_float(x) -> float:
    """float(x), or a signed infinity when x exceeds binary64."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _audit(kind, measured, bound, margin, parameters, tol):
    verdict = PASS if margin >= -tol else FAIL
    return AuditReport(
        kind, dict(parameters or {}), _safe_float(measured), _safe_float(bound),
        _safe_float(margin), verdict,
    )


def upper_audit(kind, measured, bound, parameters=None, tol=0.0):
    """Audit of measured <= bound (+ tol)."""
    return _audit(kind, measured, bound, bound - measured, parameters, tol)


def lower_audit(kind, measured, bound, parameters=None, tol=0.0):
    """Audit of measured >= bound (- tol)."""
    return _audit(kind, measured, bound, measured - bound, parameters, tol)


def _json_safe(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.ndarray):
        return [float(x) for x in np.asarray(v, dtype=float).ravel()]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    return v
