"""Randomized verification campaigns.

Each trial draws a layered random network and a random segment from a
CampaignSpec, restricts the network to the segment, and audits every counting
inequality. Trial i is seeded by SeedSequence(master, spawn_key=(i,)), so
each trial is reproducible on its own; rows are emitted in trial order.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from .activations import PwlActivation, builtin_activation
from .errors import check_int
from .netgraph import Segment, check_draw, depth_profile, random_network
from .report import PASS
from .restriction import audit_transition_inequalities, break_points, restrict

CSV_HEADER = "# expressivity-auditor v1"
CSV_COLUMNS = (
    "trial", "seed", "n", "t", "n_hidden", "depth", "omega", "B", "N", "bound",
    "breakpoints_le_transitions", "transitions_le_bound", "transition_subadditivity",
    "prefix_monotonicity", "union_bound", "per_unit_transition_cap", "overall",
)
_KIND_TO_COLUMN = {
    "breakpoints-le-transitions": "breakpoints_le_transitions",
    "transitions-le-depth-bound": "transitions_le_bound",
    "transition-subadditivity": "transition_subadditivity",
    "prefix-monotonicity": "prefix_monotonicity",
    "union-bound": "union_bound",
    "per-unit-transition-cap": "per_unit_transition_cap",
}

# Trials redraw segments shorter than this.
_MIN_SEGMENT = 1e-6
_MAX_DRAW = 2**63 - 1  # the largest v for which rng.integers(1, v + 1) accepts its high end


@dataclass(frozen=True)
class CampaignSpec:
    """Random-network and segment-sampling parameters for one campaign."""

    n_choices: tuple = (1, 2, 3)
    depth_max: int = 4
    width_max: int = 5
    skip_prob: float = 0.3
    weight_bound: float = 1.0
    activations: tuple = ("relu", "hard-tanh")
    segment_lo: float = 0.0
    segment_hi: float = 1.0
    _built: tuple = field(init=False, repr=False, compare=False)  # the activations, built once

    def __post_init__(self):
        for name in ("n_choices", "activations"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {v!r}")
        try:  # an empty list fails on the 0
            object.__setattr__(self, "n_choices", tuple(check_int("n", v, 1) for v in self.n_choices or [0]))
        except ValueError:
            raise ValueError(f"n_choices must list integer dimensions >= 1, got {self.n_choices!r}") from None
        object.__setattr__(self, "activations", tuple(self.activations))
        for name in ("depth_max", "width_max"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1, _MAX_DRAW))
        check_draw(self.skip_prob, self.weight_bound)  # before any trial runs
        if not self.activations:
            raise ValueError("need at least one activation name")
        built = []
        for name in self.activations:  # fail fast, before any trial runs
            if not isinstance(name, str):
                raise ValueError(f"activations must list names, got {name!r}")
            built.append(builtin_activation(name))
            if not isinstance(built[-1], PwlActivation):
                raise ValueError(f"activations must be piecewise linear to restrict exactly, "
                                 f"got {name!r}")
        object.__setattr__(self, "_built", tuple(built))
        lo, hi = self.segment_lo, self.segment_hi
        # abs(v) <= max also rejects NaN, and an int too large for a float
        if not all(isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
                   for v in (lo, hi)):
            raise ValueError(f"segment_lo and segment_hi must be finite numbers, got {lo!r}, {hi!r}")
        lo, hi = float(lo), float(hi)
        object.__setattr__(self, "segment_lo", lo)
        object.__setattr__(self, "segment_hi", hi)
        if not hi > lo:
            raise ValueError("need segment_hi > segment_lo")
        if not math.isfinite(hi - lo):
            raise ValueError(f"segment_hi - segment_lo overflows binary64 for [{lo!r}, {hi!r}]")
        if not hi - lo >= 2 * _MIN_SEGMENT:  # else the redraw loop of run_trial may never end
            raise ValueError(f"segment_hi - segment_lo must be at least {2 * _MIN_SEGMENT:g}, "
                             f"got [{lo!r}, {hi!r}]")

    @classmethod
    def from_json(cls, doc: dict) -> "CampaignSpec":
        if not isinstance(doc, dict):
            raise ValueError("campaign spec must be a JSON object")
        known = {
            "n_choices", "depth_max", "width_max", "skip_prob", "weight_bound",
            "activations", "segment_box",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        kwargs = {k: doc[k] for k in doc if k != "segment_box"}
        if "segment_box" in doc:
            box = doc["segment_box"]
            if not (isinstance(box, list) and len(box) == 2):
                raise ValueError(f"segment_box must be a list [lo, hi], got {box!r}")
            kwargs["segment_lo"], kwargs["segment_hi"] = box
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class TrialResult:
    trial: int
    seed: int
    n: int
    t: int
    n_hidden: int
    depth: int
    omega: Fraction
    breakpoints: int
    transitions_all: int
    bound: float
    verdicts: dict
    overall: bool


def run_trial(spec: CampaignSpec, master_seed: int, i: int) -> TrialResult:
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(i,)))
    act = spec._built[i % len(spec._built)]
    n = int(rng.choice(spec.n_choices))
    depth = int(rng.integers(1, spec.depth_max + 1))
    widths = [int(w) for w in rng.integers(1, spec.width_max + 1, size=depth)]
    net = random_network(
        n, depth, widths=widths, skip_prob=spec.skip_prob,
        weight_bound=spec.weight_bound, activation=act, seed=rng,
    )
    span = spec.segment_hi - spec.segment_lo
    x = spec.segment_lo + rng.random(n) * span
    y = spec.segment_lo + rng.random(n) * span
    with np.errstate(over="ignore"):  # an overflowing length is Segment's error to report
        while np.linalg.norm(y - x) < _MIN_SEGMENT:
            y = spec.segment_lo + rng.random(n) * span
    r = restrict(net, Segment(x, y))
    reports = {rep.kind: rep for rep in audit_transition_inequalities(r)}
    verdicts = {kind: rep.verdict == PASS for kind, rep in reports.items()}
    prof = depth_profile(net)
    ceiling = reports["transitions-le-depth-bound"]
    return TrialResult(
        trial=i,
        seed=master_seed,
        n=n,
        t=ceiling.parameters["t"],
        n_hidden=len(net.units),
        depth=prof.depth,
        omega=prof.width,
        breakpoints=break_points(r),
        transitions_all=int(ceiling.measured),
        bound=ceiling.bound,
        verdicts=verdicts,
        overall=all(verdicts.values()),
    )


def run_campaign(spec: CampaignSpec, trials: int, seed: int) -> list:
    """All trial results, in trial order."""
    return [run_trial(spec, seed, i) for i in range(check_int("trials", trials, 0))]


def violations(results) -> list:
    return [r for r in results if not r.overall]


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def write_csv(results, fh) -> None:
    """Versioned, byte-deterministic CSV: one comment header line, one column
    line, one row per trial."""
    fh.write(CSV_HEADER + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        row = [
            r.trial, r.seed, r.n, r.t, r.n_hidden, r.depth, str(r.omega),
            r.breakpoints, r.transitions_all, repr(r.bound),
        ]
        row.extend(_verdict(r.verdicts[k]) for k in _KIND_TO_COLUMN)
        row.append(_verdict(r.overall))
        writer.writerow(row)
