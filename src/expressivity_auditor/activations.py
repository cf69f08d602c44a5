"""Activation families.

PwlActivation is a t-piece piecewise-linear scalar function with t-1 interval
boundaries; its "state" at a value v is the 1-based index of the interval
containing v, with boundaries resolved right-continuously. LipschitzActivation
wraps an opaque scalar map with a declared Lipschitz constant for the
activation-substitution bound. ActivationGap carries a sup-norm distance
between two activations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedActivationError

_NAME_RE = re.compile(r"^([a-z][a-z0-9-]*?)(?:\(([^()]*)\))?$")

BUILTIN_NAMES = ("relu", "leaky-relu(a)", "hard-tanh", "step", "identity", "sigmoid", "sigmoid-q(k)")
LIPSCHITZ_CHECK_RANGE = (-20.0, 20.0)  # where declared Lipschitz constants are spot-checked
GAP_GRID = 4097  # grid points of the empirical activation gap


@dataclass(frozen=True, eq=False)
class PwlActivation:
    name: str
    boundaries: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.boundaries, dtype=float))
        s = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        q = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if s.size < 1 or s.size != b.size + 1 or q.size != s.size:
            raise ValueError("need len(boundaries) + 1 pieces")
        for name, arr in (("boundaries", b), ("slopes", s), ("intercepts", q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite activation {name}: {arr.tolist()}")
        if b.size and not np.all(np.diff(b) > 0.0):
            raise ValueError("boundaries must be strictly increasing")
        for name, arr in (("boundaries", b), ("slopes", s), ("intercepts", q)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def t(self) -> int:
        return int(self.slopes.size)

    def state_of(self, v):
        """1-based interval index of v; boundary values belong to the interval
        on their right."""
        idx = np.searchsorted(self.boundaries, v, side="right")
        if np.ndim(v) == 0:
            return int(idx) + 1
        return idx + 1

    def value(self, v):
        v = np.asarray(v, dtype=float)
        idx = np.searchsorted(self.boundaries, v, side="right")
        out = self.slopes[idx] * v + self.intercepts[idx]
        if v.ndim == 0:
            return float(out)
        return out

    __call__ = value

    def is_continuous(self) -> bool:
        b = self.boundaries
        left = self.slopes[:-1] * b + self.intercepts[:-1]
        right = self.slopes[1:] * b + self.intercepts[1:]
        return bool(np.all(np.abs(left - right) <= 1e-12))

    def __eq__(self, other):
        if not isinstance(other, PwlActivation):
            return NotImplemented
        return (
            self.name == other.name
            and np.array_equal(self.boundaries, other.boundaries)
            and np.array_equal(self.slopes, other.slopes)
            and np.array_equal(self.intercepts, other.intercepts)
        )

    def __hash__(self):
        return hash((self.name, self.boundaries.tobytes(), self.slopes.tobytes(), self.intercepts.tobytes()))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "boundaries": self.boundaries.tolist(),
            "pieces": [{"slope": s, "intercept": c} for s, c in zip(self.slopes.tolist(), self.intercepts.tolist())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PwlActivation":
        pieces = obj["pieces"]
        return cls(
            name=obj.get("name", "custom"),
            boundaries=np.asarray(obj["boundaries"], dtype=float),
            slopes=np.array([p["slope"] for p in pieces], dtype=float),
            intercepts=np.array([p["intercept"] for p in pieces], dtype=float),
        )


@dataclass(frozen=True, eq=False)
class LipschitzActivation:
    """Opaque scalar activation with a declared Lipschitz constant.

    The constant is declared, not computed; construction spot-checks it on 1e4
    random pairs drawn from LIPSCHITZ_CHECK_RANGE. check_slack admits activations whose
    output is quantized: |f(a) - f(b)| <= lipschitz * |a - b| + check_slack.
    """

    name: str
    fn: Callable
    lipschitz: float
    check_slack: float = 0.0

    def __post_init__(self):
        if self.lipschitz <= 0.0:
            raise ValueError("lipschitz must be positive")
        rng = np.random.default_rng(1827)
        a = rng.uniform(*LIPSCHITZ_CHECK_RANGE, 10_000)
        b = rng.uniform(*LIPSCHITZ_CHECK_RANGE, 10_000)
        excess = np.abs(self.fn(a) - self.fn(b)) - self.lipschitz * np.abs(a - b)
        worst = float(np.max(excess))
        if worst > self.check_slack + 1e-9:
            raise ValueError(f"declared Lipschitz constant {self.lipschitz} violated by {worst:.3g}")

    def value(self, v):
        v = np.asarray(v, dtype=float)
        out = self.fn(v)
        if v.ndim == 0:
            return float(out)
        return out

    __call__ = value


@dataclass(frozen=True)
class ActivationGap:
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValueError("gap must be nonnegative")


def _sigmoid(v):
    v = np.asarray(v, dtype=float)
    # Both branches on clipped arguments: stable for large |v|, 0-d safe.
    pos = 1.0 / (1.0 + np.exp(-np.clip(v, 0.0, None)))
    ev = np.exp(np.clip(v, None, 0.0))
    neg = ev / (1.0 + ev)
    return np.where(v >= 0.0, pos, neg)


def _quantized_sigmoid(bits: int):
    scale = float(2**bits)

    def fn(v):
        # numpy rounds half to even, the convention fixed for quantized outputs
        return np.round(_sigmoid(v) * scale) / scale

    return fn


def builtin_activation(name: str):
    """Construct a named activation.

    Known names: relu, leaky-relu(a), hard-tanh, step, identity, sigmoid,
    sigmoid-q(k). sigmoid-q(k) is the sigmoid with outputs rounded to k-bit
    fixed point (round-half-even).
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unknown activation name {name!r}")
    base, arg = m.group(1), m.group(2)
    if base == "relu" and arg is None:
        return PwlActivation("relu", [0.0], [0.0, 1.0], [0.0, 0.0])
    if base == "leaky-relu":
        if arg is None:
            raise ValueError("leaky-relu needs a slope, e.g. leaky-relu(0.01)")
        a = float(arg)
        return PwlActivation(f"leaky-relu({arg})", [0.0], [a, 1.0], [0.0, 0.0])
    if base == "hard-tanh" and arg is None:
        return PwlActivation("hard-tanh", [-1.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0])
    if base == "step" and arg is None:
        return PwlActivation("step", [0.0], [0.0, 0.0], [0.0, 1.0])
    if base == "identity" and arg is None:
        return PwlActivation("identity", [], [1.0], [0.0])
    if base == "sigmoid" and arg is None:
        return LipschitzActivation("sigmoid", _sigmoid, 0.25)
    if base == "sigmoid-q":
        if arg is None:
            raise ValueError("sigmoid-q needs a bit count, e.g. sigmoid-q(32)")
        bits = int(arg)
        if bits < 1:
            raise ValueError("bit count must be >= 1")
        step = 2.0**-bits
        return LipschitzActivation(f"sigmoid-q({bits})", _quantized_sigmoid(bits), 0.25, check_slack=step)
    raise ValueError(f"unknown activation name {name!r}")


def gap(act1, act2, lo=-8.0, hi=8.0) -> ActivationGap:
    """Empirical sup-norm distance max |act1(v) - act2(v)| on a uniform grid
    of GAP_GRID points over [lo, hi]."""
    if not hi > lo:
        raise ValueError("empty range")
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"activation gap range [{lo}, {hi}] is wider than binary64 can hold")
    grid = np.linspace(lo, hi, GAP_GRID)
    return ActivationGap(float(np.max(np.abs(act1.value(grid) - act2.value(grid)))))


def quantization_gap(bits: int) -> ActivationGap:
    """Nominal one-ULP sup gap, 2^-bits, between a map with outputs in [0, 1]
    and its k-bit fixed-point rounding. The measured grid gap of sigmoid vs
    sigmoid-q(k) is at most half this, so the nominal value is the safe choice
    when quoting the substitution bound."""
    if bits < 1:
        raise ValueError("bit count must be >= 1")
    return ActivationGap(2.0**-bits)


def piece_count(act) -> int:
    """t of a piecewise-linear activation."""
    if isinstance(act, PwlActivation):
        return act.t
    raise UnsupportedActivationError(f"activation {getattr(act, 'name', act)!r} has no piece count")


def lipschitz_constant(act) -> float:
    """Lipschitz constant: declared for opaque activations, max |slope| for
    continuous piecewise-linear ones."""
    if isinstance(act, LipschitzActivation):
        return float(act.lipschitz)
    if isinstance(act, PwlActivation):
        if not act.is_continuous():
            raise UnsupportedActivationError(f"{act.name!r} is discontinuous, no Lipschitz constant")
        return float(np.max(np.abs(act.slopes)))
    raise TypeError(f"not an activation: {act!r}")
