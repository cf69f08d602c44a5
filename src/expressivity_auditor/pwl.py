"""Exact algebra of scalar piecewise-linear functions on [0, 1].

This is the substrate for restricting a network to a line segment: each input
restricts to an affine function of the segment parameter alpha, pre-activations
are affine combinations, and composing with a piecewise-linear activation cuts
pieces wherever the pre-activation crosses an activation interval boundary.

Conventions, fixed once:

* pieces are left-closed / right-open, the last piece closed at 1;
* breakpoints live in the open interval (0, 1);
* jump discontinuities are allowed (adjacent pieces need not agree at the
  junction) and count as break points;
* activation interval boundaries are resolved right-continuously, so the state
  at a boundary value belongs to the interval on its right.

Arithmetic is IEEE binary64 with tolerance-based junction merging; there is no
exact rational mode. See `normalize` for the merging rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedActivationError

# Breakpoints closer than this are treated as a single point; the sliver piece
# between them is dropped during normalization.
COALESCE_TOL = 1e-12
# Relative scale for deciding that two adjacent pieces are the same line. It
# sits well above binary64 round-off and well below the smallest real jump or
# slope change an audit must keep: merging a junction moves the function by
# up to about MERGE_RTOL * max(1, |slope|, |value|), so at 1e-9 a scaled-down
# jump or kink of size ~1e-9 vanished along with its break point.
MERGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction1D:
    """Piecewise-linear function of alpha in [0, 1].

    Piece i is `slopes[i] * alpha + intercepts[i]`, valid on the i-th
    subinterval of the partition induced by `breakpoints`.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        sl = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        ic = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if bp.ndim != 1 or sl.ndim != 1 or ic.ndim != 1:
            raise ValueError("breakpoints, slopes, intercepts must be 1-D")
        if len(sl) != len(bp) + 1 or len(ic) != len(sl):
            raise ValueError("need exactly len(breakpoints) + 1 pieces")
        if bp.size:
            if not np.all(np.diff(bp) > 0.0):
                raise ValueError("breakpoints must be strictly increasing")
            if bp[0] <= 0.0 or bp[-1] >= 1.0:
                raise ValueError("breakpoints must lie in the open interval (0, 1)")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl)) and np.all(np.isfinite(ic))):
            raise ValueError("non-finite data")
        for name, arr in (("breakpoints", bp), ("slopes", sl), ("intercepts", ic)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def affine(cls, slope, intercept):
        return cls(np.empty(0), np.array([slope], dtype=float), np.array([intercept], dtype=float))

    @classmethod
    def constant(cls, value):
        return cls.affine(0.0, value)

    @classmethod
    def from_knots(cls, alphas, values):
        """Continuous chord interpolant through (alphas, values); knots must
        include 0 and 1 and be strictly increasing."""
        a = np.asarray(alphas, dtype=float)
        v = np.asarray(values, dtype=float)
        if a.ndim != 1 or a.shape != v.shape or a.size < 2:
            raise ValueError("need matching 1-D knot arrays of length >= 2")
        if a[0] != 0.0 or a[-1] != 1.0 or not np.all(np.diff(a) > 0):
            raise ValueError("knots must increase strictly from 0 to 1")
        slopes = np.diff(v) / np.diff(a)
        intercepts = v[:-1] - slopes * a[:-1]
        return cls(a[1:-1], slopes, intercepts)

    @property
    def n_breakpoints(self) -> int:
        return int(self.breakpoints.size)

    @property
    def n_pieces(self) -> int:
        return int(self.slopes.size)

    @property
    def pieces(self):
        return list(zip(self.slopes.tolist(), self.intercepts.tolist()))

    def piece_index(self, alpha):
        """Index of the piece containing alpha (left-closed/right-open)."""
        return np.searchsorted(self.breakpoints, alpha, side="right")

    def eval(self, alpha):
        a = np.asarray(alpha, dtype=float)
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise ValueError("alpha outside [0, 1]")
        idx = self.piece_index(a)
        out = self.slopes[idx] * a + self.intercepts[idx]
        if a.ndim == 0:
            return float(out)
        return out

    __call__ = eval

    def junction_values(self):
        """(left limit, right value) at each breakpoint; the gap between them
        is the jump size (zero when continuous)."""
        b = self.breakpoints
        left = self.slopes[:-1] * b + self.intercepts[:-1]
        right = self.slopes[1:] * b + self.intercepts[1:]
        return left, right

    def shifted(self, delta):
        """The function plus a constant."""
        return PwlFunction1D(self.breakpoints, self.slopes, self.intercepts + float(delta))


def normalize(f: PwlFunction1D) -> PwlFunction1D:
    """Canonical form: coalesce breakpoints closer than COALESCE_TOL (dropping
    the sliver piece between them) and dissolve junctions whose two sides are
    the same line within tolerance.

    A junction at b with pieces (sl, il) and (sr, ir) is dissolved iff
    |sl - sr| <= MERGE_RTOL * max(1, |sl|, |sr|) and the one-sided values
    differ by at most MERGE_RTOL * max(1, |value|). Junctions are visited left to right and a
    dissolved junction keeps the left piece's parameters, so inside a run of
    dissolved junctions every piece is compared with the run's first piece.
    Idempotent.
    """
    if not f.breakpoints.size:
        return f
    knots = np.concatenate(([0.0], f.breakpoints, [1.0]))
    slopes, intercepts = f.slopes, f.intercepts
    wide = knots[1:] - knots[:-1] > COALESCE_TOL
    if not wide.all():
        # A sliver is absorbed by its left neighbour, except at the left
        # edge, where the first piece reaching past COALESCE_TOL absorbs
        # every piece before it (those are all slivers).
        wide[np.argmax(knots[1:] > COALESCE_TOL)] = True
        kept = np.flatnonzero(wide)
        knots = np.concatenate(([0.0], knots[kept[1:]], [1.0]))
        slopes, intercepts = slopes[kept], intercepts[kept]
    b = knots[1:-1]
    merge = _same_line(slopes[:-1], intercepts[:-1], slopes[1:], intercepts[1:], b)
    if not merge.any():
        if knots.size == f.breakpoints.size + 2:
            return f
        return PwlFunction1D(b, slopes, intercepts)
    # While a run's first piece equals the piece left of a junction, the
    # adjacent test in `merge` is the sequential one. That holds at the start
    # of every run and along runs of identical pieces, so only a merge of two
    # different pieces starts a walk; the walk lasts until the run ends or
    # reaches a piece equal to its first one.
    keep = ~merge
    same = (slopes[:-1] == slopes[1:]) & (intercepts[:-1] == intercepts[1:])
    resume = 0
    for j in np.flatnonzero(merge & ~same).tolist():
        if j < resume:
            continue
        sh, ih = slopes[j], intercepts[j]
        k = j + 1
        while k < b.size and (slopes[k] != sh or intercepts[k] != ih):
            keep[k] = not _same_line(sh, ih, slopes[k + 1], intercepts[k + 1], b[k])
            k += 1
            if keep[k - 1]:
                break
        resume = k
    pieces = np.concatenate(([True], keep))
    return PwlFunction1D(b[keep], slopes[pieces], intercepts[pieces])


def _same_line(sl, il, sr, ir, b):
    """The junction merge test of `normalize`, elementwise or on scalars."""
    vl = sl * b + il
    vr = sr * b + ir
    tol_slope = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(sl), np.abs(sr)))
    tol_value = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(vl), np.abs(vr)))
    return (np.abs(sl - sr) <= tol_slope) & (np.abs(vl - vr) <= tol_value)


def affine_combine(coeffs, fs, bias=0.0) -> PwlFunction1D:
    """Normalized sum(coeffs[i] * fs[i]) + bias."""
    coeffs = [float(c) for c in coeffs]
    fs = list(fs)
    if len(coeffs) != len(fs) or not fs:
        raise ValueError("coeffs and fs must have the same nonzero length")
    merged = np.unique(np.concatenate([f.breakpoints for f in fs]))
    if merged.size:
        keep = np.concatenate(([True], np.diff(merged) > COALESCE_TOL))
        merged = merged[keep]
    starts = np.concatenate(([0.0], merged))
    ends = np.concatenate((merged, [1.0]))
    mids = 0.5 * (starts + ends)
    slopes = np.zeros_like(mids)
    intercepts = np.full_like(mids, float(bias))
    for c, f in zip(coeffs, fs):
        idx = f.piece_index(mids)
        slopes += c * f.slopes[idx]
        intercepts += c * f.intercepts[idx]
    return normalize(PwlFunction1D(merged, slopes, intercepts))


def activate(act, f: PwlFunction1D):
    """Compose act with f in one cut: (normalized act(f(alpha)), state trace).

    [0, 1] is cut at the knots of f and wherever a piece of f crosses an
    activation boundary strictly inside it, so the activation state is
    constant on each cell. New breakpoints of the output appear only there;
    jumps of the activation become jump breakpoints. A cell's state is taken
    at its midpoint, which gives crossing points the right-continuous
    boundary convention of the activation combined with the carrier's
    left-closed pieces.

    The trace lists the states over [0, 1] as (state, lo, hi) intervals that
    tile [0, 1] in order, adjacent intervals carrying distinct states, so
    every interior junction is a state change and the number of junctions is
    the raw per-unit transition count.
    """
    if not hasattr(act, "boundaries"):
        raise UnsupportedActivationError(
            f"activation {getattr(act, 'name', act)!r} has no piecewise-linear structure"
        )
    knots = np.concatenate(([0.0], f.breakpoints, [1.0]))
    cuts = knots
    if act.boundaries.size:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # near-zero slopes push crossings to inf; zero slopes give inf/nan
            crossings = (act.boundaries[None, :] - f.intercepts[:, None]) / f.slopes[:, None]
        inside = (
            (crossings > knots[:-1, None])
            & (crossings < knots[1:, None])
            & (f.slopes != 0.0)[:, None]
        )
        if inside.any():
            cuts = np.sort(np.concatenate((knots, crossings[inside])))
    cell = cuts[1:] > cuts[:-1]  # coinciding crossings leave empty cells
    lo, hi = cuts[:-1][cell], cuts[1:][cell]
    piece = f.breakpoints.searchsorted(lo, side="right")
    a, c = f.slopes[piece], f.intercepts[piece]
    # regrouping a * 0.5 * (lo + hi) moves states for subnormal slopes
    state = act.boundaries.searchsorted(a * 0.5 * (lo + hi) + c, side="right")
    m, q = act.slopes[state], act.intercepts[state]
    output = normalize(PwlFunction1D(lo[lo > 0.0], m * a, m * c + q))

    first = np.concatenate(([True], state[1:] != state[:-1])).nonzero()[0]
    last = np.concatenate((first[1:] - 1, [state.size - 1]))
    trace = list(zip((state[first] + 1).tolist(), lo[first].tolist(), hi[last].tolist()))
    return output, trace


def apply_activation(act, f: PwlFunction1D) -> PwlFunction1D:
    """Normalized composition act(f(alpha)); see `activate`."""
    return activate(act, f)[0]


def state_trace(act, f: PwlFunction1D):
    """Activation states of f over [0, 1] as a list of (state, lo, hi); see
    `activate`."""
    return activate(act, f)[1]


def state_change_points(trace) -> np.ndarray:
    """Alphas in (0, 1) where the traced state changes."""
    return np.array([lo for _, lo, _ in trace[1:]], dtype=float)
