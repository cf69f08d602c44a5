"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces each traced public function with a wrapper, at its
defining module or class and at every namespace of the package and of the
benchmark that imported the same object (for example `campaign.restrict`
and `restriction.depth_profile`), so calls between modules are caught too.
A wrapper records one span (name, start, end, parent span, op id) in memory
and, for some functions, work counts read from its arguments and result.
A function's inclusive time `.s` counts only its outermost spans, so calls
nested in another call of the same function (golden_min inside the
coordinate-ascent objective) are not counted twice; `.self_s` is each span's
duration minus its direct children's.
`Tracer.remove` restores every original; timed runs happen only after it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter

import numpy as np


def _forward_points(counts, args, result):
    shape = np.shape(args[1])
    counts["netgraph.forward.points"] += shape[0] if len(shape) == 2 else 1


def _restriction_work(counts, args, r):
    counts["restriction.units"] += len(r.unit_output)
    counts["restriction.breakpoints"] += r.output.n_breakpoints
    counts["restriction.pieces"] += sum(f.n_pieces for f in r.unit_output.values())
    # From the state traces, not `r.change_points`: reading that cached
    # property here would move its cost out of the traced `transitions`.
    counts["restriction.crossings"] += sum(len(t) - 1 for t in r.state_traces.values())


def _normalize_pieces(counts, args, result):
    counts["pwl.normalize.pieces_in"] += args[0].n_pieces
    counts["pwl.normalize.pieces_out"] += result.n_pieces


def _hessian_points(counts, args, result):
    shape = np.shape(args[1])
    counts["targets.hessian.points"] += math.prod(shape[:-1]) if len(shape) > 1 else 1


def _lipschitz_points(counts, args, result):
    counts["activations.LipschitzActivation.value.points"] += int(np.size(args[1]))


# (metric name, module, attribute path, work counter or None)
SPANS = (
    ("campaign.run_trial", "campaign", "run_trial", None),
    ("campaign.write_csv", "campaign", "write_csv", None),
    ("netgraph.validate", "netgraph", "validate", None),
    ("netgraph.depth_profile", "netgraph", "depth_profile", None),
    ("netgraph.hidden_ancestors", "netgraph", "hidden_ancestors", None),
    ("netgraph.random_network", "netgraph", "random_network", None),
    ("netgraph.forward", "netgraph", "forward", _forward_points),
    ("restriction.restrict", "restriction", "restrict", _restriction_work),
    ("restriction.audit_transition_inequalities", "restriction",
     "audit_transition_inequalities", None),
    ("restriction.transitions", "restriction", "transitions", None),
    ("pwl.affine_combine", "pwl", "affine_combine", None),
    ("pwl.apply_activation", "pwl", "apply_activation", None),
    ("pwl.state_trace", "pwl", "state_trace", None),
    ("pwl.normalize", "pwl", "normalize", _normalize_pieces),
    ("bounds.curvature_lower_bound", "bounds", "curvature_lower_bound", None),
    ("bounds.depth_scaled_lower_bound", "bounds", "depth_scaled_lower_bound", None),
    ("bounds.min_curvature", "bounds", "min_curvature", None),
    ("bounds.breakpoint_upper_bound_exact", "bounds", "breakpoint_upper_bound_exact", None),
    ("search.golden_min", "search", "golden_min", None),
    ("search.coordinate_ascent", "search", "coordinate_ascent", None),
    ("targets.hessian", "targets", "TargetFunction.hessian", _hessian_points),
    ("linalg.eig2", "linalg", "eig2", None),
    ("approx.swap_audit", "approx", "swap_audit", None),
    ("activations.gap", "activations", "gap", None),
    ("activations.LipschitzActivation.value", "activations", "LipschitzActivation.value",
     _lipschitz_points),
)
# Counted, not spanned: tens of thousands of calls per op.
COUNTS = (
    ("pwl.PwlFunction1D.inits", "pwl", "PwlFunction1D.__post_init__"),
)
WORK = (
    "netgraph.forward.points", "restriction.units", "restriction.breakpoints",
    "restriction.pieces", "restriction.crossings", "pwl.normalize.pieces_in",
    "pwl.normalize.pieces_out", "targets.hessian.points",
    "activations.LipschitzActivation.value.points",
)
# Percentiles of per-trial time; at least 10 of the 2000 traced trials lie
# beyond the 99th.
TRIAL_SPAN = "campaign.run_trial"


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric `Tracer.metrics` reports."""
    out = []
    for name, *_ in SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{TRIAL_SPAN}.p50_ms", "ms", "lower"), (f"{TRIAL_SPAN}.p99_ms", "ms", "lower")]
    out += [(name, "count", "lower") for name, *_ in COUNTS]
    out += [(name, "count", "lower") for name in WORK]
    out += [("pwl.cuts_per_unit", "ratio", "lower"), ("pwl.normalize.keep_ratio", "ratio", "higher"),
            ("trace.overhead_pct", "%", "lower")]
    return out


class Tracer:
    def __init__(self, package: str, extra_modules=()):
        self.package = package
        self.extra_modules = tuple(extra_modules)
        self.names = [name for name, *_ in SPANS] + ["op"]
        # [name index, start, end, parent index, op id, child time, nested]
        self.spans = []
        self.stack = []
        self.active = [0] * len(self.names)
        self.op = None
        self.counts = dict.fromkeys([name for name, *_ in COUNTS] + list(WORK), 0)
        self._patches = []

    def _spanned(self, idx, fn, work):
        spans, stack, active, counts, tracer = self.spans, self.stack, self.active, self.counts, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [idx, 0.0, 0.0, parent, tracer.op, 0.0, active[idx] > 0]
            stack.append(len(spans))
            spans.append(rec)
            active[idx] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[idx] -= 1
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if work is not None:
                work(counts, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _namespaces(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == self.package or n.startswith(self.package + ".")]
        return mods + [sys.modules[n] for n in self.extra_modules]

    def _patch(self, module, path, make):
        owner = sys.modules[f"{self.package}.{module}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(original)
        # A method is reached only through its class (and aliases in it, such
        # as `__call__ = value`); a function through every importer's globals.
        for ns in [owner] if cls_path else self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def install(self):
        for idx, (_, module, path, work) in enumerate(SPANS):
            self._patch(module, path, lambda fn, idx=idx, work=work: self._spanned(idx, fn, work))
        for name, module, path in COUNTS:
            self._patch(module, path, lambda fn, name=name: self._counted(name, fn))

    def remove(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def run_op(self, op_id, fn, *args):
        """fn(*args) inside a root span named "op" carrying op_id."""
        self.op = op_id
        try:
            return self._spanned(len(self.names) - 1, fn, None)(*args)
        finally:
            self.op = None

    def metrics(self) -> dict:
        spans = np.array([rec[:3] + rec[5:] for rec in self.spans], dtype=float).reshape(-1, 5)
        idx = spans[:, 0].astype(int)
        dur = spans[:, 2] - spans[:, 1]
        n = len(self.names)
        calls = np.bincount(idx, minlength=n)
        total = np.bincount(idx, weights=dur * (spans[:, 4] == 0), minlength=n)
        own = np.bincount(idx, weights=dur - spans[:, 3], minlength=n)
        out = {}
        for i, (name, *_) in enumerate(SPANS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        trials = np.sort(dur[idx == self.names.index(TRIAL_SPAN)]) * 1e3
        for q in (50, 99):
            rank = max(0, math.ceil(q / 100 * len(trials)) - 1)
            out[f"{TRIAL_SPAN}.p{q}_ms"] = float(trials[rank]) if len(trials) else 0.0
        out.update(self.counts)
        units = self.counts["restriction.units"]
        cuts = out["pwl.apply_activation.calls"] + out["pwl.state_trace.calls"]
        out["pwl.cuts_per_unit"] = cuts / units if units else 0.0
        p_in = self.counts["pwl.normalize.pieces_in"]
        out["pwl.normalize.keep_ratio"] = self.counts["pwl.normalize.pieces_out"] / p_in if p_in else 0.0
        return out

    def calls_by_op(self) -> dict:
        """{op id: {span name: calls}} for spans inside an op."""
        out = {}
        for rec in self.spans:
            if rec[4] is not None and rec[0] < len(SPANS):
                per_op = out.setdefault(rec[4], {})
                name = self.names[rec[0]]
                per_op[name] = per_op.get(name, 0) + 1
        return out

    def write(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, names=self.names, columns=["name", "start_s", "end_s", "parent", "op"],
                   spans=[[r[0], round(r[1] - t0, 7), round(r[2] - t0, 7), r[3], r[4]]
                          for r in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")

