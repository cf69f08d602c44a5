"""The four benchmark workloads, one per user-facing audit path.

Each workload builds its inputs from the seed in `setup`, names the ops of
round r in `round`, runs one op through the public API that the matching CLI
subcommand calls in `run` (the timed part), and checks that op's output in
`verify` (untimed) against the closed forms and oracles of `oracles.py`.
`verify` returns (problems, digest); the digest is the op's output bytes,
compared between traced and untraced runs.

The package is passed in as `ea` rather than imported here, so the runner
can time its import and can trace the calls made from these files.
"""

from __future__ import annotations

import csv
import hashlib
import io
from fractions import Fraction

import numpy as np

import oracles


def _md5(*parts) -> str:
    h = hashlib.md5()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """Defaults: no own checks, one op kind, round 0 traced."""

    name = ""

    def checks(self, ea, state):
        return []

    def kind(self, op):
        return self.name

    def trace_ops(self, state):
        return self.round(state, 0)


class Campaign(Workload):
    """`verify`: one op is a 1000-trial default campaign plus its CSV.

    Round r runs master seed seed + r, except that round 0 always runs the
    golden master seed 42, so that every run checks the CSV bytes against
    the frozen MD5."""

    name = "campaign"
    trials = 1000
    HEADER = "# expressivity-auditor v1"
    VERDICTS = (
        "breakpoints_le_transitions", "transitions_le_bound", "transition_subadditivity",
        "prefix_monotonicity", "union_bound", "per_unit_transition_cap", "overall",
    )
    COLUMNS = ("trial", "seed", "n", "t", "n_hidden", "depth", "omega", "B", "N", "bound") + VERDICTS

    def setup(self, ea, seed):
        return {"spec": ea.CampaignSpec(), "seed": seed}

    def round(self, state, r):
        return [state["seed"] + r if r else oracles.GOLDEN_CAMPAIGN_SEED]

    def trace_ops(self, state):
        return self.round(state, 0) + self.round(state, 1)

    def run(self, ea, state, master_seed):
        results = ea.run_campaign(state["spec"], self.trials, master_seed)
        buf = io.StringIO()
        ea.write_csv(results, buf)
        return buf.getvalue()

    def verify(self, ea, state, master_seed, text):
        problems = []
        digest = hashlib.md5(text.encode()).hexdigest()
        lines = text.splitlines()
        rows = list(csv.DictReader(lines[1:]))
        if lines[:2] != [self.HEADER, ",".join(self.COLUMNS)] or len(rows) != self.trials:
            problems.append(f"seed {master_seed}: bad CSV header or {len(rows)} rows")
        for row in rows:
            n_hidden, depth = int(row["n_hidden"]), int(row["depth"])
            cap = oracles.depth_width_cap(int(row["t"]), n_hidden, depth)
            b, n = int(row["B"]), int(row["N"])
            bad = [c for c in self.VERDICTS if row.get(c) != "pass"]
            if bad:
                problems.append(f"seed {master_seed} trial {row['trial']}: {bad} not pass")
            if not b <= n <= cap:
                problems.append(f"seed {master_seed} trial {row['trial']}: not B <= N <= cap")
            if row["omega"] != str(Fraction(n_hidden, depth)):
                problems.append(f"seed {master_seed} trial {row['trial']}: omega {row['omega']}")
            if row["bound"] != repr(oracles.as_float(cap)):
                problems.append(f"seed {master_seed} trial {row['trial']}: bound {row['bound']}")
        if master_seed == oracles.GOLDEN_CAMPAIGN_SEED and digest != oracles.GOLDEN_CAMPAIGN_MD5:
            problems.append(f"golden campaign CSV MD5 {digest} != {oracles.GOLDEN_CAMPAIGN_MD5}")
        return problems[:5], digest


class RestrictDeep(Workload):
    """`breakpoints`: restrict + break_points + audit_transition_inequalities
    on one large net per op.

    A round restricts each net of a fixed catalogue once: a relu and a
    hard-tanh random net (2 inputs, depth 16 x width 16, skip_prob 0.1),
    each on a unit-length chord through the centre of [0, 1]^2, all drawn
    from NET_SEED, and the tent^12, tent^13 and tent^14 sawtooth nets on
    [0, 1]. The catalogue does not depend on the seed, which draws only the
    alphas of the untimed comparison with `forward`: B, and with it the cost
    of an op, varies several-fold between random nets and between segments
    of one net, so inputs drawn per seed would make ops_per_s follow the
    seed more than the code. `campaign` covers seed-drawn nets.
    """

    name = "restrict_deep"
    NET_SEED = 2016
    RANDOM_NETS = ("relu", "hard-tanh")
    TENT_KS = (12, 13, 14)
    CHECK_ALPHAS = 64

    def setup(self, ea, seed):
        net_rng = np.random.default_rng(self.NET_SEED)
        cases = {}
        for act in self.RANDOM_NETS:
            net = ea.random_network(2, 16, widths=[16] * 16, skip_prob=0.1, activation=act,
                                    seed=int(net_rng.integers(2**63)))
            theta = net_rng.uniform(0.0, np.pi)
            half = 0.5 * np.array([np.cos(theta), np.sin(theta)])
            cases[act] = (net, ea.Segment(0.5 - half, 0.5 + half))
        for k in self.TENT_KS:
            cases[f"tent^{k}"] = (oracles.tent_network(ea, k), ea.Segment([0.0], [1.0]))
        alphas = np.random.default_rng(seed).random(self.CHECK_ALPHAS)
        return {"cases": cases, "alphas": alphas}

    def checks(self, ea, state):
        problems = oracles.check_tent_network(ea)
        for k in range(1, 7):
            r = ea.restrict(oracles.tent_network(ea, k), ea.Segment([0.0], [1.0]))
            if not np.array_equal(r.output.breakpoints, oracles.dyadic_breakpoints(k)):
                problems.append(f"tent^{k}: break points are not the dyadics j/2^{k}")
        return problems

    def kind(self, key):
        return key

    def round(self, state, r):
        return list(state["cases"])

    def run(self, ea, state, key):
        r = ea.restrict(*state["cases"][key])
        return r, ea.break_points(r), ea.audit_transition_inequalities(r)

    def verify(self, ea, state, key, result):
        r, b, reports = result
        (net, seg), alphas = state["cases"][key], state["alphas"]
        problems = [f"{key}: {rep.kind} {rep.verdict}" for rep in reports if rep.verdict != "pass"]
        if key.startswith("tent^"):
            k = int(key[5:])
            if b != 2**k - 1:
                problems.append(f"tent^{k}: B = {b}, want {2**k - 1}")
            elif not np.array_equal(r.output.breakpoints, oracles.dyadic_breakpoints(k)):
                problems.append(f"tent^{k}: break points are not the dyadics j/2^{k}")
        want = ea.forward(net, seg.point(alphas)).output
        worst = float(np.max(np.abs(r.output.eval(alphas) - want)))
        if not worst <= 1e-8:
            problems.append(f"{key}: |restrict - forward| = {worst:.3g} > 1e-8")
        f = r.output
        digest = _md5(b, f.breakpoints.tobytes(), f.slopes.tobytes(), f.intercepts.tobytes(),
                      [(x.kind, x.measured, x.bound, x.margin, x.verdict) for x in reports])
        return problems, digest


class Floors(Workload):
    """`lower-bound`: one floor evaluation per op with BoundConfig(seed)."""

    name = "floors"
    CASES = (
        ("curvature", "poly_a", None),
        ("curvature", "sq_norm", 4),
        ("cor2", "sq_norm", 2),
    )
    COR2_DEPTH = 3
    COR2_EPSILON = 1e-4

    def setup(self, ea, seed):
        return {
            "cfg": ea.BoundConfig(seed=seed),
            "targets": {(name, n): ea.catalog(name, n) for _, name, n in self.CASES},
        }

    def checks(self, ea, state):
        state["poly_a_oracle"] = oracles.poly_a_grid_oracle()
        return []

    def kind(self, case):
        kind, name, n = case
        return f"{kind} {name}" + (f"({n})" if n else "")

    def round(self, state, r):
        return list(self.CASES)

    def trace_ops(self, state):
        return self.round(state, 0) + self.round(state, 1)

    def run(self, ea, state, case):
        kind, name, n = case
        g = state["targets"][(name, n)]
        if kind == "curvature":
            return ea.curvature_lower_bound(g, state["cfg"])
        return ea.depth_scaled_lower_bound(g, self.COR2_DEPTH, self.COR2_EPSILON, state["cfg"])

    def verify(self, ea, state, case, res):
        kind, name, n = case
        if kind == "cor2":
            want = oracles.cor2_sq_norm2(self.COR2_DEPTH, self.COR2_EPSILON)
            ok = abs(res - want) <= 1e-12 * want
            return ([] if ok else [f"cor2 sq_norm(2): {res!r} != {want!r}"]), _md5(res)
        digest = _md5(res.value, res.hidden_units_lb, res.best_pair[0].tobytes(),
                      res.best_pair[1].tobytes())
        if name == "sq_norm":
            want = oracles.sq_norm_multiplier(n)
            ok = abs(res.value - want) <= 1e-12 * want
            return ([] if ok else [f"sq_norm({n}): {res.value!r} != {want!r}"]), digest
        oracle = state["poly_a_oracle"]
        rel = abs(res.value - oracle) / oracle
        return ([] if rel <= 0.01 else [f"poly_a: {res.value} vs oracle {oracle} ({rel:.2%})"]), digest


class Swap(Workload):
    """`swap`: one sigmoid vs sigmoid-q(32) audit of a depth-5 x width-20
    net on 1e5 sampled points per op."""

    name = "swap"
    SAMPLES = 100_000
    DEPTH, WIDTH, A, BITS = 5, 20, 1.0, 32

    def setup(self, ea, seed):
        net = ea.random_network(2, self.DEPTH, widths=(self.WIDTH,) * self.DEPTH,
                                weight_bound=self.A, activation="sigmoid", seed=seed)
        return {"net": net, "seed": seed}

    def round(self, state, r):
        return [state["seed"] + r]

    def trace_ops(self, state):
        return [op for r in range(4) for op in self.round(state, r)]

    def run(self, ea, state, sampler_seed):
        return ea.swap_audit(state["net"], "sigmoid", f"sigmoid-q({self.BITS})", A=self.A,
                             sampler=ea.Sampler(samples=self.SAMPLES, seed=sampler_seed))

    def verify(self, ea, state, sampler_seed, audit):
        fields = (audit.empirical_sup, audit.bound, audit.margin, audit.gap, audit.lipschitz)
        problems = []
        if not all(np.isfinite(fields)):
            problems.append(f"sampler seed {sampler_seed}: non-finite output {fields}")
        if not audit.margin >= 0.0:
            problems.append(f"sampler seed {sampler_seed}: margin {audit.margin} < 0")
        cap = oracles.swap_cap(self.BITS, 0.25, self.A, self.WIDTH, self.DEPTH)
        if audit.samples != self.SAMPLES or audit.lipschitz != 0.25 or not audit.bound <= cap:
            problems.append(f"sampler seed {sampler_seed}: bound {audit.bound} vs cap {cap}, "
                            f"samples {audit.samples}, lipschitz {audit.lipschitz}")
        return problems, _md5(audit.samples, *fields)


WORKLOADS = {w.name: w for w in (Campaign(), RestrictDeep(), Floors(), Swap())}
