"""Command-line surface.

Subcommands: analyze (depth/width profile and break-point cap), breakpoints
(restrict to a segment and check the counting sandwich), verify (randomized
audit campaign to CSV), lower-bound (curvature / Laplacian / convexity floors
for a catalog target), swap (activation-swap deviation audit).

Exit codes: 0 success, 1 input error, 2 a checked bound was violated. With
--json every command prints exactly one JSON object with sorted keys, so
identical flags and seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .activations import PwlActivation, builtin_activation
from .approx import Sampler, swap_audit
from .bounds import (
    ALPHA_GRID,
    PAIR_SAMPLES,
    REFINE_ITERS,
    BoundConfig,
    breakpoint_upper_bound,
    breakpoint_upper_bound_exact,
    curvature_lower_bound,
    depth_bound_vs_state_bound,
    depth_scaled_lower_bound,
    laplacian_lower_bound,
    strong_convexity_lower_bound,
)
from .campaign import CampaignSpec, run_campaign, violations, write_csv
from .errors import ExpressivityError, check_int
from .netgraph import Segment, depth_profile, load_network
from .report import PASS, _json_safe
from .restriction import break_points, restrict, transitions
from .targets import catalog

_TARGET_RE = re.compile(r"^([a-z0-9_]+)(?:\((\d+)\))?$")


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 2 for bound violations
        raise _ArgError(message)


def _parse_point(text: str) -> np.ndarray:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty point")
    return np.array(vals)


def _parse_target(text: str):
    m = _TARGET_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed target {text!r}; use e.g. sq_norm or sq_norm(3)")
    name, dim = m.group(1), m.group(2)
    return catalog(name, int(dim) if dim else None)


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(_json_safe(payload), sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _infer_t(net, t_flag):
    if t_flag is not None:
        return check_int("--t", t_flag, 1)
    if all(isinstance(u.activation, PwlActivation) for u in net.units):
        return max(u.activation.t for u in net.units)
    raise ValueError("network has non-piecewise-linear activations; pass --t explicitly")


def cmd_analyze(args) -> int:
    net = load_network(args.net)
    prof = depth_profile(net)
    t = _infer_t(net, args.t)
    cap = breakpoint_upper_bound(t, prof.width, prof.depth)
    check = depth_bound_vs_state_bound(t, prof.depth, len(net.units))
    payload = {
        "command": "analyze",
        "depth": prof.depth,
        "omega": str(prof.width),
        "layer_widths": list(prof.layer_widths),
        "n_hidden": len(net.units),
        "t": t,
        "breakpoint_bound": cap,
        "bound_overflowed": not np.isfinite(cap),
        "depth_vs_state": check.to_dict(),
    }
    _emit(args, payload, [
        f"depth d_f        : {prof.depth}",
        f"width omega_f    : {prof.width}",
        f"layer widths     : {list(prof.layer_widths)}",
        f"hidden units     : {len(net.units)}",
        f"pieces t         : {t}",
        f"break-point bound: {cap}",
        f"depth vs state   : {check.verdict} ({check.measured} <= {check.bound})",
    ])
    return 0 if check.verdict == PASS else 2


def cmd_breakpoints(args) -> int:
    net = load_network(args.net)
    seg = Segment(_parse_point(args.seg_from), _parse_point(args.seg_to))
    r = restrict(net, seg)
    prof = depth_profile(net)
    t = _infer_t(net, args.t)
    b = break_points(r)
    n_all = transitions(r, tuple(net.unit_map))
    cap = breakpoint_upper_bound_exact(t, prof.width, prof.depth)
    capf = breakpoint_upper_bound(t, prof.width, prof.depth)
    ok = b <= n_all <= cap
    payload = {
        "command": "breakpoints",
        "B": b,
        "N": n_all,
        "bound": capf,
        "t": t,
        "omega": str(prof.width),
        "depth": prof.depth,
        "sandwich": "pass" if ok else "fail",
    }
    _emit(args, payload, [
        f"break points B   : {b}",
        f"transitions N    : {n_all}",
        f"break-point bound: {capf}",
        f"sandwich B<=N<=UB: {'pass' if ok else 'fail'}",
    ])
    return 0 if ok else 2


def cmd_verify(args) -> int:
    if args.spec:
        with open(args.spec) as fh:
            spec = CampaignSpec.from_json(json.load(fh))
    else:
        spec = CampaignSpec()
    if args.json and args.out == "-":
        raise ValueError("--json needs --out FILE so the JSON object stays alone on stdout")
    results = run_campaign(spec, args.trials, args.seed)
    bad = violations(results)
    if args.out == "-":
        write_csv(results, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_csv(results, fh)
    payload = {
        "command": "verify",
        "trials": args.trials,
        "seed": args.seed,
        "violations": len(bad),
        "out": args.out,
    }
    _emit(args, payload, [f"trials {args.trials}, violations {len(bad)} -> {args.out}"])
    return 2 if bad else 0


def cmd_lower_bound(args) -> int:
    g = _parse_target(args.target)
    cfg = BoundConfig(epsilon=args.epsilon, t=args.t, seed=args.seed)
    provenance = (
        f"alpha_grid={ALPHA_GRID} refine_iters={REFINE_ITERS} "
        f"pair_samples={PAIR_SAMPLES} seed={cfg.seed}"
    )
    payload = {
        "command": "lower-bound",
        "target": g.name,
        "n": g.n,
        "epsilon": args.epsilon,
        "t": args.t,
        "theorem": args.theorem,
        "search": "estimate",
        "provenance": provenance,
    }
    lines = [f"target {g.name} (n={g.n}), epsilon={args.epsilon}, t={args.t}"]
    if args.theorem in ("1", "weak"):
        res = curvature_lower_bound(g, cfg)
        payload.update({
            "multiplier": res.value,
            "piece_floor": res.value / args.epsilon**0.5,
            "hidden_units_lb": res.hidden_units_lb,
            "best_pair": [list(res.best_pair[0]), list(res.best_pair[1])],
        })
        lines.append(f"curvature multiplier : {res.value:.6g} (pieces >= multiplier/sqrt(eps))")
        lines.append(f"piece floor          : {res.value / args.epsilon ** 0.5:.6g}")
        lines.append(f"hidden-unit floor    : {res.hidden_units_lb:.6g}")
        if g.reference_multiplier is not None:
            payload["reference_multiplier"] = g.reference_multiplier
            lines.append(
                f"reference multiplier : {g.reference_multiplier} (reported figure, not asserted)"
            )
    elif args.theorem == "2":
        res = laplacian_lower_bound(g, args.epsilon, args.t)
        payload.update({
            "multiplier": res.multiplier,
            "hidden_units_lb": res.hidden_units_lb,
            "max_abs_laplacian": res.max_abs_laplacian,
        })
        lines.append(f"laplacian multiplier : {res.multiplier:.6g}")
        lines.append(f"max |laplacian|      : {res.max_abs_laplacian:.6g}")
        lines.append(f"hidden-unit floor    : {res.hidden_units_lb:.6g}")
    elif args.theorem == "cor1":
        if g.mu is None:
            raise ValueError(f"target {g.name} has no strong-convexity parameter")
        lb = strong_convexity_lower_bound(g.mu, g.domain.diameter, args.epsilon, args.t)
        payload.update({"mu": g.mu, "diameter": g.domain.diameter, "hidden_units_lb": lb})
        lines.append(f"mu={g.mu}, diameter={g.domain.diameter:.6g}")
        lines.append(f"hidden-unit floor    : {lb:.6g}")
    elif args.theorem == "cor2":
        if args.depth is None:
            raise ValueError("--depth is required with --theorem cor2")
        lb = depth_scaled_lower_bound(g, args.depth, args.epsilon, cfg)
        payload.update({"depth": args.depth, "hidden_units_lb": lb})
        lines.append(f"hidden-unit floor at depth {args.depth}: {lb:.6g}")
    _emit(args, payload, lines)
    return 0


def cmd_swap(args) -> int:
    net = load_network(args.net)
    sampler = Sampler(samples=args.samples, seed=args.seed)
    audit = swap_audit(net, builtin_activation(args.act1), builtin_activation(args.act2),
                       args.A, sampler)
    payload = {
        "command": "swap",
        "act1": args.act1,
        "act2": args.act2,
        "A": args.A,
        "samples": audit.samples,
        "empirical_sup": audit.empirical_sup,
        "bound": audit.bound,
        "margin": audit.margin,
        "gap": audit.gap,
        "lipschitz": audit.lipschitz,
    }
    _emit(args, payload, [
        f"empirical sup : {audit.empirical_sup:.6g} ({audit.samples} samples)",
        f"bound         : {audit.bound:.6g} (gap {audit.gap:.6g}, lipschitz {audit.lipschitz})",
        f"margin        : {audit.margin:.6g}",
    ])
    return 0 if audit.margin >= 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="expressivity-auditor",
                     description="Break-point accounting and size bounds for "
                                 "piecewise-linear feedforward networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="depth/width profile and break-point cap")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--t", type=int, default=None, help="activation piece count (default: inferred)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("breakpoints", help="segment restriction and counting sandwich")
    p.add_argument("--net", required=True)
    p.add_argument("--from", dest="seg_from", required=True, help="comma-separated start point")
    p.add_argument("--to", dest="seg_to", required=True, help="comma-separated end point")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_breakpoints)

    p = sub.add_parser("verify", help="randomized audit campaign")
    p.add_argument("--spec", default=None, help="campaign JSON (default: built-in campaign)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-", help="CSV path ('-' = stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lower-bound", help="size floors for a catalog target")
    p.add_argument("--target", required=True, help="sq_norm, sq_norm(N), poly_a, poly_g1, poly_g2")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--theorem", choices=("1", "2", "cor1", "cor2", "weak"), default="1",
                   help="which floor to evaluate")
    p.add_argument("--depth", type=int, default=None, help="network depth (cor2 only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("swap", help="activation-swap deviation audit")
    p.add_argument("--net", required=True)
    p.add_argument("--act1", required=True, help="baseline activation name")
    p.add_argument("--act2", required=True, help="replacement activation name")
    p.add_argument("--A", type=float, required=True, help="weight magnitude cap")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_swap)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_ArgError, ExpressivityError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
