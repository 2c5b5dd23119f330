"""Command-line front end.

Subcommands: shadow, conjugate, analyze, counterexample, suite.  Reports
are JSON only, written to stdout (or --out).  Tolerances are always given
as p-power strings like ``p^-3``; no floating point appears anywhere in
the interface or the reports.  All randomness flows through seeded
instances of random.Random (the Mersenne Twister), so reports are
deterministic for a fixed seed.

Exit codes: 0 all checks passed, 1 an invariant failed, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import analysis, conjugacy, counterexample, dynamics, shadowing
from .errors import DeltaTooSmall, PadicDynamicsError
from .padic import (
    NormValue,
    PrecisionContext,
    format_norm,
    parse_norm,
    parse_padic,
)

PRNG_NAME = "random.Random (Mersenne Twister)"


# ---------------------------------------------------------------------------
# map specification strings: name(param=value, ...)
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")
_PARAM_SPLIT = re.compile(r",(?=\s*[A-Za-z_][A-Za-z0-9_]*=)")


def parse_map_spec(text: str):
    """Split ``name(k=v, ...)`` into (name, params dict).

    Values may be integers, p-power norms (``p^-2``) or canonical p-adic
    literals (``p:3;u:0;d:1,2``); the p-adic digit commas are handled by
    splitting only before ``key=`` boundaries.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise PadicDynamicsError(f"bad map spec {text!r}")
    name, body = m.group(1), m.group(2)
    params = {}
    if body and body.strip():
        for chunk in _PARAM_SPLIT.split(body):
            key, _, val = chunk.partition("=")
            if not _:
                raise PadicDynamicsError(f"bad parameter chunk {chunk!r}")
            params[key.strip()] = _parse_value(val.strip())
    return name, params


def _parse_value(text: str):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if text.startswith("p:"):
        return parse_padic(text)
    return text


def build_map(spec: str, ctx: PrecisionContext):
    """Instantiate a catalog map (or a furno composition) from a spec string."""
    name, params = parse_map_spec(spec)
    if name == "furno":
        k = int(params.pop("k", 1))
        iso = params.pop("iso", "triangular")
        seed = int(params.pop("seed", 0))
        w = dynamics.bijective_isometry(ctx, iso, seed)
        return dynamics.furno_compose(w, k), dynamics.locally_scaling_inverses(w, k)
    f = dynamics.builtin_map(name, ctx, **params)
    family = None
    if name in ("shift_zp", "shift_qp"):
        family = dynamics.shift_right_inverses(ctx)
    return f, family


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _norm_str(n) -> str:
    return format_norm(n) if isinstance(n, NormValue) else str(n)


def _frac_str(x) -> str:
    return "none" if x is None else str(Fraction(x))


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _ctx_from_args(args) -> PrecisionContext:
    if getattr(args, "window", None):
        try:
            lo, hi = (int(t) for t in args.window.split(":"))
        except ValueError:
            raise PadicDynamicsError(
                f"bad --window {args.window!r}: expected lo:hi, two "
                "integer exponents") from None
        return PrecisionContext(args.p, args.digits, lo, hi, "Qp")
    return PrecisionContext(args.p, args.digits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_shadow(args) -> int:
    ctx = _ctx_from_args(args)
    delta = parse_norm(args.delta, ctx.prime)
    f, family = build_map(args.map, ctx)
    if family is None:
        raise PadicDynamicsError(f"map {args.map!r} has no right-inverse family")
    # the solver point must shadow as well as the oracle's best point; the
    # errors are certified on the digits that survive `length` steps of the
    # map, and with none left the comparison shows nothing
    agree_digits = ctx.total_digits - args.length * f.precision_loss
    if args.oracle and agree_digits < 1:
        raise PadicDynamicsError(
            f"--oracle would compare {agree_digits} digits: {args.length} "
            f"steps of {f.name} lose all {ctx.total_digits}; use a shorter "
            "--length")
    records = []
    ok = True
    for i in range(args.orbits):
        seed = args.seed + i
        orbit = shadowing.random_pseudo_orbit(f, delta, args.length, seed)
        res = shadowing.solve_shadowing(f, family, orbit)
        rec = {
            "seed": seed,
            "achieved_bound": _norm_str(res.achieved_bound),
            "bound_ok": res.bound_ok,
            "forward_checked": res.forward_checked,
            "certified_digits": res.certified_digits,
        }
        if args.oracle:
            point, err = shadowing.brute_force_shadow(f, orbit)
            rec["oracle_error"] = _norm_str(err)
            rec["oracle_agree_digits"] = agree_digits
            rec["oracle_agrees"] = \
                shadowing.orbit_error(f, orbit, res.point) == err
            ok = ok and rec["oracle_agrees"]
        ok = ok and res.bound_ok
        records.append(rec)
    report = {
        "command": "shadow",
        "config": {"p": ctx.prime, "digits": ctx.total_digits, "map": args.map,
                   "delta": args.delta, "length": args.length,
                   "orbits": args.orbits, "seed": args.seed, "prng": PRNG_NAME},
        "records": records,
        "summary": {"ok": ok},
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_conjugate(args) -> int:
    ctx = _ctx_from_args(args)
    delta = parse_norm(args.delta, ctx.prime)
    records = []
    ok = True
    if args.kind == "thm1":
        f, family = build_map(args.map, ctx)
        # h is certified to p^-depth only on the digits f leaves certified
        max_depth = ctx.total_digits - f.precision_loss
        if args.depth > max_depth:
            raise PadicDynamicsError(
                f"--depth {args.depth} exceeds {max_depth} = digits - "
                f"precision loss of {f.name}: the defect cannot reach "
                f"p^-{args.depth}; use a smaller --depth")
        for i in range(args.count):
            seed = args.seed + i
            phi = dynamics.make_lipschitz_perturbation(ctx, "digit_local",
                                                       delta, seed)
            g = dynamics.perturb(f, phi)
            h = conjugacy.build_conjugacy_thm1(f, family, g, delta, args.depth)
            hinv = conjugacy.build_inverse_conjugacy_thm1(f, family, g, delta,
                                                          args.depth)
            rep = conjugacy.verify_conjugacy(f, g, h)
            # h-tilde o h = id holds to the recursion depth (criterion 4)
            trip_digits = min(args.depth, ctx.total_digits)
            cert = ctx.prime ** trip_digits
            back = hinv.table
            round_trip = all((back[y] - x) % cert == 0
                             for x, y in enumerate(h.table))
            rec = {"seed": seed,
                   "max_defect": _norm_str(rep.max_defect),
                   "closeness": _norm_str(rep.closeness),
                   "injective": rep.injective,
                   "round_trip_digits": trip_digits,
                   "round_trip_ok": round_trip}
            good = (rep.max_defect <= NormValue(ctx.prime, args.depth)
                    and rep.injective and round_trip)
            ok = ok and good
            records.append(rec)
    elif args.kind == "thm3":
        R, _ = build_map(args.map, ctx)
        for i in range(args.count):
            seed = args.seed + i
            phi = dynamics.make_lipschitz_perturbation(ctx, "digit_local",
                                                       delta, seed)
            T = dynamics.perturb(R, phi)
            h = conjugacy.build_conjugacy_thm3(R, T, args.depth, delta)
            rep = conjugacy.verify_conjugacy(R, T, h)
            rec = {"seed": seed,
                   "max_defect": _norm_str(rep.max_defect),
                   "closeness": _norm_str(rep.closeness),
                   "bijective": rep.injective}
            good = rep.max_defect.is_zero and rep.injective \
                and rep.closeness <= delta
            ok = ok and good
            records.append(rec)
    elif args.kind == "homogeneity":
        # z = y + step * r is within delta of y; a delta above 1 admits
        # every z
        if delta.is_zero:
            raise DeltaTooSmall("homogeneity needs a nonzero --delta")
        step = ctx.prime ** max(delta.exponent - ctx.u_min + 1, 0)
        span = ctx.modulus // step
        if span < 2:
            raise DeltaTooSmall(
                f"--delta {args.delta} admits no z != y at {ctx.total_digits} "
                "digits; use a larger --delta")
        rng = random.Random(args.seed)
        for i in range(args.count):
            n = rng.randrange(2, 11)
            ys, zs = [], []
            while len(ys) < n:
                y = rng.randrange(ctx.modulus)
                z = (y + step * rng.randrange(span)) % ctx.modulus
                if y in ys or z in zs:
                    continue
                ys.append(y)
                zs.append(z)
            phi = conjugacy.homogeneity_homeomorphism(ctx, ys, zs, delta)
            matched = all(phi(y) == z for y, z in zip(ys, zs))
            good = matched and phi.is_bijective() \
                and phi.closeness.as_fraction() < 3 * delta.as_fraction()
            ok = ok and good
            records.append({"case": i, "pairs": n, "matched": matched,
                            "closeness": _norm_str(phi.closeness)})
    else:
        raise PadicDynamicsError(f"unknown conjugacy kind {args.kind!r}")
    report = {
        "command": "conjugate",
        "config": {"kind": args.kind, "p": ctx.prime, "digits": ctx.total_digits,
                   "map": args.map, "delta": args.delta, "depth": args.depth,
                   "count": args.count, "seed": args.seed, "prng": PRNG_NAME},
        "records": records,
        "summary": {"ok": ok},
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    ctx = _ctx_from_args(args)
    f, _family = build_map(args.map, ctx)
    checks = args.checks.split(",")
    # every scan covers all pairs of residues (or raises BudgetExceeded)
    pairs = ctx.modulus * (ctx.modulus - 1) // 2
    records = {}
    ok = True
    for check in checks:
        check = check.strip()
        if check == "lipschitz":
            est = analysis.estimate_lipschitz(f)
            records["lipschitz"] = {
                "c1_lower": _frac_str(est.c1_lower),
                "c2_upper": _frac_str(est.c2_upper),
                "exhaustive": est.exhaustive,
                "pairs": est.pairs,
                "witness_low": est.witness_low,
                "witness_high": est.witness_high,
            }
        elif check == "scaling":
            prof = analysis.scaling_profile(f)
            records["scaling"] = {
                "consistent": prof.consistent,
                "exhaustive": True,
                "profile": {str(k): v for k, v in sorted(prof.table.items())},
                "witness": prof.witness,
            }
            ok = ok and prof.consistent
        elif check == "openness":
            rho = analysis.image_openness(f)
            records["openness"] = {"rho": _norm_str(rho) if rho else "none"}
        elif check == "expansivity":
            const, witness = analysis.expansivity_constant(f, args.horizon)
            records["expansivity"] = {
                "constant": _norm_str(const),
                "horizon": args.horizon,
                "exhaustive": True,
                "pairs": pairs,
                "witness": witness,
            }
        elif check.startswith("locally_scaling"):
            k = args.k
            m = args.m
            good, witness = analysis.check_locally_scaling(f, k, m)
            records["locally_scaling"] = {"k": k, "m": m, "ok": good,
                                          "exhaustive": True, "pairs": pairs,
                                          "witness": witness}
            ok = ok and good
        else:
            raise PadicDynamicsError(f"unknown check {check!r}")
    report = {
        "command": "analyze",
        "config": {"p": ctx.prime, "digits": ctx.total_digits, "map": args.map,
                   "checks": args.checks},
        "records": records,
        "summary": {"ok": ok},
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_counterexample(args) -> int:
    delta = parse_norm(args.delta, args.p)
    eps = parse_norm(args.eps, args.p)
    # each demo builds its own chart and drops it on return, so the two
    # charts are never alive together
    res = counterexample.demonstrate_non_shadowing(
        args.p, args.depth, delta, eps, "even", require_witness=False)
    control = counterexample.demonstrate_non_shadowing(
        args.p, args.depth, delta, eps, "full", require_witness=False)
    ok = (not res.shadowed) and control.shadowed
    report = {
        "command": "counterexample",
        "config": {"p": args.p, "depth": args.depth, "delta": args.delta,
                   "eps": args.eps, "prng": PRNG_NAME},
        "records": {
            "even": {"q": res.q, "best_error": _norm_str(res.best_error_s),
                     "shadowed": res.shadowed},
            "full_control": {"q": control.q,
                             "best_error": _norm_str(control.best_error_s),
                             "shadowed": control.shadowed},
        },
        "summary": {"ok": ok},
    }
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_suite(args) -> int:
    """Reduced cross-module battery; exit 0 only if everything passes."""
    p, N = 2, 8
    ctx = PrecisionContext(p, N)
    results = {}

    f = dynamics.builtin_map("shift_zp", ctx)
    fam = dynamics.shift_right_inverses(ctx)
    delta = NormValue(p, 2)
    orbit = shadowing.random_pseudo_orbit(f, delta, 12, args.seed)
    res = shadowing.solve_shadowing(f, fam, orbit)
    results["shadow"] = res.bound_ok

    phi = dynamics.make_lipschitz_perturbation(ctx, "digit_local", delta,
                                               args.seed)
    g = dynamics.perturb(f, phi)
    h = conjugacy.build_conjugacy_thm1(f, fam, g, delta, 4)
    rep = conjugacy.verify_conjugacy(f, g, h)
    results["conjugate"] = bool(rep.max_defect <= NormValue(p, 4)
                                and rep.injective)

    R = dynamics.builtin_map("affine", ctx, v=2, w=1)
    est = analysis.estimate_lipschitz(R)
    results["analyze"] = est.c1_lower == est.c2_upper == Fraction(1, 2)

    T = dynamics.perturb(
        R, dynamics.make_lipschitz_perturbation(ctx, "digit_local",
                                                NormValue(p, 2), args.seed))
    h3 = conjugacy.build_conjugacy_thm3(R, T, N, NormValue(p, 2))
    rep3 = conjugacy.verify_conjugacy(R, T, h3)
    results["contraction"] = bool(rep3.max_defect.is_zero and rep3.injective)

    if not args.quick:
        d6 = NormValue(3, 4)
        e6 = NormValue(3, 1)
        try:
            res_c = counterexample.demonstrate_non_shadowing(
                3, 7, d6, e6, "even", require_witness=True)
            ctl = counterexample.demonstrate_non_shadowing(
                3, 7, d6, e6, "full", require_witness=False)
            results["counterexample"] = (not res_c.shadowed) and ctl.shadowed
        except PadicDynamicsError as exc:
            results["counterexample"] = False
    ok = all(results.values())
    report = {
        "command": "suite",
        "config": {"quick": args.quick, "seed": args.seed, "prng": PRNG_NAME},
        "records": results,
        "summary": {"ok": ok},
    }
    _emit(report, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padyn",
        description="Finite-precision p-adic dynamics: shadowing solvers, "
                    "conjugacy builders and metric estimators.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=3, help="prime base")
        sp.add_argument("--digits", type=int, default=8,
                        help="digit budget per value")
        sp.add_argument("--window", default=None,
                        help="field-mode exponent window, e.g. '-2:2'")
        sp.add_argument("--out", default=None, help="also write JSON here")

    sp = sub.add_parser("shadow", help="solve shadowing for pseudo-orbits")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--map", default="shift_zp")
    sp.add_argument("--delta", default="p^-2", help="pseudo-orbit bound, p^-k")
    sp.add_argument("--length", type=int, default=20)
    sp.add_argument("--orbits", type=int, default=10)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the exhaustive oracle")
    sp.set_defaults(fn=_cmd_shadow)

    sp = sub.add_parser("conjugate", help="build and verify conjugacies")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--kind", choices=("thm1", "thm3", "homogeneity"),
                    default="thm1")
    sp.add_argument("--map", default="shift_zp")
    sp.add_argument("--delta", default="p^-2")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--count", type=int, default=5)
    sp.set_defaults(fn=_cmd_conjugate)

    sp = sub.add_parser("analyze", help="metric estimators for a catalog map")
    common(sp)
    sp.add_argument("--map", required=True)
    sp.add_argument("--checks", default="lipschitz")
    sp.add_argument("--horizon", type=int, default=8)
    sp.add_argument("--k", type=int, default=1,
                    help="ball radius exponent for locally_scaling")
    sp.add_argument("--m", type=int, default=1,
                    help="scaling exponent for locally_scaling")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("counterexample",
                        help="non-shadowing witness with full-shift control")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--depth", type=int, default=10)
    sp.add_argument("--delta", default="p^-6")
    sp.add_argument("--eps", default="p^-2")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_counterexample)

    sp = sub.add_parser("suite", help="cross-module verification battery")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except PadicDynamicsError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
