"""Command-line front end.

Subcommands: shadow, conjugate, analyze, counterexample, suite.  Reports
are JSON only, written to stdout (or --out).  Tolerances are always given
as p-power strings like ``p^-3``; no floating point appears anywhere in
the interface or the reports.  All randomness flows through seeded
instances of random.Random (the Mersenne Twister), so reports are
deterministic for a fixed seed.  Each command returns its records and
verdict, and `main` alone writes the report.  A report's config is the
arguments as parsed, with the defaults a command resolves filled in and
unset ones omitted, so the command it records re-runs to the same
records.  `suite` runs the fixed command lines of
SUITE_RUNS through the same parser (--quick skips the counterexample),
and a line passes only if that command's own checks pass.

Exit codes: 0 all checks passed, 1 an invariant failed, 2 bad usage or
configuration, which includes a --count, --orbits, --length, (thm1, thm3)
--depth or (expansivity) --horizon below 1, and a locally_scaling --k and
--m that leave no pair to compare, since such a check would pass on
nothing, and a --map or --depth given to `conjugate --kind homogeneity`,
which reads neither.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shlex
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

# a parser default, not an option: reports record it, no argv can set it
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
    # R_i(x) = i + p*x inverts the one-sided shift on Z_p only: on a Q_p
    # window, shift_qp(R_i(x)) falls below the window for every i != 0
    family = dynamics.shift_right_inverses(ctx) if name == "shift_zp" else None
    return f, family


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _frac_str(x) -> str:
    return "none" if x is None else str(x)


def _ctx_from_args(args) -> PrecisionContext:
    if args.window:
        try:
            lo, hi = (int(t) for t in args.window.split(":"))
        except ValueError:
            raise PadicDynamicsError(
                f"bad --window {args.window!r}: expected lo:hi, two "
                "integer exponents") from None
        return PrecisionContext(args.p, args.digits, lo, hi, "Qp")
    return PrecisionContext(args.p, args.digits)


def _require_positive(args, *names) -> None:
    """A zero count, length or depth would pass its checks on nothing."""
    for name in names:
        if getattr(args, name) < 1:
            raise PadicDynamicsError(
                f"--{name} {getattr(args, name)} checks nothing; use 1 or more")


def _map_with_family(spec: str, ctx: PrecisionContext):
    """The map of `spec` and its right-inverse family, which must exist."""
    f, family = build_map(spec, ctx)
    if family is None:
        raise PadicDynamicsError(f"map {spec!r} has no right-inverse family")
    return f, family


def _perturbations(f, delta: NormValue, args):
    """(seed, f + phi) for --count seeded digit_local perturbations phi."""
    for seed in range(args.seed, args.seed + args.count):
        phi = dynamics.make_lipschitz_perturbation(f.ctx, "digit_local",
                                                   delta, seed)
        yield seed, dynamics.perturb(f, phi)


# ---------------------------------------------------------------------------
# subcommands: each returns (records, ok)
# ---------------------------------------------------------------------------

def _cmd_shadow(args):
    _require_positive(args, "length", "orbits")
    ctx = _ctx_from_args(args)
    delta = parse_norm(args.delta, ctx.prime)
    f, family = _map_with_family(args.map, ctx)
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
    for seed in range(args.seed, args.seed + args.orbits):
        orbit = shadowing.random_pseudo_orbit(f, delta, args.length, seed)
        res = shadowing.solve_shadowing(f, family, orbit)
        rec = {"seed": seed, "achieved_bound": format_norm(res.achieved_bound),
               "bound_ok": res.bound_ok, "forward_checked": res.forward_checked,
               "certified_digits": res.certified_digits}
        if args.oracle:
            _, err = shadowing.brute_force_shadow(f, orbit)
            rec["oracle_error"] = format_norm(err)
            rec["oracle_agree_digits"] = agree_digits
            rec["oracle_agrees"] = \
                shadowing.orbit_error(f, orbit, res.point) == err
            ok = ok and rec["oracle_agrees"]
        ok = ok and res.bound_ok
        records.append(rec)
    return records, ok


def _cmd_conjugate(args):
    _require_positive(args, "count")
    if args.kind == "homogeneity":
        given = [f"--{name}" for name in ("map", "depth")
                 if getattr(args, name) is not None]
        if given:
            raise PadicDynamicsError(
                f"--kind homogeneity reads no {' or '.join(given)}: its "
                "ball swaps take neither a map nor a recursion depth")
    else:
        # thm1 and thm3 resolve the defaults here, so the config records them
        if args.map is None:
            args.map = "shift_zp"
        if args.depth is None:
            args.depth = 4
        _require_positive(args, "depth")
    ctx = _ctx_from_args(args)
    delta = parse_norm(args.delta, ctx.prime)
    records = []
    ok = True
    if args.kind == "thm1":
        f, family = _map_with_family(args.map, ctx)
        # h is certified to p^-depth only on the digits f leaves certified
        max_depth = ctx.total_digits - f.precision_loss
        if args.depth > max_depth:
            raise PadicDynamicsError(
                f"--depth {args.depth} exceeds {max_depth} = digits - "
                f"precision loss of {f.name}: the defect cannot reach "
                f"p^-{args.depth}; use a smaller --depth")
        for seed, g in _perturbations(f, delta, args):
            h = conjugacy.build_conjugacy_thm1(f, family, g, delta, args.depth)
            hinv = conjugacy.build_inverse_conjugacy_thm1(f, family, g, delta,
                                                          args.depth)
            rep = conjugacy.verify_conjugacy(f, g, h)
            # h-tilde o h = id holds to the recursion depth (criterion 4),
            # which the guard above keeps within the digits
            cert = ctx.prime ** args.depth
            round_trip = all((hinv.table[y] - x) % cert == 0
                             for x, y in enumerate(h.table))
            records.append({"seed": seed,
                            "max_defect": format_norm(rep.max_defect),
                            "closeness": format_norm(rep.closeness),
                            "injective": rep.injective,
                            "round_trip_digits": args.depth,
                            "round_trip_ok": round_trip})
            ok = ok and (rep.max_defect <= NormValue(ctx.prime, args.depth)
                         and rep.injective and round_trip)
    elif args.kind == "thm3":
        R, _ = build_map(args.map, ctx)
        for seed, T in _perturbations(R, delta, args):
            h = conjugacy.build_conjugacy_thm3(R, T, args.depth, delta)
            rep = conjugacy.verify_conjugacy(R, T, h)
            records.append({"seed": seed,
                            "max_defect": format_norm(rep.max_defect),
                            "closeness": format_norm(rep.closeness),
                            "bijective": rep.injective})
            ok = ok and (rep.max_defect.is_zero and rep.injective
                         and rep.closeness <= delta)
    else:
        # homogeneity: z = y + step * r is within delta of y; a delta above
        # 1 admits every z
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
            ok = ok and (matched and phi.is_bijective() and
                         phi.closeness.as_fraction() < 3 * delta.as_fraction())
            records.append({"case": i, "pairs": n, "matched": matched,
                            "closeness": format_norm(phi.closeness)})
    return records, ok


def _cmd_analyze(args):
    ctx = _ctx_from_args(args)
    f, _family = build_map(args.map, ctx)
    # expansivity covers every pair of residues; locally_scaling counts
    # the pairs on the levels it compares
    pairs = ctx.modulus * (ctx.modulus - 1) // 2
    checks = [check.strip() for check in args.checks.split(",")]
    if "expansivity" in checks:
        _require_positive(args, "horizon")
    records = {}
    ok = True
    for check in checks:
        if check == "lipschitz":
            est = analysis.estimate_lipschitz(f)
            records["lipschitz"] = {
                "c1_lower": _frac_str(est.c1_lower),
                "c2_upper": _frac_str(est.c2_upper),
                "pairs": est.pairs,
                "witness_low": est.witness_low,
                "witness_high": est.witness_high,
            }
        elif check == "scaling":
            prof = analysis.scaling_profile(f)
            records["scaling"] = {
                "consistent": prof.consistent,
                "profile": {str(k): v for k, v in sorted(prof.table.items())},
                "witness": prof.witness,
            }
            ok = ok and prof.consistent
        elif check == "openness":
            rho = analysis.image_openness(f)
            records["openness"] = {"rho": format_norm(rho) if rho else "none"}
        elif check == "expansivity":
            const, witness = analysis.expansivity_constant(f, args.horizon)
            records["expansivity"] = {
                "constant": format_norm(const), "pairs": pairs,
                "witness": witness}
        elif check == "locally_scaling":
            good, witness = analysis.check_locally_scaling(f, args.k, args.m)
            records["locally_scaling"] = {
                "ok": good,
                "pairs": analysis.locally_scaling_pairs(f, args.k, args.m),
                "witness": witness}
            ok = ok and good
        else:
            raise PadicDynamicsError(f"unknown check {check!r}")
    return records, ok


def _cmd_counterexample(args):
    delta = parse_norm(args.delta, args.p)
    eps = parse_norm(args.eps, args.p)
    # each demo builds its own chart and drops it on return, so the two
    # charts are never alive together
    res = counterexample.demonstrate_non_shadowing(
        args.p, args.depth, delta, eps, "even", require_witness=False)
    control = counterexample.demonstrate_non_shadowing(
        args.p, args.depth, delta, eps, "full", require_witness=False)
    records = {
        "even": {"q": res.q, "best_error": format_norm(res.best_error_s),
                 "shadowed": res.shadowed},
        "full_control": {"q": control.q,
                         "best_error": format_norm(control.best_error_s),
                         "shadowed": control.shadowed},
    }
    return records, (not res.shadowed) and control.shadowed


# The suite's command lines, by record name; `{seed}` is the suite's --seed.
SUITE_RUNS = {
    "shadow": "shadow --p 2 --digits 8 --delta p^-2 --length 12 --orbits 1 "
              "--seed {seed}",
    "conjugate": "conjugate --p 2 --digits 8 --delta p^-2 --depth 4 "
                 "--count 1 --seed {seed}",
    "contraction": "conjugate --kind thm3 --p 2 --digits 8 "
                   "--map 'affine(v=2, w=1)' --delta p^-2 --depth 8 "
                   "--count 1 --seed {seed}",
    "counterexample": "counterexample --p 3 --depth 7 --delta p^-4 "
                      "--eps p^-1",
}


def _cmd_suite(args):
    """Reduced cross-module battery: every record must pass."""
    parser = _build_parser()
    records = {}
    for name, line in SUITE_RUNS.items():
        if args.quick and name == "counterexample":
            continue
        run = parser.parse_args(shlex.split(line.format(seed=args.seed)))
        try:
            records[name] = run.fn(run)[1]
        except PadicDynamicsError:
            # the arguments are fixed, so an error is a failed check
            records[name] = False
    # no command judges Lipschitz constants, so this record checks them here
    est = analysis.estimate_lipschitz(
        dynamics.builtin_map("affine", PrecisionContext(2, 8), v=2, w=1))
    records["analyze"] = est.c1_lower == est.c2_upper == Fraction(1, 2)
    return records, all(records.values())


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
                        help="field-mode exponent window lo:hi, e.g. "
                             "--window=-2:2 (with '=', since a value that "
                             "starts with '-' is read as an option)")

    sp = sub.add_parser("shadow", help="solve shadowing for pseudo-orbits")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--map", default="shift_zp")
    sp.add_argument("--delta", default="p^-2", help="pseudo-orbit bound, p^-k")
    sp.add_argument("--length", type=int, default=20)
    sp.add_argument("--orbits", type=int, default=10)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the exhaustive oracle")
    sp.set_defaults(fn=_cmd_shadow, prng=PRNG_NAME)

    sp = sub.add_parser("conjugate", help="build and verify conjugacies")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--kind", choices=("thm1", "thm3", "homogeneity"),
                    default="thm1")
    sp.add_argument("--map", help="thm1 and thm3 only; default shift_zp")
    sp.add_argument("--delta", default="p^-2")
    sp.add_argument("--depth", type=int,
                    help="thm1 and thm3 only; default 4")
    sp.add_argument("--count", type=int, default=5)
    sp.set_defaults(fn=_cmd_conjugate, prng=PRNG_NAME)

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
    sp.set_defaults(fn=_cmd_counterexample, prng=PRNG_NAME)

    sp = sub.add_parser("suite", help="cross-module verification battery")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_suite, prng=PRNG_NAME)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="also write JSON here")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        records, ok = args.fn(args)
    except PadicDynamicsError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 2
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "fn", "out") and v is not None}
    text = json.dumps({"command": args.command, "config": config,
                       "records": records, "summary": {"ok": ok}},
                      indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
