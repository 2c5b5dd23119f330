"""Workload `non-shadowing`: the transported even-shift witness, its
full-shift control and a stream of solved pseudo-orbits.

A round holds these certificates:

* the even-shift witness and the full-shift control at p = 3, chart
  depth 10, delta = p^-6 and eps = p^-2, run exactly as
  `padyn counterexample` runs them (criterion 10).  Each builds a chart,
  the transported shift table and an exhaustive oracle search over
  3^12 residues;
* STREAM_ORBITS seeded delta = 3^-3 pseudo-orbits of length 50 of the
  shift on Z_3 at 12 digits, solved by `solve_shadowing` (criterion 2);
* ORACLE_ORBITS seeded short pseudo-orbits (length 3 to 6) of the shift
  at 3^8 residues, solved and cross-checked against the loss-aware
  `brute_force_shadow` oracle (criterion 3).
"""

from __future__ import annotations

import random

from padic_dynamics import counterexample, dynamics, shadowing
from padic_dynamics.errors import PadicDynamicsError
from padic_dynamics.padic import NormValue, PrecisionContext

from common import first_failure, norm_key, val

P, CHART_DEPTH, DELTA_EXP, EPS_EXP = 3, 10, 6, 2
LIFT_DIGITS = CHART_DEPTH + 2
STREAM_DIGITS, STREAM_DELTA_EXP, STREAM_LENGTH, STREAM_ORBITS = 12, 3, 50, 400
ORACLE_DIGITS, ORACLE_ORBITS = 8, 40


class NonShadowing:
    name = "non-shadowing"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        delta = NormValue(P, STREAM_DELTA_EXP)
        self.stream_ctx = PrecisionContext(P, STREAM_DIGITS)
        self.stream_f = dynamics.builtin_map("shift_zp", self.stream_ctx)
        self.stream_family = dynamics.shift_right_inverses(self.stream_ctx)
        self.stream = [shadowing.random_pseudo_orbit(
            self.stream_f, delta, STREAM_LENGTH, rng.randrange(1 << 20))
            for _ in range(STREAM_ORBITS)]
        oracle_ctx = PrecisionContext(P, ORACLE_DIGITS)
        self.oracle_f = dynamics.builtin_map("shift_zp", oracle_ctx)
        self.oracle_f.tabulate()
        self.oracle_family = dynamics.shift_right_inverses(oracle_ctx)
        self.oracle = [shadowing.random_pseudo_orbit(
            self.oracle_f, delta, 3 + j % 4, rng.randrange(1 << 20))
            for j in range(ORACLE_ORBITS)]
        self._even_table = None

    def run_round(self, tick=lambda: None):
        """One batch of certificates: (outputs, attempted, failed).  tick()
        is called between steps, where the runner may probe its speed."""
        out = {"demos": [], "stream": [], "oracle": []}
        failed = 0
        delta, eps = NormValue(P, DELTA_EXP), NormValue(P, EPS_EXP)
        try:
            chart = counterexample.build_cantor_chart("even", P, CHART_DEPTH)
            tick()
            out["demos"].append(_demo(counterexample.demonstrate_non_shadowing(
                P, CHART_DEPTH, delta, eps, "even", require_witness=False,
                chart=chart)))
        except PadicDynamicsError:
            failed += 1
        tick()
        try:
            out["demos"].append(_demo(counterexample.demonstrate_non_shadowing(
                P, CHART_DEPTH, delta, eps, "full", require_witness=False)))
        except PadicDynamicsError:
            failed += 1
        tick()
        out["covered"] = counterexample.covered_residue_count(
            PrecisionContext(P, LIFT_DIGITS))
        for orbit in self.stream:
            try:
                r = shadowing.solve_shadowing(
                    self.stream_f, self.stream_family, orbit)
            except PadicDynamicsError:
                failed += 1
                continue
            finally:
                tick()
            out["stream"].append({"points": orbit.points, "point": r.point,
                                  "z": r.corrections, "bound_ok": r.bound_ok})
        for orbit in self.oracle:
            try:
                r = shadowing.solve_shadowing(
                    self.oracle_f, self.oracle_family, orbit)
                point, err = shadowing.brute_force_shadow(
                    self.oracle_f, orbit, respect_loss=True)
            except PadicDynamicsError:
                failed += 1
                continue
            finally:
                tick()
            out["oracle"].append({"points": orbit.points, "point": r.point,
                                  "oracle_point": point,
                                  "oracle_error": norm_key(err)})
        return out, 2 + len(self.stream) + len(self.oracle), failed

    # -- independent checks -------------------------------------------

    def check(self, out) -> dict:
        """Each check's failure message, or None when it holds."""
        M = P ** LIFT_DIGITS
        eps_val = EPS_EXP + 2              # eps at the lifted level
        demos = {d["subshift"]: d for d in out["demos"]}
        results = dict.fromkeys(
            ("lifted_defects", "best_error", "no_shadow_scan",
             "control_within_eps", "covered_count", "solved_orbits",
             "oracle_bound"))
        for d in out["demos"]:
            f = self._lifted_map(d["subshift"])
            pts = d["orbit_f"]
            if any((f(pts[n]) - pts[n + 1]) % P ** (DELTA_EXP + 2)
                   for n in range(len(pts) - 1)):
                results["lifted_defects"] = (
                    f"{d['subshift']}: a lifted defect exceeds delta p^-2")
            v = _orbit_val(f, d["best_point"], pts, LIFT_DIGITS, 0)
            want = (P, None, LIFT_DIGITS) if v >= LIFT_DIGITS else (P, v, None)
            if d["best_error_f"] != want:
                results["best_error"] = (
                    f"{d['subshift']}: best point {d['best_point']} has orbit "
                    f"error {want}, reported {d['best_error_f']}")
        even = demos.get("even")
        if even is not None:
            f, pts = self._lifted_map("even"), even["orbit_f"]
            hit = next((x for x in range(M)
                        if _orbit_val(f, x, pts, LIFT_DIGITS, 0, eps_val)
                        >= eps_val), None)
            if even["shadowed"] or hit is not None:
                results["no_shadow_scan"] = (
                    f"residue {hit} shadows the even witness within eps")
        full = demos.get("full")
        if full is not None:
            v = _orbit_val(self._lifted_map("full"), full["best_point"],
                           full["orbit_f"], LIFT_DIGITS, 0)
            if not full["shadowed"] or v < eps_val:
                results["control_within_eps"] = (
                    f"control best point {full['best_point']} is not within eps")
        results["covered_count"] = self._bad_covered(out["covered"])
        results["solved_orbits"] = first_failure(out["stream"], _bad_solution)
        results["oracle_bound"] = first_failure(out["oracle"], _bad_oracle)
        return results

    def _lifted_map(self, subshift: str):
        """The piecewise map on x = a + b p + z p^2, written from its
        definition: fix a = 0, project b = 0 to z, otherwise cycle b and
        apply the transported shift s to z.  For the full shift s drops
        the lowest digit; for the even shift the table comes from a chart
        the benchmark builds itself."""
        if subshift == "full":
            s = lambda z: z // P
        else:
            if self._even_table is None:
                chart = counterexample.build_cantor_chart("even", P, CHART_DEPTH)
                self._even_table = counterexample.transported_shift_table(chart)
            s = self._even_table.__getitem__

        def f(x):
            a, b, z = x % P, (x // P) % P, x // (P * P)
            if a == 0:
                return x
            if b == 0:
                return z
            return a + (b + 1 if b <= P - 2 else 1) * P + s(z) * P * P

        return f

    def _bad_covered(self, reported):
        """Count the union of the images of R_a, a = 1..p-1, residue by
        residue, and compare with covered_residue_count."""
        ctx = PrecisionContext(P, LIFT_DIGITS)
        marks = bytearray(ctx.modulus)
        for R in counterexample.thm2_right_inverses(ctx).members:
            for x in range(ctx.modulus):
                marks[R(x)] = 1
        count = marks.count(1)
        if count != reported or count >= ctx.modulus:
            return f"union of R_a images has {count} residues, reported {reported}"
        return None

    # -- corruptions for the self-test ----------------------------------

    def mutations(self) -> dict:
        """For each check, a corruption of one output that it must catch."""
        M = P ** LIFT_DIGITS

        def edit(key, index, field, fn):
            def mutate(out):
                items = list(out[key])
                item = dict(items[index])
                item[field] = fn(item)
                items[index] = item
                return dict(out, **{key: items})
            return mutate

        def bumped_orbit(d):
            pts = list(d["orbit_f"])
            pts[1] = (pts[1] + 1) % M
            return tuple(pts)

        def true_orbit(d):
            f = self._lifted_map(d["subshift"])
            pts = [d["orbit_f"][0]]
            while len(pts) < len(d["orbit_f"]):
                pts.append(f(pts[-1]))
            return tuple(pts)

        def bumped_z(r):
            z = list(r["z"])
            z[1] += 1
            return tuple(z)

        return {
            "lifted_defects": edit("demos", 0, "orbit_f", bumped_orbit),
            "best_error": edit("demos", 0, "best_point",
                               lambda d: (d["best_point"] + 1) % M),
            "no_shadow_scan": edit("demos", 0, "orbit_f", true_orbit),
            "control_within_eps": edit("demos", 1, "best_point",
                                       lambda d: (d["best_point"] + 1) % M),
            "covered_count": lambda out: dict(out, covered=out["covered"] + 1),
            "solved_orbits": edit("stream", 0, "z", bumped_z),
            "oracle_bound": edit("oracle", 0, "oracle_error",
                                 lambda r: (P, 0, None)),
        }


def _demo(res) -> dict:
    return {"subshift": res.subshift, "q": res.q, "orbit_s": res.orbit_s,
            "orbit_f": res.orbit_f, "best_point": res.best_point,
            "best_error_f": norm_key(res.best_error_f),
            "best_error_s": norm_key(res.best_error_s),
            "shadowed": res.shadowed}


def _orbit_val(f, x, points, D, loss, stop=None) -> int:
    """min over n of the valuation of f^n(x) - x_n, capped at D.

    With loss > 0 a difference confined to the digits that n steps of a
    lossy map leave uncertified (positions >= D - n*loss) counts as none.
    With stop, the scan ends as soon as the minimum falls below it.
    """
    M = P ** D
    y, best = x, D
    for n, target in enumerate(points):
        if n:
            y = f(y)
        v = val((y - target) % M, P, D)
        if v >= D - n * loss:
            v = D
        best = min(best, v)
        if stop is not None and best < stop:
            break
    return best


def _bad_solution(r):
    """f(x_n + z_n) = x_{n+1} + z_{n+1} mod p^(N-1) and |z_n| <= delta/p,
    with f the shift x -> x // p."""
    M, cert = P ** STREAM_DIGITS, P ** (STREAM_DIGITS - 1)
    pts, z = r["points"], r["z"]
    if r["point"] != (pts[0] + z[0]) % M or not r["bound_ok"]:
        return "solver point is not x_0 + z_0"
    for n in range(len(pts) - 1):
        if (((pts[n] + z[n]) % M) // P - (pts[n + 1] + z[n + 1])) % cert:
            return f"shadowing identity fails at step {n}"
    if any(zn % P ** (STREAM_DELTA_EXP + 1) for zn in z):
        return "a correction exceeds delta/p"
    return None


def _bad_oracle(r):
    """The oracle's point has the error it reports, and no larger error
    than the solver's point (both loss-aware, as the oracle measures)."""
    f = lambda x: x // P
    pts = r["points"]
    v_oracle = _orbit_val(f, r["oracle_point"], pts, ORACLE_DIGITS, 1)
    v_solver = _orbit_val(f, r["point"], pts, ORACLE_DIGITS, 1)
    want = ((P, None, ORACLE_DIGITS) if v_oracle >= ORACLE_DIGITS
            else (P, v_oracle, None))
    if r["oracle_error"] != want or v_oracle < v_solver:
        return (f"oracle error {r['oracle_error']} (recomputed {want}) "
                f"against solver valuation {v_solver}")
    return None
