"""Shadowing solver tests against the exhaustive brute-force oracle."""

import random

import pytest

from padic_dynamics.conjugacy import (
    build_conjugacy_thm1,
    build_inverse_conjugacy_thm1,
)
from padic_dynamics.counterexample import (
    build_cantor_chart,
    build_thm2_map,
    thm2_right_inverses,
    transported_shift_table,
)
from padic_dynamics.dynamics import (
    DynamicMap,
    RightInverseFamily,
    bijective_isometry,
    builtin_map,
    furno_compose,
    locally_scaling_inverses,
    make_lipschitz_perturbation,
    perturb,
    shift_right_inverses,
)
from padic_dynamics.errors import (
    BadParams,
    BudgetExceeded,
    CoveringViolation,
    DeltaTooSmall,
)
from padic_dynamics.padic import (
    NormValue,
    PrecisionContext,
    norm_zero,
    valuation,
)
from padic_dynamics.shadowing import (
    PseudoOrbit,
    brute_force_shadow,
    orbit_error,
    random_pseudo_orbit,
    solve_shadowing,
    verify_pseudo_orbit,
)


def test_random_pseudo_orbit_defect_within_delta():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    delta = NormValue(3, 2)
    for seed in range(20):
        orbit = random_pseudo_orbit(f, delta, 15, seed)
        assert len(orbit) == 16
        assert verify_pseudo_orbit(f, orbit) <= delta


def test_pseudo_orbit_delta_out_of_range():
    ctx = PrecisionContext(3, 4)
    f = builtin_map("shift_zp", ctx)
    with pytest.raises(BudgetExceeded):
        random_pseudo_orbit(f, NormValue(3, 7), 5, 0)
    with pytest.raises(DeltaTooSmall):
        random_pseudo_orbit(f, norm_zero(3), 5, 0)


def test_solver_backward_recursion_is_exact():
    """The corrected orbit is a true orbit of the residue-model map:
    f(x_n + z_n) = x_{n+1} + z_{n+1} at the certified modulus (the right
    inverse cannot restore digits the contraction pushed off the top)."""
    ctx = PrecisionContext(2, 10)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(2, 3)
    M = ctx.modulus
    cert = M >> f.precision_loss
    for seed in range(10):
        orbit = random_pseudo_orbit(f, delta, 12, seed)
        res = solve_shadowing(f, fam, orbit)
        pts, z = orbit.points, res.corrections
        for n in range(len(pts) - 1):
            got = f((pts[n] + z[n]) % M)
            assert (got - (pts[n + 1] + z[n + 1])) % cert == 0
        assert res.bound_ok
        assert res.achieved_bound <= delta.scaled(1)
        assert res.point == (pts[0] + z[0]) % M


def test_solver_handles_exact_orbit_with_zero_corrections():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    pts = [ctx.modulus - 1]
    for _ in range(4):
        pts.append(f(pts[-1]))
    orbit = PseudoOrbit(ctx, tuple(pts), NormValue(3, 2))
    res = solve_shadowing(f, fam, orbit)
    assert all(c == 0 for c in res.corrections)
    assert res.achieved_bound.is_zero


def test_solver_matches_brute_force_oracle():
    ctx = PrecisionContext(2, 8)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(2, 3)
    L = 5
    for seed in range(25):
        orbit = random_pseudo_orbit(f, delta, L, seed)
        res = solve_shadowing(f, fam, orbit)
        point, err = brute_force_shadow(f, orbit)
        # nothing shadows strictly better than the solver's bound
        assert err <= res.achieved_bound or err <= delta
        # the expansive shift pins the low digits of any shadow point
        assert (res.point - point) % 2 ** (ctx.total_digits - L) == 0


def test_orbit_error_scores_as_the_oracle_does():
    """orbit_error of the oracle's point is the oracle's error, and no
    residue scores below it."""
    ctx = PrecisionContext(3, 5)
    f = builtin_map("shift_zp", ctx)
    for seed in range(6):
        orbit = random_pseudo_orbit(f, NormValue(3, 2), 1 + seed % 3, seed)
        point, err = brute_force_shadow(f, orbit)
        assert orbit_error(f, orbit, point) == err
        assert min(orbit_error(f, orbit, x) for x in range(ctx.modulus)) == err


def test_brute_force_loss_aware_mode_ignores_uncertified_digits():
    """At step n a loss-1 map certifies only D-n digits; mismatches above
    that line are truncation artifacts.  The loss-aware oracle discounts
    them, the full-resolution one counts them."""
    ctx = PrecisionContext(2, 8)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    orbit = random_pseudo_orbit(f, NormValue(2, 3), 6, 3)
    res = solve_shadowing(f, fam, orbit)
    _, raw = brute_force_shadow(f, orbit)
    _, cert = brute_force_shadow(f, orbit, respect_loss=True)
    assert cert <= raw
    assert cert <= res.achieved_bound


def _ref_loss_aware_error(f, orbit, x):
    """Least digit position where f^n(x) and x_n differ inside the D - n*loss
    digits certified after n steps (D when they agree on all of them)."""
    ctx = orbit.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    first = D
    for n, xn in enumerate(orbit.points):
        if n:
            x = f(x)
        for i in range(D - n * f.precision_loss):
            if (x - xn) % p ** (i + 1):
                first = min(first, i)
                break
    return first


def test_brute_force_loss_aware_mode_matches_digit_reference():
    for p, N, name in ((2, 8, "shift_zp"), (3, 5, "shift_zp"),
                       (2, 8, "example2_L"), (3, 6, "example2_L")):
        ctx = PrecisionContext(p, N)
        f = builtin_map(name, ctx)
        for seed in range(3):
            orbit = random_pseudo_orbit(f, NormValue(p, 2), 2 + seed, seed)
            errs = [_ref_loss_aware_error(f, orbit, x)
                    for x in range(ctx.modulus)]
            best = max(errs)
            point, err = brute_force_shadow(f, orbit, respect_loss=True)
            assert point == errs.index(best)
            if best == N:
                assert err.is_zero and err.bound_exp == N
            else:
                assert err == NormValue(p, best)


def test_brute_force_prefers_smallest_residue_on_ties():
    ctx = PrecisionContext(2, 3)
    f = builtin_map("shift_zp", ctx)
    orbit = PseudoOrbit(ctx, (0, 0), NormValue(2, 1))
    point, err = brute_force_shadow(f, orbit)
    assert point == 0 and err.is_zero


def _ref_brute_force_shadow(f, orbit, respect_loss=False):
    """Reference: the flat scan the ball-widening oracle replaced.  Every
    residue in ascending order, each abandoned once it cannot beat the
    best so far, so ties keep the smallest residue."""
    ctx = orbit.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    pts = orbit.points
    L = len(pts) - 1
    loss = f.precision_loss if respect_loss else 0

    best_point, best_minval = 0, -1
    for x in range(M):
        y = x
        minval = valuation((y - pts[0]) % M, p, D)
        for n in range(L):
            if minval <= best_minval:
                break
            y = f(y)
            v = valuation((y - pts[n + 1]) % M, p, D)
            if v < minval and v < D - (n + 1) * loss:
                minval = v
        if minval > best_minval:
            best_minval = minval
            best_point = x
    if best_minval >= D:
        err = norm_zero(p, ctx.resolution_exp)
    else:
        err = NormValue(p, ctx.u_min + best_minval)
    return best_point, err


def counting_map(f):
    """f behind a counter of its evaluations: (map, [calls])."""
    calls = [0]

    def fn(m, f=f):
        calls[0] += 1
        return f(m)

    return DynamicMap(f.name, f.ctx, fn, f.precision_loss), calls


def _oracle_maps():
    for p, N, name in ((2, 8, "shift_zp"), (3, 5, "shift_zp"),
                       (5, 3, "shift_zp"), (2, 8, "example2_L")):
        yield builtin_map(name, PrecisionContext(p, N))
    ctx = PrecisionContext(3, 6)
    phi = make_lipschitz_perturbation(ctx, "digit_local", NormValue(3, 2),
                                      seed=7)
    yield perturb(builtin_map("shift_zp", ctx), phi)
    for depth in (4, 5):
        chart = build_cantor_chart("even", 3, depth)
        yield build_thm2_map(PrecisionContext(3, depth + 2),
                             transported_shift_table(chart))


def _oracle_orbits(f, rng):
    """Seeded pseudo-orbits of several lengths and defects, plus exact
    orbits (zero error)."""
    ctx = f.ctx
    for _ in range(8):
        delta = NormValue(ctx.prime, rng.randrange(ctx.total_digits))
        yield random_pseudo_orbit(f, delta, rng.randrange(6),
                                  rng.randrange(1 << 20))
    for _ in range(2):
        pts = [rng.randrange(ctx.modulus)]
        for _ in range(rng.randrange(1, 5)):
            pts.append(f(pts[-1]))
        yield PseudoOrbit(ctx, tuple(pts), NormValue(ctx.prime, 1))


def test_oracle_matches_flat_reference_scan():
    """The ball-widening oracle returns the flat scan's (point, error),
    ties included, with and without respect_loss.  It evaluates f at most
    L times per residue of the ball x = x_0 mod p^max(b, 1), b the best
    valuation, and over the grid no more often than the flat scan.  A
    single case can cost a few more evaluations: the flat scan may meet a
    good residue early and then drop every later one before its first
    step, where the ball search scores the deep annuli first."""
    rng = random.Random(9)
    cases = exact = ties = new_total = ref_total = 0
    for f in _oracle_maps():
        p, D, M = f.ctx.prime, f.ctx.total_digits, f.ctx.modulus
        for orbit in _oracle_orbits(f, rng):
            for respect_loss in (False, True):
                g, calls = counting_map(f)
                want = _ref_brute_force_shadow(g, orbit, respect_loss)
                ref_total += calls[0]
                calls[0] = 0
                assert brute_force_shadow(g, orbit, respect_loss) == want
                new_total += calls[0]
                b = D if want[1].is_zero else want[1].exponent - f.ctx.u_min
                assert calls[0] <= (len(orbit) - 1) * p ** (D - max(b, 1))
                cases += 1
                exact += want[1].is_zero
                # x_0 is optimal and a smaller residue ties with it: only
                # the tie rule picks the smaller one
                x0 = orbit.points[0] % M
                ties += want[0] < x0 and orbit_error(f, orbit, x0) == want[1]
    assert cases == 7 * 10 * 2
    assert exact >= 14 and ties >= 10
    assert new_total <= ref_total


def test_solver_and_oracle_step_maps_without_call(monkeypatch):
    """The solver and the oracle read one evaluator per map, the table
    when the map has one and fn otherwise, so no step goes through
    DynamicMap.__call__, and a map without a table is not tabulated."""
    ctx = PrecisionContext(3, 6)
    tabled = builtin_map("shift_zp", ctx)
    tabled.tabulate()
    family = shift_right_inverses(ctx)
    orbits = [random_pseudo_orbit(tabled, NormValue(3, 2), 5, seed)
              for seed in range(4)]
    want = [(solve_shadowing(tabled, family, orbit),
             brute_force_shadow(tabled, orbit, respect_loss))
            for orbit in orbits for respect_loss in (False, True)]

    def no_call(self, m):
        raise AssertionError(f"{self.name} stepped through __call__")

    monkeypatch.setattr(DynamicMap, "__call__", no_call)
    plain = builtin_map("shift_zp", ctx)
    for f in (tabled, plain):
        got = [(solve_shadowing(f, family, orbit),
                brute_force_shadow(f, orbit, respect_loss))
               for orbit in orbits for respect_loss in (False, True)]
        assert got == want
    assert plain._table is None
    assert all(R._table is None for R in family.members)


def test_solver_and_builders_name_the_uncovered_residue():
    """The non-covering Theorem 2 family leaves residue 0 uncovered: the
    solver on an orbit from 0 and both thm1 builders raise the same
    CoveringViolation, naming it."""
    ctx = PrecisionContext(3, 5)
    fam = thm2_right_inverses(ctx)
    f = builtin_map("shift_zp", ctx)       # any map; membership decides
    delta = NormValue(3, 2)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 0))
    messages = set()
    with pytest.raises(CoveringViolation) as exc:
        solve_shadowing(f, fam, PseudoOrbit(ctx, (0, 1), NormValue(3, 1)))
    messages.add(str(exc.value))
    for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1):
        with pytest.raises(CoveringViolation) as exc:
            build(f, fam, g, delta, 3)
        messages.add(str(exc.value))
    assert messages == {"residue 0 is not covered by any right inverse"}


@pytest.mark.parametrize("stray", [-1, 3], ids=["-1", "len(members)"])
@pytest.mark.parametrize("step", [0, 4])
def test_solver_refuses_stray_membership_indices(stray, step):
    """A membership index that names no member is refused with BadParams,
    naming the orbit point, as membership_table refuses it."""
    ctx = PrecisionContext(3, 5)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    orbit = random_pseudo_orbit(f, NormValue(3, 2), 10, 0)
    x = orbit.points[step]
    bad = RightInverseFamily(
        fam.members, lambda m: stray if m == x else fam.membership(m))
    with pytest.raises(BadParams, match=rf"membership\({x}\) = {stray} "
                                        r"is not a member index 0\.\.2"):
        solve_shadowing(f, bad, orbit)


def test_forward_cert_gate_is_opt_in():
    ctx = PrecisionContext(2, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    orbit = random_pseudo_orbit(f, NormValue(2, 2), 10, 0)
    res = solve_shadowing(f, fam, orbit)   # fine: recursion is exact
    assert res.bound_ok
    assert res.certified_digits == 0


def test_forward_reverification_covers_certified_prefix():
    ctx = PrecisionContext(2, 12)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    orbit = random_pseudo_orbit(f, NormValue(2, 4), 6, 3)
    res = solve_shadowing(f, fam, orbit)
    assert res.forward_checked == 6
    assert res.certified_digits == 12 - 6


def test_furno_maps_shadow_like_the_shift():
    ctx = PrecisionContext(2, 8)
    w = bijective_isometry(ctx, "triangular", seed=9)
    f = furno_compose(w, 2)
    fam = locally_scaling_inverses(w, 2)
    delta = NormValue(2, 3)
    M = ctx.modulus
    cert = M >> f.precision_loss
    for seed in range(10):
        orbit = random_pseudo_orbit(f, delta, 8, seed)
        res = solve_shadowing(f, fam, orbit)
        assert res.bound_ok
        pts, z = orbit.points, res.corrections
        for n in range(len(pts) - 1):
            got = f((pts[n] + z[n]) % M)
            assert (got - (pts[n + 1] + z[n + 1])) % cert == 0
