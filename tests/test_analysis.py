"""Metric estimator tests: exact Lipschitz scans, scaling profiles,
image openness and expansivity certificates."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from padic_dynamics import analysis
from padic_dynamics.analysis import (
    check_locally_scaling,
    estimate_lipschitz,
    expansivity_constant,
    image_openness,
    scaling_profile,
)
from padic_dynamics.dynamics import (
    DynamicMap,
    bijective_isometry,
    builtin_map,
    furno_compose,
    perturb,
    make_lipschitz_perturbation,
)
from padic_dynamics.errors import BudgetExceeded
from padic_dynamics.padic import NormValue, PrecisionContext


def test_shift_lip_scan_is_exact():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    est = estimate_lipschitz(f)
    assert est.exhaustive
    assert est.c2_upper == Fraction(3) == f.lip_upper


def test_affine_lip_scan_matches_declared_norm():
    ctx = PrecisionContext(2, 8)
    for v in (2, 4, 6):
        R = builtin_map("affine", ctx, v=v, w=3)
        est = estimate_lipschitz(R)
        assert est.c1_lower == est.c2_upper == R.lip_upper


def test_rho_open_lip_scan():
    ctx = PrecisionContext(3, 4, -2, 2, "Qp")
    R = builtin_map("rho_open_Ra", ctx, a=1)
    est = estimate_lipschitz(R)
    assert est.c2_upper == Fraction(1, 3)
    assert est.c1_lower == Fraction(1, 9)


def test_example2_R_lower_ratio_shrinks_with_budget():
    """Pairs differing only in digit n contract by p^-(n+1): the measured
    lower constant keeps falling as the budget admits deeper digits."""
    lows = []
    for N in (6, 8, 10):
        ctx = PrecisionContext(2, N)
        R = builtin_map("example2_R", ctx)
        est = estimate_lipschitz(R)
        lows.append(est.c1_lower)
    assert lows[0] > lows[1] > lows[2]


def test_lipschitz_witness_pairs_attain_ratios():
    ctx = PrecisionContext(2, 6)
    R = builtin_map("example2_R", ctx)
    est = estimate_lipschitz(R)
    x, y = est.witness_low
    assert x != y
    # recompute the ratio at the witness with an independent valuation
    p, M = 2, ctx.modulus

    def val(m, cap):
        if m == 0:
            return cap
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    vin = val((x - y) % M, ctx.total_digits)
    vout = val((R(x) - R(y)) % M, ctx.total_digits)
    assert Fraction(p) ** (vin - vout) == est.c1_lower


def test_locally_scaling_furno():
    # S^k o w multiplies distances <= p^-k by exactly p^k: the expected
    # output valuation shift is -k.
    ctx = PrecisionContext(2, 8)
    for k in (1, 2):
        w = bijective_isometry(ctx, "triangular", seed=k)
        f = furno_compose(w, k)
        ok, witness = check_locally_scaling(f, k, -k)
        assert ok and witness is None


def test_locally_scaling_rejects_wrong_exponent():
    ctx = PrecisionContext(2, 8)
    w = bijective_isometry(ctx, "triangular", seed=1)
    f = furno_compose(w, 2)
    ok, witness = check_locally_scaling(f, 2, -1)
    assert not ok and witness is not None


def test_locally_scaling_affine_contraction():
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=2)
    ok, _ = check_locally_scaling(R, 0, 1)     # all distances scaled by 1/3
    assert ok


def test_scaling_profile_affine():
    # a linear contraction scales every distance by |v| uniformly
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=2)
    prof = scaling_profile(R)
    assert prof.consistent
    for vin, vout in prof.table.items():
        assert vout == vin + 1


def test_scaling_profile_shift_multivalued_at_distance_one():
    # pairs at distance 1 can land at distance 1 or 1/p depending on
    # which digits differ, so the shift has no global scaling function
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    prof = scaling_profile(f)
    assert not prof.consistent
    x, y = prof.witness
    assert (x - y) % 3 != 0 or prof.table.get(0) is not None


def test_scaling_profile_qp_contraction_consistent():
    ctx = PrecisionContext(3, 4, -2, 2, "Qp")
    R = builtin_map("rho_open_Ra", ctx, a=2)
    prof = scaling_profile(R)
    assert prof.consistent


def test_scaling_profile_detects_inconsistency():
    ctx = PrecisionContext(2, 6)
    f = builtin_map("shift_zp", ctx)
    phi = make_lipschitz_perturbation(ctx, "digit_local", NormValue(2, 1),
                                      seed=2)
    g = perturb(f, phi)
    prof = scaling_profile(g)
    assert not prof.consistent and prof.witness is not None


def test_image_openness_scaling_contractions():
    ctx = PrecisionContext(3, 8)
    R = builtin_map("affine", ctx, v=3, w=1)
    rho = image_openness(R)
    assert rho is not None
    S = builtin_map("scaled_isometry", ctx, m=2, seed=4)
    rho2 = image_openness(S)
    assert rho2 is not None
    assert rho2 < rho       # deeper contraction, thinner image balls


def test_image_openness_none_for_sparse_image():
    # example2_R images occupy thinner and thinner cosets: no uniform
    # ball radius survives the two-digit resolution margin
    ctx = PrecisionContext(2, 8)
    R = builtin_map("example2_R", ctx)
    assert image_openness(R) is None


def test_image_openness_identity_is_fully_open():
    ctx = PrecisionContext(2, 6)
    f = builtin_map("affine", ctx, v=1, w=5)   # bijection
    assert image_openness(f) == NormValue(2, 0)


def test_expansivity_shift():
    ctx = PrecisionContext(2, 8)
    f = builtin_map("shift_zp", ctx)
    const, witness = expansivity_constant(f, horizon=8)
    assert const == NormValue(2, 0)     # every pair separates to distance 1
    assert witness is not None


def test_expansivity_contraction_never_separates():
    # distances only shrink under a contraction, so the least-separating
    # pair is the closest resolvable one and no useful constant exists
    ctx = PrecisionContext(3, 5)
    R = builtin_map("affine", ctx, v=3, w=0)
    const, witness = expansivity_constant(R, horizon=6)
    assert witness is not None
    assert const == NormValue(3, ctx.total_digits - 1)


# ---------------------------------------------------------------------------
# the level-profile scans against the pair scans they replaced
# ---------------------------------------------------------------------------

def _ref_valuation(m, p, cap):
    if m == 0:
        return cap
    v = 0
    while m % p == 0 and v < cap:
        m //= p
        v += 1
    return v


def _ref_pair_iter(f, seed):
    """The pair source of the pair scans: all pairs up to 2,896 residues,
    20,000 seeded pairs above."""
    M = f.ctx.modulus
    if M * (M - 1) // 2 <= 1 << 22:
        return True, combinations(range(M), 2)
    rng = random.Random(seed)
    return False, ((rng.randrange(M), rng.randrange(M))
                   for _ in range(20000))


def _ref_estimate_lipschitz(f, seed=0):
    """estimate_lipschitz with one Fraction ratio per pair."""
    ctx = f.ctx
    p, D = ctx.prime, ctx.total_digits
    cap = D - f.precision_loss
    M = ctx.modulus
    exhaustive, pairs = _ref_pair_iter(f, seed)
    c1 = c2 = None
    wlow = whigh = None
    count = 0
    for x, y in pairs:
        if x == y:
            continue
        vin = _ref_valuation((x - y) % M, p, D)
        vout = _ref_valuation((f(x) - f(y)) % M, p, cap)
        ratio = Fraction(p) ** (vin - vout)
        count += 1
        if c1 is None or ratio < c1:
            c1, wlow = ratio, (x, y)
        if vout < cap and (c2 is None or ratio > c2):
            c2, whigh = ratio, (x, y)
    return (c1, c2, exhaustive, count, wlow, whigh)


def _ref_scaling_profile(f):
    """scaling_profile as a scan of all pairs; the table as a list of
    items, so that key order counts."""
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    table = {}
    for x, y in combinations(range(M), 2):
        vin = _ref_valuation((x - y) % M, p, D)
        vout = _ref_valuation((f(x) - f(y)) % M, p, cap)
        if vout >= cap:
            continue
        prev = table.get(vin)
        if prev is None:
            table[vin] = vout
        elif prev != vout:
            return list(table.items()), False, (x, y)
    return list(table.items()), True, None


def _ref_check_locally_scaling(f, k, m_exp):
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    for x, y in combinations(range(M), 2):
        vin = _ref_valuation((x - y) % M, p, D)
        if vin < k - ctx.u_min:
            continue
        expected = vin + m_exp
        if expected >= cap:
            continue
        if _ref_valuation((f(x) - f(y)) % M, p, cap) != expected:
            return False, (x, y)
    return True, None


def _ref_expansivity_constant(f, horizon):
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    worst_v = witness = None
    for x, y in combinations(range(M), 2):
        a, b = x, y
        best_v = _ref_valuation((a - b) % M, p, D)
        for _ in range(horizon):
            if worst_v is not None and best_v <= worst_v:
                break
            a, b = f(a), f(b)
            best_v = min(best_v, _ref_valuation((a - b) % M, p, D))
        if worst_v is None or best_v > worst_v:
            worst_v, witness = best_v, (x, y)
    return NormValue(p, ctx.u_min + worst_v), witness


def _ref_image_openness(f):
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    image = {f(x) % M for x in range(M)}
    for n0 in range(0, cap - 1):
        step = p ** n0
        coset_size = M // step
        groups = {}
        for y in image:
            groups.setdefault(y % step, set()).add(y)
        if all(len(g) == coset_size for g in groups.values()):
            return NormValue(p, ctx.u_min + n0)
    return None


def _estimate_fields(est):
    return (est.c1_lower, est.c2_upper, est.exhaustive, est.pairs,
            est.witness_low, est.witness_high)


def _profile_fields(prof):
    return list(prof.table.items()), prof.consistent, prof.witness


def _seeded_cases(p, N):
    """(map, locally-scaling (k, m) checks) on Z_p at N digits: the shift,
    an affine contraction, example2_R, a seeded digit_local perturbation
    of each of the first two, furno_compose at the right and a wrong
    exponent, and the identity with f(M-1) = f(M-2), whose least-ratio
    pair (M-2, M-1) is the last pair of the scan."""
    ctx = PrecisionContext(p, N)
    shift = builtin_map("shift_zp", ctx)
    affine = builtin_map("affine", ctx, v=p, w=1)
    cases = [(shift, [(1, 1)]), (affine, [(0, 1), (0, 2)]),
             (builtin_map("example2_R", ctx), [(0, 1)])]
    for base, kd in ((shift, 1), (affine, 2)):
        phi = make_lipschitz_perturbation(ctx, "digit_local",
                                          NormValue(p, kd), seed=N + kd)
        cases.append((perturb(base, phi), [(0, 1)]))
    w = bijective_isometry(ctx, "triangular", seed=N)
    cases.append((furno_compose(w, 2), [(2, -2), (2, -1), (1, -2)]))
    M = ctx.modulus
    late = list(range(M))
    late[M - 1] = M - 2
    cases.append((DynamicMap("late", ctx, late.__getitem__),
                  [(0, 0), (1, 0)]))
    return cases


@pytest.mark.parametrize("p, N", [(2, 6), (2, 8), (3, 5), (3, 6), (5, 4)])
def test_level_profile_scans_bit_identical_to_pair_scans(p, N):
    consistent = {True: 0, False: 0}
    scaling = {True: 0, False: 0}
    cases = _seeded_cases(p, N)
    if p ** N > 300:
        cases = cases[3:]       # all but the first three maps
    for f, checks in cases:
        f.tabulate()
        assert _estimate_fields(estimate_lipschitz(f)) == \
            _ref_estimate_lipschitz(f)
        prof = scaling_profile(f)
        assert _profile_fields(prof) == _ref_scaling_profile(f)
        consistent[prof.consistent] += 1
        assert image_openness(f) == _ref_image_openness(f)
        for k, m in checks:
            result = check_locally_scaling(f, k, m)
            assert result == _ref_check_locally_scaling(f, k, m)
            scaling[result[0]] += 1
    # inconsistent profiles and failing checks take the witness scan
    assert all(consistent.values()) and all(scaling.values())


def test_level_profile_scans_bit_identical_at_2_10():
    # estimate_lipschitz of example2_R at 2^10 is pinned below
    ctx = PrecisionContext(2, 10)
    R = builtin_map("example2_R", ctx)
    g = perturb(builtin_map("shift_zp", ctx), make_lipschitz_perturbation(
        ctx, "digit_local", NormValue(2, 1), seed=3))
    for f in (R, g):
        f.tabulate()
        assert _profile_fields(scaling_profile(f)) == _ref_scaling_profile(f)
    assert _estimate_fields(estimate_lipschitz(g)) == \
        _ref_estimate_lipschitz(g)


def test_level_profile_scans_bit_identical_in_qp():
    for spec in ((3, 2, -2, 1), (2, 4, -2, 2)):
        ctx = PrecisionContext(*spec, "Qp")
        for a in range(min(ctx.prime, 3)):
            f = builtin_map("rho_open_Ra", ctx, a=a)
            f.tabulate()
            assert _estimate_fields(estimate_lipschitz(f)) == \
                _ref_estimate_lipschitz(f)
            assert _profile_fields(scaling_profile(f)) == \
                _ref_scaling_profile(f)
            for k, m in ((-1, 1), (0, 1), (0, 2)):
                assert check_locally_scaling(f, k, m) == \
                    _ref_check_locally_scaling(f, k, m)


def test_estimate_lipschitz_least_ratio_below_the_cap():
    # level 0 of this triangular digit map has 1 <= v(g(x) - g(y)) <= 4
    # under a cap of 5, so the least ratio 3^-4 comes from a bisected hi,
    # and the first pair attaining it is far from 0
    ctx = PrecisionContext(3, 5)
    g = make_lipschitz_perturbation(ctx, "digit_local", NormValue(3, 0),
                                    seed=2).map
    est = estimate_lipschitz(g)
    assert (est.c1_lower, est.witness_low) == (Fraction(1, 81), (2, 77))
    assert _estimate_fields(est) == _ref_estimate_lipschitz(g)


def test_scaling_profile_keeps_first_resolved_key_order():
    # T(0) agrees with every level-1 partner of 0 and differs from 4, so
    # the pair scan resolves level 2 (at (0, 4)) before level 0 (at
    # (1, 4)) and level 1 (at (2, 4)): the profile is consistent and its
    # keys are not in ascending order
    ctx = PrecisionContext(2, 3)
    images = [0, 0, 0, 0, 1, 0, 0, 0]
    f = DynamicMap("bump", ctx, images.__getitem__)
    prof = scaling_profile(f)
    assert list(prof.table.items()) == [(2, 0), (0, 0), (1, 0)]
    assert _profile_fields(prof) == _ref_scaling_profile(f)
    # example2_L resolves level 1 at (0, 2) and level 0 only at (0, 3)
    L = builtin_map("example2_L", ctx)
    prof = scaling_profile(L)
    assert prof.consistent and list(prof.table) == [1, 0]
    assert _profile_fields(prof) == _ref_scaling_profile(L)


def test_scaling_profile_inconsistent_below_the_cap():
    # a perturbation as large as the contraction: level 1 holds output
    # valuations 2 and 3 under a cap of 4, the only level that does
    ctx = PrecisionContext(2, 4)
    g = perturb(builtin_map("affine", ctx, v=2, w=1),
                make_lipschitz_perturbation(ctx, "digit_local",
                                            NormValue(2, 0), seed=6))
    prof = scaling_profile(g)
    assert not prof.consistent and prof.witness == (1, 3)
    assert _profile_fields(prof) == _ref_scaling_profile(g)


def test_expansivity_bit_identical_to_pair_scan():
    for p, N in ((2, 6), (3, 4), (5, 3)):
        for f, _ in _seeded_cases(p, N):
            f.tabulate()
            for horizon in (0, 2, 5):
                assert expansivity_constant(f, horizon) == \
                    _ref_expansivity_constant(f, horizon)


def test_estimate_lipschitz_bit_identical_to_reference():
    cases = []
    for N in (6, 8, 10):
        cases.append(builtin_map("example2_R", PrecisionContext(2, N)))
    ctx = PrecisionContext(3, 5)
    cases.append(builtin_map("shift_zp", ctx))
    cases.append(builtin_map("affine", ctx, v=3, w=2))
    cases.append(perturb(builtin_map("shift_zp", ctx),
                         make_lipschitz_perturbation(ctx, "digit_local",
                                                     NormValue(3, 2), seed=5)))
    cases.append(builtin_map("rho_open_Ra", PrecisionContext(3, 2, -2, 1, "Qp"),
                             a=1))
    for f in cases:
        assert _estimate_fields(estimate_lipschitz(f)) == \
            _ref_estimate_lipschitz(f)
    # contexts the pair scans sampled are now scanned exactly; the
    # sampled ratios, two seeds each, lie inside the exact range
    for f, c1, c2 in (
            (builtin_map("affine", PrecisionContext(3, 8), v=3, w=1),
             Fraction(1, 3), Fraction(1, 3)),
            (builtin_map("example2_R", PrecisionContext(2, 15)),
             Fraction(1, 2 ** 8), Fraction(1, 2))):
        M = f.ctx.modulus
        est = estimate_lipschitz(f)
        assert (est.c1_lower, est.c2_upper) == (c1, c2)
        assert est.exhaustive and est.pairs == M * (M - 1) // 2
        for seed in (0, 7):
            s1, s2, exhaustive, *_ = _ref_estimate_lipschitz(f, seed)
            assert not exhaustive
            assert c1 <= s1 <= c2 and c1 <= s2 <= c2


def test_passing_locally_scaling_check_walks_no_pairs(monkeypatch):
    # the level profile alone certifies a passing check
    def walk(f, ranges):
        raise AssertionError(f"pair walk over {ranges}")

    monkeypatch.setattr(analysis, "_first_pairs", walk)
    ctx = PrecisionContext(2, 8)
    f = furno_compose(bijective_isometry(ctx, "triangular", seed=1), 2)
    R = builtin_map("affine", PrecisionContext(3, 6), v=3, w=2)
    for g, k, m in ((f, 2, -2), (R, 0, 1), (R, 2, 1)):
        assert check_locally_scaling(g, k, m) == (True, None)
    with pytest.raises(AssertionError, match="pair walk"):
        check_locally_scaling(f, 2, -1)


def test_scans_raise_above_ball_budget():
    ctx = PrecisionContext(2, 10, ball_budget=1 << 9)
    f = builtin_map("shift_zp", ctx)
    for scan in (estimate_lipschitz, scaling_profile,
                 lambda f: check_locally_scaling(f, 1, 1),
                 lambda f: expansivity_constant(f, 2), image_openness):
        with pytest.raises(BudgetExceeded):
            scan(f)
