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
    bijective_isometry,
    builtin_map,
    furno_compose,
    perturb,
    make_lipschitz_perturbation,
)
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
# the exponent-only scan against the Fraction-per-pair reference
# ---------------------------------------------------------------------------

def _ref_valuation(m, p, cap):
    if m == 0:
        return cap
    v = 0
    while m % p == 0 and v < cap:
        m //= p
        v += 1
    return v


def _ref_pair_iter(f, inputs, pair_budget, sample, seed):
    """The pair source before the scans took the residue count alone."""
    ctx = f.ctx
    if inputs is None:
        if ctx.modulus <= 1 << 14:
            inputs = range(ctx.modulus)
        else:
            rng = random.Random(seed)
            M = ctx.modulus
            return False, ((rng.randrange(M), rng.randrange(M))
                           for _ in range(sample))
    inputs = list(inputs)
    npairs = len(inputs) * (len(inputs) - 1) // 2
    if npairs <= pair_budget:
        return True, combinations(inputs, 2)
    rng = random.Random(seed)
    return False, ((rng.choice(inputs), rng.choice(inputs))
                   for _ in range(sample))


def _ref_estimate_lipschitz(f, seed=0):
    """estimate_lipschitz with one Fraction ratio per pair."""
    ctx = f.ctx
    p, D = ctx.prime, ctx.total_digits
    cap = D - f.precision_loss
    M = ctx.modulus
    exhaustive, pairs = _ref_pair_iter(f, None, 1 << 22, 20000, seed)
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


def _estimate_fields(est):
    return (est.c1_lower, est.c2_upper, est.exhaustive, est.pairs,
            est.witness_low, est.witness_high)


def test_pairs_match_reference_pair_source():
    # around the exhaustive threshold (2,896 residues), between it and
    # 2^14 (where the reference drew from a list) and above 2^14
    for p, N in ((2, 6), (3, 5), (2, 11), (2, 12), (3, 8), (2, 15)):
        f = builtin_map("shift_zp", PrecisionContext(p, N))
        for seed in (0, 7):
            exhaustive, pairs = analysis._pairs(f.ctx.modulus, seed)
            ref_exhaustive, ref_pairs = _ref_pair_iter(f, None, 1 << 22,
                                                       20000, seed)
            assert exhaustive == ref_exhaustive == (p ** N <= 2896)
            assert list(pairs) == list(ref_pairs)


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
    # sampled contexts, two seeds each
    for f in (builtin_map("affine", PrecisionContext(3, 8), v=3, w=1),
              builtin_map("example2_R", PrecisionContext(2, 15))):
        for seed in (0, 7):
            est = estimate_lipschitz(f, seed=seed)
            assert not est.exhaustive
            assert _estimate_fields(est) == _ref_estimate_lipschitz(f, seed)

