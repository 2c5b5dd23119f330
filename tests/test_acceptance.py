"""End-to-end acceptance battery.

Twelve desk-scale criteria covering the arithmetic core, the shadowing
solver and its exhaustive oracle, the three conjugacy builders, the
metric estimators and the transported-subshift demonstration.  Each test
prints a one-line summary and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

from padic_dynamics.analysis import (
    check_locally_scaling,
    estimate_lipschitz,
    image_openness,
)
from padic_dynamics.conjugacy import (
    build_conjugacy_thm1,
    build_conjugacy_thm3,
    build_inverse_conjugacy_thm1,
    homogeneity_homeomorphism,
    transfer_family,
    verify_conjugacy,
)
from padic_dynamics.counterexample import (
    build_cantor_chart,
    build_thm2_map,
    covered_residue_count,
    demonstrate_non_shadowing,
    thm2_right_inverses,
    transported_shift_table,
)
from padic_dynamics.dynamics import (
    bijective_isometry,
    builtin_map,
    furno_compose,
    locally_scaling_inverses,
    make_lipschitz_perturbation,
    perturb,
    shift_right_inverses,
)
from padic_dynamics.padic import (
    NormValue,
    PrecisionContext,
    add,
    mul,
    norm,
    sub,
)
from padic_dynamics.shadowing import (
    brute_force_shadow,
    random_pseudo_orbit,
    solve_shadowing,
)


def _val(m, p, cap):
    if m == 0:
        return cap
    v = 0
    while m % p == 0 and v < cap:
        m //= p
        v += 1
    return v


def test_01_ultrametric_norm_laws():
    """Ultrametric inequality, norm multiplicativity and translation
    isometry over 10^4 random triples for p = 2, 3, 5 at 8 digits."""
    start = time.monotonic()
    N = 8
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, N)
        rng = random.Random(1000 + p)
        for _ in range(10_000):
            a = rng.randrange(ctx.modulus)
            b = rng.randrange(ctx.modulus)
            c = rng.randrange(ctx.modulus)
            x, y, z = ctx.from_int(a), ctx.from_int(b), ctx.from_int(c)
            nx, ny = norm(x), norm(y)
            # ultrametric inequality, with equality at distinct norms
            ns = norm(add(x, y))
            assert ns <= max(nx, ny)
            if nx != ny:
                assert ns == max(nx, ny)
            # multiplicativity wherever the product norm is resolvable
            if not nx.is_zero and not ny.is_zero \
                    and nx.exponent + ny.exponent < N:
                assert norm(mul(x, y)) == NormValue(p, nx.exponent + ny.exponent)
            # translation isometry
            assert norm(sub(add(x, z), add(y, z))) == norm(sub(x, y))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1 ok: 3x10^4 triples, {elapsed:.2f}s")


def test_02_shadowing_bound_for_the_shift():
    """200 seeded pseudo-orbits per prime, delta = p^-3, length 50: the
    solver's correction bound always lands at p^-4 or finer."""
    start = time.monotonic()
    for p in (2, 3, 5):
        ctx = PrecisionContext(p, 12)
        f = builtin_map("shift_zp", ctx)
        fam = shift_right_inverses(ctx)
        delta = NormValue(p, 3)
        target = NormValue(p, 4)
        for seed in range(200):
            orbit = random_pseudo_orbit(f, delta, 50, seed)
            res = solve_shadowing(f, fam, orbit)
            assert res.achieved_bound <= target
            assert res.bound_ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 2 ok: 600 orbits across p=2,3,5, {elapsed:.2f}s")


def test_03_solver_agrees_with_exhaustive_oracle():
    """100 seeded short orbits at p = 2, N = 8: the loss-aware exhaustive
    search never beats the solver bound, and both shadow points coincide
    on the digits the expansive shift pins down."""
    start = time.monotonic()
    ctx = PrecisionContext(2, 8)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(2, 3)
    for seed in range(100):
        L = 3 + seed % 4                     # lengths 3..6
        orbit = random_pseudo_orbit(f, delta, L, seed)
        res = solve_shadowing(f, fam, orbit)
        point, err = brute_force_shadow(f, orbit, respect_loss=True)
        assert err <= res.achieved_bound
        assert (res.point - point) % 2 ** (8 - L) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 3 ok: 100 oracle comparisons, {elapsed:.2f}s")


def test_04_perturbation_conjugacy_with_inverse():
    """20 seeded digit-local perturbations of the shift on Z_3 at 10
    digits: depth-6 conjugacy has no defect above 3^-6, stays within
    3^-3 of the identity, and composes with its inverse to the identity
    at the certified depth."""
    start = time.monotonic()
    ctx = PrecisionContext(3, 10)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    depth = 6
    cert = 3 ** depth
    for seed in range(20):
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
        g = perturb(f, phi)
        h = build_conjugacy_thm1(f, fam, g, delta, depth)
        hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, depth)
        rep = verify_conjugacy(f, g, h)
        assert rep.max_defect <= NormValue(3, 6)
        assert rep.closeness <= NormValue(3, 3)
        assert rep.injective
        for x in range(ctx.modulus):
            assert (hinv(h(x)) - x) % cert == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 4 ok: 20 conjugacy/inverse pairs, {elapsed:.2f}s")


def test_05_locally_scaling_compositions():
    """Three isometry-composed (p^-2, p^2) locally scaling maps at p = 2,
    N = 8: the scaling law checks out, all four right inverses compose
    back to the identity at certified precision, and the shadowing bound
    of criterion 2 carries over."""
    start = time.monotonic()
    ctx = PrecisionContext(2, 8)
    k = 2
    delta = NormValue(2, 3)
    target = NormValue(2, 4)
    cert = 2 ** (ctx.total_digits - k)
    for seed in (1, 2, 3):
        w = bijective_isometry(ctx, "triangular", seed)
        fmap = furno_compose(w, k)
        ok, _ = check_locally_scaling(fmap, k, -k)
        assert ok
        fam = locally_scaling_inverses(w, k)
        for R in fam.members:
            for x in range(ctx.modulus):
                assert fmap(R(x)) == x % cert
        for seed2 in range(20):
            orbit = random_pseudo_orbit(fmap, delta, 20, seed2)
            res = solve_shadowing(fmap, fam, orbit)
            assert res.achieved_bound <= target
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 5 ok: 3 scaling maps verified, {elapsed:.2f}s")


def test_06_transferred_inverses_keep_contraction_and_image():
    """10 (right inverse, perturbation) pairs at p = 2 and 3: measured
    Lip of the transferred inverse stays below Lip(R)/(1 - delta Lip(R))
    and the transferred image equals the original one residue-for-residue."""
    start = time.monotonic()
    for p in (2, 3):
        ctx = PrecisionContext(p, 8)
        fam = shift_right_inverses(ctx)
        delta = NormValue(p, 2)
        bound = fam.lip_upper / (1 - delta.as_fraction() * fam.lip_upper)
        for seed in range(5):
            phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
            R = fam.members[seed % p]
            tfam = transfer_family(fam, phi.map.tabulate(), delta)
            Rt = tfam.members[seed % p]
            est = estimate_lipschitz(Rt)
            assert est.exhaustive and est.c2_upper <= bound
            M = ctx.modulus
            assert {Rt(x) for x in range(M)} == {R(x) for x in range(M)}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 6 ok: 10 transfer pairs at p=2,3, {elapsed:.2f}s")


def test_07_contraction_conjugacies():
    """The affine contraction 3x+1 on Z_3 plus two isometry-scaled
    contractions, 10 perturbations each with delta = 3^-3: exact
    intertwining on every residue, bijective, within delta of the
    identity, fixed point to fixed point."""
    start = time.monotonic()
    ctx = PrecisionContext(3, 6)
    delta = NormValue(3, 3)
    contractions = [
        builtin_map("affine", ctx, v=3, w=1),
        builtin_map("scaled_isometry", ctx, m=1, iso="triangular", seed=4),
        builtin_map("scaled_isometry", ctx, m=2, iso="alphabet", seed=9, c=2),
    ]
    for R in contractions:
        x_r = 0
        for _ in range(4 * ctx.total_digits):
            x_r = R(x_r)
        assert R(x_r) == x_r
        for seed in range(10):
            phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
            T = perturb(R, phi)
            h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
            rep = verify_conjugacy(R, T, h)
            assert rep.max_defect.is_zero
            assert rep.injective
            assert rep.closeness <= delta
            x_t = 0
            for _ in range(4 * ctx.total_digits):
                x_t = T(x_t)
            assert T(x_t) == x_t and h(x_t) == x_r
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7 ok: 30 contraction conjugacies, {elapsed:.2f}s")


def test_08_perturbed_contractions_scale_like_the_original():
    """For delta strictly inside the contraction margin, the perturbed
    map reproduces the original's distance scaling exactly: every pair,
    every iterate up to 5, at N = 6."""
    start = time.monotonic()
    ctx = PrecisionContext(3, 6)
    p, D, M = 3, ctx.total_digits, ctx.modulus
    cases = [
        (builtin_map("affine", ctx, v=3, w=1), NormValue(3, 2)),
        (builtin_map("scaled_isometry", ctx, m=1, seed=6), NormValue(3, 2)),
        (builtin_map("scaled_isometry", ctx, m=2, seed=7), NormValue(3, 3)),
    ]
    for R, delta in cases:
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=5)
        T = perturb(R, phi)
        r_iter = list(range(M))
        t_iter = list(range(M))
        for n in range(1, 6):
            r_iter = [R(x) for x in r_iter]
            t_iter = [T(x) for x in t_iter]
            for x in range(M):
                for y in range(x + 1, M, 7):
                    assert _val(r_iter[x] - r_iter[y], p, D) == \
                        _val(t_iter[x] - t_iter[y], p, D)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 8 ok: scaling identity to iterate 5, {elapsed:.2f}s")


def test_09_digit_spreading_map_loses_bi_lipschitz():
    """The digit-spreading contraction is injective, its digit-cancelling
    perturbations collapse explicit pairs, and the measured lower
    Lipschitz constant keeps falling as the budget grows."""
    start = time.monotonic()
    ctx = PrecisionContext(2, 8)
    R = builtin_map("example2_R", ctx)
    # digit i lands at position 2i+1, so an 8-digit output window only
    # resolves the low 4 input digits; injectivity is certified on those
    # input classes and the perturbations break it right there
    classes = range(16)
    assert len({R(x) for x in classes}) == len(classes)
    for n in (1, 2):
        phi = builtin_map("example2_phi_n", ctx, n=n)
        M = ctx.modulus
        T = lambda x: (R(x) + phi(x)) % M
        x = 5                                 # digit n set vs cleared
        y = x ^ (1 << n)
        assert x != y and T(x) == T(y)
        assert len({T(x) for x in classes}) < len(classes)
    lows = []
    for N in (6, 8, 10):
        c = PrecisionContext(2, N)
        est = estimate_lipschitz(builtin_map("example2_R", c))
        lows.append(est.c1_lower)
    assert lows[0] > lows[1] > lows[2]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 9 ok: injective, collisions at n=1,2, "
          f"c1 {lows[0]} > {lows[1]} > {lows[2]}, {elapsed:.2f}s")


def test_10_non_covering_inverses_forfeit_shadowing():
    """Transported even shift at chart depth 10: a delta = 3^-6
    pseudo-orbit that no residue shadows within 3^-2, while the same
    demonstration over the full shift's closed-form chart is shadowed;
    the right inverses individually invert the map yet jointly miss a
    fixed fraction of the space."""
    start = time.monotonic()
    p, depth = 3, 10
    delta, eps = NormValue(p, 6), NormValue(p, 2)
    chart = build_cantor_chart("even", p, depth)
    res = demonstrate_non_shadowing(p, depth, delta, eps, "even", chart=chart)
    assert not res.shadowed and res.best_error_s > eps
    control = demonstrate_non_shadowing(p, depth, delta, eps, "full",
                                        require_witness=False)
    assert control.shadowed and control.best_error_s <= eps

    ctx = PrecisionContext(p, depth + 2)
    ft = build_thm2_map(ctx, transported_shift_table(chart)).tabulate()
    cert = p ** (ctx.total_digits - 2)
    covered = set()
    for R in thm2_right_inverses(ctx).members:
        rt = R.tabulate()
        assert all(ft[y] == x % cert for x, y in enumerate(rt))
        covered.update(rt)
    assert len(covered) == covered_residue_count(ctx) < ctx.modulus
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 10 ok: witness q={res.q} error {res.best_error_s!r}, "
          f"control q={control.q} error {control.best_error_s!r}, "
          f"{elapsed:.2f}s")


def test_11_image_openness_certificates():
    """Every scaling bi-Lipschitz contraction exposes an open image at a
    positive radius; the digit-spreading map exposes none."""
    start = time.monotonic()
    ctx = PrecisionContext(3, 8)
    ctx2 = PrecisionContext(2, 8)
    open_maps = [
        builtin_map("affine", ctx, v=3, w=1),
        builtin_map("affine", ctx, v=9, w=2),
        builtin_map("scaled_isometry", ctx, m=1, seed=2),
        builtin_map("scaled_isometry", ctx, m=2, seed=3, c=7),
        builtin_map("affine", ctx2, v=2, w=1),
    ]
    for R in open_maps:
        rho = image_openness(R)
        assert rho is not None and not rho.is_zero
    assert image_openness(builtin_map("example2_R", ctx2)) is None
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 11 ok: 5 open images, 1 refusal, {elapsed:.2f}s")


def test_12_sequence_matching_homeomorphisms():
    """50 seeded pairs of proper sequences (length <= 10) within
    delta = p^-2 of each other: the swap product is a bijection sending
    each source term to its target, within 3*delta of the identity."""
    start = time.monotonic()
    ctx = PrecisionContext(3, 5)
    delta = NormValue(3, 2)
    step = 3 ** 3                            # strictly inside delta
    rng = random.Random(2024)
    for case in range(50):
        n = rng.randrange(2, 11)
        ys, zs = [], []
        while len(ys) < n:
            y = rng.randrange(ctx.modulus)
            z = (y + step * rng.randrange(ctx.modulus // step)) % ctx.modulus
            if y in ys or z in zs:
                continue
            ys.append(y)
            zs.append(z)
        phi = homogeneity_homeomorphism(ctx, ys, zs, delta)
        assert phi.is_bijective()
        for y, z in zip(ys, zs):
            assert phi(y) == z
        assert phi.closeness.as_fraction() < 3 * delta.as_fraction()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 12 ok: 50 matched sequence pairs, {elapsed:.2f}s")
