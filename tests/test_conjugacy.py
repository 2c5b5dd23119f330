"""Conjugacy builder tests: perturbation conjugacies and their inverses,
right-inverse transfer (against the pointwise reference), contraction-layer
conjugacies, and the ball-swap homeomorphism for close proper sequences."""

import hashlib
import random
from fractions import Fraction

import pytest

from padic_dynamics.analysis import estimate_lipschitz
from padic_dynamics.conjugacy import (
    ConjugacyMap,
    _fixed_point,
    build_conjugacy_thm1,
    build_conjugacy_thm3,
    build_inverse_conjugacy_thm1,
    homogeneity_homeomorphism,
    partition_contraction_domain,
    transfer_family,
    verify_conjugacy,
)
from padic_dynamics.dynamics import (
    DynamicMap,
    LipschitzPerturbation,
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
    CoveringViolation,
    DeltaTooLarge,
    NonConvergence,
    NotClose,
    NotInjective,
    NotProper,
)
from padic_dynamics.padic import NormValue, PAdic, PrecisionContext, norm_zero


# ---------------------------------------------------------------------------
# perturbation conjugacy and its inverse
# ---------------------------------------------------------------------------

def test_thm1_conjugacy_for_perturbed_shift():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    depth = 4
    for seed in (0, 1, 2):
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
        g = perturb(f, phi)
        h = build_conjugacy_thm1(f, fam, g, delta, depth)
        rep = verify_conjugacy(f, g, h)
        assert rep.max_defect <= NormValue(3, depth)
        assert rep.injective
        assert rep.closeness <= delta.scaled(1)    # |h - id| <= delta/p


def test_thm1_inverse_round_trip():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    depth = 4
    cert = 3 ** (ctx.total_digits - depth)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=5)
    g = perturb(f, phi)
    h = build_conjugacy_thm1(f, fam, g, delta, depth)
    hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, depth)
    for x in range(ctx.modulus):
        assert (hinv(h(x)) - x) % cert == 0
        assert (h(hinv(x)) - x) % cert == 0


def test_thm1_rejects_delta_at_contraction_margin():
    # the shift on Z_2 contracts by 1/2, so only delta < 2 - 1 = 1 works
    ctx = PrecisionContext(2, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    g = f
    with pytest.raises(DeltaTooLarge):
        build_conjugacy_thm1(f, fam, g, NormValue(2, 0), 3)


def test_thm1_depth_tightens_defect():
    ctx = PrecisionContext(3, 8)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=7)
    g = perturb(f, phi)
    defects = []
    for depth in (2, 4, 6):
        h = build_conjugacy_thm1(f, fam, g, delta, depth)
        defects.append(verify_conjugacy(f, g, h).max_defect)
    assert defects[0] >= defects[1] >= defects[2]
    assert defects[2] <= NormValue(3, 6)


# ---------------------------------------------------------------------------
# the table engine against the pointwise recursion it replaced
# ---------------------------------------------------------------------------

def _pointwise_recursion(step, family, depth):
    """Reference: x + z_0(x) for each residue from its own step-orbit,
    z_depth = 0 and z_n = R_{i_n}(x_{n+1} + z_{n+1}) - x_n."""
    M = step.ctx.modulus
    table = []
    for x in range(M):
        orbit = [x]
        for _ in range(depth):
            orbit.append(step(orbit[-1]))
        z = 0
        for n in range(depth - 1, -1, -1):
            R = family.members[family.membership(orbit[n])]
            z = (R((orbit[n + 1] + z) % M) - orbit[n]) % M
        table.append((x + z) % M)
    return table


def _ref_transfer_family(family, phi, delta):
    """Reference: the pointwise transfer R-tilde = R o H^-1, H = id + phi o R,
    each residue z inverted by iterating x = z - phi(R(x)) until it
    stabilises; phi is a callable.  The family's bound is the first
    member's."""
    members = []
    for R in family.members:
        shrink = delta.as_fraction() * R.lip_upper
        if shrink >= 1:
            raise DeltaTooLarge(f"delta * Lip(R) = {shrink} >= 1")
        ctx = R.ctx
        M = ctx.modulus
        limit = ctx.total_digits + 2

        def fn(z, R=R, M=M, limit=limit):
            x = z
            for _ in range(limit):
                nxt = (z - phi(R(x))) % M
                if nxt == x:
                    return R(x)
                x = nxt
            raise NonConvergence("contraction inversion did not stabilise")

        members.append(DynamicMap(f"transfer[{R.name}]", ctx, fn,
                                  R.precision_loss,
                                  R.lip_upper / (1 - shrink), None,
                                  {"base": R, "delta": delta}))
    return RightInverseFamily(tuple(members), family.membership)


def _pointwise_closeness(ctx, table):
    return max(ctx.norm_of_int(y - x) for x, y in enumerate(table))


def _norm_key(n):
    return (n.prime, n.exponent, n.bound_exp)


def _thm1_case(p, N, k):
    """The shift (k == 0) or the furno map S^k o w, with its right inverses."""
    ctx = PrecisionContext(p, N)
    if k == 0:
        return builtin_map("shift_zp", ctx), shift_right_inverses(ctx)
    w = bijective_isometry(ctx, "triangular", seed=k)
    return furno_compose(w, k), locally_scaling_inverses(w, k)


@pytest.mark.parametrize("p, N, k", [(2, 8, 0), (3, 6, 0), (5, 4, 0),
                                     (2, 8, 1), (2, 8, 2)])
@pytest.mark.parametrize("seed", [0, 1])
def test_thm1_tables_match_pointwise_recursion(p, N, k, seed):
    f, fam = _thm1_case(p, N, k)
    ctx = f.ctx
    M = ctx.modulus
    delta = NormValue(p, 1)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
    g = perturb(f, phi)
    tfam = _ref_transfer_family(fam, lambda m: (g(m) - f(m)) % M, delta)
    for depth in range(1, 7):
        h = build_conjugacy_thm1(f, fam, g, delta, depth)
        ref = _pointwise_recursion(g, fam, depth)
        assert h.table == ref
        assert _norm_key(h.closeness) == \
            _norm_key(_pointwise_closeness(ctx, ref))
        hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, depth)
        ref = _pointwise_recursion(f, tfam, depth)
        assert hinv.table == ref
        assert _norm_key(hinv.closeness) == \
            _norm_key(_pointwise_closeness(ctx, ref))


def _thin_member_cases():
    """Families whose members cover one residue or none: the shift at
    p = 2 and p = 3 with N = 1, unperturbed, and the shift at 2^4 with a
    duplicate member, at the end or in the middle, that membership never
    picks."""
    for p in (2, 3):
        ctx = PrecisionContext(p, 1)
        f = builtin_map("shift_zp", ctx)
        yield f, shift_right_inverses(ctx), f
    ctx = PrecisionContext(2, 4)
    f = builtin_map("shift_zp", ctx)
    r0, r1 = shift_right_inverses(ctx).members
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local",
                                               NormValue(2, 1), 0))
    yield f, RightInverseFamily((r0, r1, r1), lambda m: m % 2), g
    yield f, RightInverseFamily((r0, r0, r1), lambda m: 2 * (m % 2)), g


@pytest.mark.parametrize("case", range(4), ids=[
    "shift-2^1", "shift-3^1", "unpicked-last-2^4", "unpicked-middle-2^4"])
def test_thm1_tables_match_pointwise_recursion_for_thin_members(case):
    f, fam, g = list(_thin_member_cases())[case]
    ctx = f.ctx
    M = ctx.modulus
    delta = NormValue(ctx.prime, 1)
    tfam = _ref_transfer_family(fam, lambda m: (g(m) - f(m)) % M, delta)
    for depth in range(7):
        h = build_conjugacy_thm1(f, fam, g, delta, depth)
        assert h.table == _pointwise_recursion(g, fam, depth)
        hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, depth)
        assert hinv.table == _pointwise_recursion(f, tfam, depth)
    assert min(fam.membership_grouping()[2]) <= 1


def _pinned_shift():
    ctx = PrecisionContext(3, 10)
    return (builtin_map("shift_zp", ctx), shift_right_inverses(ctx),
            NormValue(3, 2))


def _pinned_furno():
    w = bijective_isometry(PrecisionContext(2, 10), "triangular", seed=0)
    return furno_compose(w, 2), locally_scaling_inverses(w, 2), NormValue(2, 3)


@pytest.mark.parametrize("case, digest", [
    (_pinned_shift,
     "b6884bd23ee7b231ae31b0f2b057d0762ca9c042388e0ba109c5305bc0894d74"),
    (_pinned_furno,
     "f442fe59f83cec105e597011a3bf6b29af52a92cac3b5f8e2a64d1385cc80207"),
])
def test_thm1_tables_are_pinned(case, digest):
    """h and h-tilde of the shift at 3^10 and of furno(k=2) at 2^10
    (digit_local seed 0, depth 6) hash to fixed digests: the tables stay
    bit-identical whatever order the passes visit the residues in."""
    f, fam, delta = case()
    g = perturb(f, make_lipschitz_perturbation(f.ctx, "digit_local", delta, 0))
    h = build_conjugacy_thm1(f, fam, g, delta, 6)
    hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, 6)
    tables = repr((h.table, hinv.table)).encode()
    assert hashlib.sha256(tables).hexdigest() == digest


def test_thm1_builders_refuse_stray_membership_indices():
    """A membership index below 0 or past the last member is refused,
    naming the first such residue, by both builders and every time."""
    ctx = PrecisionContext(3, 4)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 0))
    for stray, match in (({7: -1}, r"membership\(7\) = -1 "),
                         ({7: 3}, r"membership\(7\) = 3 "),
                         ({40: -1, 9: 3}, r"membership\(9\) = 3 ")):
        bad = RightInverseFamily(
            fam.members, lambda m, stray=stray: stray.get(m, m % 3))
        for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1) * 2:
            with pytest.raises(BadParams, match=match):
                build(f, bad, g, delta, 3)


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_thm1_builders_refuse_a_member_without_a_declared_bound(where):
    """A member that declares no Lipschitz bound is refused by name; the
    contraction rate used to crash comparing a Fraction with None."""
    ctx = PrecisionContext(3, 4)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    members = list(fam.members)
    members[where] = DynamicMap("unbounded", ctx, members[where].fn)
    bad = RightInverseFamily(tuple(members), fam.membership)
    delta = NormValue(3, 2)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 0))
    for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1):
        with pytest.raises(BadParams, match="right inverse unbounded "
                                            "declares no Lipschitz bound"):
            build(f, bad, g, delta, 3)


def test_thm1_builders_reject_non_covering_family():
    ctx = PrecisionContext(3, 5)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    # residues ending in digit 0 are left uncovered
    partial = RightInverseFamily(fam.members,
                                 lambda m: m % 3 if m % 3 else None)
    delta = NormValue(3, 2)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 0))
    for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1):
        with pytest.raises(CoveringViolation):
            build(f, partial, g, delta, 3)


def test_thm1_builders_read_membership_once():
    """Both thm1 builders on two perturbations share one membership table
    and one grouped residue order: membership runs once per residue, the
    grouping is built by the first build and kept, and the conjugacies
    equal those built with a fresh family each time.  A family that
    misses residues is refused, naming the first one, also once its
    table is shared."""
    ctx = PrecisionContext(3, 5)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    calls = []
    counted = RightInverseFamily(
        fam.members, lambda m: calls.append(m) or fam.membership(m))
    delta = NormValue(3, 2)
    assert counted._grouping is None
    groupings = []
    for seed in (0, 1):
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
        g = perturb(f, phi)
        for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1):
            fresh = RightInverseFamily(fam.members, fam.membership)
            assert build(f, counted, g, delta, 3).table == \
                build(f, fresh, g, delta, 3).table
            groupings.append(counted._grouping)
    assert calls == list(range(ctx.modulus))
    order, pos, counts = grouping = counted.membership_grouping()
    assert all(x is grouping for x in groupings)
    assert counts == [81, 81, 81]
    assert order == sorted(range(ctx.modulus), key=lambda x: x % 3)
    assert [order[j] for j in pos] == list(range(ctx.modulus))
    assert all(x is ctx.residues[x] for x in order + pos)
    partial = RightInverseFamily(
        fam.members, lambda m: None if m in (100, 200) else m % 3)
    for build in (build_conjugacy_thm1, build_inverse_conjugacy_thm1) * 2:
        with pytest.raises(CoveringViolation, match="residue 100 is not"):
            build(f, partial, g, delta, 3)


def test_thm1_inverse_rejects_colliding_transfer():
    # g == 0 is no small perturbation of the shift: with phi = g - f,
    # id + phi o R_0 sends every residue to 0, so R_0 has no transfer
    ctx = PrecisionContext(2, 4)
    f = builtin_map("shift_zp", ctx)
    g = DynamicMap("zero", ctx, lambda m: 0)
    with pytest.raises(NotInjective):
        build_inverse_conjugacy_thm1(f, shift_right_inverses(ctx), g,
                                     NormValue(2, 1), 2)


def test_verify_reports_zero_defect_with_resolution_bound():
    # the identity conjugates a map to itself; in field mode the
    # resolution exponent differs from the digit count
    for ctx in (PrecisionContext(3, 5), PrecisionContext(3, 4, -2, 0, "Qp")):
        f = builtin_map("affine", ctx, v=3, w=1)
        M = ctx.modulus
        h = ConjugacyMap(ctx, list(range(M)))
        rep = verify_conjugacy(f, f, h)
        assert rep.max_defect.is_zero
        assert rep.max_defect.bound_exp == ctx.resolution_exp
        assert rep.injective and rep.residues == M


def test_closeness_is_the_pointwise_max_of_every_builder():
    """Each builder's closeness is max |h(x) - x| over its table, computed
    when first read and then kept; the Theorem 1 inverse's is never read
    by the builder, and the identity's is zero at resolution."""
    ctx = PrecisionContext(3, 5)
    delta = NormValue(3, 2)
    f, fam = builtin_map("shift_zp", ctx), shift_right_inverses(ctx)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 1))
    R = builtin_map("affine", ctx, v=3, w=1)
    T = perturb(R, make_lipschitz_perturbation(ctx, "digit_local", delta, 2))
    hinv = build_inverse_conjugacy_thm1(f, fam, g, delta, 3)
    assert "closeness" not in hinv.__dict__
    maps = [build_conjugacy_thm1(f, fam, g, delta, 3), hinv,
            build_conjugacy_thm3(R, T, 5, delta),
            homogeneity_homeomorphism(ctx, [1, 2], [10, 20], NormValue(3, 1)),
            ConjugacyMap(ctx, list(range(ctx.modulus)))]
    for h in maps:
        want = _pointwise_closeness(ctx, h.table)
        assert _norm_key(h.closeness) == _norm_key(want)
        assert h.__dict__["closeness"] is h.closeness
    assert all(not h.closeness.is_zero for h in maps[:4])
    assert _norm_key(maps[4].closeness) == \
        _norm_key(norm_zero(3, ctx.resolution_exp))


def test_params_hold_no_live_maps():
    """perturb, the right-inverse transfer and furno_compose record plain
    data in params, not the maps they were built from."""
    ctx = PrecisionContext(3, 4)
    delta = NormValue(3, 2)
    f = builtin_map("shift_zp", ctx)
    g = perturb(f, make_lipschitz_perturbation(ctx, "digit_local", delta, 1))
    phi = [(y - x) % ctx.modulus for x, y in zip(f.tabulate(), g.tabulate())]
    w = bijective_isometry(ctx, "triangular", seed=1)
    maps = [g, *transfer_family(shift_right_inverses(ctx), phi, delta).members,
            *transfer_family(locally_scaling_inverses(w, 1), phi,
                             delta).members,
            furno_compose(w, 2)]
    for mp in maps:
        for value in mp.params.values():
            assert not isinstance(value, (DynamicMap, LipschitzPerturbation))
    assert furno_compose(w, 2).params == {"k": 2}


# ---------------------------------------------------------------------------
# right-inverse transfer
# ---------------------------------------------------------------------------

def test_transfer_preserves_images_and_lip_bound():
    ctx = PrecisionContext(2, 8)
    fam = shift_right_inverses(ctx)
    delta = NormValue(2, 2)
    M = ctx.modulus
    for seed in range(5):
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
        tfam = transfer_family(fam, phi.map.tabulate(), delta)
        bound = fam.lip_upper / (1 - delta.as_fraction() * fam.lip_upper)
        assert tfam.lip_upper == bound
        for R, Rt in zip(fam.members, tfam.members):
            est = estimate_lipschitz(Rt)
            assert est.c2_upper <= bound
            assert set(Rt.tabulate()) == set(R.tabulate())


def test_transferred_inverse_inverts_perturbed_map():
    ctx = PrecisionContext(3, 6)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    delta = NormValue(3, 2)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=3)
    g = perturb(f, phi)
    tfam = transfer_family(fam, phi.map.tabulate(), delta)
    cert = 3 ** (ctx.total_digits - 1)
    for Rt in tfam.members:
        for x in range(ctx.modulus):
            assert (g(Rt(x)) - x) % cert == 0


def test_transfer_rejects_large_delta():
    ctx = PrecisionContext(2, 6)
    fam = shift_right_inverses(ctx)
    phi = make_lipschitz_perturbation(ctx, "constant", NormValue(2, 0), c=1)
    with pytest.raises(DeltaTooLarge):
        transfer_family(fam, phi.map.tabulate(), NormValue(2, -1))
    with pytest.raises(DeltaTooLarge):
        _ref_transfer_family(fam, phi, NormValue(2, -1))


def test_transfer_nonconvergence_guard():
    # phi(y) = y // 2 + 1 drops a digit, so it stretches distances by 2
    # and breaks its declared 2^-1 Lipschitz bound: id + phi o R_0
    # collides, so the table transfer raises, and the pointwise inversion
    # cycles instead of stabilising for most residues
    ctx = PrecisionContext(2, 6)
    M = ctx.modulus
    fam = shift_right_inverses(ctx)
    delta = NormValue(2, 1)
    phi = [(y // 2 + 1) % M for y in range(M)]
    with pytest.raises(NotInjective):
        transfer_family(fam, phi, delta)
    Rt = _ref_transfer_family(fam, phi.__getitem__, delta).members[0]
    failures = 0
    for z in range(M):
        try:
            Rt(z)
        except NonConvergence:
            failures += 1
    assert failures == 62


_TRANSFER_FAMILIES = [(2, 8, 0), (3, 6, 0), (5, 4, 0),
                      (2, 8, 1), (2, 8, 2), (3, 5, 1)]


@pytest.mark.parametrize("p, N, k", _TRANSFER_FAMILIES)
def test_table_transfer_matches_pointwise_reference(p, N, k):
    # 6 families x delta = p^-1 .. p^-3 x 3 seeds = 54 cases
    f, fam = _thm1_case(p, N, k)
    ctx = f.ctx
    for e in (1, 2, 3):
        delta = NormValue(p, e)
        for seed in (0, 1, 2):
            phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
            tfam = transfer_family(fam, phi.map.tabulate(), delta)
            ref = _ref_transfer_family(fam, phi, delta)
            assert tfam.membership is fam.membership
            assert tfam.lip_upper == ref.members[0].lip_upper
            for Rt, Rr in zip(tfam.members, ref.members, strict=True):
                assert Rt.tabulate() == [Rr(z) for z in range(ctx.modulus)]
                assert Rt.lip_upper == Rr.lip_upper


@pytest.mark.parametrize("p, N, k", [(3, 6, 0), (5, 4, 0), (2, 10, 1),
                                     (3, 6, 1)])
def test_transferred_tables_hold_the_members_values(p, N, k):
    """Each transferred table is a rearrangement of its member's table
    objects, with no new int made (M > 256, so that the interpreter's
    small-int cache cannot hide a new one)."""
    f, fam = _thm1_case(p, N, k)
    delta = NormValue(p, 1)
    phi = make_lipschitz_perturbation(f.ctx, "digit_local", delta, 0)
    tfam = transfer_family(fam, phi.map.tabulate(), delta)
    for R, Rt in zip(fam.members, tfam.members, strict=True):
        own = {id(v) for v in R.tabulate()}
        assert all(id(v) in own for v in Rt.tabulate())


# ---------------------------------------------------------------------------
# contraction conjugacy
# ---------------------------------------------------------------------------

def test_partition_layers_of_affine_contraction():
    # R(x) = 3x + 1 on 3^6 residues: the image complement holds 2/3 of
    # the space and each deeper layer shrinks by a factor p, leaving the
    # fixed point 364 = -1/2 mod 729 as the core.
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=1)
    part = partition_contraction_domain(R, 6)
    assert [len(layer) for layer in part.layers] == [486, 162, 54, 18, 6, 2, 0]
    assert all(layer == sorted(layer) for layer in part.layers)
    assert part.core == [364]


def test_partition_parent_walk_replays_to_origin():
    ctx = PrecisionContext(3, 4)
    R = builtin_map("affine", ctx, v=3, w=1)
    part = partition_contraction_domain(R, 4)
    for n, layer in enumerate(part.layers):
        for x in layer:
            u = x
            for level in range(n - 1, -1, -1):
                u = part.parent[u]
                assert u in part.layers[level]
            y = u
            for _ in range(n):
                y = R(y)
            assert y == x


# the partition and the chain-root replay that the layer-order pass
# replaced, kept as the reference for it

def _reference_partition(T, depth):
    """(layer_of, layers, core, parents) with layer sets, parents[n] the
    least-preimage dict of S_n into S_(n-1)."""
    current = set(range(T.ctx.modulus))
    layer_of, layers, parents = {}, [], [dict()]
    for n in range(depth + 1):
        nxt, parent = set(), {}
        for x in sorted(current):
            y = T(x)
            nxt.add(y)
            if y not in parent:
                parent[y] = x
        layer = current - nxt
        for x in layer:
            layer_of[x] = n
        layers.append(layer)
        parents.append(parent)
        current = nxt
    return layer_of, layers, current, parents


def _reference_thm3(R, T, depth):
    """(table, closeness): layer points replay their chain root through R,
    core points go to the fixed point of R."""
    ctx = R.ctx
    M = ctx.modulus
    layer_of, _, core, parents = _reference_partition(T, depth)
    table = [0] * M
    moves = []
    for x in range(M):
        if x in layer_of:
            n = layer_of[x]
            u = x
            for level in range(n, 0, -1):
                u = parents[level][u]
            y = u
            for _ in range(n):
                y = R(y)
            table[x] = y
            moves.append((y - x) % M)
    xr = _fixed_point(R)
    for x in sorted(core):
        table[x] = xr
        moves.append((xr - x) % M)
    return table, ctx.max_norm(moves)


@pytest.mark.parametrize("ctx", [
    PrecisionContext(2, 8), PrecisionContext(3, 6), PrecisionContext(5, 4),
    PrecisionContext(3, 4, -2, 0, "Qp")])
@pytest.mark.parametrize("name, params, k", [
    ("affine", {"w": 1}, 1),
    ("scaled_isometry", {"m": 1, "iso": "triangular", "seed": 4}, 1),
    ("scaled_isometry", {"m": 2, "iso": "alphabet", "seed": 9, "c": 2}, 2)])
def test_thm3_layer_pass_matches_chain_root_replay(ctx, name, params, k):
    # shallow depths leave multi-point cores and a non-injective h
    p, N = ctx.prime, ctx.total_digits
    if name == "affine":
        params = dict(params, v=p)
    R = builtin_map(name, ctx, **params)
    delta = NormValue(p, k + 1)
    for seed in range(3):
        T = perturb(R, make_lipschitz_perturbation(ctx, "digit_local", delta,
                                                   seed))
        for depth in (1, 2, N // 2, N, N + 2):
            layer_of, layers, core, parents = _reference_partition(T, depth)
            part = partition_contraction_domain(T, depth)
            assert part.layers == [sorted(layer) for layer in layers]
            assert part.core == sorted(core)
            assert all(part.parent[x] == parents[n][x]
                       for x, n in layer_of.items() if n)
            h = build_conjugacy_thm3(R, T, depth, delta)
            table, closeness = _reference_thm3(R, T, depth)
            assert h.table == table
            assert _norm_key(h.closeness) == _norm_key(closeness)


def test_thm3_conjugacy_affine():
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=1)
    delta = NormValue(3, 3)
    for seed in range(3):
        phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
        T = perturb(R, phi)
        h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
        rep = verify_conjugacy(R, T, h)
        assert rep.max_defect.is_zero
        assert rep.injective
        assert rep.closeness <= delta


def test_thm3_sends_fixed_point_to_fixed_point():
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=1)
    delta = NormValue(3, 3)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=11)
    T = perturb(R, phi)
    x_t = 0
    for _ in range(4 * ctx.total_digits):
        x_t = T(x_t)
    assert T(x_t) == x_t
    h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
    assert h(x_t) == 364                  # the fixed point of R


def test_thm3_rejects_delta_beyond_margin():
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=1)
    with pytest.raises(DeltaTooLarge):
        build_conjugacy_thm3(R, R, 6, NormValue(3, 1))
    with pytest.raises(DeltaTooLarge):
        build_conjugacy_thm3(R, R, 6, NormValue(3, 3), rho=NormValue(3, 4))


def test_thm3_scaled_isometry_contraction():
    ctx = PrecisionContext(3, 5)
    R = builtin_map("scaled_isometry", ctx, m=2, seed=8, c=5)
    delta = NormValue(3, 4)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=2)
    T = perturb(R, phi)
    h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
    rep = verify_conjugacy(R, T, h)
    assert rep.max_defect.is_zero and rep.injective


# the three contractions of the benchmark's Theorem 3 certificates
_CONTRACTIONS = [
    ("affine", {"v": 3, "w": 1}),
    ("scaled_isometry", {"m": 1, "iso": "triangular", "seed": 4}),
    ("scaled_isometry", {"m": 2, "iso": "alphabet", "seed": 9, "c": 2})]


@pytest.mark.parametrize("name, params", _CONTRACTIONS)
def test_thm3_tables_make_no_ints(name, params):
    """Every value of a thm3 h is one of ctx.residues' objects or one of
    R's table values (a periodic R keeps its short table's objects); at
    3^6 most values lie above the interpreter's small-int cache."""
    ctx = PrecisionContext(3, 6)
    residues = ctx.residues
    R = builtin_map(name, ctx, **params)
    own = {id(v) for v in residues} | {id(v) for v in R.tabulate()}
    delta = NormValue(3, 3)
    for seed in range(3):
        T = perturb(R, make_lipschitz_perturbation(ctx, "digit_local", delta,
                                                   seed))
        h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
        assert all(id(v) in own for v in h.table)
        if not hasattr(R.fn, "short"):
            assert all(v is residues[v] for v in h.table)


@pytest.mark.parametrize("name, params, digest", [
    (*case, digest) for case, digest in zip(_CONTRACTIONS, [
        "2242ae7a94fc18f3331172c4901464b0d7cef4e946d9579b7dcea32bb4caebe7",
        "bbc3c51758d4bc11d656ff3b32e9ea258e63b693c830d164613cb17e7795fc6b",
        "48c8b914e9d908f7844eb1bd5f7a81902a9231b112e8df4c6d9c2ce3fe331971"])])
def test_thm3_tables_are_pinned(name, params, digest):
    """h for each contraction at 3^10 under T = R + phi (digit_local seed
    0, delta = 3^-3, depth 10) hashes to a fixed digest."""
    ctx = PrecisionContext(3, 10)
    delta = NormValue(3, 3)
    R = builtin_map(name, ctx, **params)
    T = perturb(R, make_lipschitz_perturbation(ctx, "digit_local", delta, 0))
    h = build_conjugacy_thm3(R, T, 10, delta)
    assert hashlib.sha256(repr(h.table).encode()).hexdigest() == digest


@pytest.mark.parametrize("ctx", [
    PrecisionContext(3, 4, -2, 1, "Qp"), PrecisionContext(2, 6, -3, 2, "Qp")],
    ids=lambda ctx: f"Qp{ctx.prime}")
@pytest.mark.parametrize("v_exp", [2, 3])
def test_thm3_remark2_uvw_on_qp(ctx, v_exp):
    """Theorem 3 on a Q_p window: R(x) = u*frac(x) + v*floor(x) + w with
    |u| = p^-1 and |v| = p^-v_exp mixes the fractional and integer
    digits, and its measured Lipschitz constants are the declared ones."""
    p = ctx.prime
    R = builtin_map("remark2_uvw", ctx, u=PAdic(p, 1, (1,)),
                    v=PAdic(p, v_exp, (1,)), w=PAdic(p, 0, (1,)))
    est = estimate_lipschitz(R)
    assert (est.c1_lower, est.c2_upper) == (R.lip_lower, R.lip_upper) == (
        Fraction(1, p ** v_exp), Fraction(1, p))
    # p * delta must not exceed c1 = p^-v_exp
    delta = NormValue(p, v_exp + 1)
    moved = 0
    for seed in range(3):
        T = perturb(R, make_lipschitz_perturbation(ctx, "digit_local", delta,
                                                   seed))
        h = build_conjugacy_thm3(R, T, ctx.total_digits, delta)
        rep = verify_conjugacy(R, T, h)
        assert rep.max_defect.is_zero and rep.injective
        assert rep.closeness <= delta
        moved += sum(y != x for x, y in enumerate(h.table))
    assert moved                          # some h is not the identity


# ---------------------------------------------------------------------------
# homogeneity homeomorphism
# ---------------------------------------------------------------------------

def test_homogeneity_matches_sequences():
    ctx = PrecisionContext(3, 5)
    delta = NormValue(3, 2)
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randrange(2, 8)
        ys, zs = [], []
        while len(ys) < n:
            y = rng.randrange(ctx.modulus)
            z = (y + 27 * rng.randrange(9)) % ctx.modulus
            if y in ys or z in zs:
                continue
            ys.append(y)
            zs.append(z)
        phi = homogeneity_homeomorphism(ctx, ys, zs, delta)
        assert phi.is_bijective()
        for y, z in zip(ys, zs):
            assert phi(y) == z
        assert phi.closeness.as_fraction() < 3 * delta.as_fraction()


def test_homogeneity_tables_make_no_ints():
    """The swap product's table holds ctx.residues' objects; at 3^7 most
    values lie above the interpreter's small-int cache."""
    ctx = PrecisionContext(3, 7)
    residues = ctx.residues
    rng = random.Random(5)
    ys = rng.sample(range(ctx.modulus), 6)
    zs = [(y + 27 * rng.randrange(1, 81)) % ctx.modulus for y in ys]
    phi = homogeneity_homeomorphism(ctx, ys, zs, NormValue(3, 2))
    assert [phi(y) for y in ys] == zs
    assert phi.table != residues
    assert all(v is residues[v] for v in phi.table)


def test_homogeneity_identity_when_sequences_equal():
    ctx = PrecisionContext(2, 5)
    ys = [1, 9, 17]
    phi = homogeneity_homeomorphism(ctx, ys, ys, NormValue(2, 1))
    assert phi.table == list(range(ctx.modulus))
    assert phi.closeness.is_zero


def test_homogeneity_rejects_bad_inputs():
    ctx = PrecisionContext(3, 4)
    delta = NormValue(3, 2)
    with pytest.raises(NotProper):
        homogeneity_homeomorphism(ctx, [1, 1], [2, 2 + 27], delta)
    with pytest.raises(NotClose):
        homogeneity_homeomorphism(ctx, [1], [2], delta)
