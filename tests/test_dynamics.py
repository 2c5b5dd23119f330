"""Map-catalog tests: frozen digit examples, isometry validation,
perturbation bound scans and right-inverse composition identities."""

import random
from fractions import Fraction
from itertools import cycle

import pytest

from padic_dynamics.counterexample import thm2_right_inverses
from padic_dynamics.dynamics import (
    CATALOG_PARAMS,
    DynamicMap,
    RightInverseFamily,
    bijective_isometry,
    builtin_map,
    check_isometry,
    compose,
    furno_compose,
    identity_map,
    left_inverse_for,
    locally_scaling_inverses,
    make_lipschitz_perturbation,
    perturb,
    shift_right_inverses,
)
from padic_dynamics.errors import (
    BadParams,
    BudgetExceeded,
    DeltaTooSmall,
    NotBijective,
    NotIsometry,
    UnknownMap,
    WindowViolation,
)
from padic_dynamics.padic import NormValue, PrecisionContext, make_padic


def dist_exp(ctx, a, b):
    """Oracle: valuation of a-b in the context ring (None for equal)."""
    d = (a - b) % ctx.modulus
    if d == 0:
        return None
    v = 0
    while d % ctx.prime == 0:
        d //= ctx.prime
        v += 1
    return v


# ---------------------------------------------------------------------------
# frozen catalog examples
# ---------------------------------------------------------------------------

def test_shift_drops_lowest_digit():
    ctx = PrecisionContext(3, 4)
    f = builtin_map("shift_zp", ctx)
    x = make_padic(ctx, 0, [1, 2, 0, 2])
    y = f.eval(x)
    assert y.digits[:3] == (2, 0, 2)
    assert f.precision_loss == 1 and f.lip_upper == 3


def test_affine_example():
    ctx = PrecisionContext(5, 4)
    f = builtin_map("affine", ctx, v=3, w=1)
    assert f(2) == 7


def test_affine_contraction_lip():
    ctx = PrecisionContext(3, 6)
    R = builtin_map("affine", ctx, v=3, w=1)
    assert R.lip_upper == Fraction(1, 3) == R.lip_lower
    assert R.precision_loss == 0


def test_example2_R_digit_spreading():
    # digits [1,1] land at positions 1 and 3: 1+2 -> 2+8
    ctx = PrecisionContext(2, 8)
    R = builtin_map("example2_R", ctx)
    assert R(3) == 10
    assert R(1) == 2


def test_example2_L_inverts_R_on_low_digits():
    ctx = PrecisionContext(2, 8)
    R = builtin_map("example2_R", ctx)
    L = builtin_map("example2_L", ctx)
    for m in range(16):
        assert L(R(m)) == m


def test_example2_phi_cancels_digit():
    # phi_n(x) = -x_n * p^(2n+1); with n=1, p=2 this is -x_1 * 8
    ctx = PrecisionContext(2, 8)
    phi = builtin_map("example2_phi_n", ctx, n=1)
    assert phi(2) == (-8) % 256
    assert phi(1) == 0
    assert phi.lip_upper == Fraction(1, 4)


def test_unknown_map_rejected():
    ctx = PrecisionContext(3, 4)
    with pytest.raises(UnknownMap):
        builtin_map("not_a_map", ctx)
    with pytest.raises(BadParams):
        builtin_map("affine", ctx, v=0)


def test_shift_qp_window_guard():
    ctx = PrecisionContext(3, 4, -1, 1, "Qp")
    f = builtin_map("shift_qp", ctx)
    ok = ctx.to_int(make_padic(ctx, 0, [0, 1]))
    assert f(ok) == ok // 3
    bottom = ctx.to_int(make_padic(ctx, -1, [2]))
    with pytest.raises(WindowViolation):
        f(bottom)


def test_rho_open_Ra_value():
    # R_a(x) = p*{x} + a*p + p^2*floor(x): for x = 1/3 + 2 and a = 2
    # the exact value is 1 + 2*3 + 2*9 = 25.
    ctx = PrecisionContext(3, 5, -2, 2, "Qp")
    R = builtin_map("rho_open_Ra", ctx, a=2)
    x = ctx.to_int(make_padic(ctx, -1, [1, 2]))
    got = ctx.from_int(R(x))
    assert got.as_fraction() == 25


def test_remark2_uvw_needs_norm_ordering():
    ctx = PrecisionContext(3, 5, -2, 2, "Qp")
    with pytest.raises(BadParams):
        builtin_map("remark2_uvw", ctx, u=1, v=1)


# ---------------------------------------------------------------------------
# composition / identity
# ---------------------------------------------------------------------------

def test_identity_and_compose_metadata():
    ctx = PrecisionContext(2, 6)
    f = builtin_map("shift_zp", ctx)
    g = compose(f, identity_map(ctx))
    for m in range(ctx.modulus):
        assert g(m) == f(m)
    assert g.precision_loss == 1
    assert g.lip_upper == 2


# ---------------------------------------------------------------------------
# bijective isometries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["identity", "alphabet", "triangular"])
def test_isometry_catalog_members_pass_check(kind):
    ctx = PrecisionContext(3, 5)
    w = bijective_isometry(ctx, kind, seed=7)
    check_isometry(w)   # raises on failure


def test_isometry_check_rejects_position_swap():
    # swapping digit positions 0 and 1 moves mass between valuation levels
    ctx = PrecisionContext(2, 6)

    def swap(m):
        a, b = m & 1, (m >> 1) & 1
        return (m & ~3) | (a << 1) | b

    bad = DynamicMap("swap01", ctx, swap, 0, Fraction(2), None)
    with pytest.raises(NotIsometry):
        check_isometry(bad)


def test_isometry_preserves_all_distances_exhaustive():
    ctx = PrecisionContext(2, 6)
    w = bijective_isometry(ctx, "triangular", seed=3)
    for x in range(ctx.modulus):
        for y in range(x + 1, ctx.modulus, 5):
            assert dist_exp(ctx, w(x), w(y)) == dist_exp(ctx, x, y)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_constant_perturbation_bounds():
    ctx = PrecisionContext(3, 5)
    delta = NormValue(3, 2)
    phi = make_lipschitz_perturbation(ctx, "constant", delta, c=9)
    assert phi(17) == 9
    with pytest.raises(BadParams):
        make_lipschitz_perturbation(ctx, "constant", delta, c=1)


def test_digit_local_bounds_by_exhaustive_scan():
    """Sup-norm and Lipschitz bound both verified over every pair at p=2, N=8."""
    ctx = PrecisionContext(2, 8)
    delta = NormValue(2, 2)
    phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed=13)
    M = ctx.modulus
    vals = [phi(m) for m in range(M)]
    for m, v in enumerate(vals):
        assert v % 4 == 0                      # |phi(x)| <= 2^-2
    for x in range(M):
        for y in range(x + 1, M):
            din = dist_exp(ctx, x, y)
            dout = dist_exp(ctx, vals[x], vals[y])
            if dout is not None:
                assert dout >= din + 2         # |phi(x)-phi(y)| <= delta |x-y|


def test_delta_below_resolution_rejected():
    ctx = PrecisionContext(2, 4)
    with pytest.raises(DeltaTooSmall):
        make_lipschitz_perturbation(ctx, "digit_local", NormValue(2, 4))


def test_perturb_is_pointwise_sum():
    ctx = PrecisionContext(2, 6)
    f = builtin_map("shift_zp", ctx)
    phi = make_lipschitz_perturbation(ctx, "constant", NormValue(2, 3), c=8)
    g = perturb(f, phi)
    assert g(2) == 1 + 8
    for m in range(ctx.modulus):
        assert (g(m) - f(m)) % ctx.modulus == 8


def test_example2_phi_as_perturbation_respects_declared_delta():
    ctx = PrecisionContext(2, 8)
    phi = make_lipschitz_perturbation(ctx, "example2_phi_n", NormValue(2, 2), n=1)
    assert phi.map.name == "example2_phi_n[1]"
    with pytest.raises(BadParams):
        make_lipschitz_perturbation(ctx, "example2_phi_n", NormValue(2, 3), n=1)


# ---------------------------------------------------------------------------
# right-inverse families
# ---------------------------------------------------------------------------

def test_shift_right_inverse_example():
    ctx = PrecisionContext(3, 4)
    fam = shift_right_inverses(ctx)
    x = ctx.to_int(make_padic(ctx, 0, [1, 0, 2]))
    y = ctx.from_int(fam.members[2](x))
    assert y.digits == (2, 1, 0, 2)


def test_shift_family_identities_exhaustive():
    ctx = PrecisionContext(3, 4)
    f = builtin_map("shift_zp", ctx)
    fam = shift_right_inverses(ctx)
    M = ctx.modulus
    cert = M // 3        # R_i drops the top digit, so id holds mod p^(D-1)
    images = set()
    for i, R in enumerate(fam.members):
        img = {R(x) for x in range(M)}
        assert img == {m for m in range(M) if m % 3 == i}
        images |= img
        for x in range(M):
            assert f(R(x)) == x % cert
        for x in img:
            assert R(f(x)) == x
    assert images == set(range(M))     # covering
    for m in range(M):
        assert fam.membership(m) == m % 3


def test_membership_table_is_pointwise_and_built_once():
    # the family reads the residue count from its members' context
    ctx = PrecisionContext(2, 6)
    w = bijective_isometry(ctx, "triangular", seed=3)
    for fam in (shift_right_inverses(ctx), locally_scaling_inverses(w, 2)):
        calls = []
        counted = RightInverseFamily(
            fam.members, lambda m, fam=fam: calls.append(m) or fam.membership(m))
        table = counted.membership_table()
        assert table == [fam.membership(x) for x in range(ctx.modulus)]
        assert counted.membership_table() is table
        assert calls == list(range(ctx.modulus))


def _closed_form_families(ctx):
    """(family, rate, member tables, membership table), the tables from
    the closed forms the catalog families were written in by hand: the
    shift, the non-covering Theorem 2 family, and furno's at k = 1 and 2
    through a triangular and an alphabet isometry."""
    p, M = ctx.prime, ctx.modulus
    xs = range(M)
    yield (shift_right_inverses(ctx), Fraction(1, p),
           [[(i + p * m) % M for m in xs] for i in range(p)],
           [m % p for m in xs])
    yield (thm2_right_inverses(ctx), Fraction(1, p * p),
           [[(a + p * p * m) % M for m in xs] for a in range(1, p)],
           [m % p - 1 if m % p and not (m // p) % p else None for m in xs])
    for kind in ("triangular", "alphabet"):
        w = bijective_isometry(ctx, kind, seed=5)
        table = w.tabulate()
        inv = [0] * M
        for m, im in enumerate(table):
            inv[im] = m
        for k in (1, 2):
            pk = p ** k
            yield (locally_scaling_inverses(w, k), Fraction(1, pk),
                   [[inv[(a + pk * m) % M] for m in xs] for a in range(pk)],
                   [table[m] % pk for m in xs])


@pytest.mark.parametrize("p, digits", [(2, 8), (3, 6), (5, 4)])
def test_catalog_families_match_their_closed_forms(p, digits):
    """Every catalog family built by digit_branch_family has the member
    tables, declared rates and membership of its hand-written form."""
    ctx = PrecisionContext(p, digits)
    cases = list(_closed_form_families(ctx))
    assert len(cases) == 6
    for fam, rate, tables, memberships in cases:
        assert [R.tabulate() for R in fam.members] == tables
        assert all(R.lip_upper == R.lip_lower == rate for R in fam.members)
        assert [fam.membership(x) for x in range(ctx.modulus)] == memberships


def test_families_without_isometry_read_no_table():
    """The shift and Theorem 2 families read x mod p**k directly: building
    them and reading every membership tabulates no map and leaves the
    context's residue list unbuilt."""
    ctx = PrecisionContext(3, 6)
    shift, thm2 = shift_right_inverses(ctx), thm2_right_inverses(ctx)
    shift.membership_table()
    list(map(thm2.membership, range(ctx.modulus)))
    assert all(R._table is None for R in shift.members + thm2.members)
    assert "residues" not in vars(ctx)


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_catalog_maps_refuse_unknown_parameters(name):
    """A parameter a catalog map does not take is refused, not dropped,
    before the map checks its context."""
    with pytest.raises(BadParams, match=f"{name} takes no parameter zz;"):
        builtin_map(name, PrecisionContext(3, 4), zz=1)


def test_furno_reduces_to_shift_for_identity_isometry():
    ctx = PrecisionContext(2, 6)
    w = bijective_isometry(ctx, "identity")
    f = furno_compose(w, 1)
    s = builtin_map("shift_zp", ctx)
    fam = locally_scaling_inverses(w, 1)
    sfam = shift_right_inverses(ctx)
    for m in range(ctx.modulus):
        assert f(m) == s(m)
        assert fam.membership(m) == sfam.membership(m)
        for R, S in zip(fam.members, sfam.members):
            assert R(m) == S(m)


def test_furno_right_inverses_certified_identity():
    # f(R_a(x)) recovers x on every residue representable after the
    # contraction, i.e. modulo p^(D-k) on the full ring.
    ctx = PrecisionContext(2, 6)
    w = bijective_isometry(ctx, "triangular", seed=21)
    k = 2
    f = furno_compose(w, k)
    fam = locally_scaling_inverses(w, k)
    D, M = ctx.total_digits, ctx.modulus
    cert = 2 ** (D - k)
    assert len(fam) == 4
    for R in fam.members:
        for x in range(M):
            assert f(R(x)) == x % cert
    # membership selects the member whose image contains x, exactly
    for x in range(M):
        a = fam.membership(x)
        assert fam.members[a](f(x)) == x


def test_left_inverse_for_affine_and_scaled_isometry():
    # a contraction of order m forgets the top m digits, so the inverse
    # recovers x modulo p^(D-m) and exactly on the representable range
    ctx = PrecisionContext(3, 6)
    for R, order in ((builtin_map("affine", ctx, v=3, w=1), 1),
                     (builtin_map("scaled_isometry", ctx, m=2, seed=5, c=4), 2)):
        L = left_inverse_for(R)
        cert = 3 ** (ctx.total_digits - order)
        for x in range(ctx.modulus):
            assert (L(R(x)) - x) % cert == 0


# ---------------------------------------------------------------------------
# digit-row tables against the per-residue digit loops they replaced
# ---------------------------------------------------------------------------

# Zp contexts 2^6, 2^9, 3^5, 3^7, 5^4 and two Qp windows (6 and 5 digits)
ROW_CONTEXTS = [
    PrecisionContext(2, 6), PrecisionContext(2, 9), PrecisionContext(3, 5),
    PrecisionContext(3, 7), PrecisionContext(5, 4),
    PrecisionContext(2, 4, -1, 1, "Qp"), PrecisionContext(3, 3, -1, 1, "Qp"),
]
ROW_SEEDS = (0, 1, 7, 99)
ISO_KINDS = ("identity", "alphabet", "triangular")


def ctx_id(ctx):
    return f"{ctx.space_tag}-{ctx.prime}^{ctx.total_digits}"


def ref_isometry(ctx, kind, seed):
    """Reference: name and per-residue digit loop of a catalog isometry."""
    p, D = ctx.prime, ctx.total_digits
    if kind == "identity":
        return "iso.identity", lambda m: m
    rng = random.Random(seed)
    if kind == "alphabet":
        perms = []
        for _ in range(D):
            perm = list(range(p))
            rng.shuffle(perm)
            perms.append(perm)

        def fn(m):
            out = 0
            pw = 1
            for i in range(D):
                out += perms[i][(m // pw) % p] * pw
                pw *= p
            return out

        return f"iso.alphabet[{seed}]", fn
    offsets = [[rng.randrange(p) for _ in range(p ** i)] for i in range(D)]

    def fn(m):
        out = 0
        prefix = 0
        pw = 1
        for i in range(D):
            d = (m // pw) % p
            out += ((d + offsets[i][prefix]) % p) * pw
            prefix += d * pw
            pw *= p
        return out

    return f"iso.triangular[{seed}]", fn


def ref_digit_local(ctx, k, seed):
    """Reference: the per-residue digit loop of phi.digit_local."""
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    rng = random.Random(seed)
    levels = [[rng.randrange(p) for _ in range(p ** i)] for i in range(D - k)]

    def fn(m):
        out = 0
        pw = 1
        prefix = 0
        for table in levels:
            d = (m // pw) % p
            out += table[prefix] * pw
            prefix += d * pw
            pw *= p
        return (out * p ** k) % M

    return fn


def ref_check_isometry(w):
    """Reference: the per-level dict pass check_isometry replaced."""
    ctx = w.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    table = w.tabulate()
    if len(set(table)) != M:
        raise NotBijective(f"{w.name} is not a bijection on {M} residues")
    for j in range(1, D + 1):
        pj = p ** j
        reduced = {}
        for m, im in enumerate(table):
            key = m % pj
            val = im % pj
            prev = reduced.get(key)
            if prev is None:
                reduced[key] = val
            elif prev != val:
                raise NotIsometry(
                    f"{w.name} not constant on a radius p^-{j} ball")


@pytest.mark.parametrize("ctx", ROW_CONTEXTS, ids=ctx_id)
def test_isometry_and_scaled_isometry_tables_match_digit_loops(ctx):
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    for kind in ISO_KINDS:
        for seed in ROW_SEEDS:
            name, ref = ref_isometry(ctx, kind, seed)
            wt = [ref(m) for m in range(M)]
            w = bijective_isometry(ctx, kind, seed)
            assert w.name == name
            assert w.lip_upper == w.lip_lower == 1
            assert w.tabulate() == wt
            check_isometry(w)
            inv = [0] * M
            for m, im in enumerate(wt):
                inv[im] = m
            for k in (1, 2, 3):
                pk = p ** k
                for c in (0, 5):
                    R = builtin_map("scaled_isometry", ctx, m=k, iso=kind,
                                    seed=seed, c=c)
                    assert R.name == f"scaled_isometry[{k},{name}]"
                    assert R.lip_upper == R.lip_lower == Fraction(1, pk)
                    assert R.params == {"m": k, "iso": kind, "seed": seed,
                                        "c": c}
                    # the closure scaled_isometry evaluated, m -> p^k w(m) + c
                    assert R.tabulate() == [(pk * v + c) % M for v in wt]
                    L = left_inverse_for(R)
                    assert L.name == f"{R.name}.left_inv"
                    assert L.precision_loss == k and L.lip_upper == pk
                    assert L.tabulate() == [inv[((m - c) % M) // pk]
                                            for m in range(M)]


@pytest.mark.parametrize("ctx", ROW_CONTEXTS, ids=ctx_id)
def test_digit_local_tables_match_digit_loop(ctx):
    D, M = ctx.total_digits, ctx.modulus
    for k in range(D):
        delta = NormValue(ctx.prime, k + ctx.u_min)
        for seed in ROW_SEEDS:
            phi = make_lipschitz_perturbation(ctx, "digit_local", delta, seed)
            ref = ref_digit_local(ctx, k, seed)
            assert phi.map.name == f"phi.digit_local[{seed}]"
            assert phi.map.lip_upper == delta.as_fraction()
            assert phi.map.lip_lower is None
            assert phi.map.params == {"seed": seed, "k": k}
            assert phi.map.tabulate() == [ref(m) for m in range(M)]


def test_digit_tables_respect_ball_budget():
    ctx = PrecisionContext(2, 6, ball_budget=16)
    with pytest.raises(BudgetExceeded):
        bijective_isometry(ctx, "triangular", 3)
    with pytest.raises(BudgetExceeded):
        builtin_map("scaled_isometry", ctx, m=1)
    with pytest.raises(BudgetExceeded):
        make_lipschitz_perturbation(ctx, "digit_local", NormValue(2, 1))
    with pytest.raises(BudgetExceeded):
        check_isometry(identity_map(ctx))
    # p^k w(x) reads only x mod p^(D-k): 2^4 residues fit the budget
    R = builtin_map("scaled_isometry", ctx, m=2, seed=3)
    big = PrecisionContext(2, 6)
    assert [R(m) for m in range(64)] == \
        builtin_map("scaled_isometry", big, m=2, seed=3).tabulate()
    phi = make_lipschitz_perturbation(ctx, "digit_local", NormValue(2, 2), 5)
    assert [phi(m) for m in range(64)] == make_lipschitz_perturbation(
        big, "digit_local", NormValue(2, 2), 5).map.tabulate()


def _mutants(table, p, D, rng):
    """Swapped, colliding and digit-mixed variants of a residue table."""
    M = len(table)
    for _ in range(4):
        x, y = rng.sample(range(M), 2)
        swapped = list(table)
        swapped[x], swapped[y] = swapped[y], swapped[x]
        yield swapped
        colliding = list(table)
        colliding[x] = colliding[y]
        yield colliding
    for i in range(D - 1):
        j = rng.randrange(i + 1, D)
        pi, pj = p ** i, p ** j

        def swap_digits(v, pi=pi, pj=pj):
            a, b = (v // pi) % p, (v // pj) % p
            return v + (b - a) * pi + (a - b) * pj

        yield [swap_digits(v) for v in table]             # output digits
        yield [table[swap_digits(m)] for m in range(M)]   # input digits
        yield [(v + ((m // pj) % p) * pi) % M for m, v in enumerate(table)]


def _outcome(check, w):
    try:
        check(w)
    except (NotBijective, NotIsometry) as exc:
        return type(exc), str(exc)
    return None


def test_check_isometry_matches_dict_pass_on_mutated_tables():
    rng = random.Random(2024)
    outcomes = set()
    for ctx in (PrecisionContext(2, 6), PrecisionContext(3, 4),
                PrecisionContext(5, 3), PrecisionContext(2, 4, -1, 1, "Qp")):
        p, D = ctx.prime, ctx.total_digits
        for kind in ISO_KINDS:
            table = bijective_isometry(ctx, kind, rng.randrange(100)).tabulate()
            for bad in _mutants(table, p, D, rng):
                got = _outcome(check_isometry,
                               DynamicMap("mut", ctx, bad.__getitem__))
                want = _outcome(ref_check_isometry,
                                DynamicMap("mut", ctx, bad.__getitem__))
                assert got == want
                outcomes.add(got)
    # passes, both error classes and several failing levels all occur
    assert None in outcomes
    assert {o[0] for o in outcomes if o} == {NotBijective, NotIsometry}
    assert len({o[1] for o in outcomes if o and o[0] is NotIsometry}) >= 3


# ---------------------------------------------------------------------------
# perturb: the table pass against the pointwise sum
# ---------------------------------------------------------------------------

def _catalog_perturbations(ctx):
    p = ctx.prime
    delta = NormValue(p, 2)
    return [
        make_lipschitz_perturbation(ctx, "constant", delta, c=(p - 1) * p ** 2),
        make_lipschitz_perturbation(ctx, "digit_local", delta, 7),
        make_lipschitz_perturbation(ctx, "example2_phi_n", delta, n=1),
    ]


def _catalog_bases(ctx):
    p = ctx.prime
    return [builtin_map("shift_zp", ctx),
            builtin_map("affine", ctx, v=p, w=1),
            builtin_map("scaled_isometry", ctx, m=2, iso="triangular", seed=4)]


@pytest.mark.parametrize("ctx", [PrecisionContext(2, 8), PrecisionContext(3, 6)],
                         ids=["2^8", "3^6"])
def test_perturb_table_matches_pointwise_sum(ctx):
    M = ctx.modulus
    for phi in _catalog_perturbations(ctx):
        for tabulate_phi in (False, True):
            if tabulate_phi:
                phi.map.tabulate()
            before = phi.map._table
            for f in _catalog_bases(ctx):
                want = [(f.fn(m) + phi.map.fn(m)) % M for m in range(M)]
                g = perturb(f, phi)
                assert g._table is not None and g.tabulate() == want
                assert [g.fn(m) for m in range(M)] == want
                assert phi.map._table is before     # no table left on phi


def test_perturb_repeats_a_periodic_phi_table():
    """A digit_local phi reads only x mod p**(D-k): perturb repeats its
    short table, never calls phi per residue, gives g the pointwise sum
    as its table and leaves no table on phi."""
    ctx = PrecisionContext(3, 6)
    M = ctx.modulus
    phi = make_lipschitz_perturbation(ctx, "digit_local", NormValue(3, 2), 5)
    fn, calls = phi.map.fn, []

    def counted(m):
        calls.append(m)
        return fn(m)

    counted.short = fn.short
    phi.map.fn = counted
    for f in _catalog_bases(ctx):
        want = [(f.fn(m) + fn(m)) % M for m in range(M)]
        g = perturb(f, phi)
        assert g._table == want and [g.fn(m) for m in range(M)] == want
    assert len(fn.short) == 3 ** 4 and phi.map._table is None
    assert len(calls) == 3 * M              # g.fn only, never the pass


def test_perturb_above_ball_budget_stays_pointwise():
    ctx = PrecisionContext(3, 6, ball_budget=100)
    M = ctx.modulus
    rng = random.Random(8)
    sample = rng.sample(range(M), 60)
    for phi in _catalog_perturbations(ctx):
        for f in _catalog_bases(ctx):
            g = perturb(f, phi)
            assert g._table is None and f._table is None
            assert phi.map._table is None
            for m in sample:
                assert g(m) == (f(m) + phi(m)) % M


def test_perturb_of_partial_map_stays_pointwise():
    # shift_qp is undefined where the lowest window digit is nonzero
    ctx = PrecisionContext(3, 3, -1, 0, "Qp")
    f = builtin_map("shift_qp", ctx)
    phi = make_lipschitz_perturbation(ctx, "constant", NormValue(3, 1), c=9)
    g = perturb(f, phi)
    assert g._table is None
    assert g(3) == (1 + 9) % ctx.modulus
    with pytest.raises(WindowViolation):
        g(1)


# ---------------------------------------------------------------------------
# tabulate: periodic tables and the context's shared residues
# ---------------------------------------------------------------------------

def _non_periodic_maps():
    """Catalog maps that are not periodic lookups, at M = 729 residues,
    so that most values lie above the interpreter's small-int cache; the
    perturbed maps take phi from its function and from a periodic table."""
    ctx = PrecisionContext(3, 6)
    w = bijective_isometry(ctx, "triangular", seed=2)
    affine = builtin_map("affine", ctx, v=3, w=1)
    scaled = builtin_map("scaled_isometry", ctx, m=2, iso="alphabet", seed=9)
    const = make_lipschitz_perturbation(ctx, "constant", NormValue(3, 2), c=9)
    local = make_lipschitz_perturbation(ctx, "digit_local", NormValue(3, 2), 7)
    return [
        identity_map(ctx), builtin_map("shift_zp", ctx), affine,
        builtin_map("example2_R", ctx), builtin_map("example2_L", ctx),
        builtin_map("example2_phi_n", ctx, n=1),
        compose(builtin_map("shift_zp", ctx), affine),
        *shift_right_inverses(ctx).members,
        *locally_scaling_inverses(w, 1).members, furno_compose(w, 1),
        left_inverse_for(affine), left_inverse_for(scaled), const.map,
        perturb(affine, const), perturb(scaled, local),
        builtin_map("rho_open_Ra", PrecisionContext(3, 4, -1, 1, "Qp"), a=1),
    ]


def test_non_periodic_tables_share_the_context_residues():
    for mp in _non_periodic_maps():
        assert not hasattr(mp.fn, "short")
        residues = mp.ctx.residues
        table = mp.tabulate()
        assert table == [mp.fn(m) for m in range(mp.ctx.modulus)]
        assert all(v is residues[v] for v in table), mp.name


def test_periodic_tables_repeat_their_short_table():
    """A periodic (`_lookup`) map's table is its pointwise table, made of
    its short table's own objects."""
    ctx = PrecisionContext(3, 6)
    delta = NormValue(3, 2)
    maps = [*(bijective_isometry(ctx, kind, seed=3) for kind in ISO_KINDS),
            builtin_map("scaled_isometry", ctx, m=2, iso="triangular", seed=4),
            builtin_map("scaled_isometry", ctx, m=1, iso="alphabet", seed=9,
                        c=2),
            make_lipschitz_perturbation(ctx, "digit_local", delta, 7).map]
    for mp in maps:
        short = mp.fn.short
        table = mp.tabulate()
        assert table == [mp.fn(m) for m in range(ctx.modulus)]
        assert all(v is s for v, s in zip(table, cycle(short))), mp.name
    assert any(len(mp.fn.short) < ctx.modulus for mp in maps)


@pytest.mark.parametrize("offset", [-1, 0], ids=["-1", "M"])
def test_tabulate_rejects_values_outside_the_residues(offset):
    ctx = PrecisionContext(3, 4)
    bad = ctx.modulus if offset == 0 else offset
    mp = DynamicMap("bad", ctx, lambda m: bad if m == 40 else m)
    with pytest.raises(BadParams, match=r"outside \[0, 81\)"):
        mp.tabulate()
    assert mp._table is None
