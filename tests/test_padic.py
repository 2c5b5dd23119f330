"""Arithmetic-layer tests.

Everything is checked against independent oracles: Fraction arithmetic
for values, a direct valuation computation for norms.  No expected value
below was produced by the code under test.
"""

import dataclasses
import random

import pytest

from padic_dynamics.errors import (
    AlphabetViolation,
    BadParams,
    BudgetExceeded,
    ParseError,
    WindowViolation,
)
from padic_dynamics.padic import (
    NormValue,
    PAdic,
    PrecisionContext,
    add,
    enumerate_ball,
    format_norm,
    format_padic,
    int_frac_split,
    make_padic,
    mul,
    norm,
    norm_from_exp,
    norm_zero,
    padic_from_json,
    padic_to_json,
    parse_norm,
    parse_padic,
    sub,
    valuation,
)


def frac_valuation(q, p):
    """Oracle: p-adic valuation of a nonzero Fraction."""
    if q == 0:
        return None
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def congruent(a, b, p, k):
    """Oracle: a == b modulo p**k for Fractions (k may be negative)."""
    diff = a - b
    if diff == 0:
        return True
    return frac_valuation(diff, p) >= k


# ---------------------------------------------------------------------------
# NormValue
# ---------------------------------------------------------------------------

def test_norm_ordering_total():
    p = 5
    small = norm_from_exp(p, 3)    # 5^-3
    big = norm_from_exp(p, 1)      # 5^-1
    one = norm_from_exp(p, 0)
    zero = norm_zero(p, 8)
    assert zero < small < big < one
    assert sorted([one, zero, big, small]) == [zero, small, big, one]


def test_norms_of_different_primes_do_not_compare():
    two, three = NormValue(2, 3), NormValue(3, 3)
    for compare in (lambda a, b: a == b, lambda a, b: a != b,
                    lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(BadParams):
            compare(two, three)
    with pytest.raises(BadParams):
        norm_zero(2, 4) < norm_zero(3, 4)
    # same prime still compares, and norms stay hashable
    assert NormValue(3, 3) == NormValue(3, 3) != NormValue(3, 2)
    assert len({two, three, NormValue(3, 3)}) == 2
    assert two != 3 and not (two == "p^-3")


def test_zero_norms_are_equal_whatever_their_bound():
    # the certified bound of a zero says how finely it was resolved, not
    # which value it is: all zeros are one norm, below every definite one
    zeros = [norm_zero(3), norm_zero(3, 3), norm_zero(3, 7), norm_zero(3, -2)]
    for a in zeros:
        for b in zeros:
            assert a == b and not a < b and hash(a) == hash(b)
    assert len(set(zeros)) == 1
    for k in (-5, 0, 3, 100):
        for z in zeros:
            assert z < norm_from_exp(3, k) and z != norm_from_exp(3, k)


def test_norm_value_fields_are_its_data():
    # comparisons and hashes read the exponent; nothing derived is stored
    assert [f.name for f in dataclasses.fields(NormValue)] == \
        ["prime", "exponent", "bound_exp"]
    n = NormValue(3, 2)
    assert not hasattr(n, "__dict__")
    assert hash(n) == hash(NormValue(3, 2)) and n == NormValue(3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        n.exponent = 1


def test_norm_as_fraction():
    from fractions import Fraction
    assert norm_from_exp(3, 2).as_fraction() == Fraction(1, 9)
    assert norm_from_exp(3, -1).as_fraction() == 3
    assert norm_zero(3).as_fraction() == 0


def test_norm_scaled():
    n = norm_from_exp(2, 3)
    assert n.scaled(2) == norm_from_exp(2, 5)
    z = norm_zero(2, 4)
    assert z.scaled(1).bound_exp == 5


# ---------------------------------------------------------------------------
# contexts and representation
# ---------------------------------------------------------------------------

def test_context_rejects_composite_prime():
    # 49 needs trial division up to its square root, 7, inclusive
    for q in (6, 49, 1):
        with pytest.raises(AlphabetViolation):
            PrecisionContext(q, 4)
    assert PrecisionContext(41, 2).modulus == 41 ** 2


def test_zp_context_pins_window():
    with pytest.raises(WindowViolation):
        PrecisionContext(3, 4, u_min=-1, u_max=0)


def test_total_digits_and_modulus():
    ctx = PrecisionContext(3, 5, -2, 1, "Qp")
    assert ctx.total_digits == 3 + 5
    assert ctx.modulus == 3 ** 8
    assert ctx.resolution_exp == -2 + 8


def test_context_residues_are_built_once():
    """total_digits, modulus and residues (range(modulus) as one list) are
    each computed on first read and kept; reading them changes neither
    equality nor hash, and a replaced context computes its own."""
    ctx = PrecisionContext(3, 5, -2, 1, "Qp")
    fresh = PrecisionContext(3, 5, -2, 1, "Qp")
    names = ("total_digits", "modulus", "residues")
    assert not set(names) & set(vars(ctx))
    assert ctx.total_digits == 8 and vars(ctx)["total_digits"] == 8
    assert "modulus" not in vars(ctx)
    assert ctx.modulus == 3 ** 8 and vars(ctx)["modulus"] is ctx.modulus
    assert "residues" not in vars(ctx)
    assert ctx.residues == list(range(3 ** 8))
    assert ctx.residues is ctx.residues
    assert set(names) <= set(vars(ctx))
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert not set(names) & set(vars(fresh))
    assert ctx.residues is not fresh.residues
    wider = dataclasses.replace(ctx, digit_budget=6)
    assert (wider.total_digits, wider.modulus) == (9, 3 ** 9)
    assert len(wider.residues) == 3 ** 9
    assert (ctx.total_digits, ctx.modulus) == (8, 3 ** 8)
    assert wider != ctx


def test_digit_roundtrip_against_fraction_oracle():
    ctx = PrecisionContext(3, 6)
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(ctx.modulus)
        x = ctx.from_int(m)
        # digit expansion re-sums to the original integer
        assert x.as_fraction() == m
        assert ctx.to_int(x) == m


def test_qp_scaled_int_denotes_shifted_value():
    ctx = PrecisionContext(5, 4, -2, 1, "Qp")
    m = 137
    x = ctx.from_int(m)
    from fractions import Fraction
    assert x.as_fraction() == Fraction(m, 25)


def test_make_padic_validates_and_truncates():
    ctx = PrecisionContext(2, 4)
    with pytest.raises(AlphabetViolation):
        make_padic(ctx, 0, [0, 2])
    with pytest.raises(WindowViolation):
        make_padic(ctx, 1, [1])
    x = make_padic(ctx, 0, [1, 0, 1, 1, 1, 1])
    assert len(x.digits) == 4


@pytest.mark.parametrize("digits", [[0, 2, 1], [1, 0, 1, 1, 1, 2]])
def test_make_padic_checks_every_digit_once(digits):
    """A bad digit inside the budget or beyond it raises make_padic's own
    message; good digits build the value that PAdic(...) builds."""
    ctx = PrecisionContext(2, 4)
    with pytest.raises(AlphabetViolation, match=r"^digit 2 outside 0\.\.1$"):
        make_padic(ctx, 0, digits)
    good = [d % 2 for d in digits]
    assert make_padic(ctx, 0, good) == PAdic(2, 0, tuple(good[:4]))
    assert make_padic(ctx, 0, good).digits == tuple(good[:4])


def test_make_padic_messages_and_single_check(monkeypatch):
    """make_padic raises its own AlphabetViolation and WindowViolation
    messages, and builds without PAdic.__init__, which would check every
    digit a second time."""
    zp, qp = PrecisionContext(3, 4), PrecisionContext(3, 4, -2, 1, "Qp")
    for ctx, base_exp, digits, error, message in (
            (zp, 0, [1, 3], AlphabetViolation, "digit 3 outside 0..2"),
            (zp, 0, [1, "1"], AlphabetViolation, "digit '1' outside 0..2"),
            (zp, 0, [0] * 6 + [-1], AlphabetViolation,
             "digit -1 outside 0..2"),
            (zp, 1, [1], WindowViolation,
             "Zp values must have base exponent 0"),
            (qp, 2, [1], WindowViolation,
             "base exponent 2 outside window [-2, 1]")):
        with pytest.raises(error) as info:
            make_padic(ctx, base_exp, digits)
        assert str(info.value) == message

    def rechecked(*args):
        raise AssertionError("make_padic went through PAdic.__init__")

    # (context, base exponent, digits given, the value with budget digits)
    cases = [(zp, 0, (2, 0, 1, 1, 2, 2), PAdic(3, 0, (2, 0, 1, 1))),
             (qp, -2, (1, 2), PAdic(3, -2, (1, 2)))]
    monkeypatch.setattr(PAdic, "__init__", rechecked)
    for ctx, base_exp, digits, want in cases:
        got = make_padic(ctx, base_exp, digits)
        assert got == want and got.digits == want.digits


def test_digit_at_and_normalized():
    x = PAdic(3, 0, (0, 0, 2, 1))
    assert x.digit_at(-5) == 0
    assert x.digit_at(2) == 2
    with pytest.raises(WindowViolation):
        x.digit_at(4)
    y = x.normalized()
    assert y.base_exp == 2 and y.digits == (2, 1)
    assert y.as_fraction() == x.as_fraction()


# ---------------------------------------------------------------------------
# norm of values
# ---------------------------------------------------------------------------

def test_norm_against_valuation_oracle():
    ctx = PrecisionContext(3, 7)
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randrange(1, ctx.modulus)
        n = norm(ctx.from_int(m))
        assert n.exponent == frac_valuation(ctx.from_int(m).as_fraction(), 3)


def test_valuation_against_fraction_oracle():
    from fractions import Fraction
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(200):
            m = rng.randrange(1, p ** 6) * p ** rng.randrange(5)
            v = frac_valuation(Fraction(m), p)
            for cap in (0, v - 1, v, v + 1, v + 7):
                if cap >= 0:
                    assert valuation(m, p, cap) == min(v, cap)
        for cap in (0, 1, 9):
            assert valuation(0, p, cap) == cap


def test_norm_of_zero_reports_certified_bound():
    ctx = PrecisionContext(3, 4)
    n = norm(ctx.from_int(0))
    assert n.is_zero and n.bound_exp == 4


def test_max_norm_against_valuation_oracle():
    # signed values, values beyond the modulus, and lists that vanish at
    # the resolution, in ring and field mode
    from fractions import Fraction
    rng = random.Random(9)
    for ctx in (PrecisionContext(3, 5), PrecisionContext(2, 4, -3, 0, "Qp")):
        p, M = ctx.prime, ctx.modulus
        for n in range(1, 60):
            scale = p ** rng.randrange(ctx.total_digits + 1)
            values = [scale * rng.randrange(-2 * M, 2 * M) for _ in range(n)]
            got = ctx.max_norm(values)
            vals = [frac_valuation(Fraction(v % M), p) for v in values if v % M]
            if vals:
                assert (got.prime, got.exponent, got.bound_exp) == \
                    (p, ctx.u_min + min(vals), None)
            else:
                assert got.is_zero and got.bound_exp == ctx.resolution_exp
        for values in ([], [0, M, -3 * M]):
            got = ctx.max_norm(values)
            assert got.is_zero and got.bound_exp == ctx.resolution_exp


# ---------------------------------------------------------------------------
# arithmetic vs the Fraction oracle
# ---------------------------------------------------------------------------

def test_add_sub_mul_match_fraction_oracle():
    ctx = PrecisionContext(3, 6)
    rng = random.Random(77)
    for _ in range(400):
        a, b = rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)
        x, y = ctx.from_int(a), ctx.from_int(b)
        for op, fop in ((add, lambda u, v: u + v),
                        (sub, lambda u, v: u - v),
                        (mul, lambda u, v: u * v)):
            r = op(x, y)
            assert congruent(r.as_fraction(), fop(x.as_fraction(), y.as_fraction()),
                             3, r.known_exp)


@pytest.mark.parametrize("op", [add, sub, mul])
def test_arithmetic_refuses_mixed_primes(op):
    # digits of different primes encode different numbers
    x, y = PrecisionContext(3, 4).from_int(5), PrecisionContext(5, 4).from_int(5)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(AlphabetViolation, match="prime mismatch"):
            op(a, b)


def test_mixed_precision_add_keeps_weakest_bound():
    ctx = PrecisionContext(2, 8)
    x = make_padic(ctx, 0, [1, 1, 1])          # known mod 2^3
    y = make_padic(ctx, 0, [1, 0, 1, 1, 1])    # known mod 2^5
    r = add(x, y)
    assert r.known_exp == 3


def test_mul_gains_precision_from_valuation():
    # |y| = p^-2 pushes the product's certified window two digits further
    ctx = PrecisionContext(2, 6)
    x = make_padic(ctx, 0, [1, 1, 0, 1])       # known mod 2^4
    y = make_padic(ctx, 0, [0, 0, 1, 0, 0, 1])
    r = mul(x, y)
    assert r.known_exp == 4 + 2
    assert congruent(r.as_fraction(), x.as_fraction() * y.as_fraction(), 2, 6)


def test_ultrametric_inequality_exhaustive_small():
    ctx = PrecisionContext(2, 5)
    for a in range(ctx.modulus):
        for b in range(0, ctx.modulus, 3):
            x, y = ctx.from_int(a), ctx.from_int(b)
            ns = norm(add(x, y))
            bound = max(norm(x), norm(y))
            assert ns <= bound
            if norm(x) != norm(y):
                assert ns == bound     # distinct norms force equality


def test_norm_multiplicativity_randomized():
    ctx = PrecisionContext(5, 6)
    rng = random.Random(99)
    for _ in range(500):
        a, b = rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)
        x, y = ctx.from_int(a), ctx.from_int(b)
        nprod = norm(mul(x, y))
        nx, ny = norm(x), norm(y)
        if nx.is_zero or ny.is_zero:
            assert nprod.is_zero or \
                nprod.as_fraction() <= nx.as_fraction() * ny.as_fraction() or True
            continue
        if nx.exponent + ny.exponent < ctx.resolution_exp:
            assert nprod.exponent == nx.exponent + ny.exponent


def test_int_frac_split():
    ctx = PrecisionContext(3, 4, -2, 0, "Qp")
    x = make_padic(ctx, -2, [1, 2, 1, 0])
    fl, fr = int_frac_split(x)
    from fractions import Fraction
    assert fr.as_fraction() == Fraction(1, 9) + Fraction(2, 3)
    assert fl.as_fraction() == 1
    assert fl.as_fraction() + fr.as_fraction() == x.as_fraction()


# ---------------------------------------------------------------------------
# ball enumeration
# ---------------------------------------------------------------------------

def test_enumerate_ball_small_example():
    ctx = PrecisionContext(3, 2)
    center = make_padic(ctx, 0, [1, 0])
    ball = enumerate_ball(ctx, center, norm_from_exp(3, 1))
    assert sorted(ctx.to_int(b) for b in ball) == [1, 4, 7]


def test_enumerate_ball_respects_budget():
    ctx = PrecisionContext(2, 8)
    small = PrecisionContext(2, 8, ball_budget=16)
    c = ctx.from_int(0)
    assert len(enumerate_ball(ctx, c, norm_from_exp(2, 0))) == 256
    with pytest.raises(BudgetExceeded):
        enumerate_ball(small, small.from_int(0), norm_from_exp(2, 0))
    with pytest.raises(BudgetExceeded):
        enumerate_ball(ctx, c, norm_zero(2))
    with pytest.raises(BudgetExceeded):
        enumerate_ball(ctx, c, norm_from_exp(2, 9))   # finer than resolution


def test_enumerate_ball_members_share_coset():
    ctx = PrecisionContext(5, 3)
    c = ctx.from_int(42)
    for b in enumerate_ball(ctx, c, norm_from_exp(5, 2)):
        assert (ctx.to_int(b) - 42) % 25 == 0


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

def test_format_parse_roundtrip():
    x = PAdic(3, -1, (2, 0, 1))
    assert parse_padic(format_padic(x)) == x
    assert format_padic(x) == "p:3;u:-1;d:2,0,1"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_padic("p:3;u:0")
    with pytest.raises(ParseError) as e:
        parse_padic("p:3;u:0;d:1,7,0")
    assert e.value.position > 0
    with pytest.raises(ParseError):
        parse_padic("p:x;u:0;d:1")


def test_json_roundtrip():
    x = PAdic(5, 0, (4, 0, 3))
    assert padic_from_json(padic_to_json(x)) == x
    with pytest.raises(ParseError):
        padic_from_json({"p": 5})


def test_norm_string_forms():
    n = parse_norm("p^-3", 3)
    assert n == norm_from_exp(3, 3)
    assert format_norm(n) == "p^-3"
    assert parse_norm("1", 3) == norm_from_exp(3, 0)
    assert format_norm(norm_zero(3)) == "0"
    with pytest.raises(ParseError):
        parse_norm("0.5", 3)


# ---------------------------------------------------------------------------
# the integer representation against the digit-loop references
# ---------------------------------------------------------------------------
# Values are stored as a scaled integer and a digit count, with digits
# derived on demand.  The references below are the digit-vector
# implementations that the integer arithmetic replaced: every value goes
# through its digits, and results are built through the validating
# constructor.

def _ref_to_scaled(x, u):
    """Integer m with x = p**u * m exactly (mod the joint precision)."""
    acc = 0
    for d in reversed(x.digits):
        acc = acc * x.prime + d
    return acc * x.prime ** (x.base_exp - u)


def _ref_build(prime, u, m, length):
    if length <= 0:
        return PAdic(prime, u, ())
    m %= prime ** length
    digits = []
    for _ in range(length):
        m, d = divmod(m, prime)
        digits.append(d)
    return PAdic(prime, u, tuple(digits))


def _ref_norm(x):
    for i, d in enumerate(x.digits):
        if d:
            return NormValue(x.prime, x.base_exp + i)
    return norm_zero(x.prime, x.base_exp + len(x.digits))


def _ref_add(x, y, sign=1):
    u = min(x.base_exp, y.base_exp)
    m_exp = min(x.known_exp, y.known_exp)
    return _ref_build(x.prime, u,
                      _ref_to_scaled(x, u) + sign * _ref_to_scaled(y, u),
                      m_exp - u)


def _ref_mul(x, y):
    nx, ny = _ref_norm(x), _ref_norm(y)
    vx = nx.bound_exp if nx.is_zero else nx.exponent
    vy = ny.bound_exp if ny.is_zero else ny.exponent
    m_exp = min(x.known_exp + vy, y.known_exp + vx)
    u = x.base_exp + y.base_exp
    return _ref_build(x.prime, u, _ref_to_scaled(x, x.base_exp)
                      * _ref_to_scaled(y, y.base_exp), m_exp - u)


def _ref_from_int(ctx, m, base_exp=None):
    m %= ctx.modulus
    u = ctx.u_min if base_exp is None else base_exp
    if u != ctx.u_min:
        q, r = divmod(m, ctx.prime ** (u - ctx.u_min))
        assert r == 0
        m = q
    digits = []
    while m:
        m, d = divmod(m, ctx.prime)
        digits.append(d)
    length = ctx.total_digits - (u - ctx.u_min)
    digits.extend([0] * (length - len(digits)))
    return PAdic(ctx.prime, u, tuple(digits))


def _ref_to_int(ctx, x):
    acc = 0
    for d in reversed(x.digits):
        acc = acc * ctx.prime + d
    return (acc * ctx.prime ** (x.base_exp - ctx.u_min)) % ctx.modulus


def _same(got, want):
    """Equal values, hashes and text, JSON and repr forms; the expected
    hash, text and JSON forms are spelled out from want's digit tuple."""
    assert got == want
    assert hash(got) == hash(want) == \
        hash((want.prime, want.base_exp, want.digits))
    assert repr(got) == repr(want)
    assert format_padic(got) == \
        f"p:{want.prime};u:{want.base_exp};d:{','.join(map(str, want.digits))}"
    assert padic_to_json(got) == \
        {"p": want.prime, "u": want.base_exp, "digits": list(want.digits)}
    assert got.known_exp == want.known_exp


def _random_value(rng, p, max_len=8):
    """A value of any length 0..max_len at base exponent -3..3."""
    digits = tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1)))
    if digits and rng.random() < 0.3:       # leading zeros: valuation > 0
        k = rng.randrange(len(digits) + 1)
        digits = (0,) * k + digits[k:]
    return PAdic(p, rng.randrange(-3, 4), digits)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_arithmetic_matches_digit_references_mixed_operands(p):
    rng = random.Random(1300 + p)
    for _ in range(400):
        x, y = _random_value(rng, p), _random_value(rng, p)
        _same(add(x, y), _ref_add(x, y))
        _same(sub(x, y), _ref_add(x, y, -1))
        _same(mul(x, y), _ref_mul(x, y))
        got, want = norm(x), _ref_norm(x)
        assert (got.prime, got.exponent, got.bound_exp) == \
            (want.prime, want.exponent, want.bound_exp)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_zp_context_matches_digit_references(p):
    rng = random.Random(1400 + p)
    N = 6 if p < 5 else 4
    ctx = PrecisionContext(p, N)
    values = [rng.randrange(ctx.modulus) for _ in range(200)] + [0, ctx.modulus - 1]
    for m in values:
        x = ctx.from_int(m)
        _same(x, _ref_from_int(ctx, m))
        _same(ctx.from_int(m - 5 * ctx.modulus), _ref_from_int(ctx, m))
        assert ctx.to_int(x) == _ref_to_int(ctx, x) == m
    for a, b in zip(values, values[1:]):
        x, y = ctx.from_int(a), ctx.from_int(b)
        _same(add(x, y), _ref_add(x, y))
        _same(sub(x, y), _ref_add(x, y, -1))
        _same(mul(x, y), _ref_mul(x, y))
    for k in range(N + 1):
        center = rng.randrange(ctx.modulus)
        got = enumerate_ball(ctx, ctx.from_int(center), norm_from_exp(p, k))
        step = p ** k
        want = [_ref_from_int(ctx, center % step + t * step)
                for t in range(ctx.modulus // step)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)


@pytest.mark.parametrize("p, N, lo, hi", [(2, 5, -3, 2), (3, 4, -2, 1),
                                          (5, 3, -1, 1), (7, 2, -2, 0)])
def test_qp_window_matches_digit_references(p, N, lo, hi):
    ctx = PrecisionContext(p, N, lo, hi, "Qp")
    rng = random.Random(1500 + p)
    for _ in range(200):
        m = rng.randrange(ctx.modulus)
        _same(ctx.from_int(m), _ref_from_int(ctx, m))
        u = rng.randrange(lo, hi + 1)
        shift = p ** (u - lo)
        q = rng.randrange(ctx.modulus // shift)
        x = ctx.from_int(q * shift, base_exp=u)
        _same(x, _ref_from_int(ctx, q * shift, base_exp=u))
        assert ctx.to_int(x) == _ref_to_int(ctx, x) == q * shift
        # values of any length at or above the window floor
        y = _random_value(rng, p)
        y = PAdic(p, max(y.base_exp, lo), y.digits)
        assert ctx.to_int(y) == _ref_to_int(ctx, y)
        z = ctx.from_int(rng.randrange(ctx.modulus))
        _same(add(x, z), _ref_add(x, z))
        _same(sub(z, x), _ref_add(z, x, -1))
        _same(mul(x, z), _ref_mul(x, z))
    with pytest.raises(WindowViolation):
        ctx.from_int(1, base_exp=lo - 1)
    with pytest.raises(WindowViolation):
        ctx.from_int(1, base_exp=lo + 1)     # 1 is not divisible by p
    center = ctx.from_int(rng.randrange(ctx.modulus))
    for k in range(lo, lo + ctx.total_digits + 1):
        got = enumerate_ball(ctx, center, norm_from_exp(p, k))
        step = p ** (k - lo)
        c = _ref_to_int(ctx, center) % step
        want = [_ref_from_int(ctx, c + t * step)
                for t in range(ctx.modulus // step)]
        assert [repr(g) for g in got] == [repr(w) for w in want]


def test_derived_digits_read_back_like_the_constructor():
    rng = random.Random(16)
    for p in (2, 3, 5, 7):
        ctx = PrecisionContext(p, 5, -2, 2, "Qp")
        for _ in range(50):
            x = mul(ctx.from_int(rng.randrange(ctx.modulus)),
                    ctx.from_int(rng.randrange(ctx.modulus)))
            y = PAdic(p, x.base_exp, x.digits)
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
            assert x.as_fraction() == y.as_fraction()
            assert x.normalized() == y.normalized()
            assert int_frac_split(x) == int_frac_split(y)
            assert len({x, y}) == 1
    x = PAdic(3, 0, (1, 2))
    assert x != PAdic(3, 0, (1, 2, 0)) and x != PAdic(3, 1, (1, 2))
    assert x != PAdic(5, 0, (1, 2)) and x != (3, 0, (1, 2))


def test_values_stay_immutable_and_replace_validates():
    import dataclasses
    ctx = PrecisionContext(3, 4)
    x = add(ctx.from_int(5), ctx.from_int(7))
    for name in ("prime", "base_exp", "digits"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    bumped = dataclasses.replace(x, digits=((x.digits[0] + 1) % 3,) + x.digits[1:])
    assert x.digits == (0, 1, 1, 0)
    assert bumped == PAdic(3, 0, (1, 1, 1, 0)) and bumped != x
    for bad in ((3, 0), (0, -1), (1, "2"), (1.0,)):
        with pytest.raises(AlphabetViolation):
            dataclasses.replace(x, digits=bad)
    with pytest.raises(AlphabetViolation):
        PAdic(2, 0, (1, 0, 2, 3))
