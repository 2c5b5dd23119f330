"""Exact truncated p-adic arithmetic.

Values are digit vectors over {0, ..., p-1} attached to a base exponent u:
the encoded number is sum(d[i] * p**(u + i)).  Every value is exact modulo
p**(u + len(d)); nothing is ever rounded, precision is only ever truncated.
A PAdic stores the digit vector as its scaled integer m = sum(d[i] * p**i)
and its length n, so add, sub, mul, norm and the context's integer bridge
(from_int, to_int) are integer operations on m; the digit tuple is derived
the first time it is read (text and JSON forms, repr, hashing) and kept.
A PrecisionContext fixes the prime, the per-value digit budget and (for the
field mode) the admissible window of base exponents.  The integer-ring mode
is exactly the residue ring Z/p^N.

No floating point is used anywhere; norms are carried symbolically as
integer exponents (see NormValue) and converted to Fraction on demand.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    AlphabetViolation,
    BadParams,
    BudgetExceeded,
    ParseError,
    WindowViolation,
)


def _check_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise AlphabetViolation(f"{p} is not a prime")


def valuation(m: int, p: int, cap: int) -> int:
    """The p-adic valuation of the integer m, capped at cap (cap for m == 0)."""
    if m == 0:
        return cap
    v = 0
    while m % p == 0 and v < cap:
        m //= p
        v += 1
    return v


def _norm_comparison(op):
    """A NormValue comparison keyed on the exponents; norms of different
    primes do not compare."""
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.prime != self.prime:
            raise BadParams(f"cannot compare norms of different primes: "
                            f"{self!r} (p = {self.prime}) and {other!r} "
                            f"(p = {other.prime})")
        a, b = self.exponent, other.exponent
        if a is None or b is None:
            # a zero (False) sorts below every definite norm (True)
            return op(a is not None, b is not None)
        # |x| = p**-exponent: the larger exponent is the smaller norm
        return op(b, a)
    return method


@dataclass(frozen=True, eq=False, slots=True)
class NormValue:
    """A p-adic absolute value, |x| = p**(-exponent), kept exactly.

    ``exponent is None`` encodes "zero to known precision": the value is
    indistinguishable from 0 at the current truncation and ``bound_exp``
    records the certified bound |x| <= p**(-bound_exp).  Zeros to
    precision are equal to one another, with equal hashes, whatever their
    bound_exp: the bound says how finely zero was certified, not which
    value it is.  Ordering treats such a zero as strictly smaller than
    every definite norm.  Comparing norms of different primes raises
    BadParams.
    """

    prime: int
    exponent: Optional[int] = None
    bound_exp: Optional[int] = None

    def __init__(self, prime: int, exponent: Optional[int] = None,
                 bound_exp: Optional[int] = None):
        # the slot descriptors store the fields directly; the frozen
        # __setattr__ still refuses every later assignment
        _set_prime(self, prime)
        _set_exponent(self, exponent)
        _set_bound_exp(self, bound_exp)

    __eq__ = _norm_comparison(operator.eq)
    __lt__ = _norm_comparison(operator.lt)
    __le__ = _norm_comparison(operator.le)
    __gt__ = _norm_comparison(operator.gt)
    __ge__ = _norm_comparison(operator.ge)

    def __hash__(self):
        return hash((self.prime, self.exponent))

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        if self.exponent >= 0:
            return Fraction(1, self.prime ** self.exponent)
        return Fraction(self.prime ** (-self.exponent))

    def scaled(self, k: int) -> "NormValue":
        """Multiply by p**(-k), i.e. tighten/loosen by k digit positions."""
        if self.exponent is None:
            b = None if self.bound_exp is None else self.bound_exp + k
            return NormValue(self.prime, None, b)
        return NormValue(self.prime, self.exponent + k)

    def __repr__(self):
        if self.exponent is None:
            if self.bound_exp is None:
                return f"|0|_{self.prime}"
            return f"|<=p^-{self.bound_exp}|_{self.prime}"
        return f"p^{-self.exponent}" if self.exponent else "1"


_set_prime = NormValue.prime.__set__
_set_exponent = NormValue.exponent.__set__
_set_bound_exp = NormValue.bound_exp.__set__


def norm_from_exp(p: int, k: int) -> NormValue:
    """The norm p**(-k)."""
    return NormValue(p, k)


def norm_zero(p: int, bound_exp: Optional[int] = None) -> NormValue:
    return NormValue(p, None, bound_exp)


@dataclass(frozen=True)
class PrecisionContext:
    """Fixed prime, digit budget and exponent window.

    space_tag "Zp" pins base_exp to 0; "Qp" allows base exponents in
    [u_min, u_max].  total_digits spans every representable position, so
    engine-internal integers live in [0, p**total_digits) and denote the
    value p**u_min * m.
    """

    prime: int
    digit_budget: int
    u_min: int = 0
    u_max: int = 0
    space_tag: str = "Zp"
    ball_budget: int = 1 << 20

    def __post_init__(self):
        _check_prime(self.prime)
        if self.digit_budget < 1:
            raise BudgetExceeded("digit budget must be positive")
        if self.space_tag not in ("Zp", "Qp"):
            raise WindowViolation(f"unknown space tag {self.space_tag!r}")
        if self.space_tag == "Zp" and (self.u_min != 0 or self.u_max != 0):
            raise WindowViolation("Zp context requires u_min == u_max == 0")
        if self.u_min > self.u_max:
            raise WindowViolation("empty exponent window")

    # the context is frozen, so its derived constants are computed on first
    # read and kept; equality and hash read only the fields
    @functools.cached_property
    def total_digits(self) -> int:
        return (self.u_max - self.u_min) + self.digit_budget

    @functools.cached_property
    def modulus(self) -> int:
        return self.prime ** self.total_digits

    @functools.cached_property
    def residues(self) -> list:
        """list(range(modulus)), one int object per residue, built once.

        Every non-periodic map table of this context takes its values from
        here, so the tables a table pass reads share one block of ints.
        """
        return list(range(self.modulus))

    @property
    def resolution_exp(self) -> int:
        """Finest certified position: values are exact mod p**resolution_exp."""
        return self.u_min + self.total_digits

    # -- engine-internal integer bridge -------------------------------

    def to_int(self, x: "PAdic") -> int:
        """Scaled-integer representative of x, exact mod self.modulus."""
        if x.prime != self.prime:
            raise AlphabetViolation("prime mismatch with context")
        if x.base_exp < self.u_min:
            raise WindowViolation(
                f"base exponent {x.base_exp} below window minimum {self.u_min}")
        return (x._m * self.prime ** (x._u - self.u_min)) % self.modulus

    def from_int(self, m: int, base_exp: Optional[int] = None) -> "PAdic":
        """PAdic carrying all total_digits digits of m (mod modulus)."""
        m %= self.modulus
        if base_exp is None:
            return _raw(self.prime, self.u_min, m, self.total_digits)
        shift = base_exp - self.u_min
        if shift < 0:
            raise WindowViolation(
                f"base exponent {base_exp} below window minimum {self.u_min}")
        if shift:
            q, r = divmod(m, self.prime ** shift)
            if r:
                raise WindowViolation("integer not representable at this base exponent")
            m = q
        return _raw(self.prime, base_exp, m, max(self.total_digits - shift, 0))

    def norm_of_int(self, m: int) -> NormValue:
        """Norm of the value p**u_min * m, as certified by this context."""
        m %= self.modulus
        if m == 0:
            return norm_zero(self.prime, self.resolution_exp)
        return NormValue(self.prime,
                         self.u_min + valuation(m, self.prime, self.total_digits))

    def max_norm(self, values) -> NormValue:
        """Largest norm among the scaled ints `values` (zero to resolution
        when every value vanishes mod the modulus, or when there are none).

        One gcd with the modulus p**N: its valuation is the least valuation
        of the values, capped at N.
        """
        return self.norm_of_int(math.gcd(self.modulus, *values))


# The dataclass decorator (its init, eq and repr switched off) records the
# three public fields, so that dataclasses.replace(x, digits=...) rebuilds
# through the validating constructor.  The fields are read-only properties
# over private slots, so instances stay immutable.
@dataclass(init=False, eq=False, repr=False)
class PAdic:
    """Immutable truncated p-adic value: sum(digits[i] * p**(base_exp+i)).

    Stored as the scaled integer m = sum(digits[i] * p**i), 0 <= m < p**n,
    and the digit count n: the value is p**base_exp * m, exact modulo
    p**(base_exp + n), which known_exp reports.  The digit tuple is
    derived from m the first time `digits` is read and then kept.
    Instances are plain data -- all arithmetic lives in module-level
    functions, which build their results with `_raw` and skip the digit
    validation that the public constructor does.
    """

    __slots__ = ("_p", "_u", "_m", "_n", "_digits")
    prime: int
    base_exp: int
    digits: tuple

    def __init__(self, prime: int, base_exp: int, digits: tuple):
        digits = tuple(digits)
        m, pw = 0, 1
        for i, d in enumerate(digits):
            if not isinstance(d, int) or not 0 <= d < prime:
                raise AlphabetViolation(
                    f"digit {d!r} at position {i} outside 0..{prime - 1}")
            m += d * pw
            pw *= prime
        self._p, self._u, self._m, self._n = prime, base_exp, m, len(digits)
        self._digits = digits

    @property
    def prime(self) -> int:
        return self._p

    @property
    def base_exp(self) -> int:
        return self._u

    @property
    def digits(self) -> tuple:
        try:
            return self._digits
        except AttributeError:
            m, p, digits = self._m, self._p, []
            for _ in range(self._n):
                m, d = divmod(m, p)
                digits.append(d)
            self._digits = tuple(digits)
            return self._digits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._m == other._m and self._n == other._n
                and self._u == other._u and self._p == other._p)

    def __hash__(self):
        return hash((self._p, self._u, self.digits))

    def __repr__(self):
        return (f"PAdic(prime={self._p!r}, base_exp={self._u!r}, "
                f"digits={self.digits!r})")

    @property
    def known_exp(self) -> int:
        """Value is exact modulo p**known_exp."""
        return self._u + self._n

    def digit_at(self, position: int) -> int:
        """Digit at absolute position (exponent) `position`, 0 if below range."""
        i = position - self._u
        if i < 0:
            return 0
        if i >= self._n:
            raise WindowViolation(f"position {position} beyond known precision")
        return self.digits[i]

    def normalized(self) -> "PAdic":
        """Strip leading zero digits into the base exponent (display form)."""
        i = valuation(self._m, self._p, self._n)
        if i == 0:
            return self
        return _raw(self._p, self._u + i, self._m // self._p ** i, self._n - i)

    def as_fraction(self) -> Fraction:
        return self._m * Fraction(self._p) ** self._u


_new = object.__new__


def _raw(prime: int, u: int, m: int, n: int) -> PAdic:
    """The value p**u * m with n digits, for 0 <= m < p**n (unchecked)."""
    x = _new(PAdic)
    x._p, x._u, x._m, x._n = prime, u, m, n
    return x


def make_padic(ctx: PrecisionContext, base_exp: int, digits: Iterable[int]) -> PAdic:
    """Validated constructor; truncates digits beyond the context budget."""
    digits = tuple(digits)
    if ctx.space_tag == "Zp":
        if base_exp != 0:
            raise WindowViolation("Zp values must have base exponent 0")
    else:
        if not ctx.u_min <= base_exp <= ctx.u_max:
            raise WindowViolation(
                f"base exponent {base_exp} outside window [{ctx.u_min}, {ctx.u_max}]")
    p, n = ctx.prime, min(len(digits), ctx.digit_budget)
    m, pw = 0, 1
    # every digit is checked, those beyond the budget too, and only once
    for i, d in enumerate(digits):
        if not isinstance(d, int) or not 0 <= d < p:
            raise AlphabetViolation(f"digit {d!r} outside 0..{p - 1}")
        if i < n:
            m += d * pw
            pw *= p
    return _raw(p, base_exp, m, n)


def norm(x: PAdic) -> NormValue:
    """p-adic absolute value; zero-to-precision carries its certified bound."""
    if x._m == 0:
        return NormValue(x._p, None, x._u + x._n)
    return NormValue(x._p, x._u + valuation(x._m, x._p, x._n))


def _signed_sum(x: PAdic, y: PAdic, sign: int) -> PAdic:
    """x + sign * y, truncated to the shared certified precision."""
    p, ux, uy = x._p, x._u, y._u
    if p != y._p:
        raise AlphabetViolation(f"prime mismatch: {p} != {y._p}")
    mx, my = x._m, y._m
    if ux == uy:
        u = ux
    elif ux < uy:
        u, my = ux, my * p ** (uy - ux)
    else:
        u, mx = uy, mx * p ** (ux - uy)
    n = min(ux + x._n, uy + y._n) - u
    return _raw(p, u, (mx + sign * my) % p ** n, n)


def add(x: PAdic, y: PAdic) -> PAdic:
    """Exact sum, truncated to the shared certified precision."""
    return _signed_sum(x, y, 1)


def sub(x: PAdic, y: PAdic) -> PAdic:
    """Exact difference, truncated to the shared certified precision."""
    return _signed_sum(x, y, -1)


def mul(x: PAdic, y: PAdic) -> PAdic:
    """Exact product, truncated to the provable output precision.

    If x is exact mod p**mx and |y| <= p**-vy (valuation lower bound from
    the leading digits), the product is exact mod p**min(mx+vy, my+vx).
    """
    p, ux, uy = x._p, x._u, y._u
    if p != y._p:
        raise AlphabetViolation(f"prime mismatch: {p} != {y._p}")
    vx = ux + valuation(x._m, p, x._n)
    vy = uy + valuation(y._m, p, y._n)
    u = ux + uy
    n = min(ux + x._n + vy, uy + y._n + vx) - u
    return _raw(p, u, (x._m * y._m) % p ** n, n)


def int_frac_split(x: PAdic) -> tuple:
    """Split into (floor_part, frac_part): digits at exponents >=0 and <0."""
    if x._u >= 0:
        return x, _raw(x._p, 0, 0, 0)
    cut = -x._u
    low = x._p ** cut
    frac = _raw(x._p, x._u, x._m % low, min(cut, x._n))
    floor = _raw(x._p, 0, x._m // low, max(x._n - cut, 0))
    return floor, frac


def enumerate_ball(ctx: PrecisionContext, center: PAdic, radius: NormValue) -> list:
    """All context residues within `radius` of center (a coset enumeration)."""
    if radius.is_zero:
        raise BudgetExceeded("zero radius enumerates nothing at finite precision")
    k = radius.exponent
    if k > ctx.resolution_exp:
        raise BudgetExceeded("radius finer than context resolution")
    k = max(k, ctx.u_min)
    step = ctx.prime ** (k - ctx.u_min)
    count = ctx.modulus // step
    if count > ctx.ball_budget:
        raise BudgetExceeded(f"{count} residues exceed ball budget {ctx.ball_budget}")
    c = ctx.to_int(center) % step
    return [ctx.from_int(c + t * step) for t in range(count)]


# ---------------------------------------------------------------------------
# canonical text / JSON forms
# ---------------------------------------------------------------------------

def format_padic(x: PAdic) -> str:
    d = ",".join(str(t) for t in x.digits)
    return f"p:{x.prime};u:{x.base_exp};d:{d}"


def parse_padic(text: str) -> PAdic:
    """Parse the canonical form ``p:<prime>;u:<exp>;d:<d0,d1,...>``."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ParseError("expected three ';'-separated fields", len(text))
    fields = {}
    off = 0
    for part in parts:
        if ":" not in part:
            raise ParseError("missing ':' in field", off)
        key, _, val = part.partition(":")
        fields[key.strip()] = (val, off + len(key) + 1)
        off += len(part) + 1
    for key in ("p", "u", "d"):
        if key not in fields:
            raise ParseError(f"missing field {key!r}", 0)
    try:
        p = int(fields["p"][0])
    except ValueError:
        raise ParseError("prime is not an integer", fields["p"][1])
    try:
        u = int(fields["u"][0])
    except ValueError:
        raise ParseError("base exponent is not an integer", fields["u"][1])
    dtext, doff = fields["d"]
    digits = []
    if dtext.strip():
        cursor = doff
        for token in dtext.split(","):
            try:
                d = int(token)
            except ValueError:
                raise ParseError(f"bad digit {token!r}", cursor)
            if not 0 <= d < p:
                raise ParseError(f"digit {d} outside 0..{p - 1}", cursor)
            digits.append(d)
            cursor += len(token) + 1
    _check_prime(p)
    return PAdic(p, u, tuple(digits))


def padic_to_json(x: PAdic) -> dict:
    return {"p": x.prime, "u": x.base_exp, "digits": list(x.digits)}


def padic_from_json(obj: dict) -> PAdic:
    try:
        return PAdic(int(obj["p"]), int(obj["u"]), tuple(int(d) for d in obj["digits"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad JSON p-adic object: {exc}", 0)


def parse_norm(text: str, p: int) -> NormValue:
    """Parse tolerance strings of the form ``p^-k`` (or ``1``/``0``)."""
    text = text.strip()
    if text == "0":
        return norm_zero(p)
    if text == "1":
        return NormValue(p, 0)
    if not text.startswith("p^"):
        raise ParseError("expected 'p^<exponent>' form", 0)
    try:
        k = int(text[2:])
    except ValueError:
        raise ParseError("exponent is not an integer", 2)
    return NormValue(p, -k)


def format_norm(n: NormValue) -> str:
    if n.is_zero:
        return "0"
    return f"p^{-n.exponent}"
