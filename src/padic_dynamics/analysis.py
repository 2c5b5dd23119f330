"""Exact metric certificates: Lipschitz constants, scaling behaviour,
openness of images and expansivity.

All certificates are exact at the context resolution: distances are powers
of p computed from digit valuations, with output valuations capped at the
map's certified digit count so precision loss can never fabricate a
contraction.  Every scan is exhaustive over the tabulated map: it covers
all M(M-1)/2 pairs of the M residues without visiting them one by one.
The pairs are grouped by their input level j (|x - y| = p**-j) and each
level is summarised by whole-table passes (_level_profile); expansivity
hashes itineraries instead.  Every other witness, the first pair in
combinations(range(M), 2) order with some property, comes from one search
(_first_pairs) for level-j pairs whose output valuation lies in a range,
and each scan asks it only for ranges that the level profile shows are
reached, so the walk ends at a hit.  Contexts above ctx.ball_budget
residues do not tabulate and raise BudgetExceeded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from operator import mod, mul, sub
from typing import Optional

from .dynamics import DynamicMap
from .padic import NormValue, valuation


def _level_profile(f: DynamicMap) -> list:
    """[(lo, hi, middle)] for each input level j = 0 .. D-1 of f's table.

    Over the pairs x != y with |x - y| = p**-j, lo and hi are the least and
    the largest capped output valuation v(f(x) - f(y)), and middle says
    whether some pair has lo < v < cap.

    The level-j pairs are the pairs across different children of a radius
    p**-j ball.  By the ultrametric inequality they reach the ball's image
    diameter, which is measured from the ball's least residue, so lo is one
    gcd over x >= p**j of f(x) - f(x mod p**j).  The level-j pairs whose
    images agree mod p**t fall into groups keyed by (x mod p**j,
    f(x) mod p**t); a group of n residues, n_c of them with digit j equal
    to c, holds (n**2 - sum n_c**2) / 2 of them.  hi is the largest t <= cap
    that leaves such a pair, found by bisection, and middle compares the
    counts at t = lo + 1 and t = cap.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    table = f.tabulate()

    def agreeing(j, t):
        """Level-j pairs whose images agree mod p**t."""
        pt = p ** t
        # keys[x] mod p**(t+i) is the group key (x mod p**i, f(x) mod p**t)
        keys = [v % pt + pt * x for x, v in enumerate(table)]

        def squares(modulus):
            sizes = Counter(map(mod, keys, repeat(modulus))).values()
            return sum(map(mul, sizes, sizes))

        return (squares(pt * p ** j) - squares(pt * p ** (j + 1))) // 2

    profile = []
    for j in range(D):
        pj = p ** j
        lo = valuation(math.gcd(M, *map(sub, table[pj:], cycle(table[:pj]))),
                       p, cap)
        hi, middle = lo, False
        if lo < cap:
            above = agreeing(j, lo + 1)
            if above:
                at_cap = agreeing(j, cap) if lo + 1 < cap else above
                if at_cap:
                    hi, middle = cap, above > at_cap
                else:
                    # some pair agrees mod p**(lo+1), none mod p**cap
                    a, b = lo + 1, cap
                    while b - a > 1:
                        c = (a + b) // 2
                        if agreeing(j, c):
                            a = c
                        else:
                            b = c
                    hi, middle = a, True
        profile.append((lo, hi, middle))
    return profile


def _first_pairs(f: DynamicMap, ranges):
    """Yield (j, (x, y)) for each level j of the valuation ranges (j, a, b):
    the first pair in combinations(range(M), 2) order with |x - y| = p**-j
    whose capped output valuation v lies in a <= v < b for one of level j's
    ranges (b None: no upper end; ranges with a >= b are dropped), in the
    order that scan meets them.  The walk stops at each level's first hit,
    so callers pass only ranges that the level profile shows are reached.
    """
    ctx = f.ctx
    p, M = ctx.prime, ctx.modulus
    cap = ctx.total_digits - f.precision_loss
    pcap = p ** cap
    table = f.tabulate()
    # gcd(f(x) - f(y), p**cap) is p**v for the capped output valuation v
    left = {}
    for j, a, b in ranges:
        top = cap + 1 if b is None else min(b, cap + 1)
        if a < top:
            left.setdefault(j, set()).update(p ** v for v in range(a, top))
    for x in range(M):
        if not left:
            return
        fx = table[x]
        row = []
        for j, wanted in left.items():
            step = p ** j
            for y in range(x + step, M, step):
                if (y - x) % (step * p) and \
                        math.gcd(fx - table[y], pcap) in wanted:
                    row.append((y, j))
                    break
        for y, j in sorted(row):
            del left[j]
            yield j, (x, y)


@dataclass
class LipschitzEstimate:
    c1_lower: Optional[Fraction]   # min measured ratio (two-sided lower bound)
    c2_upper: Optional[Fraction]   # max measured ratio
    exhaustive: bool
    pairs: int
    witness_low: Optional[tuple] = None
    witness_high: Optional[tuple] = None


def estimate_lipschitz(f: DynamicMap) -> LipschitzEstimate:
    """Extreme distance ratios |f(x)-f(y)| / |x-y| over all pairs x != y.

    Output valuations are capped at the certified digit count; pairs whose
    images coincide at that resolution contribute the smallest resolvable
    ratio to c1_lower (an honest lower bound, not a claim of collapse).
    Each witness is the first pair in combinations(range(M), 2) order that
    attains its ratio.
    """
    ctx = f.ctx
    p, M = ctx.prime, ctx.modulus
    cap = ctx.total_digits - f.precision_loss
    profile = _level_profile(f)
    # a level-j pair with output valuation v has ratio p**(j - v), so the
    # least ratio sits at some level's hi and the largest at some lo
    e1 = min(j - hi for j, (_, hi, _) in enumerate(profile))
    low = [(j, hi, None) for j, (_, hi, _) in enumerate(profile)
           if j - hi == e1]
    _, wlow = next(_first_pairs(f, low))
    # images equal at certified resolution certify no upper ratio: the
    # true output valuation may exceed the cap
    e2 = max((j - lo for j, (lo, _, _) in enumerate(profile) if lo < cap),
             default=None)
    c2 = whigh = None
    if e2 is not None:
        high = [(j, lo, lo + 1) for j, (lo, _, _) in enumerate(profile)
                if lo < cap and j - lo == e2]
        _, whigh = next(_first_pairs(f, high))
        c2 = Fraction(p) ** e2
    return LipschitzEstimate(Fraction(p) ** e1, c2, True, M * (M - 1) // 2,
                             wlow, whigh)


def check_locally_scaling(f: DynamicMap, k: int, m_exp: int) -> tuple:
    """Verify |f(x)-f(y)| == p**-m_exp * |x-y| on all pairs with
    |x-y| <= p**-k.

    Returns (ok, witness), the witness being the first failing pair in
    combinations(range(M), 2) order; comparisons beyond the certified
    output digits are skipped rather than falsified.
    """
    ctx = f.ctx
    cap = ctx.total_digits - f.precision_loss
    # a level-j pair fails when its output valuation is not e = j + m_exp
    ranges = []
    for j, (lo, hi, _) in enumerate(_level_profile(f)):
        e = j + m_exp
        if j >= k - ctx.u_min and e < cap:
            if lo < e:
                ranges.append((j, 0, e))
            if hi > e:
                ranges.append((j, e + 1, None))
    if not ranges:
        return True, None
    _, witness = next(_first_pairs(f, ranges))
    return False, witness


@dataclass
class ScalingProfile:
    table: dict                    # input valuation -> output valuation
    consistent: bool
    witness: Optional[tuple] = None


def scaling_profile(f: DynamicMap) -> ScalingProfile:
    """Tabulate kappa(|x-y|) = |f(x)-f(y)|; consistent when single-valued.

    Keys appear in the order in which a scan of the pairs in
    combinations(range(M), 2) order first resolves them.  An inconsistent
    profile holds what that scan had found when it met the first pair
    contradicting the table; that pair is the witness.
    """
    ctx = f.ctx
    p, M = ctx.prime, ctx.modulus
    cap = ctx.total_digits - f.precision_loss
    profile = _level_profile(f)
    images = f.tabulate()
    # the first usable pair of each level sets its table entry
    firsts = [(j, (x, y), valuation((images[x] - images[y]) % M, p, cap))
              for j, (x, y) in _first_pairs(
                  f, [(j, 0, cap) for j, (lo, _, _) in enumerate(profile)
                      if lo < cap])]
    # a level holds two usable valuations exactly when it has a middle one
    if not any(middle for _, _, middle in profile):
        return ScalingProfile({j: v for j, _, v in firsts}, True)
    ranges = [r for j, _, v in firsts if profile[j][2]
              for r in ((j, 0, v), (j, v + 1, cap))]
    _, witness = next(_first_pairs(f, ranges))
    table = {j: v for j, pair, v in firsts if pair < witness}
    return ScalingProfile(table, False, witness)


def image_openness(f: DynamicMap) -> Optional[NormValue]:
    """Largest rho = p**-n0 with the image of f a union of radius-rho balls.

    Scans n0 up to two digits short of the certified resolution; radii
    within that margin are truncation artifacts and yield None instead.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    image = {y % M for y in f.tabulate()}
    for n0 in range(0, cap - 1):
        step = p ** n0
        # no class mod p**n0 holds more than M // step residues, so the
        # image is a union of such classes exactly when the counts match
        if len(image) == len({y % step for y in image}) * (M // step):
            return NormValue(p, ctx.u_min + n0)
    return None


def expansivity_constant(f: DynamicMap, horizon: int) -> tuple:
    """Horizon-limited expansivity certificate.

    Returns (constant, witness): every pair x != y separates to distance
    >= constant within `horizon` iterations, and the witness, the first
    such pair in combinations(range(M), 2) order, separates no further.

    A pair stays within p**-m for `horizon` steps exactly when x and y
    share the itinerary (f**n(x) mod p**m), n = 0 .. horizon, so the
    constant is p**-m for the largest m at which itineraries collide,
    found by bisection with one hash pass per iteration and m.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    images = [v % M for v in f.tabulate()]

    def itineraries(m):
        """Class ids of the itineraries mod p**m (m < D), or None if all
        differ."""
        pm = p ** m
        digits = ids = [x % pm for x in range(M)]
        for _ in range(horizon):
            # itinerary of x = (x mod p**m, itinerary of f(x) one step shorter)
            index = {}
            ids = [index.setdefault(key, len(index))
                   for key in zip(digits, map(ids.__getitem__, images))]
            if len(index) == M:
                return None
        return ids

    # itineraries collide mod p**0 (M >= 2), never mod p**D (n = 0 is x)
    m, above = 0, D
    while above - m > 1:
        mid = (m + above) // 2
        if itineraries(mid) is None:
            above = mid
        else:
            m = mid
    first, second = {}, {}
    for x, c in enumerate(itineraries(m)):
        if c not in first:
            first[c] = x
        elif c not in second:
            second[c] = x
    witness = min((first[c], y) for c, y in second.items())
    return NormValue(p, ctx.u_min + m), witness
