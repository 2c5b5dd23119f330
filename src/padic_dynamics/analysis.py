"""Empirical metric estimators: Lipschitz constants, scaling behaviour,
openness of images and expansivity certificates.

All estimators are exact at the context resolution: distances are powers
of p computed from digit valuations, with output valuations capped at the
map's certified digit count so precision loss can never fabricate a
contraction.  The pair scans cover all pairs of residues when there are at
most PAIR_BUDGET of them (up to 2,896 residues); otherwise they scan SAMPLE
seeded pairs and flag the result as not exhaustive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import BudgetExceeded
from .dynamics import DynamicMap
from .padic import NormValue, valuation

PAIR_BUDGET = 1 << 22
SAMPLE = 20000


def _pairs(M: int, seed: int):
    """(exhaustive, iterator of (x, y) pairs of residues mod M)."""
    if M * (M - 1) // 2 <= PAIR_BUDGET:
        return True, combinations(range(M), 2)
    rng = random.Random(seed)
    return False, ((rng.randrange(M), rng.randrange(M))
                   for _ in range(SAMPLE))


@dataclass
class LipschitzEstimate:
    c1_lower: Optional[Fraction]   # min measured ratio (two-sided lower bound)
    c2_upper: Optional[Fraction]   # max measured ratio
    exhaustive: bool
    pairs: int
    witness_low: Optional[tuple] = None
    witness_high: Optional[tuple] = None


def estimate_lipschitz(f: DynamicMap, seed: int = 0) -> LipschitzEstimate:
    """Scan distance ratios |f(x)-f(y)| / |x-y| over input pairs.

    Output valuations are capped at the certified digit count; pairs whose
    images coincide at that resolution contribute the smallest resolvable
    ratio to c1_lower (an honest lower bound, not a claim of collapse).
    """
    ctx = f.ctx
    p, D = ctx.prime, ctx.total_digits
    cap = D - f.precision_loss
    M = ctx.modulus
    exhaustive, pairs = _pairs(M, seed)
    # the ratio of a pair is p**e with e = vin - vout, so the extreme
    # ratios are the extreme exponents
    e1 = e2 = None
    wlow = whigh = None
    count = 0
    for x, y in pairs:
        if x == y:
            continue
        vin = valuation((x - y) % M, p, D)
        vout = valuation((f(x) - f(y)) % M, p, cap)
        e = vin - vout
        count += 1
        if e1 is None or e < e1:
            e1, wlow = e, (x, y)
        # images equal at certified resolution certify no upper ratio:
        # the true output valuation may exceed the cap
        if vout < cap and (e2 is None or e > e2):
            e2, whigh = e, (x, y)
    c1 = None if e1 is None else Fraction(p) ** e1
    c2 = None if e2 is None else Fraction(p) ** e2
    return LipschitzEstimate(c1, c2, exhaustive, count, wlow, whigh)


def check_locally_scaling(f: DynamicMap, k: int, m_exp: int,
                          seed: int = 0) -> tuple:
    """Verify |f(x)-f(y)| == p**-m_exp * |x-y| on pairs with |x-y| <= p**-k.

    Returns (ok, witness); comparisons beyond the certified output digits
    are skipped rather than falsified.  Above PAIR_BUDGET pairs only SAMPLE
    seeded pairs are checked, so ok is then not a proof.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    _, pairs = _pairs(M, seed)
    for x, y in pairs:
        if x == y:
            continue
        vin = valuation((x - y) % M, p, D)
        if vin < k - ctx.u_min:
            continue
        expected = vin + m_exp
        if expected >= cap:
            continue
        vout = valuation((f(x) - f(y)) % M, p, cap)
        if vout != expected:
            return False, (x, y)
    return True, None


@dataclass
class ScalingProfile:
    table: dict                    # input valuation -> output valuation
    consistent: bool
    exhaustive: bool               # all pairs scanned, not a sample
    witness: Optional[tuple] = None


def scaling_profile(f: DynamicMap, seed: int = 0) -> ScalingProfile:
    """Tabulate kappa(|x-y|) = |f(x)-f(y)|; consistent when single-valued."""
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    exhaustive, pairs = _pairs(M, seed)
    table = {}
    for x, y in pairs:
        if x == y:
            continue
        vin = valuation((x - y) % M, p, D)
        vout = valuation((f(x) - f(y)) % M, p, cap)
        if vout >= cap:
            continue        # below certified resolution; unusable
        prev = table.get(vin)
        if prev is None:
            table[vin] = vout
        elif prev != vout:
            return ScalingProfile(table, False, exhaustive, (x, y))
    return ScalingProfile(table, True, exhaustive)


def image_openness(f: DynamicMap) -> Optional[NormValue]:
    """Largest rho = p**-n0 with the image of f a union of radius-rho balls.

    Scans n0 up to two digits short of the certified resolution; radii
    within that margin are truncation artifacts and yield None instead.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    cap = D - f.precision_loss
    if M > ctx.ball_budget:
        raise BudgetExceeded("context too large for image enumeration")
    image = {f(x) % M for x in range(M)}
    for n0 in range(0, cap - 1):
        step = p ** n0
        coset_size = M // step
        # group image points by their class mod p^n0
        groups = {}
        for y in image:
            groups.setdefault(y % step, set()).add(y)
        if all(len(g) == coset_size for g in groups.values()):
            return NormValue(p, ctx.u_min + n0)
    return None


def expansivity_constant(f: DynamicMap, horizon: int,
                         seed: int = 0) -> tuple:
    """Horizon-limited expansivity certificate.

    Returns (constant, witness): every scanned pair x != y separates to
    distance >= constant within `horizon` iterations; witness attains it.
    """
    ctx = f.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    _, pairs = _pairs(M, seed)
    worst_v = None
    witness = None
    for x, y in pairs:
        if x == y:
            continue
        a, b = x, y
        best_v = valuation((a - b) % M, p, D)
        for _ in range(horizon):
            if worst_v is not None and best_v <= worst_v:
                break
            a, b = f(a), f(b)
            v = valuation((a - b) % M, p, D)
            if v < best_v:
                best_v = v
        if worst_v is None or best_v > worst_v:
            worst_v = best_v
            witness = (x, y)
    if worst_v is None:
        return None, None
    return NormValue(p, ctx.u_min + worst_v), witness
