"""Pseudo-orbit generation and the shadowing solver.

The solver runs the backward contraction recursion driven by a family of
right inverses: with indices i_n chosen so that R_{i_n} inverts the map at
x_n, corrections satisfy z_L = 0 and

    z_n = R_{i_n}(x_{n+1} + z_{n+1}) - x_n,

so f(x_n + z_n) = x_{n+1} + z_{n+1} at the certified modulus (digits the
contraction pushed off the top are unrecoverable at finite precision) and
x_0 + z_0 shadows the whole pseudo-orbit with max |z_n| <= delta / p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BudgetExceeded, DeltaTooSmall
from .dynamics import DynamicMap, RightInverseFamily
from .padic import NormValue, PrecisionContext, norm_zero, valuation


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite delta-pseudo-orbit of scaled residues."""

    ctx: PrecisionContext
    points: tuple
    delta: NormValue

    def __len__(self):
        return len(self.points)


def random_pseudo_orbit(f: DynamicMap, delta: NormValue, length: int,
                        seed: int = 0) -> PseudoOrbit:
    """Seeded pseudo-orbit: x_{n+1} = f(x_n) + e_n with |e_n| <= delta."""
    ctx = f.ctx
    p, M = ctx.prime, ctx.modulus
    if delta.is_zero:
        raise DeltaTooSmall("a pseudo-orbit needs a nonzero delta")
    k = delta.exponent - ctx.u_min
    if not 0 <= k <= ctx.total_digits:
        raise BudgetExceeded(f"delta {delta!r} outside context range")
    step = p ** k
    span = M // step
    rng = random.Random(seed)
    points = [rng.randrange(M)]
    for _ in range(length):
        e = step * rng.randrange(span) if span > 1 else 0
        points.append((f(points[-1]) + e) % M)
    return PseudoOrbit(ctx, tuple(points), delta)


def verify_pseudo_orbit(f: DynamicMap, orbit: PseudoOrbit) -> NormValue:
    """Largest defect |f(x_n) - x_{n+1}|; raises nothing, caller compares."""
    pts = orbit.points
    return orbit.ctx.max_norm(
        [f(pts[n]) - pts[n + 1] for n in range(len(pts) - 1)])


@dataclass
class ShadowingResult:
    point: int                    # scaled residue x_0 + z_0
    corrections: tuple            # z_0, ..., z_L
    achieved_bound: NormValue     # max |z_n|
    bound_ok: bool                # achieved_bound <= delta / p
    forward_checked: int          # orbit steps re-verified forward
    certified_digits: int         # digits certified for forward iteration


def solve_shadowing(f: DynamicMap, family: RightInverseFamily,
                    orbit: PseudoOrbit) -> ShadowingResult:
    """Backward-recursion shadowing solver.

    The recursion itself is exact at the context resolution regardless of
    the map's per-step precision loss, so no digit gate is applied to the
    orbit length; certified_digits reports how far forward iteration of f
    itself stays certified.  The indices of the orbit points come from
    family.indices, which refuses a point that no member covers.
    """
    ctx = orbit.ctx
    M = ctx.modulus
    pts = orbit.points
    L = len(pts) - 1

    indices = family.indices(pts[:L])

    # one evaluator per member, read once: steps skip DynamicMap.__call__
    inverses = [R.evaluator() for R in family.members]
    z = [0] * (L + 1)
    for n in range(L - 1, -1, -1):
        R = inverses[indices[n]]
        z[n] = (R((pts[n + 1] + z[n + 1]) % M) - pts[n]) % M

    achieved = ctx.max_norm(z)
    bound_ok = achieved <= orbit.delta.scaled(1)

    # forward re-verification where f's own precision loss still certifies
    checked = 0
    y = (pts[0] + z[0]) % M
    p = ctx.prime
    f_eval = f.evaluator()
    for n in range(1, L + 1):
        digits = ctx.total_digits - n * f.precision_loss
        if digits < 1:
            break
        y = f_eval(y)
        if (y - (pts[n] + z[n])) % (p ** digits):
            break
        checked = n

    cert = max(ctx.total_digits - L * f.precision_loss, 0)
    return ShadowingResult((pts[0] + z[0]) % M, tuple(z), achieved, bound_ok,
                           checked, cert)


def orbit_error(f: DynamicMap, orbit: PseudoOrbit, x: int) -> NormValue:
    """max_n |f^n(x) - x_n|, the error brute_force_shadow minimises (without
    respect_loss)."""
    pts = orbit.points
    diffs = [x - pts[0]]
    for xn in pts[1:]:
        x = f(x)
        diffs.append(x - xn)
    return orbit.ctx.max_norm(diffs)


def brute_force_shadow(f: DynamicMap, orbit: PseudoOrbit,
                       respect_loss: bool = False) -> tuple:
    """Exact oracle: the residue minimising max_n |f^n(x) - x_n|.

    Returns (best_point, best_error).  Ties resolve to the smallest
    residue.  Requires an enumerable context.

    With respect_loss, differences confined to the digits a lossy map
    leaves uncertified after n steps (positions >= D - n*loss) are not
    counted as errors: they are truncation artifacts, not evidence that
    the candidate misses the orbit.

    The n = 0 term bounds every candidate's error from below: the error
    of x is at least |x - x_0|, i.e. minval(x) <= v(x - x_0), and that
    term is never a loss artifact.  So a residue whose error is below
    p^-k lies in the ball x = x_0 mod p^k.  The search scores x_0, then
    widens the ball one level at a time, scoring only the new annulus
    {v(x - x_0) = k} (no residue is scored twice), and stops at the first
    level k whose best valuation is >= k: every residue outside the ball
    scores below k, so it can neither beat nor tie the best.  A best
    valuation of 0 is the least there is, so then every residue ties and
    the answer is residue 0.  At most M/p residues are scored, against
    the flat scan's M.
    """
    ctx = orbit.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    if M > ctx.ball_budget:
        raise BudgetExceeded(f"{M} residues exceed enumeration budget")
    x0 = orbit.points[0] % M
    tail = orbit.points[1:]
    loss = f.precision_loss if respect_loss else 0
    # digits of f^n(x) still certified after n steps
    caps = [D - n * loss for n in range(1, len(tail) + 1)]
    f_eval = f.evaluator()

    def score(x, minval, need):
        """min over n of v(f^n(x) - x_n), starting from minval = v(x - x_0)
        and abandoned (returning less than need) once it drops below need."""
        y = x
        for xn, cap in zip(tail, caps):
            if minval < need:
                break
            y = f_eval(y)
            v = valuation((y - xn) % M, p, D)
            # a difference only in the uncertified digits is no error
            if v < minval and v < cap:
                minval = v
        return minval

    best_point, best = x0, score(x0, D, 0)
    k = D
    while best < k:
        k -= 1
        if k == 0:
            # best is 0, the least valuation: every residue ties with it
            best_point = 0
            break
        step = p ** k
        base, inner = x0 % step, (x0 // step) % p
        for j in range(p ** (D - k)):
            if j % p == inner:             # the ball already scored
                continue
            x = base + j * step
            # x wins with a larger valuation, or an equal one if smaller
            need = best if x < best_point else best + 1
            v = score(x, k, need)
            if v >= need:
                best, best_point = v, x
    if best >= D:
        err = norm_zero(p, ctx.resolution_exp)
    else:
        err = NormValue(p, ctx.u_min + best)
    return best_point, err
