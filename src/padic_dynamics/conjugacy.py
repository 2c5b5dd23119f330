"""Conjugacy builders.

Three constructions, all table-based at the context resolution:

* shadowing conjugacy for maps with a finite family of contracting right
  inverses: h(x) = x + z_0(x) from a depth-limited backward recursion
  along the g-orbit of x.  All residues are solved at once by `depth`
  whole-table passes S_0 = id, S_k[x] = R_{i(x)}[S_{k-1}[g[x]]] with
  i(x) the member covering x, and h = S_depth.  The passes run over the
  residues grouped by member (the family's membership_grouping), so each
  pass is one pair of C-level gathers per member and no per-residue
  Python work.  Its inverse runs the same
  passes along f with the right inverses transferred from f to
  g = f + phi by transfer_family, the only transfer: R-tilde_i o H_i = R_i
  for H_i = id + phi o R_i, so one scatter writes each value R_i(x) at
  H_i(x), and a residue left unwritten means H_i is not injective;
* contraction conjugacy for a bi-Lipschitz contraction R and its
  perturbation T: the space splits into layers T^n(U) of the complement
  U of T's image plus a residual core, each layer point recorded with its
  least T-preimage in the previous layer.  h is filled layer by layer: the
  identity on U, h(x) = R(h(parent(x))) below it, and the fixed point of R
  on the core;
* the homogeneity homeomorphism matching two close proper sequences by a
  product of isometric ball swaps.

Closeness and intertwining defects are maximum norms over all residues,
each taken as one gcd by PrecisionContext.max_norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter, sub
from typing import Callable, Optional

from .errors import (
    BadParams,
    BudgetExceeded,
    DeltaTooLarge,
    NonConvergence,
    NotClose,
    NotInjective,
    NotProper,
)
from .dynamics import DynamicMap, RightInverseFamily
from .padic import NormValue, PrecisionContext, valuation


@dataclass
class ConjugacyMap:
    """A residue-level map produced by one of the builders."""

    ctx: PrecisionContext
    table: list

    @cached_property
    def closeness(self) -> NormValue:
        """max |h(x) - x| over the residues x, computed when first read."""
        return self.ctx.max_norm(map(sub, self.table, self.ctx.residues))

    def __call__(self, m: int) -> int:
        return self.table[m]

    def is_bijective(self) -> bool:
        return len(set(self.table)) == len(self.table)


@dataclass
class ConjugacyReport:
    max_defect: NormValue         # max |f(h(x)) - h(g(x))|
    injective: bool
    closeness: NormValue
    residues: int


def verify_conjugacy(f: DynamicMap, g: DynamicMap, h: ConjugacyMap) -> ConjugacyReport:
    """Measure the intertwining defect f o h - h o g over all residues."""
    ft, gt, ht = f.tabulate(), g.tabulate(), h.table
    defect = h.ctx.max_norm([ft[y] - ht[z] for y, z in zip(ht, gt)])
    return ConjugacyReport(defect, h.is_bijective(), h.closeness, len(ht))


# ---------------------------------------------------------------------------
# transfer of right inverses along a perturbation
# ---------------------------------------------------------------------------

def _transferred(R: DynamicMap, phi: list, delta: NormValue) -> DynamicMap:
    """R-tilde = R o H^-1 for H = id + phi o R, by one scatter of R's values.

    R-tilde(H(x)) = R(x), so each value r = R(x) is written at
    H(x) = x + phi(r); a residue left unwritten means H is not injective.
    The transferred table holds R's own value objects.  shrink =
    delta * Lip(R) < 1 is the contraction rate of inverting H, and
    Lip(R-tilde) <= Lip(R) / (1 - shrink).
    """
    if R.lip_upper is None:
        raise BadParams("transfer needs a declared Lipschitz bound for R")
    shrink = delta.as_fraction() * R.lip_upper
    if shrink >= 1:
        raise DeltaTooLarge(f"delta * Lip(R) = {shrink} >= 1")
    table = R.tabulate()
    M = len(table)
    out = [None] * M
    for x, r in enumerate(table):
        out[(x + phi[r]) % M] = r
    if None in out:
        raise NotInjective(
            f"id + phi o {R.name} is not injective: delta * Lip(R) < 1 "
            "fails for the supplied maps")
    return DynamicMap(f"transfer[{R.name}]", R.ctx, out.__getitem__,
                      R.precision_loss, R.lip_upper / (1 - shrink), None,
                      {"delta": delta}, out)


def transfer_family(family: RightInverseFamily, phi: list,
                    delta: NormValue) -> RightInverseFamily:
    """Transfer every right inverse from f to g = f + phi, phi given as a
    residue table; membership is unchanged (images coincide).

    Raises DeltaTooLarge unless delta * Lip(R_i) < 1, and NotInjective
    when some id + phi o R_i collides at the context resolution.
    """
    members = tuple(_transferred(R, phi, delta) for R in family.members)
    return RightInverseFamily(members, family.membership)


# ---------------------------------------------------------------------------
# shadowing conjugacy (finite right-inverse family)
# ---------------------------------------------------------------------------

def _require_delta_small(family: RightInverseFamily, delta: NormValue) -> None:
    r = 1 / family.lip_upper
    if delta.as_fraction() >= r - 1:
        raise DeltaTooLarge(
            f"need delta < {r - 1} for contraction rate {family.lip_upper}")


def _gather(keys) -> Callable:
    """itemgetter(*keys) that returns a tuple also for a single key."""
    if len(keys) == 1:
        key, = keys
        return lambda seq: (seq[key],)
    return itemgetter(*keys)


def _backward_passes(step: list, family: RightInverseFamily, tables: list,
                     depth: int) -> list:
    """x + z_0(x) for every residue x, z_0 from the depth-`depth` backward
    recursion along step-orbits: S_0 = id, S_k[x] = R_{i(x)}[S_{k-1}[step[x]]]
    with R_i's table tables[i] and i(x) = family.membership(x).

    The passes run in the family's membership-grouped residue order
    (order, pos) = family.membership_grouping(): S'[j] = S[order[j]], so
    member i's residues fill one slice c_i of S', and a pass is
    S'[c_i] = R_i[S'[w_i]] for each member i, with w_i = pos[step[c_i]]:
    two C-level gathers per member, written into the other of two
    buffers.  S' starts at order and pos unpermutes it once at the end.
    Members that cover no residue take no gather.
    """
    order, pos, counts = family.membership_grouping()
    gathers = []
    end = 0
    for R, n in zip(tables, counts):
        if n:
            start, end = end, end + n
            where = _gather(_gather(order[start:end])(step))(pos)
            gathers.append((slice(start, end), _gather(where), R))
    # a copy of order: the passes write into both buffers
    table, spare = list(order), [None] * len(order)
    for _ in range(depth):
        for cut, get, R in gathers:
            spare[cut] = _gather(get(table))(R)
        table, spare = spare, table
    return list(_gather(pos)(table))


def _thm1_tables(f: DynamicMap, family: RightInverseFamily, g: DynamicMap,
                 delta: NormValue) -> tuple:
    """The tables of f, g and the family members, once the guards hold."""
    _require_delta_small(family, delta)
    return f.tabulate(), g.tabulate(), [R.tabulate() for R in family.members]


def build_conjugacy_thm1(f: DynamicMap, family: RightInverseFamily,
                         g: DynamicMap, delta: NormValue,
                         depth: int) -> ConjugacyMap:
    """h with f o h = h o g, h = id + z_0, certified to ~p**-depth.

    f must admit the given contracting right-inverse family and g must be
    a delta-perturbation of f with delta below the contraction margin.
    """
    _, gt, tables = _thm1_tables(f, family, g, delta)
    table = _backward_passes(gt, family, tables, depth)
    return ConjugacyMap(f.ctx, table)


def build_inverse_conjugacy_thm1(f: DynamicMap, family: RightInverseFamily,
                                 g: DynamicMap, delta: NormValue,
                                 depth: int) -> ConjugacyMap:
    """h-tilde with g o h-tilde = h-tilde o f; inverse of the map above.

    Tabulates phi = g - f, transfers the family to g with transfer_family
    (one scatter of R_i's values per member; a collision raises
    NotInjective) and runs the mirror recursion along f-orbits with the
    original membership, since the transferred images coincide.
    """
    ft, gt, _ = _thm1_tables(f, family, g, delta)
    M = len(ft)
    phi = [(y - x) % M for x, y in zip(ft, gt)]
    tables = [R.tabulate()
              for R in transfer_family(family, phi, delta).members]
    table = _backward_passes(ft, family, tables, depth)
    return ConjugacyMap(f.ctx, table)


# ---------------------------------------------------------------------------
# contraction conjugacy (image-layer partition)
# ---------------------------------------------------------------------------

@dataclass
class DomainPartition:
    """Layers of the images S_n = T^n(space), n = 0 .. depth, plus the core.

    layers[n] holds S_n minus S_(n+1); layers[0] is the complement U of
    T's image, and layers[n] = T^n(U) when T is injective.  parent[x] is
    the least T-preimage of x in the previous image; for x in layers[n],
    n >= 1, it lies in layers[n-1] (None on layers[0]).  The core is
    S_(depth+1).  Residue lists are ascending.
    """

    layers: list
    parent: list = field(repr=False)
    core: list


def partition_contraction_domain(T: DynamicMap, depth: int) -> DomainPartition:
    """Split the space into the image layers of T and a core.

    One pass per layer over the current image S_n of T's table: each image
    point keeps its least preimage, and S_n minus the image is the layer.
    At finite precision T may identify residues that differ only in the
    top contracted digits; the least preimage is the deterministic choice.
    """
    table = T.tabulate()
    parent = [None] * len(table)
    layers = []
    current = range(len(table))
    for _ in range(depth + 1):
        # descending writes leave each image point its least preimage
        least = {table[x]: x for x in reversed(current)}
        layers.append([x for x in current if x not in least])
        current = sorted(least)
        for y in current:
            parent[y] = least[y]
    return DomainPartition(layers, parent, current)


def _fixed_point(R: DynamicMap) -> int:
    """Residue of the unique fixed point of a contraction."""
    x = 0
    for _ in range(2 * R.ctx.total_digits + 4):
        nxt = R(x)
        if nxt == x:
            return x
        x = nxt
    raise NonConvergence("contraction has no stable fixed residue")


def build_conjugacy_thm3(R: DynamicMap, T: DynamicMap, depth: int,
                         delta: NormValue,
                         rho: Optional[NormValue] = None) -> ConjugacyMap:
    """h with R o h = h o T for a bi-Lipschitz contraction R and T = R + phi.

    Requires p * delta <= c1 (and <= rho when the image openness radius is
    supplied).  h is filled in layer order: the identity on the image
    complement U, h(x) = R(h(parent(x))) on each deeper layer, so a layer-n
    point goes to R^n of its parent chain's root in U, and every core
    point goes to the fixed point of R.  h starts as a copy of ctx.residues
    and every later write is a value of R's table, so h makes no int
    objects of its own.
    """
    ctx = R.ctx
    if R.lip_lower is None:
        raise BadParams("contraction conjugacy needs two-sided bounds for R")
    dfrac = delta.as_fraction()
    if ctx.prime * dfrac > R.lip_lower:
        raise DeltaTooLarge("need p * delta <= lower Lipschitz constant")
    if rho is not None and ctx.prime * dfrac > rho.as_fraction():
        raise DeltaTooLarge("need p * delta <= image openness radius")
    part = partition_contraction_domain(T, depth)
    rt, parent = R.tabulate(), part.parent
    table = list(ctx.residues)
    for layer in part.layers[1:]:
        for x in layer:
            table[x] = rt[table[parent[x]]]
    xr = _fixed_point(R)
    for x in part.core:
        table[x] = xr
    return ConjugacyMap(ctx, table)


# ---------------------------------------------------------------------------
# homogeneity homeomorphism
# ---------------------------------------------------------------------------

def homogeneity_homeomorphism(ctx: PrecisionContext, ys: list, zs: list,
                              delta: NormValue) -> ConjugacyMap:
    """Isometric-swap product phi with phi(y_n) = z_n and |phi - id| < delta.

    Both sequences must be proper (pairwise distinct at resolution) and
    pointwise within delta of each other.  Each step swaps the smallest
    pair of disjoint balls around the current image and the target that
    avoids every already-placed target.  The table holds ctx.residues'
    int objects.
    """
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    if M > ctx.ball_budget:
        raise BudgetExceeded("context too large for a table-based swap product")
    if len(ys) != len(zs):
        raise BadParams("sequences must have equal length")
    ys = [y % M for y in ys]
    zs = [z % M for z in zs]
    if len(set(ys)) != len(ys) or len(set(zs)) != len(zs):
        raise NotProper("sequence terms collide at the context resolution")
    for y, z in zip(ys, zs):
        if ctx.norm_of_int(y - z) >= delta:
            raise NotClose(f"|y - z| not below delta for pair ({y}, {z})")

    res = ctx.residues
    table = list(res)
    placed = []
    for y, z in zip(ys, zs):
        w = table[y]
        if w == z:
            placed.append(z)
            continue
        j = valuation((w - z) % M, p, D) + 1  # balls of radius p^-j are disjoint
        while any((t - w) % (p ** j) == 0 or (t - z) % (p ** j) == 0
                  for t in placed):
            j += 1
            if j > D:
                raise NotProper("cannot separate swap balls from placed targets")
        pj = p ** j
        shift = (z - w) % M
        for x in range(M):
            t = table[x]
            if (t - w) % pj == 0:
                table[x] = res[(t + shift) % M]
            elif (t - z) % pj == 0:
                table[x] = res[(t - shift) % M]
        placed.append(z)
    return ConjugacyMap(ctx, table)
