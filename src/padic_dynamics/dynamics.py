"""Map catalog and structured perturbations.

Maps act on engine-internal scaled integers: under a PrecisionContext, the
integer m in [0, modulus) denotes the value p**u_min * m.  A DynamicMap
wraps such an int function with precision/Lipschitz metadata; everything
here is pure and deterministic (seeded where randomness is called for).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle, islice
from operator import sub
from typing import Callable, Optional

from .errors import (
    BadParams,
    BudgetExceeded,
    CoveringViolation,
    DeltaTooSmall,
    NotBijective,
    NotIsometry,
    UnknownMap,
    WindowViolation,
)
from .padic import NormValue, PAdic, PrecisionContext, valuation


@dataclass
class DynamicMap:
    """A self-map of the context space with precision bookkeeping.

    precision_loss: certified output digits = total_digits - precision_loss
    per application; compositions add losses.  lip_upper / lip_lower are
    declared two-sided Lipschitz bounds (None when unknown / not holding).
    """

    name: str
    ctx: PrecisionContext
    fn: Callable[[int], int]
    precision_loss: int = 0
    lip_upper: Optional[Fraction] = None
    lip_lower: Optional[Fraction] = None
    params: dict = field(default_factory=dict)
    _table: Optional[list] = field(default=None, repr=False)

    def __call__(self, m: int) -> int:
        if self._table is not None:
            return self._table[m]
        return self.fn(m)

    def evaluator(self) -> Callable[[int], int]:
        """The map as one plain callable, for loops that step it many
        times: its table's lookup when it has a table, else fn.  Nothing
        is tabulated here."""
        if self._table is not None:
            return self._table.__getitem__
        return self.fn

    def eval(self, x: PAdic) -> PAdic:
        return self.ctx.from_int(self(self.ctx.to_int(x)))

    def tabulate(self) -> list:
        """Precompute the full residue table (small contexts only).

        A periodic (`_lookup`) map repeats its short table and keeps those
        objects.  Any other map's values must lie in [0, modulus)
        (BadParams otherwise) and are taken from ctx.residues, so that the
        tables of one context share one set of int objects; perturb's
        tables and the Theorem 3 and homogeneity conjugacies take theirs
        from the same list.
        """
        if self._table is None:
            ctx = self.ctx
            M = ctx.modulus
            if M > ctx.ball_budget:
                raise BudgetExceeded("context too large to tabulate")
            values, periodic = _residue_values(self)
            if periodic:
                self._table = list(values)
            else:
                res = ctx.residues
                try:
                    # a negative v reads res[M], so it fails as v >= M does
                    self._table = [res[v] if v >= 0 else res[M]
                                   for v in values]
                except IndexError:
                    raise BadParams(f"{self.name} takes a value outside "
                                    f"[0, {M})") from None
        return self._table


def _residue_values(mp: DynamicMap) -> tuple:
    """(values, periodic): mp's values on the residues 0, 1, ..., M - 1 in
    order, read from its own table, from the repeated short table of a
    periodic (`_lookup`) map (periodic true), or from its function."""
    M = mp.ctx.modulus
    if mp._table is not None:
        return mp._table, False
    short = getattr(mp.fn, "short", None)
    if short is not None:
        return islice(cycle(short), M), True
    return map(mp.fn, range(M)), False


def identity_map(ctx: PrecisionContext) -> DynamicMap:
    return DynamicMap("identity", ctx, lambda m: m, 0, Fraction(1), Fraction(1))


def compose(outer: DynamicMap, inner: DynamicMap) -> DynamicMap:
    if outer.ctx != inner.ctx:
        raise BadParams("composition requires a shared context")
    lip = None
    if outer.lip_upper is not None and inner.lip_upper is not None:
        lip = outer.lip_upper * inner.lip_upper
    lo = None
    if outer.lip_lower is not None and inner.lip_lower is not None:
        lo = outer.lip_lower * inner.lip_lower
    return DynamicMap(
        f"{outer.name}.{inner.name}", outer.ctx,
        lambda m, f=outer, g=inner: f(g(m)),
        outer.precision_loss + inner.precision_loss, lip, lo)


# ---------------------------------------------------------------------------
# digit helpers on scaled integers
# ---------------------------------------------------------------------------

def _digit(m: int, p: int, i: int) -> int:
    return (m // p ** i) % p


def _pow_norm(p: int, k: int) -> Fraction:
    return Fraction(1, p ** k) if k >= 0 else Fraction(p ** (-k))


def _as_scaled(ctx: PrecisionContext, value) -> int:
    """Accept an int (already scaled) or a PAdic parameter value."""
    if isinstance(value, PAdic):
        return ctx.to_int(value)
    if isinstance(value, int):
        return value % ctx.modulus
    raise BadParams(f"expected int or PAdic parameter, got {type(value).__name__}")


def _digit_table(ctx: PrecisionContext, rows: list) -> list:
    """The table of a triangular digit map on residues mod p**len(rows).

    Row i gives output digit i as a function of x mod p**(i+1); the table
    is built by level doubling, T_(i+1) = [t + d p**i for t, d in
    zip(T_i * p, rows[i])].
    """
    p = ctx.prime
    if p ** len(rows) > ctx.ball_budget:
        raise BudgetExceeded("digit table exceeds the ball budget")
    table = [0]
    pw = 1
    for row in rows:
        table = [t + d * pw for t, d in zip(table * p, row)]
        pw *= p
    return table


def _lookup(short: list) -> Callable[[int], int]:
    """x -> short[x mod len(short)], for maps that read only x mod len(short).
    The function keeps `short` as its attribute, so that a table pass can
    repeat it instead of calling the function on every residue."""
    fn = lambda m, t=short, L=len(short): t[m % L]
    fn.short = short
    return fn


def _inverse_permutation(table: list) -> list:
    inv = [0] * len(table)
    for m, im in enumerate(table):
        inv[im] = m
    return inv


# ---------------------------------------------------------------------------
# bijective isometries (building blocks for locally scaling maps)
# ---------------------------------------------------------------------------

def _isometry_rows(ctx: PrecisionContext, kind: str, seed: int,
                   levels: int) -> tuple:
    """The name and first `levels` digit rows of a catalog isometry.

    The seeded draws run level by level, so the first rows do not depend
    on how many levels are taken.
    """
    p = ctx.prime
    if kind not in ("identity", "alphabet", "triangular"):
        raise UnknownMap(f"unknown isometry kind {kind!r}")
    rng = random.Random(seed)
    rows = []
    for i in range(levels):
        if kind == "triangular":
            offsets = [rng.randrange(p) for _ in range(p ** i)]
            rows.append([(d + o) % p for d in range(p) for o in offsets])
        else:
            perm = list(range(p))
            if kind == "alphabet":
                rng.shuffle(perm)
            rows.append([v for v in perm for _ in range(p ** i)])
    name = "iso.identity" if kind == "identity" else f"iso.{kind}[{seed}]"
    return name, rows


def bijective_isometry(ctx: PrecisionContext, kind: str, seed: int = 0) -> DynamicMap:
    """Catalog of bijective isometries of the context space.

    'identity'   -- the identity.
    'alphabet'   -- a seeded alphabet permutation applied at each digit
                    position (first-differing-position is preserved, so
                    this is always an isometry).
    'triangular' -- seeded unit-triangular digit map: output digit i is
                    x_i plus an offset depending only on x mod p**i, which
                    is automatically a bijective isometry.

    Each is built from its digit rows; BudgetExceeded above ball_budget.
    """
    name, rows = _isometry_rows(ctx, kind, seed, ctx.total_digits)
    params = {} if kind == "identity" else {"seed": seed}
    return DynamicMap(name, ctx, _lookup(_digit_table(ctx, rows)), 0,
                      Fraction(1), Fraction(1), params)


def check_isometry(w: DynamicMap) -> None:
    """Raise NotBijective / NotIsometry unless w is a bijective isometry.

    Exhaustive over the tabulated map (BudgetExceeded above ball_budget):
    w is an isometry exactly when, for every level j, it induces a
    well-defined bijection on residues mod p**j (two points first
    differing at digit j then stay distinguished there).  A bijection's
    well-defined reduction is onto Z/p^j, so it is injective.
    """
    ctx = w.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    table = w.tabulate()
    if len(set(table)) != M:
        raise NotBijective(f"{w.name} is not a bijection on {M} residues")
    for j in range(1, D + 1):
        pj = p ** j
        # w(x) = w(x mod p^j) mod p^j for every x
        if math.gcd(M, *map(sub, table[pj:], cycle(table[:pj]))) % pj:
            raise NotIsometry(f"{w.name} not constant on a radius p^-{j} ball")


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

# each catalog map's parameter names
CATALOG_PARAMS = {
    "shift_zp": (), "shift_qp": (), "affine": ("v", "w"),
    "scaled_isometry": ("m", "iso", "seed", "c"), "example2_R": (),
    "example2_L": (), "example2_phi_n": ("n",), "rho_open_Ra": ("a",),
    "remark2_uvw": ("u", "v", "w"),
}


def refuse_unknown_params(name: str, params, known) -> None:
    """BadParams naming the parameters of `params` that `name` does not
    take, so a misspelled one is not silently dropped."""
    unknown = sorted(set(params).difference(known))
    if unknown:
        raise BadParams(f"{name} takes no parameter {', '.join(unknown)}; "
                        f"it takes {', '.join(known) or 'none'}")


def builtin_map(name: str, ctx: PrecisionContext, **params) -> DynamicMap:
    """A catalog map by name under ctx; BadParams for a parameter it lacks."""
    if name in CATALOG_PARAMS:
        refuse_unknown_params(name, params, CATALOG_PARAMS[name])
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    W = -ctx.u_min  # number of fractional digit positions

    if name == "shift_zp":
        if ctx.space_tag != "Zp":
            raise BadParams("shift_zp needs a Zp context")
        return DynamicMap("shift_zp", ctx, lambda m, p=p: m // p, 1, Fraction(p))

    if name == "shift_qp":
        if ctx.space_tag != "Qp":
            raise BadParams("shift_qp needs a Qp context")

        def fn(m, p=p):
            if m % p:
                raise WindowViolation("shift would push a digit below the window")
            return m // p

        return DynamicMap("shift_qp", ctx, fn, 1, Fraction(p))

    if name == "affine":
        v = _as_scaled(ctx, params.get("v"))
        w = _as_scaled(ctx, params.get("w", 0))
        if v % M == 0:
            raise BadParams("affine coefficient v must be nonzero at resolution")
        mv = valuation(v, p, D)
        lip = _pow_norm(p, ctx.u_min + mv)
        return DynamicMap("affine", ctx, lambda m, v=v, w=w, M=M: (v * m + w) % M,
                          0, lip, lip, {"v": v, "w": w, "val": mv})

    if name == "scaled_isometry":
        k = int(params.get("m", 1))
        if k < 1:
            raise BadParams("scaled_isometry needs contraction order m >= 1")
        iso = params.get("iso", "triangular")
        seed = int(params.get("seed", 0))
        c = _as_scaled(ctx, params.get("c", 0))
        # p^k w(x) mod M reads only the first D - k digits of w(x), which
        # depend only on x mod p^(D-k)
        iso_name, rows = _isometry_rows(ctx, iso, seed, D - k)
        pk = p ** k
        lip = _pow_norm(p, k)
        short = [(pk * v + c) % M for v in _digit_table(ctx, rows)]
        return DynamicMap(
            f"scaled_isometry[{k},{iso_name}]", ctx, _lookup(short),
            0, lip, lip, {"m": k, "iso": iso, "seed": seed, "c": c})

    if name == "example2_R":
        # digit i of x lands at position 2i+1; doubles the spacing.
        def fn(m, p=p, D=D):
            out = 0
            pw = 1           # p^i
            opw = p          # p^(2i+1)
            for _ in range((D + 1) // 2):
                out += ((m // pw) % p) * opw
                pw *= p
                opw *= p * p
            return out % (p ** D)

        return DynamicMap("example2_R", ctx, fn, 0, Fraction(1, p), None)

    if name == "example2_L":
        # left inverse of example2_R: collect digits at odd positions.
        def fn(m, p=p, D=D):
            out = 0
            pw = 1
            for i in range(D // 2):
                out += _digit(m, p, 2 * i + 1) * pw
                pw *= p
            return out

        return DynamicMap("example2_L", ctx, fn, D - D // 2, Fraction(p), None)

    if name == "example2_phi_n":
        n = int(params.get("n", 0))
        if not 0 <= 2 * n + 1 < D:
            raise BadParams("perturbation index n outside context digits")
        shift = p ** (2 * n + 1)

        def fn(m, p=p, n=n, shift=shift, M=M):
            return (-((m // p ** n) % p) * shift) % M

        return DynamicMap(f"example2_phi_n[{n}]", ctx, fn, 0,
                          _pow_norm(p, n + 1), None, {"n": n})

    if name == "rho_open_Ra":
        if ctx.space_tag != "Qp" or ctx.u_min > -1 or ctx.u_max < 0:
            raise BadParams("rho_open_Ra needs a Qp context with window below 0")
        a = int(params.get("a", 0))
        if not 0 <= a < p:
            raise BadParams("digit parameter a outside alphabet")
        pw_frac = p ** W

        def fn(m, p=p, a=a, pw=pw_frac, W=W, M=M):
            fr, fl = m % pw, m // pw
            return (p * fr + a * p ** (1 + W) + fl * p ** (2 + W)) % M

        return DynamicMap(f"rho_open_Ra[{a}]", ctx, fn, 0,
                          Fraction(1, p), Fraction(1, p * p), {"a": a})

    if name == "remark2_uvw":
        if ctx.space_tag != "Qp":
            raise BadParams("remark2_uvw needs a Qp context")
        u = _as_scaled(ctx, params.get("u"))
        v = _as_scaled(ctx, params.get("v"))
        w = _as_scaled(ctx, params.get("w", 0))
        vu = valuation(u, p, D) + ctx.u_min
        vv = valuation(v, p, D) + ctx.u_min
        if not (vv > vu > 0):
            raise BadParams("need 0 < |v| < |u| < 1 (valuations v > u > 0)")
        pw_frac = p ** W
        uq = u // pw_frac  # exact: |u| < 1 makes p**W divide the scaled u

        def fn(m, uq=uq, v=v, w=w, pw=pw_frac, M=M):
            return (uq * (m % pw) + v * (m // pw) + w) % M

        return DynamicMap("remark2_uvw", ctx, fn, 0, _pow_norm(p, vu),
                          _pow_norm(p, vv), {"u": u, "v": v, "w": w})

    raise UnknownMap(f"no catalog map named {name!r}")


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

@dataclass
class LipschitzPerturbation:
    """A perturbation phi with certified sup-norm and Lipschitz bound delta."""

    map: DynamicMap
    delta: NormValue

    def __call__(self, m: int) -> int:
        return self.map(m)


def make_lipschitz_perturbation(ctx: PrecisionContext, kind: str,
                                delta: NormValue, seed: int = 0,
                                **params) -> LipschitzPerturbation:
    """Build a perturbation with sup-norm and Lipschitz constant <= delta.

    'constant'        -- phi == c with |c| <= delta.
    'digit_local'     -- p**k times a seeded unit-triangular digit map
                         (1-Lipschitz, sup <= 1), hence delta-Lipschitz
                         and delta-bounded for delta = p**-k.
    'example2_phi_n'  -- the digit-cancelling family from the catalog.
    """
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    if delta.is_zero:
        raise DeltaTooSmall("delta must be a definite norm")
    k = delta.exponent - ctx.u_min
    if k >= D:
        raise DeltaTooSmall(f"delta {delta!r} below context resolution")

    if kind == "constant":
        c = _as_scaled(ctx, params.get("c", 0))
        if ctx.norm_of_int(c) > delta:
            raise BadParams("constant exceeds the declared delta")
        m = DynamicMap(f"phi.const[{c}]", ctx, lambda _x, c=c: c, 0,
                       Fraction(0), Fraction(0), {"c": c})
        return LipschitzPerturbation(m, delta)

    if kind == "digit_local":
        if k < 0:
            raise BadParams("delta must be at most 1 for digit_local")
        rng = random.Random(seed)
        # g triangular: digit i of g depends only on x mod p^i, so g is
        # 1-Lipschitz; phi = p^k * g is then delta-Lipschitz with sup<=delta.
        rows = [[rng.randrange(p) for _ in range(p ** i)] * p
                for i in range(D - k)]
        pk = p ** k
        fn = _lookup([v * pk for v in _digit_table(ctx, rows)])

        mp = DynamicMap(f"phi.digit_local[{seed}]", ctx, fn, 0,
                        delta.as_fraction(), None, {"seed": seed, "k": k})
        return LipschitzPerturbation(mp, delta)

    if kind == "example2_phi_n":
        n = int(params.get("n", 0))
        mp = builtin_map("example2_phi_n", ctx, n=n)
        if mp.lip_upper > delta.as_fraction():
            raise BadParams("example2_phi_n exceeds the declared delta")
        return LipschitzPerturbation(mp, delta)

    raise UnknownMap(f"no perturbation kind named {kind!r}")


def perturb(f: DynamicMap, phi: LipschitzPerturbation) -> DynamicMap:
    """The perturbed map f + phi (pointwise sum in the context ring).

    When the context is tabulable, g comes with its table, f's table plus
    phi's values in one pass whose sums are taken from ctx.residues, so
    g's table makes no int objects of its own; phi's values are streamed
    from its own table, from the repeated short table of a periodic
    (`_lookup`) phi, or from its function, so no table is left on phi.  A
    partial f (one that raises WindowViolation somewhere) leaves g
    pointwise, as above the ball budget.
    """
    if f.ctx != phi.map.ctx:
        raise BadParams("perturbation context mismatch")
    M = f.ctx.modulus
    lip = None
    if f.lip_upper is not None:
        lip = max(f.lip_upper, phi.delta.as_fraction())
    g = DynamicMap(
        f"{f.name}+{phi.map.name}", f.ctx,
        lambda m, f=f, g=phi.map, M=M: (f(m) + g(m)) % M,
        max(f.precision_loss, phi.map.precision_loss), lip, None)
    if M <= f.ctx.ball_budget:
        phi_values, _ = _residue_values(phi.map)
        res = f.ctx.residues
        try:
            g._table = [res[(a + b) % M]
                        for a, b in zip(f.tabulate(), phi_values)]
        except WindowViolation:
            pass
    return g


# ---------------------------------------------------------------------------
# right-inverse families
# ---------------------------------------------------------------------------

@dataclass
class RightInverseFamily:
    """Finitely many right inverses of a map, with a membership oracle.

    membership(x) returns the index i with x in R_i(image) (ties broken by
    the smallest index), or None when the family does not cover x; the
    family covers exactly when membership is total.  The contraction rate
    lip_upper is read off the members' declared bounds.
    """

    members: tuple
    membership: Callable[[int], Optional[int]]
    _memberships: Optional[list] = field(default=None, repr=False,
                                         compare=False)
    _grouping: Optional[tuple] = field(default=None, repr=False,
                                       compare=False)

    def indices(self, xs) -> list:
        """membership(x) for every x in xs, each a member index.  Raises
        CoveringViolation naming the first x that no member covers, or
        BadParams naming the first x whose index names no member,
        whichever comes first in xs."""
        idx = list(map(self.membership, xs))
        n = len(self.members)
        if set(idx).difference(range(n)):
            x, i = next((x, i) for x, i in zip(xs, idx)
                        if i not in range(n))
            if i is None:
                raise CoveringViolation(
                    f"residue {x} is not covered by any right inverse")
            raise BadParams(f"membership({x}) = {i!r} is not a member "
                            f"index 0..{n - 1}")
        return idx

    def membership_table(self) -> list:
        """indices() of every residue of the members' context, computed
        once per family and shared by every caller, which must not change
        it."""
        if self._memberships is None:
            M = self.members[0].ctx.modulus
            self._memberships = self.indices(range(M))
        return self._memberships

    def membership_grouping(self) -> tuple:
        """(order, pos, counts), computed once per family and shared like
        membership_table.

        order lists the residues stably sorted by membership, so member i
        covers the counts[i] residues that follow those of members
        0 .. i-1; pos is its inverse permutation, order[pos[x]] == x.
        Both lists hold the context's residue ints.
        """
        if self._grouping is None:
            idx = self.membership_table()
            residues = self.members[0].ctx.residues
            order = sorted(residues, key=idx.__getitem__)
            pos = sorted(residues, key=order.__getitem__)
            counts = Counter(idx)
            self._grouping = (order, pos,
                              [counts[i] for i in range(len(self.members))])
        return self._grouping

    @property
    def lip_upper(self) -> Fraction:
        """The largest declared Lipschitz bound among the members;
        BadParams names a member that declares none."""
        for R in self.members:
            if R.lip_upper is None:
                raise BadParams(f"right inverse {R.name} declares no "
                                "Lipschitz bound")
        return max(R.lip_upper for R in self.members)

    def __len__(self):
        return len(self.members)


def digit_branch_family(ctx: PrecisionContext, k: int, labels,
                        w: Optional[DynamicMap] = None) -> RightInverseFamily:
    """The right inverses R_a(x) = w^-1(a + p**k x), one per label a in
    [0, p**k), each declared to scale distances by exactly p**-k.

    membership(x) is the position of w(x) mod p**k among the labels, or
    None.  w is a bijective isometry, read through its table; with w None
    it is the identity, and neither a table nor ctx.residues is read.
    """
    pk, M = ctx.prime ** k, ctx.modulus
    position = {a: i for i, a in enumerate(labels)}
    short = [position.get(r) for r in range(pk)]
    if w is None:
        membership = lambda m, t=short, pk=pk: t[m % pk]
        branch = lambda a: lambda m: (a + pk * m) % M
    else:
        table = w.tabulate()
        inv = _inverse_permutation(table)
        membership = lambda m, t=short, w=table, pk=pk: t[w[m] % pk]
        branch = lambda a: lambda m: inv[(a + pk * m) % M]
    rate = Fraction(1, pk)
    members = tuple(DynamicMap(f"R[{a}]", ctx, branch(a), 0, rate, rate,
                               {"a": a})
                    for a in labels)
    return RightInverseFamily(members, membership)


def shift_right_inverses(ctx: PrecisionContext) -> RightInverseFamily:
    """The p right inverses R_i(x) = i + p*x of the one-sided shift."""
    return digit_branch_family(ctx, 1, range(ctx.prime))


def furno_compose(w: DynamicMap, k: int) -> DynamicMap:
    """The (p**-k, p**k) locally scaling map S^k o w for a bijective isometry w."""
    if k < 1:
        raise BadParams("need k >= 1")
    check_isometry(w)
    ctx = w.ctx
    pk = ctx.prime ** k
    f = DynamicMap(f"furno[{k},{w.name}]", ctx,
                   lambda m, w=w, pk=pk: w(m) // pk,
                   k, Fraction(ctx.prime ** k), None, {"k": k})
    return f


def locally_scaling_inverses(w: DynamicMap, k: int) -> RightInverseFamily:
    """The p**k right inverses of S^k o w: R_a = w^-1 o R_a1 o ... o R_ak.

    w must be a bijective isometry (furno_compose checks it).  The index
    integer a < p**k encodes the digit word (a1..ak) with a1 the lowest
    digit; membership is read off the first k digits of w(x).
    """
    return digit_branch_family(w.ctx, k, range(w.ctx.prime ** k), w)


def left_inverse_for(R: DynamicMap) -> DynamicMap:
    """A continuous f with f o R = id, for invertible catalog contractions."""
    ctx = R.ctx
    p, D, M = ctx.prime, ctx.total_digits, ctx.modulus
    if R.name == "affine":
        v, w = R.params["v"], R.params["w"]
        mv = R.params["val"]
        unit = v // p ** mv
        inv_unit = pow(unit, -1, M)

        def fn(m, w=w, inv=inv_unit, pmv=p ** mv, M=M):
            return (((m - w) * inv) % M) // pmv

        return DynamicMap("affine.left_inv", ctx, fn, mv, _pow_norm(p, -mv))
    if R.name.startswith("scaled_isometry"):
        k, c = R.params["m"], R.params["c"]
        w = bijective_isometry(ctx, R.params["iso"], R.params["seed"])
        inv = _inverse_permutation(w.tabulate())

        def fn(m, c=c, pk=p ** k, inv=inv, M=M):
            return inv[((m - c) % M) // pk]

        return DynamicMap(f"{R.name}.left_inv", ctx, fn, k, _pow_norm(p, -k))
    raise UnknownMap(f"no left inverse recipe for {R.name!r}")
