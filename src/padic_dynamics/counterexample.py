"""A piecewise map with right inverses but no covering family, built by
transporting a strictly sofic binary subshift onto the p-adic integers.

The chart identifies cylinder classes of the subshift with digit balls:
each tree level splits a class of admissible words into p nonempty groups
aligned to word subtrees, so two chart images are close exactly when the
underlying words share a long prefix.  A chart build makes only what
`encode`, `decode` and the transported shift read.  Every even-shift class
is a cylinder, a prefix u and a shape: the follower-set state of u (no 1
yet, or an even or odd zero-run after a 1) and the word length past u.
How a class splits depends only on its shape, so the split search runs
once per shape, on a representative prefix, and a level pass carries each
class as (prefix, shape) down to the leaves; only the leaves become words,
each recorded under its residue with every leaf word in one index, so
encoding and decoding are lookups, not tree walks.  The full-shift chart
is the base-p digit chart, which that search would find: encoding is
digit arithmetic and its tables are derived when read.  The node tree
above the leaves (`CantorChart.root`) is derived from the same data when
first read; nothing in the demonstration reads it.

The transported shift s acts on the top digit block of x = a + b*p +
z*p**2; the full map fixes a = 0, projects b = 0 down to z, and otherwise
cycles b while applying s.

Its right inverses R_a(x) = a + p**2 x never cover the space, and the
pseudo-orbits assembled here exploit that: a single fault hidden `delta`
deep fakes an odd zero-run flanked by ones, which no true orbit of the
even shift can shadow, while the identical demonstration over the full
shift's (closed-form) chart is shadowed by an honest point.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from .errors import (
    BadParams,
    ChartExhausted,
    DepthInsufficient,
    NoWitnessFound,
)
from .dynamics import DynamicMap, RightInverseFamily
from .padic import NormValue, PrecisionContext
from .shadowing import PseudoOrbit, brute_force_shadow, verify_pseudo_orbit


# ---------------------------------------------------------------------------
# subshift rules
# ---------------------------------------------------------------------------

# Follower-set states of the even shift: the start state and the two
# states of its presentation.  The letters that may follow a word depend
# only on its state, so the admissible words of a given length extending
# a word do too.
_NO_ONE, _EVEN_RUN, _ODD_RUN = range(3)


def _follower_state(word: Tuple[int, ...]) -> int:
    """No 1 yet, or an even or an odd zero-run after the word's last 1."""
    r = 0
    for sym in reversed(word):
        if sym:
            return _ODD_RUN if r % 2 else _EVEN_RUN
        r += 1
    return _NO_ONE


def _even_extensions(word: Tuple[int, ...]) -> List[int]:
    """Letters extending an admissible even-shift word (binary alphabet;
    maximal zero-runs flanked by ones must have even length)."""
    return [0] if _follower_state(word) == _ODD_RUN else [0, 1]


class _NeedMore(Exception):
    """Internal: split infeasible at the current word length."""


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ChartNode:
    # Tuples, not lists: the cyclic collector stops tracking a tuple of
    # atomic tuples, so the words of a live chart add nothing to the cost
    # of each full collection.
    words: tuple                  # sorted admissible words, equal length
    children: Optional[tuple]     # p child nodes, or None at a leaf
    child_len: int                # word length inside the children


def _split_aligned(words: list, pos: int, k: int) -> list:
    """Partition sorted equal-length words, which all agree before `pos`,
    into k nonempty blocks, each a union of whole word subtrees (so every
    block fixes a symbol prefix)."""
    if k == 1:
        return [words]
    # sorted words agree up to the first position where the extremes differ
    first, last = words[0], words[-1]
    n = len(first)
    while pos < n and first[pos] == last[pos]:
        pos += 1
    if pos == n:
        raise _NeedMore
    classes = [list(g) for _, g in groupby(words, key=itemgetter(pos))]
    if len(classes) >= k:
        blocks = classes[:k - 1]
        blocks.append([w for c in classes[k - 1:] for w in c])
        return blocks
    # fewer letter classes than blocks: recurse into the larger classes
    quotas = [1] * len(classes)
    extra = k - len(classes)
    order = sorted(range(len(classes)), key=lambda i: -len(classes[i]))
    while extra > 0:
        progressed = False
        for i in order:
            if extra == 0:
                break
            if quotas[i] < len(classes[i]):
                quotas[i] += 1
                extra -= 1
                progressed = True
        if not progressed:
            raise _NeedMore
    blocks = []
    for c, kq in zip(classes, quotas):
        blocks.extend(_split_aligned(c, pos + 1, kq))
    return blocks


def _extend_words(words: list) -> list:
    """One letter of growth for every word in the class."""
    grown = []
    for w in words:
        for a in _even_extensions(w):
            grown.append(w + (a,))
    grown.sort()
    return grown


# A representative prefix of each follower state: the classes of one shape
# split alike, so each shape is split on its representative's words.
_REPRESENTATIVE = {_NO_ONE: (), _EVEN_RUN: (1,), _ODD_RUN: (1, 0)}


def _shape_words(key: tuple) -> tuple:
    """The class of shape key = (state, n) under the state's representative
    prefix: every admissible word extending it by n letters, sorted."""
    state, n = key
    words = [_REPRESENTATIVE[state]]
    for _ in range(n):
        words = _extend_words(words)
    return tuple(words)


def _split_shape(key: tuple, p: int) -> tuple:
    """Split the classes of one shape into p aligned blocks, growing their
    words as needed.

    A class of shape (state, n) is every admissible word of length |u| + n
    extending a prefix u in that follower state.  Each block is again a
    cylinder.  Returns the suffixes after u of the words that were split,
    and for each block a child (ext, key): the letters the block's common
    prefix adds to u, and the block's own shape.
    """
    work = _shape_words(key)
    for _round in range(4 * p + 8):
        if len(work) >= p:
            try:
                blocks = _split_aligned(work, 0, p)
                break
            except _NeedMore:
                pass
        work = _extend_words(work)
    else:
        raise ChartExhausted(
            f"cannot split the classes of shape {key} (state, length) "
            f"into {p} groups")
    cut = len(_REPRESENTATIVE[key[0]])
    length = len(work[0])
    children = []
    for block in blocks:
        first, last = block[0], block[-1]
        m = cut
        while m < length and first[m] == last[m]:
            m += 1
        children.append((first[cut:m],
                         (_follower_state(first[:m]), length - m)))
    return tuple([w[cut:] for w in work]), children


def _class_levels(p: int, depth: int, shapes: dict):
    """Yield the even-shift classes of levels 0 to `depth` as two lists,
    each class's prefix and its shape.

    Class r of a level has residue r, and child i of class r is class
    r + i*p**level of the next, so the children of class r sit at stride
    p**level.  Child i of (u, k) is (u + ext, key) for the i-th child
    (ext, key) of shape k, read from `shapes`, which maps each shape to
    `_split_shape`'s result and gains every shape split on the way.
    """
    prefixes, keys = [()], [(_NO_ONE, 1)]
    for _ in range(depth):
        yield prefixes, keys
        for key in set(keys):
            if key not in shapes:
                shapes[key] = _split_shape(key, p)
        children = [{k: kids[i] for k, (_, kids) in shapes.items()}
                    for i in range(p)]
        prefixes = [u + child[k][0] for child in children
                    for u, k in zip(prefixes, keys)]
        keys = [child[k][1] for child in children for k in keys]
    yield prefixes, keys


def _shape_leaves(p: int, depth: int, shapes: dict) -> list:
    """The leaves of the even-shift chart: leaf z holds class z of the last
    level, its prefix followed by each suffix of its shape."""
    for prefixes, keys in _class_levels(p, depth, shapes):
        pass
    suffixes = {k: [w[len(_REPRESENTATIVE[k[0]]):] for w in _shape_words(k)]
                for k in set(keys)}
    return [ChartNode(tuple(map(u.__add__, suffixes[k])), None, len(u) + k[1])
            for u, k in zip(prefixes, keys)]


def _shape_internal(p: int, depth: int, shapes: dict) -> list:
    """The words of every internal node of the even-shift chart, one list
    per level: a node's words are its prefix followed by each suffix its
    shape split."""
    levels = list(_class_levels(p, depth, shapes))[:-1]
    return [[tuple(map(u.__add__, shapes[k][0])) for u, k in zip(*level)]
            for level in levels]


def _digit_levels(p: int, depth: int) -> tuple:
    """The full-shift chart in closed form: the split builder cuts every
    class at its last letter, so node r of level l holds the p words
    digits(r, l) + (b,) (base-p digits, least significant first) and leaf
    z the single word digits(z, depth).  Returns the internal nodes' words,
    one list per level, and the leaf words."""
    digits, internal = [()], []
    for lv in range(depth):
        digits = [w + (b,) for b in range(p) for w in digits]
        n = p ** lv
        internal.append([tuple(digits[r::n]) for r in range(n)])
    return internal, digits


def _link(internal: list, leaves: list) -> ChartNode:
    """Root of the tree whose node r at each level has its children at
    stride len(level) in the level below."""
    below = leaves
    for works in reversed(internal):
        n = len(works)
        below = [ChartNode(w, tuple(below[r::n]), len(w[0]))
                 for r, w in enumerate(works)]
    return below[0]


@contextmanager
def _collector_paused():
    """Run the body with the cyclic collector off, then restore the
    caller's setting.  A chart is acyclic, so reference counting frees
    it, while each collection during a build would rescan every object
    made so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class CantorChart:
    """Bijection between depth-d digit balls and subshift cylinder classes.

    `leaves[z]` is the leaf of residue z, and `index` maps every leaf word
    to its residue; `lengths` lists the distinct leaf word lengths, most
    common first.  `root`, the split tree above the leaves, is built by
    `tree(leaves)` when first read; no chart operation reads it.
    """

    p: int
    depth: int
    subshift: str
    leaves: list = field(repr=False)
    index: dict = field(repr=False)
    lengths: tuple = field(repr=False)
    tree: Callable[[list], ChartNode] = field(repr=False, compare=False)

    @cached_property
    def root(self) -> ChartNode:
        with _collector_paused():
            return self.tree(self.leaves)

    def encode(self, word: Tuple[int, ...]) -> int:
        """Chart image of an admissible word (zero-extended as needed).

        Leaves are disjoint cylinder sets and each leaf's words extend its
        ancestors' blocks, so the word cut or zero-padded to a leaf word
        length names at most one residue: the word itself is tried first,
        then every other length, and the first hit is the image.
        """
        w = tuple(word)
        get = self.index.get
        z = get(w)
        if z is not None:
            return z
        n = len(w)
        for L in self.lengths:
            z = get(w[:L] if n >= L else w + (0,) * (L - n))
            if z is not None:
                return z
        raise BadParams(f"word {word} is not admissible for this chart")

    def decode(self, z: int) -> Tuple[int, ...]:
        """Canonical word of the ball containing z (zero tail implied)."""
        return self.leaves[z % len(self.leaves)].words[0]


class _DigitChart(CantorChart):
    """The full-shift chart, which is the base-p digit chart: leaf z holds
    the single word of z's `depth` digits, least significant first.  Encode
    is digit arithmetic; `leaves`, `index` and `root` are derived when
    first read."""

    def __init__(self, p: int, depth: int):
        self.p, self.depth, self.subshift = p, depth, "full"
        self.lengths = (depth,)
        self.tree = lambda leaves: _link(_digit_levels(p, depth)[0], leaves)
        self._letters = {b: b for b in range(p)}

    @cached_property
    def leaves(self) -> list:
        return [ChartNode((w,), None, self.depth)
                for w in _digit_levels(self.p, self.depth)[1]]

    @cached_property
    def index(self) -> dict:
        return {leaf.words[0]: z for z, leaf in enumerate(self.leaves)}

    def encode(self, word: Tuple[int, ...]) -> int:
        """The residue whose digits are the word's first `depth` letters,
        zero-padded: what the leaf word lookup of `CantorChart.encode`
        gives on this chart."""
        letters, p = self._letters, self.p
        z, pw = 0, 1
        for a in tuple(word)[:self.depth]:
            b = letters.get(a)
            if b is None:
                raise BadParams(
                    f"word {word} is not admissible for this chart")
            z += b * pw
            pw *= p
        return z


def build_cantor_chart(subshift: str, p: int, depth: int) -> CantorChart:
    """Split cylinder classes into p groups down to `depth`, indexing each
    leaf by its residue sum(child index * p**level).  The even shift runs
    the split search once per class shape and makes only the leaves; the
    full shift's split is base-p digits, computed, not stored."""
    if subshift not in ("even", "full"):
        raise BadParams(f"unknown subshift {subshift!r}")
    if depth < 1:
        raise BadParams("chart depth must be positive")
    if subshift == "full":
        return _DigitChart(p, depth)
    shapes = {}
    with _collector_paused():
        leaves = _shape_leaves(p, depth, shapes)
    index = {w: z for z, leaf in enumerate(leaves) for w in leaf.words}
    counts = Counter(len(leaf.words[0]) for leaf in leaves)
    lengths = tuple(L for L, _ in counts.most_common())
    return CantorChart(
        p, depth, subshift, leaves, index, lengths,
        lambda leaves: _link(_shape_internal(p, depth, shapes), leaves))


def transported_shift_table(chart: CantorChart) -> list:
    """s = chart o shift o chart^-1 as a table on depth-digit residues.
    On the digit chart leaf z is z's base-p digits, least significant
    first, so s drops the lowest digit: s(z) = z // p."""
    if isinstance(chart, _DigitChart):
        p = chart.p
        return [z // p for z in range(p ** chart.depth)]
    encode = chart.encode
    return [encode(leaf.words[0][1:]) for leaf in chart.leaves]


# ---------------------------------------------------------------------------
# the piecewise map and its (non-covering) right inverses
# ---------------------------------------------------------------------------

def build_thm2_map(ctx: PrecisionContext, s_table: list,
                   z_digits: int) -> DynamicMap:
    """x = a + b*p + z*p**2: fix when a = 0, project to z when b = 0,
    otherwise cycle b and apply the transported shift to z."""
    p, D = ctx.prime, ctx.total_digits
    if z_digits != D - 2:
        raise BadParams("z digit count must be total_digits - 2")
    if len(s_table) < p ** z_digits:
        raise DepthInsufficient("chart table shallower than the context budget")
    p2 = p * p

    def fn(x, p=p, p2=p2, s=s_table):
        a = x % p
        if a == 0:
            return x
        b = (x // p) % p
        z = x // p2
        if b == 0:
            return z
        bn = b + 1 if b <= p - 2 else 1
        return a + bn * p + s[z] * p2

    return DynamicMap("thm2_map", ctx, fn, 2, None, None,
                      {"z_digits": z_digits})


def thm2_right_inverses(ctx: PrecisionContext) -> RightInverseFamily:
    """R_a(x) = a + p**2 x for a = 1..p-1; jointly non-covering."""
    p, M = ctx.prime, ctx.modulus
    p2 = p * p
    members = tuple(
        DynamicMap(f"R[{a}]", ctx, lambda m, a=a, p2=p2, M=M: (a + p2 * m) % M,
                   0, Fraction(1, p2), Fraction(1, p2), {"a": a})
        for a in range(1, p))

    def membership(m, p=p):
        a = m % p
        b = (m // p) % p
        if a != 0 and b == 0:
            return a - 1
        return None

    return RightInverseFamily(members, membership)


def covered_residue_count(ctx: PrecisionContext) -> int:
    """|union of R_a images| = (p-1) * p**(D-2) < p**D."""
    p, D = ctx.prime, ctx.total_digits
    return (p - 1) * p ** (D - 2)


# ---------------------------------------------------------------------------
# the non-shadowing demonstration
# ---------------------------------------------------------------------------

@dataclass
class NonShadowingResult:
    subshift: str
    q: int                        # length of the faked zero-run
    orbit_s: tuple                # chart-level pseudo-orbit
    orbit_f: tuple                # lifted pseudo-orbit of the piecewise map
    delta: NormValue              # chart-level pseudo-orbit bound (met)
    eps: NormValue                # chart-level shadowing tolerance tested
    best_point: int
    best_error_f: NormValue       # exact minimum at the lifted level
    best_error_s: NormValue       # the same, rescaled to the chart level
    shadowed: bool                # best_error_s <= eps


def _splice_orbit(chart: CantorChart, q: int) -> tuple:
    """Pseudo-orbit faking the word 1 0^q 1: follow eta = 1 0^(q+1) 1 for
    two steps, then continue from eta' = 0^q 1 with the fault hidden at
    word depth q-1."""
    eta = (1,) + (0,) * (q + 1) + (1,)
    etap = (0,) * q + (1,)
    pts = [chart.encode(eta), chart.encode(eta[1:])]
    for n in range(2, q + 3):
        pts.append(chart.encode(etap[n - 1:]))
    return tuple(pts)


# The lifted orbit's low digit a (nonzero: the map fixes every x with
# a = 0) and the longest faked zero-run tried.
_LOW_DIGIT = 1
_MAX_RUN = 40


def demonstrate_non_shadowing(p: int, chart_depth: int, delta: NormValue,
                              eps: NormValue, subshift: str = "even",
                              require_witness: bool = True,
                              chart: Optional[CantorChart] = None
                              ) -> NonShadowingResult:
    """Construct a delta-pseudo-orbit of the transported shift, lift it,
    and measure exactly how well any residue shadows it.

    The chart-level faked run length q grows (odd values only — an even
    run would be admissible) until the splice fault drops below delta.
    The lifted orbit cycles the middle digit b_n = (n mod (p-1)) + 1 and
    carries the chart orbit in the top digit block, so its defects are
    delta * p**-2.  Errors are reported both at the lifted level and
    rescaled by p**2 back to the chart level, where `eps` applies.
    A prebuilt `chart` must be the (subshift, p, chart_depth) chart.
    """
    if p < 3:
        raise BadParams("the construction needs p >= 3")
    z_ctx = PrecisionContext(p, chart_depth)
    f_ctx = PrecisionContext(p, chart_depth + 2)
    if chart is None:
        chart = build_cantor_chart(subshift, p, chart_depth)
    elif (chart.subshift, chart.p, chart.depth) != (subshift, p, chart_depth):
        raise BadParams(
            f"chart is ({chart.subshift}, p={chart.p}, depth={chart.depth}), "
            f"not ({subshift}, p={p}, depth={chart_depth})")
    s_table = transported_shift_table(chart)

    orbit_s = None
    chosen_q = None
    for q in range(3, _MAX_RUN + 1, 2):
        pts = _splice_orbit(chart, q)
        defect = z_ctx.max_norm(
            [s_table[pts[n]] - pts[n + 1] for n in range(len(pts) - 1)])
        if defect <= delta:
            orbit_s = pts
            chosen_q = q
            break
    if orbit_s is None:
        raise NoWitnessFound(
            f"no odd run length up to {_MAX_RUN} hides the fault below delta")

    f = build_thm2_map(f_ctx, s_table, chart_depth)
    p2 = p * p
    lifted = tuple(_LOW_DIGIT + ((n % (p - 1)) + 1) * p + z * p2
                   for n, z in enumerate(orbit_s))
    orbit_f = PseudoOrbit(f_ctx, lifted, delta.scaled(2))
    worst = verify_pseudo_orbit(f, orbit_f)
    if worst > orbit_f.delta:
        raise NoWitnessFound(f"lifted orbit defect {worst!r} exceeds bound")

    best_point, best_error_f = brute_force_shadow(f, orbit_f)
    if best_error_f.is_zero:
        best_error_s = best_error_f
    else:
        exp = max(best_error_f.exponent - 2, 0)
        best_error_s = NormValue(p, exp)
    shadowed = best_error_s <= eps
    if require_witness and shadowed:
        raise NoWitnessFound(
            f"pseudo-orbit is {eps!r}-shadowed by residue {best_point}")
    return NonShadowingResult(subshift, chosen_q, orbit_s, lifted, delta, eps,
                              best_point, best_error_f, best_error_s, shadowed)
