"""A piecewise map with right inverses but no covering family, built by
transporting a strictly sofic binary subshift onto the p-adic integers.

The chart identifies cylinder classes of the subshift with digit balls:
each tree level splits a class of admissible words into p nonempty groups
aligned to word subtrees, so two chart images are close exactly when the
underlying words share a long prefix.  The even-shift chart is built
level by level by a split search.  Every class is a cylinder, and how it
splits depends only on the follower-set state of its prefix (no 1 yet,
or an even or odd zero-run after a 1) and its word length past that
prefix, so the search runs once per such shape, not once per class.  The
full-shift chart is the base-p digit chart, which that search would
find, written down directly.  Each leaf is recorded under its residue
and every leaf word under that residue, so encoding and decoding are
lookups, not tree walks.

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
from itertools import groupby
from operator import itemgetter
from typing import List, Optional, Tuple

from .errors import (
    BadParams,
    ChartExhausted,
    DepthInsufficient,
    IsolatedPoint,
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
        exts = _even_extensions(w)
        if not exts:
            raise IsolatedPoint(f"word {w} has no admissible extension")
        for a in exts:
            grown.append(w + (a,))
    grown.sort()
    return grown


def _split_shape(words: tuple, n: int, p: int) -> tuple:
    """Split one class into p aligned blocks, growing its words as needed.

    The class is every admissible word of length L extending a prefix u,
    with n = L - |u|.  Returns the suffixes after u of the grown words (None
    when the class splits at length L), each block's index range in them,
    and each block's class key: the follower state of the block's common
    prefix and the letters left after it.
    """
    work = words
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
            f"cannot split class {words[:2]}... into {p} groups")
    cut = len(words[0]) - n
    length = len(work[0])
    ranges, keys, start = [], [], 0
    for block in blocks:
        first, last = block[0], block[-1]
        m = cut
        while m < length and first[m] == last[m]:
            m += 1
        ranges.append((start, start + len(block)))
        keys.append((_follower_state(first[:m]), length - m))
        start += len(block)
    suffixes = None if work is words else tuple([w[cut:] for w in work])
    return suffixes, ranges, keys


def _split_levels(p: int, depth: int) -> tuple:
    """Even-shift classes split level by level into p aligned blocks.

    Class r of a level has residue r, and block i of class r becomes class
    r + i*p**level of the next, so the children of node r sit at stride
    p**level.  Returns the words of every internal node, one list per
    level, and the leaves.

    Each block of a split is a cylinder, every admissible word of one
    length extending a common prefix (the alphabet is binary, so
    `_split_aligned` only returns whole letter classes).  How a cylinder
    splits depends only on its shape: the follower state of its prefix
    and the number of letters after it.  Each shape is split once, on the
    first class of that shape.  A later class of the shape slices its
    blocks out of its words; when the split needed longer words, it first
    regrows them as its prefix followed by each of the shape's suffixes.
    """
    shapes = {}
    level, keys = [tuple(_extend_words([()]))], [(_NO_ONE, 1)]
    internal = []
    for _ in range(depth):
        n = len(level)
        works, nxt, nxt_keys = [], [None] * (n * p), [None] * (n * p)
        for r, words in enumerate(level):
            key = keys[r]
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _split_shape(words, key[1], p)
            suffixes, ranges, child_keys = shape
            if suffixes is None:
                work = words
            else:
                u = words[0][:len(words[0]) - key[1]]
                work = tuple([u + x for x in suffixes])
            works.append(work)
            nxt[r::n] = [work[a:b] for a, b in ranges]
            nxt_keys[r::n] = child_keys
        internal.append(works)
        level, keys = nxt, nxt_keys
    return internal, [ChartNode(ws, None, len(ws[0])) for ws in level]


def _digit_levels(p: int, depth: int) -> tuple:
    """The full-shift chart in closed form: the split builder cuts every
    class at its last letter, so node r of level l holds the p words
    digits(r, l) + (b,) (base-p digits, least significant first) and leaf
    z the single word digits(z, depth)."""
    digits, internal = [()], []
    for lv in range(depth):
        digits = [w + (b,) for b in range(p) for w in digits]
        n = p ** lv
        internal.append([tuple(digits[r::n]) for r in range(n)])
    return internal, [ChartNode((w,), None, depth) for w in digits]


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
    it, while each full collection during a build would rescan every node
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
    common first.
    """

    p: int
    depth: int
    subshift: str
    root: ChartNode
    leaves: list = field(repr=False)
    index: dict = field(repr=False)
    lengths: tuple = field(repr=False)

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


def build_cantor_chart(subshift: str, p: int, depth: int) -> CantorChart:
    """Split cylinder classes into p groups down to `depth`, indexing each
    leaf by its residue sum(child index * p**level).  The even shift runs
    the split search; the full shift's split is base-p digits, built
    directly."""
    if subshift == "even":
        levels = _split_levels
    elif subshift == "full":
        levels = _digit_levels
    else:
        raise BadParams(f"unknown subshift {subshift!r}")
    if depth < 1:
        raise BadParams("chart depth must be positive")
    with _collector_paused():
        internal, leaves = levels(p, depth)
        # indexed before the internal nodes exist, so that the dict's last
        # resize does not add to the build's peak memory
        index = {w: z for z, leaf in enumerate(leaves) for w in leaf.words}
        root = _link(internal, leaves)
        counts = Counter(len(leaf.words[0]) for leaf in leaves)
    lengths = tuple(L for L, _ in counts.most_common())
    return CantorChart(p, depth, subshift, root, leaves, index, lengths)


def transported_shift_table(chart: CantorChart) -> list:
    """s = chart o shift o chart^-1 as a table on depth-digit residues.
    On the full-shift chart leaf z is z's base-p digits, least significant
    first, so s drops the lowest digit: s(z) = z // p."""
    if chart.subshift == "full":
        # the entries are the index's residue objects, as encode would
        # return them, so the table holds no int of its own
        p, index, leaves = chart.p, chart.index, chart.leaves
        return [index[leaves[z // p].words[0]] for z in range(len(leaves))]
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


def demonstrate_non_shadowing(p: int, chart_depth: int, delta: NormValue,
                              eps: NormValue, subshift: str = "even",
                              a_digit: int = 1, require_witness: bool = True,
                              max_q: int = 40,
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
    if a_digit < 1 or a_digit >= p:
        raise BadParams("fixed low digit must be nonzero")
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
    for q in range(3, max_q + 1, 2):
        pts = _splice_orbit(chart, q)
        defect = z_ctx.max_norm(
            [s_table[pts[n]] - pts[n + 1] for n in range(len(pts) - 1)])
        if defect <= delta:
            orbit_s = pts
            chosen_q = q
            break
    if orbit_s is None:
        raise NoWitnessFound(
            f"no odd run length up to {max_q} hides the fault below delta")

    f = build_thm2_map(f_ctx, s_table, chart_depth)
    p2 = p * p
    lifted = tuple(a_digit + ((n % (p - 1)) + 1) * p + z * p2
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
