"""A piecewise map with right inverses but no covering family, built by
transporting a strictly sofic binary subshift onto the p-adic integers.

The chart identifies cylinder classes of the subshift with digit balls:
each level splits a class of admissible words into p nonempty groups
aligned to word subtrees, so two chart images are close exactly when the
underlying words share a long prefix.  Class r of a level has residue r,
and its i-th group is class r + i*p**level of the next, so leaf z is
reached by z's base-p digits.  Every even-shift class is a cylinder, a
prefix u and a shape: the follower-set state of u (no 1 yet, or an even
or odd zero-run after a 1) and the word length past u.  How a class
splits depends only on its shape, so the split search runs once per
shape, on a representative prefix, and a level pass carries each class
as (prefix, shape) down to the leaves.  A prefix is an integer code, a 1
bit followed by the word's letters, so growing it, dropping a leaf
word's first letter, cutting it (a right shift) and zero-padding it (a
left shift) are bit operations, and every leaf word's code is recorded
under its residue in one index: encoding and the shift table are
lookups, and no leaf word becomes a tuple.  The full-shift chart is the
base-p digit chart, which that search would find: encoding is digit
arithmetic.  A chart's leaves as tuples, which `decode` reads, and the
residue tree above them are derived when first read; the demonstration
reads neither.

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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from .errors import (
    BadParams,
    BudgetExceeded,
    ChartExhausted,
    DepthInsufficient,
    NoWitnessFound,
)
from .dynamics import DynamicMap, RightInverseFamily, digit_branch_family
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
    words: tuple                  # a leaf's sorted words, equal length;
                                  # () at an internal node
    children: Optional[tuple]     # p child nodes, or None at a leaf


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


def _shape(state: int, n: int) -> int:
    """The key of the class shape (state, n): n, then the follower state in
    the two low bits (an int, so that level passes hash it cheaply)."""
    return n << 2 | state


def _shape_words(key: int) -> tuple:
    """The class of shape key = (state, n) under the state's representative
    prefix: every admissible word extending it by n letters, sorted."""
    state, n = key & 3, key >> 2
    words = [_REPRESENTATIVE[state]]
    for _ in range(n):
        words = _extend_words(words)
    return tuple(words)


def _split_shape(key: int, p: int) -> list:
    """Split the classes of one shape into p aligned blocks, growing their
    words as needed.

    A class of shape (state, n) is every admissible word of length |u| + n
    extending a prefix u in that follower state.  Each block is again a
    cylinder.  Returns for each block a child (m, bits, key): the number
    m of letters the block's common prefix adds to u, those letters as an
    integer (`_bits`), and the block's own shape.
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
            f"cannot split the classes of shape {(key & 3, key >> 2)} "
            f"(state, length) into {p} groups")
    cut = len(_REPRESENTATIVE[key & 3])
    length = len(work[0])
    children = []
    for block in blocks:
        first, last = block[0], block[-1]
        m = cut
        while m < length and first[m] == last[m]:
            m += 1
        children.append((m - cut, _bits(first[cut:m]),
                         _shape(_follower_state(first[:m]), length - m)))
    return children


def _bits(word) -> int:
    """The letters of a binary word as an integer, first letter highest."""
    b = 0
    for a in word:
        b = (b << 1) | a
    return b


# The ASCII digits of a code's binary form, mapped to the letters 0 and 1.
_LETTERS = bytes.maketrans(b"01", b"\0\1")


def _word(code: int) -> tuple:
    """The binary word of a code: its bits after the leading 1."""
    return tuple(bin(code)[3:].encode().translate(_LETTERS))


def _leaf_codes(p: int, depth: int) -> tuple:
    """The leaf words of the even-shift chart as codes: each leaf's first
    word, by residue, and every leaf word mapped to its residue.

    Each level holds its classes as two lists, each class's prefix code
    and its shape.  Class r of a level has residue r, and child i of class
    r is class r + i*p**level of the next, so the children of class r sit
    at stride p**level.  Child i of (u, k) is (u << m | bits, key) for the
    i-th child (m, bits, key) that `_split_shape` gives shape k; each
    shape is split once, when a level first holds it.

    Leaf z holds class z of the last level of shape (state, n): its prefix
    code extended by each suffix of n letters of its shape, in sorted
    order.  A zero run is always admissible, so the first suffix is 0^n.
    """
    prefixes, keys = [1], [_shape(_NO_ONE, 1)]
    shapes = {}
    for _ in range(depth):
        for key in set(keys):
            if key not in shapes:
                shapes[key] = _split_shape(key, p)
        children = [{k: kids[i] for k, kids in shapes.items()}
                    for i in range(p)]
        prefixes = [u << child[k][0] | child[k][1] for child in children
                    for u, k in zip(prefixes, keys)]
        keys = [child[k][2] for child in children for k in keys]
    firsts = [u << (k >> 2) for u, k in zip(prefixes, keys)]
    codes = dict(zip(firsts, range(len(firsts))))
    more = {}
    for k in set(keys):
        cut = len(_REPRESENTATIVE[k & 3])
        suffixes = [_bits(w[cut:]) for w in _shape_words(k)]
        if len(suffixes) > 1:
            more[k] = suffixes[1:]
    codes.update((u << (k >> 2) | s, z)
                 for z, (u, k) in enumerate(zip(prefixes, keys))
                 if k in more for s in more[k])
    return firsts, codes


def _digit_words(p: int, depth: int) -> list:
    """The full-shift chart's leaf words in closed form: the split builder
    cuts every class at its last letter, so leaf z holds the single word
    of z's `depth` base-p digits, least significant first."""
    words = [()]
    for _ in range(depth):
        words = [w + (b,) for b in range(p) for w in words]
    return words


def _link(leaves: list, p: int) -> ChartNode:
    """Root of the residue tree over the leaves: node r of a level of n
    nodes has children r, r + n, ..., r + (p-1)*n of the level below, so
    leaf z is reached by z's base-p digits, least significant first.
    Internal nodes hold no words."""
    below = leaves
    while len(below) > 1:
        n = len(below) // p
        below = [ChartNode((), tuple(below[r::n])) for r in range(n)]
    return below[0]


def _find(get: Callable, lengths: tuple, code: int,
          whole: bool = True) -> Optional[int]:
    """The residue of the leaf word that a word's code names, or None.

    Leaves are disjoint cylinder sets and each leaf's words extend its
    ancestors' blocks, so the word cut or zero-padded to a leaf word
    length names at most one residue: the word itself is tried first,
    then every leaf length in order, cutting by a right shift and padding
    by a left shift.  `whole` is false when the word goes on past the
    code's letters with a letter other than 0 or 1, which no leaf word
    holds: then only cuts to at most the code's length can hit.
    """
    if whole:
        z = get(code)
        if z is not None:
            return z
    n = code.bit_length() - 1
    for L in lengths:
        if L <= n:
            z = get(code >> n - L)
        elif whole:
            z = get(code << L - n)
        else:
            continue
        if z is not None:
            return z
    return None


# Each letter of the even shift as a bit.
_BIT = {0: "0", 1: "1"}


@dataclass
class CantorChart:
    """Bijection between depth-d digit balls and subshift cylinder classes.

    A binary word is coded as an integer: a 1 bit, then the word's
    letters, the first letter highest, so words of different lengths never
    share a code.  `firsts[z]` is the code of the first word of the leaf of
    residue z, and `codes` maps the code of every leaf word to its
    residue; `lengths` lists the distinct leaf word lengths, most common
    first.  `leaves` (leaf z holds its words as tuples), which `decode`
    reads, and `root`, the residue tree above them (`_link`), are derived
    when first read; `root` is kept for the benchmark's node count, and
    no chart operation reads it.
    """

    p: int
    depth: int
    subshift: str
    firsts: list = field(repr=False)
    codes: dict = field(repr=False)
    lengths: tuple = field(repr=False)

    @cached_property
    def leaves(self) -> list:
        words = [[] for _ in self.firsts]
        for c, z in self.codes.items():
            words[z].append(c)
        return [ChartNode(tuple(map(_word, sorted(ws))), None)
                for ws in words]

    @cached_property
    def root(self) -> ChartNode:
        return _link(self.leaves, self.p)

    def encode(self, word: Tuple[int, ...]) -> int:
        """Chart image of an admissible word (zero-extended as needed): the
        residue `_find` gives for the word's code."""
        bits = list(map(_BIT.get, tuple(word)))
        n = bits.index(None) if None in bits else len(bits)
        z = _find(self.codes.get, self.lengths,
                  int("1" + "".join(bits[:n]), 2), n == len(bits))
        if z is None:
            raise BadParams(f"word {word} is not admissible for this chart")
        return z

    def decode(self, z: int) -> Tuple[int, ...]:
        """Canonical word of the ball containing z (zero tail implied)."""
        return self.leaves[z % len(self.leaves)].words[0]


class _DigitChart(CantorChart):
    """The full-shift chart, which is the base-p digit chart: leaf z holds
    the single word of z's `depth` digits, least significant first.  Its
    letters are not bits, so it has no codes (`firsts` and `codes` are
    None); encode is digit arithmetic, and `leaves` and `root` are
    derived when first read."""

    def __init__(self, p: int, depth: int):
        self.p, self.depth, self.subshift = p, depth, "full"
        self.firsts = self.codes = None
        self.lengths = (depth,)
        self._letters = {b: b for b in range(p)}

    @cached_property
    def leaves(self) -> list:
        return [ChartNode((w,), None)
                for w in _digit_words(self.p, self.depth)]

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
    the split search once per class shape and codes only the leaf words;
    the full shift's split is base-p digits, computed, not stored."""
    if subshift not in ("even", "full"):
        raise BadParams(f"unknown subshift {subshift!r}")
    if depth < 1:
        raise BadParams("chart depth must be positive")
    if subshift == "full":
        return _DigitChart(p, depth)
    firsts, codes = _leaf_codes(p, depth)
    counts = Counter(map(int.bit_length, firsts))
    lengths = tuple(L - 1 for L, _ in counts.most_common())
    return CantorChart(p, depth, subshift, firsts, codes, lengths)


def transported_shift_table(chart: CantorChart) -> list:
    """s = chart o shift o chart^-1 as a table on depth-digit residues.

    s(z) is the residue of leaf z's first word without its first letter:
    a mask drops that letter from the code, and `_find` looks the rest up.
    On the digit chart leaf z is z's base-p digits, least significant
    first, so s drops the lowest digit: s(z) = z // p."""
    if isinstance(chart, _DigitChart):
        p = chart.p
        return [z // p for z in range(p ** chart.depth)]
    get, lengths = chart.codes.get, chart.lengths
    table = []
    for c in chart.firsts:
        top = 1 << c.bit_length() - 2
        table.append(_find(get, lengths, c & top - 1 | top))
    if None in table:
        z = table.index(None)
        raise BadParams(f"word {_word(chart.firsts[z])[1:]} is not "
                        "admissible for this chart")
    return table


# ---------------------------------------------------------------------------
# the piecewise map and its (non-covering) right inverses
# ---------------------------------------------------------------------------

def build_thm2_map(ctx: PrecisionContext, s_table: list) -> DynamicMap:
    """x = a + b*p + z*p**2: fix when a = 0, project to z when b = 0,
    otherwise cycle b and apply the transported shift to z, which has
    total_digits - 2 digits."""
    p, D = ctx.prime, ctx.total_digits
    if len(s_table) < p ** (D - 2):
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

    return DynamicMap("thm2_map", ctx, fn, 2, None, None)


def thm2_right_inverses(ctx: PrecisionContext) -> RightInverseFamily:
    """R_a(x) = a + p**2 x for a = 1..p-1; jointly non-covering."""
    return digit_branch_family(ctx, 2, range(1, ctx.prime))


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
    rescaled by p**2 back to the chart level, where `eps` applies.  The
    exact search runs on the chart, over p**chart_depth residues (at most
    p**(chart_depth - 1) of them scored), and the lifted answer is derived
    from it; the lifted map only verifies the orbit's defects.
    A prebuilt `chart` must be the (subshift, p, chart_depth) chart.
    """
    if p < 3:
        raise BadParams("the construction needs p >= 3")
    z_ctx = PrecisionContext(p, chart_depth)
    f_ctx = PrecisionContext(p, chart_depth + 2)
    # the oracle enumerates the chart residues: refuse before building
    if z_ctx.modulus > z_ctx.ball_budget:
        raise BudgetExceeded(
            f"{z_ctx.modulus} residues exceed enumeration budget")
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

    f = build_thm2_map(f_ctx, s_table)
    p2 = p * p
    lifted = tuple(_LOW_DIGIT + ((n % (p - 1)) + 1) * p + z * p2
                   for n, z in enumerate(orbit_s))
    orbit_f = PseudoOrbit(f_ctx, lifted, delta.scaled(2))
    worst = verify_pseudo_orbit(f, orbit_f)
    if worst > orbit_f.delta:
        raise NoWitnessFound(f"lifted orbit defect {worst!r} exceeds bound")

    # The oracle scores the chart orbit under s.  A lifted x = a + b*p +
    # z*p**2 whose (a, b) differs from x_0's low digits is p**-1 from x_0;
    # otherwise f^n(x) = a + b_n*p + s^n(z)*p**2, so x's lifted error is
    # p**-2 times z's chart error.  x grows with z, so ties still resolve
    # to the smallest residue, and the lifted answer follows exactly.
    # s drops a word's first letter: one digit of loss, as shift_zp's
    s = DynamicMap("transported_shift", z_ctx, s_table.__getitem__, 1,
                   _table=s_table)
    z_best, error_z = brute_force_shadow(s, PseudoOrbit(z_ctx, orbit_s, delta))
    best_point = lifted[0] % p2 + z_best * p2
    best_error_f = error_z.scaled(2)
    if best_error_f.is_zero:
        best_error_s = best_error_f
    else:
        exp = max(best_error_f.exponent - 2, 0)
        best_error_s = NormValue(p, exp)
    shadowed = best_error_s <= eps
    if require_witness and shadowed:
        raise NoWitnessFound(
            f"pseudo-orbit is {eps!r}-shadowed by residue {best_point}")
    return NonShadowingResult(subshift, chosen_q, orbit_s, lifted, best_point,
                              best_error_f, best_error_s, shadowed)
