"""Tests for the transported-subshift construction: chart invariants, the
piecewise map and its non-covering right inverses, and the pseudo-orbit
that no true orbit shadows."""

import dataclasses
import gc
import hashlib
import random
from collections import Counter

import pytest

from padic_dynamics import counterexample
from padic_dynamics.counterexample import (
    CantorChart,
    ChartNode,
    _NeedMore,
    _split_aligned,
    build_cantor_chart,
    build_thm2_map,
    covered_residue_count,
    demonstrate_non_shadowing,
    thm2_right_inverses,
    transported_shift_table,
)
from padic_dynamics.errors import (
    BadParams,
    ChartExhausted,
    DepthInsufficient,
    NoWitnessFound,
)
from padic_dynamics.padic import NormValue, PrecisionContext
from padic_dynamics.shadowing import verify_pseudo_orbit, PseudoOrbit

from test_shadowing import _ref_brute_force_shadow, counting_map


def has_forbidden_run(word):
    """Oracle: does a binary word contain 1 0^odd 1?"""
    run = None
    for sym in word:
        if sym == 1:
            if run is not None and run % 2 == 1:
                return True
            run = 0
        elif run is not None:
            run += 1
    return False


# ---------------------------------------------------------------------------
# chart invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subshift", ["even", "full"])
def test_chart_round_trip(subshift):
    chart = build_cantor_chart(subshift, 3, 6)
    for z in range(3 ** 6):
        assert chart.encode(chart.decode(z)) == z


def test_chart_leaves_are_admissible():
    chart = build_cantor_chart("even", 3, 6)
    for z in range(3 ** 6):
        assert not has_forbidden_run(chart.decode(z))


def test_chart_tree_splits_are_partitions():
    """Every internal node of the split tree splits its word class into p
    nonempty blocks that partition it; a child's block is its words cut
    to child_len.  The tree's leaves are the chart's."""
    chart = build_cantor_chart("even", 3, 5)
    root, leaves = _reference_tree("even", 3, 5)
    assert leaves == chart.leaves

    def walk(node):
        if node.children is None:
            return
        union = set()
        for child in node.children:
            block = {tuple(w[:node.child_len]) for w in child.words}
            assert block, "empty split block"
            assert not (union & block)
            union |= block
            walk(child)
        assert union == set(map(tuple, node.words))

    walk(root)


# Reference: the split tree that every chart build made before the chart
# kept only its leaves.  An internal node holds its class's words, split
# at word length child_len into its children's blocks; node r of a level
# has its children at stride len(level) in the level below, so the leaves
# sit in residue order.

@dataclasses.dataclass
class _SplitNode:
    words: tuple
    children: tuple
    child_len: int


def _link(internal, leaves):
    """Root of the split tree over `leaves` whose internal node words are
    `internal`, one list per level."""
    below = leaves
    for works in reversed(internal):
        n = len(works)
        below = [_SplitNode(w, tuple(below[r::n]), len(w[0]))
                 for r, w in enumerate(works)]
    return below[0]


def _reference_tree(subshift, p, depth):
    """The split tree of the reference builders and its leaves."""
    if subshift == "full":
        ref = _reference_split_chart(p, depth)
        return ref.root, ref.leaves
    internal, leaves = _reference_even_levels(p, depth)
    return _link(internal, leaves), leaves


def _index(leaves):
    """Every leaf word mapped to its leaf's residue."""
    return {w: z for z, leaf in enumerate(leaves) for w in leaf.words}


# Reference: the level-by-level walk that encode and decode replaced.  At
# each level the word, cut or zero-padded to the children's word length,
# must lie in exactly one child's block.

def _reference_blocks(root):
    blocks, stack = {}, [root]
    while stack:
        node = stack.pop()
        if node.children is not None:
            L = node.child_len
            blocks[id(node)] = [frozenset(tuple(w[:L]) for w in c.words)
                                for c in node.children]
            stack.extend(node.children)
    return blocks


def reference_encode(chart, root, blocks, word):
    node, out, pw = root, 0, 1
    for _ in range(chart.depth):
        L = node.child_len
        target = tuple(word[:L]) + (0,) * max(0, L - len(word))
        for i, ws in enumerate(blocks[id(node)]):
            if target in ws:
                out += i * pw
                break
        else:
            raise BadParams(f"word {word} is not admissible for this chart")
        pw *= chart.p
        node = node.children[i]
    return out


def reference_decode(chart, root, z):
    node = root
    for _ in range(chart.depth):
        z, d = z // chart.p, z % chart.p
        node = node.children[d]
    return tuple(node.words[0])


def _outcome(encode, word):
    try:
        return encode(word)
    except BadParams as exc:
        return ("BadParams", str(exc))


@pytest.mark.parametrize("p,depth", [(3, d) for d in range(1, 9)]
                         + [(5, d) for d in range(1, 5)])
@pytest.mark.parametrize("subshift", ["even", "full"])
def test_indexed_chart_matches_reference_walk(subshift, p, depth):
    """Tables, decode and encode (results and errors) are bit-identical
    to the level-by-level walk down the split tree, whose leaves are the
    chart's."""
    chart = build_cantor_chart(subshift, p, depth)
    root, leaves = _reference_tree(subshift, p, depth)
    assert leaves == chart.leaves
    blocks = _reference_blocks(root)
    M = p ** depth
    for z in range(-2, M + 2):
        assert chart.decode(z) == reference_decode(chart, root, z)
    assert transported_shift_table(chart) == [
        reference_encode(chart, root, blocks,
                         reference_decode(chart, root, z)[1:])
        for z in range(M)]

    rng = random.Random(1000 * p + depth)
    letters = 2 if subshift == "even" else p
    words = [reference_decode(chart, root, rng.randrange(M))
             for _ in range(300)]
    words += [w[:rng.randrange(len(w) + 1)] for w in words[:200]]
    words += [w + tuple(rng.randrange(letters) for _ in range(rng.randrange(6)))
              for w in words[:200]]
    words += [tuple(rng.randrange(letters) for _ in range(rng.randrange(30)))
              for _ in range(300)]
    words += [list(w) for w in words[:20]] + [(), (p,), (0, p), (1,) * 7]
    errors = 0
    for w in words:
        got = _outcome(chart.encode, w)
        assert got == _outcome(
            lambda u: reference_encode(chart, root, blocks, u), w)
        errors += isinstance(got, tuple)
    assert 0 < errors < len(words)


def _residue_leaves(root, p, depth):
    """The nodes reached from the root by each residue's base-p digits,
    least significant first, in residue order."""
    out = []
    for z in range(p ** depth):
        node = root
        for _ in range(depth):
            z, d = divmod(z, p)
            node = node.children[d]
        out.append(node)
    return out


@pytest.mark.parametrize("p,depth", [(2, d) for d in (1, 2, 5, 9)]
                         + [(3, d) for d in (1, 2, 4, 7)]
                         + [(5, d) for d in (1, 2, 4)])
@pytest.mark.parametrize("subshift", ["even", "full"])
def test_root_is_the_residue_tree(subshift, p, depth):
    """`root` has (p^(depth+1) - 1)/(p - 1) nodes, p children at every
    internal node, which holds no words, and its leaves, reached by
    child digits, are the chart's leaves in residue order."""
    chart = build_cantor_chart(subshift, p, depth)
    count, stack = 0, [(chart.root, 0)]
    while stack:
        node, level = stack.pop()
        count += 1
        if level < depth:
            assert node.words == () and len(node.children) == p
            stack.extend((c, level + 1) for c in node.children)
        else:
            assert node.children is None
    assert count == (p ** (depth + 1) - 1) // (p - 1)
    leaves = _residue_leaves(chart.root, p, depth)
    assert all(a is b for a, b in zip(leaves, chart.leaves))
    assert len(leaves) == len(chart.leaves)


def test_chart_depth_must_be_positive():
    with pytest.raises(BadParams):
        build_cantor_chart("even", 3, 0)


def test_chart_distance_tracks_shared_prefix():
    """Deeper chart agreement never shortens the decoded common prefix."""
    chart = build_cantor_chart("even", 3, 5)
    M = 3 ** 5

    def common_prefix(u, v):
        n = 0
        for a, b in zip(u, v):
            if a != b:
                break
            n += 1
        return n

    for z in range(0, M, 7):
        base = chart.decode(z)
        best = -1
        for j in range(6):
            # closest neighbours at distance exactly 3^-j
            w = (z + 3 ** j) % M if j < 5 else z
            n = common_prefix(base, chart.decode(w)) if w != z else len(base)
            assert n >= best or j == 0
            best = max(best, n)


# SHA-256 of repr(transported_shift_table(chart)), pinned when the chart
# nodes became tuples: the tables must not move.
SHIFT_TABLE_DIGESTS = {
    ("even", 3, 8):
        "f579bc787be6db6392dbb3b4c96a331c80e8f58fee94991799fec119c80ea42c",
    ("full", 3, 8):
        "eed3b3fc7d2f27e46e59f2cd7404b2d1381e9f010c3e3d6a7c167dd234c952ae",
    ("even", 5, 4):
        "65dfa98006529f9d5bf922fd2ecd2bc8946e42656097dbad329afddca06446d5",
    # pinned before the even-shift builder split each class shape once
    ("even", 3, 10):
        "3698f3a19062cb12619b46ebd871ccfb80c81c9daeece318b4cfbc9ddb5a5bc3",
}


@pytest.mark.parametrize("key", sorted(SHIFT_TABLE_DIGESTS))
def test_transported_shift_table_is_pinned(key):
    table = transported_shift_table(build_cantor_chart(*key))
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == SHIFT_TABLE_DIGESTS[key]


# Reference: the recursive split builder that built every chart before the
# full shift got its closed form, run here over full-shift extensions.  Its
# chart keeps the tree, leaves, tuple index and lengths that the builder
# made, and encodes by scanning the index at every leaf length.

class _ReferenceChart:
    def __init__(self, root, leaves, index, lengths):
        self.root, self.leaves = root, leaves
        self.index, self.lengths = index, lengths

    def encode(self, word):
        return _reference_scan_encode(self.index, self.lengths, word)

    def decode(self, z):
        return self.leaves[z % len(self.leaves)].words[0]


def _reference_split_chart(p, depth):
    letters = list(range(p))
    leaves = [None] * p ** depth
    index = {}

    def extend(words):
        return sorted(w + (a,) for w in words for a in letters)

    def build(words, level, residue):
        if level == depth:
            node = ChartNode(tuple(words), None)
            leaves[residue] = node
            for w in words:
                index[w] = residue
            return node
        work = words
        for _round in range(4 * p + 8):
            if len(work) >= p:
                try:
                    blocks = _split_aligned(work, 0, p)
                    break
                except _NeedMore:
                    pass
            work = extend(work)
        else:
            raise ChartExhausted("reference split exhausted")
        children = tuple(build(b, level + 1, residue + i * p ** level)
                         for i, b in enumerate(blocks))
        return _SplitNode(tuple(work), children, len(work[0]))

    root = build(extend([()]), 0, 0)
    counts = Counter(len(leaf.words[0]) for leaf in leaves)
    lengths = tuple(L for L, _ in counts.most_common())
    return _ReferenceChart(root, leaves, index, lengths)


def _walk(node):
    """Preorder (words, child_len, child count) of every node of a split
    tree; a leaf's child_len is its word length."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.children is None:
            out.append((n.words, len(n.words[0]), None))
        else:
            out.append((n.words, n.child_len, len(n.children)))
            stack.extend(reversed(n.children))
    return out


@pytest.mark.parametrize("p,depth", [(2, d) for d in range(1, 11)]
                         + [(3, d) for d in range(1, 9)]
                         + [(5, d) for d in range(1, 6)])
def test_full_chart_matches_split_builder(p, depth):
    """The closed-form full-shift chart is the one the split search
    finds: the same leaves in the same residue tree, index, lengths,
    decode, encode and transported shift, which drops the lowest digit."""
    chart = build_cantor_chart("full", p, depth)
    ref = _reference_split_chart(p, depth)
    M = p ** depth
    assert chart.leaves == ref.leaves
    assert _residue_leaves(chart.root, p, depth) == \
        _residue_leaves(ref.root, p, depth)
    assert _index(chart.leaves) == ref.index and chart.lengths == ref.lengths
    for z in range(-2, M + 2):
        assert chart.decode(z) == ref.decode(z)
    table = transported_shift_table(chart)
    assert table == [ref.encode(leaf.words[0][1:]) for leaf in ref.leaves]
    assert table == [z // p for z in range(M)]

    rng = random.Random(100 * p + depth)
    words = [ref.decode(z) for z in range(M)]
    words += [w[:rng.randrange(len(w) + 1)] for w in words[:200]]
    words += [tuple(rng.randrange(p + 1) for _ in range(rng.randrange(15)))
              for _ in range(300)]
    for w in words:
        assert _outcome(chart.encode, w) == _outcome(ref.encode, w)


# SHA-256 of repr(_walk(split tree)), pinned on the charts' own trees
# before the full-shift chart got its closed form and the even-shift
# builder became level-order: the reference split trees, whose leaves
# are the charts', must not move.
TREE_DIGESTS = {
    ("full", 3, 6):
        "fdf71f0a6c8e54fc4ce41f46f41fc4df4d9ff62c8bac74bbb206447b2875f192",
    ("full", 5, 4):
        "e2ee775eb04c3bfa68a80f3a06e671df0aa6c5802e53b980fa422090ebabc232",
    ("even", 3, 8):
        "b3ea215561c598f159f2c2e0ec6f42a0c3948c0e274cb5c85d8950e5a1b7a6af",
    # pinned before the even-shift builder split each class shape once
    ("even", 3, 10):
        "359ec6772f11f5333d23488e53d1e613e5059a383c5ba43ee7671d67a1370797",
}


def _tree_digest(root):
    return hashlib.sha256(repr(_walk(root)).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(TREE_DIGESTS))
def test_chart_tree_is_pinned(key):
    root, leaves = _reference_tree(*key)
    assert leaves == build_cantor_chart(*key).leaves
    assert _tree_digest(root) == TREE_DIGESTS[key]


def no_derived_views(m):
    """Make deriving a chart's leaves or tree raise, with the monkeypatch
    context m."""
    def derived(*args):
        raise AssertionError("a chart's leaves or tree was derived")

    m.setattr(counterexample, "_link", derived)
    for owner in (CantorChart, counterexample._DigitChart):
        m.setattr(owner, "leaves", property(derived))


@pytest.mark.parametrize("subshift,depth,delta", [("even", 8, 5),
                                                   ("full", 6, 4)])
def test_demo_derives_no_tree(monkeypatch, subshift, depth, delta):
    """Building a chart and running the demonstration on it derive no
    leaves and no tree; the chart derives the pinned split tree's leaves,
    in residue order, when `root` is read later."""
    args = (3, depth, NormValue(3, delta), NormValue(3, 1), subshift)
    with monkeypatch.context() as m:
        no_derived_views(m)
        chart = build_cantor_chart(subshift, 3, depth)
        res = demonstrate_non_shadowing(*args, require_witness=False,
                                        chart=chart)
    assert res == demonstrate_non_shadowing(*args, require_witness=False)
    root, leaves = _reference_tree(subshift, 3, depth)
    assert _tree_digest(root) == TREE_DIGESTS[(subshift, 3, depth)]
    assert _residue_leaves(chart.root, 3, depth) == leaves


# Reference: the even-shift builder before it split each class shape
# once; it runs the split search on every class and returns the words of
# every internal node, one list per level, and the leaves.

def _reference_even_levels(p, depth):
    level = [counterexample._extend_words([()])]
    internal = []
    for _ in range(depth):
        n = len(level)
        works, nxt = [], [None] * (n * p)
        for r, words in enumerate(level):
            work = words
            for _round in range(4 * p + 8):
                if len(work) >= p:
                    try:
                        blocks = _split_aligned(work, 0, p)
                        break
                    except _NeedMore:
                        pass
                work = counterexample._extend_words(work)
            else:
                raise ChartExhausted("reference split exhausted")
            works.append(tuple(work))
            nxt[r::n] = [tuple(b) for b in blocks]
        internal.append(works)
        level = nxt
    return internal, [ChartNode(ws, None) for ws in level]


@pytest.mark.parametrize("p,depth", [(2, d) for d in range(1, 13)]
                         + [(3, d) for d in range(1, 11)]
                         + [(5, d) for d in range(1, 7)]
                         + [(7, d) for d in range(1, 5)])
def test_even_levels_match_reference(p, depth):
    """Splitting each class shape once gives every leaf of the split search
    run on each class, once the leaves are derived from the chart's
    codes."""
    leaves = build_cantor_chart("even", p, depth).leaves
    assert leaves == _reference_even_levels(p, depth)[1]


def test_even_chart_splits_each_shape_once(monkeypatch):
    """A depth-10 even chart runs the split search on a few class shapes,
    not on its 29,524 internal classes."""
    calls = []

    def counted(words, pos, k, split=_split_aligned):
        calls.append(k)
        return split(words, pos, k)

    monkeypatch.setattr(counterexample, "_split_aligned", counted)
    chart = build_cantor_chart("even", 3, 10)
    assert len(chart.leaves) == 3 ** 10
    assert 0 < len(calls) <= 50


# Reference: encode before it tried the word's own length first; it
# scans a tuple index of the leaf words at every leaf length in order.

def _reference_scan_encode(index, lengths, word):
    w = tuple(word)
    n = len(w)
    for L in lengths:
        z = index.get(w[:L] if n >= L else w + (0,) * (L - n))
        if z is not None:
            return z
    raise BadParams(f"word {word} is not admissible for this chart")


@pytest.mark.parametrize("p,depth", [(3, 6), (3, 8), (5, 4)])
def test_encode_tries_own_length_first(p, depth):
    """At most one leaf word length hits, so trying the word's own length
    first returns what scanning every length in order returns, errors
    included."""
    chart = build_cantor_chart("even", p, depth)
    index = _index(chart.leaves)
    shifts = [w[1:] for leaf in chart.leaves for w in leaf.words]
    words = shifts + [w[:i] for w in shifts for i in range(len(w))]
    rng = random.Random(10 * p + depth)
    words += [tuple(rng.randrange(2) for _ in range(rng.randrange(30)))
              for _ in range(300)]
    own, errors = 0, 0
    for w in words:
        hits = [L for L in chart.lengths
                if (w[:L] if len(w) >= L else w + (0,) * (L - len(w)))
                in index]
        assert len(hits) <= 1
        got = _outcome(chart.encode, w)
        assert got == _outcome(
            lambda u: _reference_scan_encode(index, chart.lengths, u), w)
        own += w in index
        errors += isinstance(got, tuple)
    assert 0 < own < len(words) and 0 < errors < len(words)


@pytest.mark.parametrize("p,depth", [(3, d) for d in range(1, 9)]
                         + [(5, d) for d in range(1, 6)]
                         + [(7, d) for d in range(1, 5)])
def test_even_shift_table_is_the_encoded_shift(p, depth):
    """The shift table read from the codes is what it was defined as: each
    leaf's first word without its first letter, encoded, both by `encode`
    and by scanning a tuple index at every leaf length."""
    chart = build_cantor_chart("even", p, depth)
    index = _index(chart.leaves)
    shifted = [leaf.words[0][1:] for leaf in chart.leaves]
    table = transported_shift_table(chart)
    assert table == [chart.encode(w) for w in shifted]
    assert table == [_reference_scan_encode(index, chart.lengths, w)
                     for w in shifted]


@pytest.mark.parametrize("p,depth", [(3, 4), (3, 6), (5, 3)])
def test_encode_rejects_bad_letters_and_inadmissible_words(p, depth):
    """A letter 2, 3 or -1 inside a leaf word, or a run 1 0^odd 1 before
    the shortest leaf length, raises BadParams with the usual message, as
    the index scan does: no such word's code aliases a leaf word.  Letters
    compare as before (True is 1), and letters past a leaf word that the
    word extends are not read."""
    chart = build_cantor_chart("even", p, depth)
    index = _index(chart.leaves)

    def scan(w):
        return _reference_scan_encode(index, chart.lengths, w)

    rng = random.Random(p * depth)
    leaf_words = [leaf.words[0] for leaf in rng.sample(chart.leaves, 40)]
    bad = [w[:i] + (a,) + w[i + 1:] for w in leaf_words
           for i in range(len(w)) for a in (2, 3, -1)]
    short, long = min(chart.lengths), max(chart.lengths)
    words = [tuple(rng.randrange(2) for _ in range(long + 3))
             for _ in range(3000)]
    inadmissible = [w for w in words if has_forbidden_run(w[:short])]
    assert inadmissible
    for w in bad + inadmissible:
        want = ("BadParams", f"word {w} is not admissible for this chart")
        assert _outcome(chart.encode, w) == want
        assert _outcome(scan, w) == want
    for w in leaf_words:
        z = index[w]
        assert chart.encode([bool(a) for a in w]) == z
        for tail in ((2,), (0, -1), (3, 1)):
            assert chart.encode(w + tail) == z
            assert scan(w + tail) == z


@pytest.mark.parametrize("subshift", ["even", "full"])
def test_chart_fields_and_equality(subshift):
    """Every declared field is set on both kinds of chart, and charts
    compare by their data, not by identity."""
    chart = build_cantor_chart(subshift, 3, 4)
    for f in dataclasses.fields(chart):
        getattr(chart, f.name)
    assert chart == build_cantor_chart(subshift, 3, 4)
    assert chart != build_cantor_chart(subshift, 3, 3)


@pytest.mark.parametrize("subshift", ["even", "full"])
def test_dropped_chart_leaves_no_cyclic_garbage(subshift):
    """A chart is acyclic, also once its tree has been derived: with the
    collector paused, dropping it frees everything, so a later collection
    finds nothing."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for read_root in (False, True):
            chart = build_cantor_chart(subshift, 3, 6)
            if read_root:
                assert chart.root.children is not None
            del chart
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_chart_exhausted_names_the_shape(monkeypatch):
    def never(words, pos, k):
        raise _NeedMore

    monkeypatch.setattr(counterexample, "_split_aligned", never)
    with pytest.raises(ChartExhausted, match=r"shape \(0, 1\)"):
        build_cantor_chart("even", 3, 3)


def test_transported_shift_conjugates_word_shift():
    chart = build_cantor_chart("even", 3, 6)
    s = transported_shift_table(chart)
    for z in range(0, 3 ** 6, 5):
        shifted = chart.decode(z)[1:]
        back = chart.decode(s[z])
        n = min(len(shifted), len(back))
        assert back[:n] == tuple(shifted[:n])


def test_unknown_subshift_rejected():
    with pytest.raises(BadParams):
        build_cantor_chart("golden_mean", 3, 4)


# ---------------------------------------------------------------------------
# piecewise map and right inverses
# ---------------------------------------------------------------------------

def _setup_map(depth=5):
    p = 3
    chart = build_cantor_chart("even", p, depth)
    s = transported_shift_table(chart)
    ctx = PrecisionContext(p, depth + 2)
    return ctx, build_thm2_map(ctx, s), s


def test_piecewise_branches():
    ctx, f, s = _setup_map()
    p = 3
    # a = 0: fixed
    for x in (0, 3, 9, 27):
        assert f(x) == x
    # b = 0, a != 0: projection to the top block
    assert f(1 + 0 * p + 7 * p * p) == 7
    # generic: cycle b, shift the top block
    x = 2 + 1 * p + 5 * p * p
    assert f(x) == 2 + 2 * p + s[5] * p * p


def test_right_inverse_identity_exact():
    ctx, f, _ = _setup_map()
    fam = thm2_right_inverses(ctx)
    for R in fam.members:
        for x in range(ctx.modulus):
            assert f(R(x)) == x % 3 ** (ctx.total_digits - 2)


def test_thm2_map_needs_a_shift_table_for_every_z():
    # the z block has total_digits - 2 digits, read from the context, so a
    # table shorter than p^(D - 2) is too shallow
    ctx, f, s = _setup_map(5)
    assert f.ctx.total_digits - 2 == 5 and len(s) == 3 ** 5
    with pytest.raises(DepthInsufficient):
        build_thm2_map(ctx, s[:-1])
    with pytest.raises(DepthInsufficient):
        build_thm2_map(PrecisionContext(3, 8), s)
    assert f.params == {}


def test_family_is_not_covering():
    ctx, _, _ = _setup_map()
    fam = thm2_right_inverses(ctx)
    covered = set()
    for R in fam.members:
        covered |= {R(x) for x in range(ctx.modulus)}
    assert len(covered) == covered_residue_count(ctx)
    assert len(covered) < ctx.modulus
    for m in range(ctx.modulus):
        inside = fam.membership(m) is not None
        assert inside == (m in covered)


def test_membership_picks_the_right_member():
    ctx, _, _ = _setup_map()
    fam = thm2_right_inverses(ctx)
    for m in range(ctx.modulus):
        a = fam.membership(m)
        if a is not None:
            assert m % 3 == a + 1 and (m // 3) % 3 == 0


# ---------------------------------------------------------------------------
# the non-shadowing demonstration
# ---------------------------------------------------------------------------

def test_even_shift_orbit_is_unshadowable():
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    res = demonstrate_non_shadowing(3, 7, delta, eps, "even")
    assert not res.shadowed
    assert res.q % 2 == 1
    assert res.best_error_s > eps


def test_full_shift_control_is_shadowed():
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    res = demonstrate_non_shadowing(3, 7, delta, eps, "full",
                                    require_witness=False)
    assert res.shadowed
    assert res.best_error_s <= eps


def test_witness_requirement_raises_on_control():
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    with pytest.raises(NoWitnessFound):
        demonstrate_non_shadowing(3, 7, delta, eps, "full")


@pytest.mark.parametrize("depth", [6, 7])
@pytest.mark.parametrize("subshift", ["even", "full"])
def test_demo_matches_flat_oracle_without_tabulating(monkeypatch, subshift,
                                                     depth):
    """Both demos report the flat reference scan's best point and error,
    and evaluate the lifted map only to verify the orbit's defects: the
    oracle runs on the chart, and tabulating the lifted map would take
    M evaluations."""
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    counts = []

    def counted_map(*args):
        g, calls = counting_map(build_thm2_map(*args))
        counts.append(calls)
        return g

    monkeypatch.setattr(counterexample, "build_thm2_map", counted_map)
    res = demonstrate_non_shadowing(3, depth, delta, eps, subshift,
                                    require_witness=False)
    assert counts == [[len(res.orbit_f) - 1]]

    ctx = PrecisionContext(3, depth + 2)
    chart = build_cantor_chart(subshift, 3, depth)
    f = build_thm2_map(ctx, transported_shift_table(chart))
    orbit = PseudoOrbit(ctx, res.orbit_f, delta.scaled(2))
    assert (res.best_point, res.best_error_f) == \
        _ref_brute_force_shadow(f, orbit)
    assert res.shadowed == (subshift == "full" and depth == 7)


@pytest.mark.parametrize("p, depths", [(3, range(3, 9)), (5, range(3, 7))],
                         ids=["3-depths-3-8", "5-depths-3-6"])
@pytest.mark.parametrize("subshift", ["even", "full"])
def test_chart_oracle_matches_lifted_reference(subshift, p, depths):
    """The demo scores the chart orbit under the transported shift and
    derives the lifted answer; the flat reference scan over every lifted
    residue gives the same best point and error, and so the same chart
    error and verdict, for every delta = p^-2 .. p^-(depth-1) and
    eps = p^-1 .. p^-3."""
    cases = 0
    for depth in depths:
        chart = build_cantor_chart(subshift, p, depth)
        ctx = PrecisionContext(p, depth + 2)
        f = build_thm2_map(ctx, transported_shift_table(chart))
        for k in range(2, depth):
            delta = NormValue(p, k)
            want = None
            for e in (1, 2, 3):
                eps = NormValue(p, e)
                res = demonstrate_non_shadowing(p, depth, delta, eps,
                                                subshift, False, chart)
                if want is None:
                    orbit = PseudoOrbit(ctx, res.orbit_f, delta.scaled(2))
                    point, error_f = _ref_brute_force_shadow(f, orbit)
                    error_s = error_f if error_f.is_zero else \
                        NormValue(p, error_f.exponent - 2)
                    want = point, error_f, error_s
                assert (res.best_point, res.best_error_f,
                        res.best_error_s) == want, (depth, k)
                assert res.shadowed == (want[2] <= eps)
                cases += 1
    assert cases == 3 * sum(depth - 2 for depth in depths)


def test_lifted_orbit_is_a_valid_pseudo_orbit():
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    res = demonstrate_non_shadowing(3, 7, delta, eps, "even")
    ctx = PrecisionContext(3, 9)
    chart = build_cantor_chart("even", 3, 7)
    f = build_thm2_map(ctx, transported_shift_table(chart))
    orbit = PseudoOrbit(ctx, res.orbit_f, delta.scaled(2))
    assert verify_pseudo_orbit(f, orbit) <= delta.scaled(2)


def test_tighter_delta_still_yields_witness():
    # hiding the fault deeper costs a longer faked run but cannot make
    # the orbit shadowable
    res = demonstrate_non_shadowing(3, 8, NormValue(3, 5), NormValue(3, 1),
                                    "even")
    assert not res.shadowed


def test_demo_rejects_a_mismatched_chart():
    """A prebuilt chart of another subshift, prime or depth is refused,
    not run under the caller's label."""
    delta, eps = NormValue(3, 4), NormValue(3, 1)
    for subshift, depth, chart in (
            ("even", 8, build_cantor_chart("full", 3, 8)),
            ("even", 8, build_cantor_chart("even", 3, 9)),
            ("full", 4, build_cantor_chart("full", 5, 4))):
        with pytest.raises(BadParams, match="chart is"):
            demonstrate_non_shadowing(3, depth, delta, eps, subshift,
                                      require_witness=False, chart=chart)


def test_run_length_budget_enforced():
    # delta = 3^-7 at chart depth 7 leaves the splice fault no digit to
    # hide in, so every odd run length up to the cap fails
    with pytest.raises(NoWitnessFound, match="no odd run length"):
        demonstrate_non_shadowing(3, 7, NormValue(3, 7), NormValue(3, 1),
                                  "even")


def test_parameter_validation():
    d, e = NormValue(2, 2), NormValue(2, 1)
    with pytest.raises(BadParams):
        demonstrate_non_shadowing(2, 5, d, e)
