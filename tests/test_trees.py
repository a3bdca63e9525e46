"""
League trees and the per-node bit-string encoding:

- lca lookups on the demo tree match its hand-read values
- encoding the demo permutation reproduces the known node strings and the
  root string 010100011; decode inverts it
- the encode/decode pair is a bijection across tree shapes
- sorted permutations encode as all-ones-then-zeros at every node
- JSON round trip, truncation, and mirroring preserve structure
- the encoding round-trips for random trees at random n up to 20 (hypothesis)
- more than 1,000 leaves raise CapExceeded before the lca table is filled
- trees as deep as the label cap allows build, index, print and parse
  without recursion; to_json prints json.dumps's bytes; JSON nested deeper
  than any tree under the cap raises CapExceeded
- mirror_tree, truncate_tree and tree_decode keep their own stacks: they
  return on a 999-leaf caterpillar and equal the former recursive versions
  (kept here as the reference) on the demo tree, caterpillars, complete trees
  and 30 random trees
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permchains.analysis import CapExceeded

from permchains.chains import make_rng
from permchains.perms import all_permutations, identity
from permchains.trees import (
    LeagueTree,
    TreeNode,
    caterpillar_tree,
    complete_tree,
    leaf,
    mirror_tree,
    node,
    random_tree,
    tree_decode,
    tree_encode,
    truncate_tree,
)

DEMO_PERM = (5, 1, 9, 3, 8, 6, 7, 4, 2)


def test_lca_values(demo_tree):
    assert demo_tree.lca_q(1, 4) == Fraction(4, 5)
    assert demo_tree.lca_q(4, 9) == Fraction(9, 10)
    assert demo_tree.lca_q(5, 8) == Fraction(7, 10)
    # symmetric and sibling cases
    assert demo_tree.lca(1, 4) == demo_tree.lca(4, 1)
    assert demo_tree.lca_q(2, 3) == Fraction(1, 2)
    with pytest.raises(ValueError):
        demo_tree.lca(3, 3)
    with pytest.raises(ValueError):
        demo_tree.lca(0, 5)


def test_demo_encoding(demo_tree):
    enc = tree_encode(DEMO_PERM, demo_tree)
    by_leaves = {tuple(sorted(demo_tree.leaves_under(i))): s for i, s in enc.items()}
    assert by_leaves[tuple(range(1, 10))] == "010100011"
    assert by_leaves[(1, 2, 3, 4)] == "1101"
    assert by_leaves[(1, 2, 3)] == "100"
    assert by_leaves[(2, 3)] == "01"
    assert by_leaves[(5, 6)] == "10"
    assert by_leaves[(7, 8, 9)] == "011"
    assert by_leaves[(7, 8)] == "01"
    # the remaining node follows the same left=1 rule as all of the above
    assert by_leaves[(5, 6, 7, 8, 9)] == "10010"
    assert tree_decode(enc, demo_tree) == DEMO_PERM


def test_sorted_permutation_encodes_ones_then_zeros(demo_tree):
    enc = tree_encode(identity(9), demo_tree)
    for nid, bits in enc.items():
        ones = len(demo_tree.left_under(nid))
        assert bits == "1" * ones + "0" * (len(bits) - ones)


@pytest.mark.parametrize("n", range(2, 7))
def test_roundtrip_three_shapes(n):
    rng = make_rng(7)
    shapes = [
        complete_tree(n, "0.7"),
        caterpillar_tree(n, ["0.6"] * (n - 1)),
        random_tree(n, rng),
    ]
    for tree in shapes:
        for sigma in all_permutations(n):
            assert tree_decode(tree_encode(sigma, tree), tree) == sigma


@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(min_value=0, max_value=2**32))
))
def test_codec_roundtrip_at_random_n(case):
    sigma, seed = case
    tree = random_tree(len(sigma), make_rng(seed))
    assert tree_decode(tree_encode(sigma, tree), tree) == tuple(sigma)


def test_leaf_cap_checked_before_the_lca_table():
    with pytest.raises(CapExceeded, match="1001 labels exceed the label cap 1000"):
        complete_tree(1001, "0.7")


def test_a_999_leaf_caterpillar_builds_and_round_trips():
    tree = caterpillar_tree(999, ["0.7"] * 998)
    assert tree.n == 999 and len(tree.internal_ids()) == 998
    assert tree.leaves_under(997) == {998, 999} and tree.lca_q(1, 999) == Fraction(7, 10)
    back = LeagueTree.from_json(tree.to_json())
    assert back._internal == tree._internal


def _former_json(tree: LeagueTree) -> str:
    """The former recursive to_json, kept as the reference."""

    def emit(nd):
        if nd.is_leaf:
            return nd.label
        return {"q": float(nd.q), "left": emit(nd.left), "right": emit(nd.right)}

    return json.dumps(emit(tree.root))


def test_to_json_prints_the_former_bytes(demo_tree):
    rng = make_rng(5)
    for tree in (demo_tree, complete_tree(1, "0.6"), caterpillar_tree(6, ["0.55", "0.6", "0.7", "0.8", "0.9"]),
                 *(random_tree(n, rng) for n in range(2, 12))):
        assert tree.to_json() == _former_json(tree)


def test_json_nested_past_the_label_cap_raises_cap_exceeded():
    text = "1"
    for _ in range(5 * 1000):
        text = f'{{"q": 0.6, "left": {text}, "right": 2}}'
    with pytest.raises(CapExceeded, match="nests deeper than a tree of 1000 labels"):
        LeagueTree.from_json(text)


def test_decode_rejects_bad_counts():
    tree = complete_tree(4, "0.7")
    enc = tree_encode((1, 2, 3, 4), tree)
    bad = dict(enc)
    root = 0
    bad[root] = "1111"
    with pytest.raises(ValueError):
        tree_decode(bad, tree)


def test_json_roundtrip(demo_tree):
    text = demo_tree.to_json()
    back = LeagueTree.from_json(text)
    assert back.n == demo_tree.n
    for i in range(1, 10):
        for j in range(i + 1, 10):
            assert back.lca_q(i, j) == demo_tree.lca_q(i, j)


def test_validation():
    with pytest.raises(ValueError):
        LeagueTree(node("0.7", leaf(2), leaf(1)))  # leaves out of order
    with pytest.raises(ValueError):
        LeagueTree(node("0.3", leaf(1), leaf(2)))  # q below 1/2


def test_truncation(demo_tree):
    t5 = truncate_tree(demo_tree, 5)
    assert t5.n == 5
    # surviving pairs keep their lca probabilities
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert t5.lca_q(i, j) == demo_tree.lca_q(i, j)


def test_mirror(demo_tree):
    m = mirror_tree(demo_tree)
    n = demo_tree.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert m.lca_q(n + 1 - j, n + 1 - i) == demo_tree.lca_q(i, j)


def _former_mirror(tree: LeagueTree) -> LeagueTree:
    """The former recursive mirror_tree, kept as the reference."""
    n = tree.n

    def flip(nd):
        if nd.is_leaf:
            return leaf(n + 1 - nd.label)
        return TreeNode(q=nd.q, left=flip(nd.right), right=flip(nd.left))

    return LeagueTree(flip(tree.root))


def _former_truncate(tree: LeagueTree, n: int) -> LeagueTree:
    """The former recursive truncate_tree, kept as the reference."""

    def prune(nd):
        if nd.is_leaf:
            return nd if nd.label <= n else None
        lt, rt = prune(nd.left), prune(nd.right)
        if lt is not None and rt is not None:
            return TreeNode(q=nd.q, left=lt, right=rt)
        return lt if lt is not None else rt

    return LeagueTree(prune(tree.root))


def _former_decode(encoding: dict, tree: LeagueTree) -> tuple:
    """The former recursive tree_decode (without its count check), kept as the reference."""

    def build(ref):
        kind, val = ref
        if kind == "leaf":
            return [val]
        rec = tree._internal[val]
        s1, s0 = build(rec.left_ref), build(rec.right_ref)
        out, i1, i0 = [], 0, 0
        for b in encoding[val]:
            if b == "1":
                out.append(s1[i1])
                i1 += 1
            else:
                out.append(s0[i0])
                i0 += 1
        return out

    return tuple(build(("node", 0) if tree.internal_ids() else ("leaf", 1)))


def _reference_trees(demo_tree) -> list:
    rng = make_rng(11)
    return [
        demo_tree,
        *(caterpillar_tree(n, [Fraction(1, 2) + Fraction(k, 4 * n) for k in range(n - 1)]) for n in (1, 2, 5, 9)),
        *(complete_tree(n, "0.7") for n in (1, 2, 6, 8)),
        *(random_tree(2 + k % 9, rng) for k in range(30)),
    ]


def test_tree_walks_equal_the_recursive_versions(demo_tree):
    rng = make_rng(12)
    for tree in _reference_trees(demo_tree):
        assert mirror_tree(tree)._internal == _former_mirror(tree)._internal
        assert mirror_tree(tree).to_json() == _former_mirror(tree).to_json()
        for n in range(1, tree.n + 1):
            got, want = truncate_tree(tree, n), _former_truncate(tree, n)
            assert (got.n, got._internal, got.to_json()) == (want.n, want._internal, want.to_json())
        for _ in range(5):
            sigma = tuple(rng.permutation(range(1, tree.n + 1)).tolist())
            encoding = tree_encode(sigma, tree)
            assert tree_decode(encoding, tree) == _former_decode(encoding, tree) == sigma


def test_tree_walks_return_on_a_999_leaf_caterpillar():
    tree = caterpillar_tree(999, [0.7] * 998)
    mirrored = mirror_tree(tree)
    assert mirrored.n == 999 and mirrored.lca_q(998, 999) == tree.lca_q(1, 2)
    assert mirror_tree(mirrored).to_json() == tree.to_json()
    assert truncate_tree(tree, 500)._internal == caterpillar_tree(500, [0.7] * 499)._internal
    sigma = tuple(make_rng(13).permutation(range(1, 1000)).tolist())
    assert tree_decode(tree_encode(sigma, tree), tree) == sigma
