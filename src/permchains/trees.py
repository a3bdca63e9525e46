"""
League trees: rooted proper binary trees whose leaves are the labels 1..n.

Each internal node v carries a probability q_v in [1/2, 1].  The tree induces
a bias table via the lowest common ancestor: the pair (i, j) with i < j is put
in order with probability q at lca(i, j).

A permutation is encoded against such a tree as one bit string per internal
node: list the node's descendant labels in permutation order and write 1 for
members of the left subtree, 0 for the right.  This encoding is a bijection;
:func:`tree_decode` inverts it by interleaving child strings.

JSON format: a node is either an integer leaf label or an object
``{"q": number, "left": node, "right": node}``.
"""
from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._common import LABEL_CAP, CapExceeded, as_probability, check_label_count
from .perms import check_permutation


@dataclass(frozen=True)
class TreeNode:
    label: int | None = None
    q: Fraction | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


def leaf(label: int) -> TreeNode:
    return TreeNode(label=int(label))


def node(q, left: TreeNode, right: TreeNode) -> TreeNode:
    return TreeNode(q=as_probability(q), left=left, right=right)


@dataclass(frozen=True)
class _Internal:
    # one record per internal node, id = preorder index
    q: Fraction
    leaves: frozenset
    left_leaves: frozenset
    left_ref: tuple  # ("leaf", label) or ("node", id)
    right_ref: tuple


class LeagueTree:
    """Validated league tree with precomputed lca and descendant sets; the lca
    table has an entry per label pair i < j, so more than ``LABEL_CAP`` leaves
    raise ``CapExceeded`` before it is filled."""

    def __init__(self, root: TreeNode):
        self.root = root
        self._internal: list[_Internal] = []
        leaves = self._index(root)
        self.n = len(leaves)
        if list(leaves) != list(range(1, self.n + 1)):
            raise ValueError(
                f"leaf labels must read 1..n left to right, got {leaves}"
            )
        check_label_count(self.n)
        self._lca: dict[tuple[int, int], int] = {}
        for nid, rec in enumerate(self._internal):
            right = rec.leaves - rec.left_leaves
            for i in rec.left_leaves:
                for j in right:
                    self._lca[(i, j)] = nid

    def _index(self, root: TreeNode) -> list[int]:
        """Record the internal nodes in preorder; return the leaf labels left
        to right.  The walk keeps its own stack, so depth is not bounded by
        the recursion limit.  It is not a ``_fold``: a node's preorder id is
        reserved on the way down, before its children are visited."""
        done: list[tuple[tuple, list[int]]] = []  # (ref, leaf labels) of finished subtrees
        todo: list = [root]  # nodes to visit, or the id of a node whose children are done
        while todo:
            item = todo.pop()
            if isinstance(item, int):
                right_ref, right_leaves = done.pop()
                left_ref, left_leaves = done.pop()
                rec = self._internal[item]
                self._internal[item] = _Internal(
                    q=rec.q,
                    leaves=frozenset(left_leaves) | frozenset(right_leaves),
                    left_leaves=frozenset(left_leaves),
                    left_ref=left_ref,
                    right_ref=right_ref,
                )
                done.append((("node", item), left_leaves + right_leaves))
            elif item.is_leaf:
                done.append((("leaf", item.label), [item.label]))
            else:
                if item.left is None or item.right is None or item.q is None:
                    raise ValueError("internal node needs q and both children")
                if not Fraction(1, 2) <= item.q <= 1:
                    raise ValueError(f"q out of [1/2, 1]: {item.q}")
                todo += [len(self._internal), item.right, item.left]
                self._internal.append(item)  # reserve the preorder slot
        return done[0][1]

    # -- structure queries ------------------------------------------------

    def internal_ids(self) -> range:
        return range(len(self._internal))

    def q_of(self, node_id: int) -> Fraction:
        return self._internal[node_id].q

    def leaves_under(self, node_id: int) -> frozenset:
        return self._internal[node_id].leaves

    def left_under(self, node_id: int) -> frozenset:
        return self._internal[node_id].left_leaves

    def lca(self, i: int, j: int) -> int:
        """Id of the deepest node having both leaves below it, in either order."""
        if i == j:
            raise ValueError("lca needs two distinct labels")
        try:
            return self._lca[(i, j) if i < j else (j, i)]
        except KeyError:
            raise ValueError(f"labels out of range 1..{self.n}: {i}, {j}")

    def lca_q(self, i: int, j: int) -> Fraction:
        return self.q_of(self.lca(i, j))

    # -- JSON --------------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "LeagueTree":
        return cls(_node_from_obj(_json_call(json.loads, text, parse_float=Fraction)))

    def to_json(self) -> str:
        """``json.dumps`` of the nested node objects."""
        obj = _fold(self.root, lambda lf: lf.label, lambda nd, lt, rt: {"q": float(nd.q), "left": lt, "right": rt})
        return _json_call(json.dumps, obj)


def _json_call(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with room for a league under the label cap:
    such a tree nests up to LABEL_CAP - 1 objects deep, and ``json`` spends
    one level of the recursion limit on each.  The limit is raised for the
    call only; anything deeper holds more labels than the cap."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + LABEL_CAP)
    try:
        return call(*args, **kwargs)
    except RecursionError:
        raise CapExceeded(f"league JSON nests deeper than a tree of {LABEL_CAP} labels") from None
    finally:
        sys.setrecursionlimit(limit)


def _node_from_obj(obj) -> TreeNode:
    """The TreeNode of a parsed JSON node."""
    return _fold(obj, leaf, lambda item, lt, rt: node(item["q"], lt, rt), _json_children)


def _json_children(item):
    """A parsed JSON node's (left, right), or None at a leaf label."""
    if isinstance(item, int):
        return None
    if isinstance(item, dict) and {"q", "left", "right"} <= set(item):
        return item["left"], item["right"]
    raise ValueError(f"bad tree node: {reprlib.repr(item)}")


# -- encoding ---------------------------------------------------------------


def tree_encode(sigma: Sequence[int], tree: LeagueTree) -> dict[int, str]:
    """Bit string per internal node: 1 = left-subtree member, in sigma order."""
    sigma = check_permutation(sigma)
    if len(sigma) != tree.n:
        raise ValueError(f"permutation size {len(sigma)} != tree size {tree.n}")
    out: dict[int, str] = {}
    for nid in tree.internal_ids():
        under = tree.leaves_under(nid)
        left = tree.left_under(nid)
        out[nid] = "".join("1" if v in left else "0" for v in sigma if v in under)
    return out


def tree_decode(encoding: dict[int, str], tree: LeagueTree) -> tuple[int, ...]:
    """Inverse of :func:`tree_encode`.

    Child strings are interleaved bottom-up: each 1 in a node's string takes
    the next element of the left child's string, each 0 takes from the right.
    """
    for nid in tree.internal_ids():
        bits = encoding[nid]
        rec = tree._internal[nid]
        ones = bits.count("1")
        if ones != len(rec.left_leaves) or len(bits) - ones != len(
            rec.leaves - rec.left_leaves
        ):
            raise ValueError(f"node {nid}: bit counts do not match subtree sizes")

    if not tree.internal_ids():
        return (1,)
    # ids are preorder, so every child's id exceeds its parent's: in reverse
    # id order, both children of a node are decoded before it
    decoded: list = [None] * len(tree.internal_ids())

    def labels(ref) -> list[int]:
        kind, val = ref
        return [val] if kind == "leaf" else decoded[val]

    for nid in reversed(tree.internal_ids()):
        rec = tree._internal[nid]
        s1 = iter(labels(rec.left_ref))
        s0 = iter(labels(rec.right_ref))
        decoded[nid] = [next(s1) if b == "1" else next(s0) for b in encoding[nid]]
    return tuple(decoded[0])


# -- shapes ------------------------------------------------------------------


def complete_tree(n: int, q) -> LeagueTree:
    """Balanced splits; every internal node carries the same q."""
    if n < 1:
        raise ValueError(f"a league tree needs at least one leaf, got n = {n}")
    qp = as_probability(q)

    def build(lo: int, hi: int) -> TreeNode:
        if lo == hi:
            return leaf(lo)
        mid = (lo + hi) // 2
        return TreeNode(q=qp, left=build(lo, mid), right=build(mid + 1, hi))

    return LeagueTree(build(1, n))


def caterpillar_tree(n: int, qs) -> LeagueTree:
    """Right-leaning spine: node k separates leaf k from leaves k+1..n.

    qs gives the spine probabilities top-down (length n-1).  With
    qs[k-1] = r_k this reproduces the bias table in which every pair is
    decided by its smaller label.
    """
    qs = [as_probability(x) for x in qs]
    if len(qs) != n - 1:
        raise ValueError(f"need {n - 1} spine probabilities, got {len(qs)}")

    spine = leaf(n)
    for k in range(n - 1, 0, -1):  # bottom-up, so depth costs no recursion
        spine = TreeNode(q=qs[k - 1], left=leaf(k), right=spine)
    return LeagueTree(spine)


def random_tree(n: int, rng, q_choices=(Fraction(3, 5), Fraction(7, 10), Fraction(4, 5))) -> LeagueTree:
    """Uniformly random split shape with q values drawn from q_choices."""

    def build(lo: int, hi: int) -> TreeNode:
        if lo == hi:
            return leaf(lo)
        cut = lo + int(rng.random() * (hi - lo))  # left part is lo..cut
        q = q_choices[int(rng.random() * len(q_choices))]
        return TreeNode(q=q, left=build(lo, cut), right=build(cut + 1, hi))

    return LeagueTree(build(1, n))


def truncate_tree(tree: LeagueTree, n: int) -> LeagueTree:
    """Induced subtree on the leaves 1..n, contracting unary nodes."""
    if not 1 <= n <= tree.n:
        raise ValueError(f"cannot truncate {tree.n}-leaf tree to {n}")

    def join(nd: TreeNode, lt: TreeNode | None, rt: TreeNode | None) -> TreeNode | None:
        if lt is not None and rt is not None:
            return TreeNode(q=nd.q, left=lt, right=rt)
        return lt if lt is not None else rt

    pruned = _fold(tree.root, lambda lf: lf if lf.label <= n else None, join)
    if pruned is None:
        raise ValueError("empty truncation")
    return LeagueTree(pruned)


def mirror_tree(tree: LeagueTree) -> LeagueTree:
    """Reflect left/right and relabel leaves v -> n+1-v."""
    n = tree.n
    flipped = _fold(
        tree.root,
        lambda lf: leaf(n + 1 - lf.label),
        lambda nd, lt, rt: TreeNode(q=nd.q, left=rt, right=lt),
    )
    return LeagueTree(flipped)


def _fold(root, at_leaf, at_node, children=lambda nd: None if nd.is_leaf else (nd.left, nd.right)):
    """``at_leaf(leaf)`` at each leaf and ``at_node(node, left value, right
    value)`` at each internal node, bottom-up from an explicit stack, so depth
    is not bounded by the recursion limit; returns the root's value.  A node's
    ``children`` are its (left, right), or None at a leaf."""
    done: list = []
    todo: list = [(root, False)]  # (node, whether its children are done)
    while todo:
        nd, children_done = todo.pop()
        if children_done:
            right = done.pop()
            done.append(at_node(nd, done.pop(), right))
        elif (pair := children(nd)) is None:
            done.append(at_leaf(nd))
        else:
            todo += [(nd, True), (pair[1], False), (pair[0], False)]
    return done[0]
