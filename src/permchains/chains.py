"""
Single-step kernels for the sampling chains, plus a seeded run loop.

Every kernel writes its transition law once, as a list of selection slots
``_slots`` of (slot, exact selection mass) and a rule ``_law(state, slot)``
returning ``(p, yes, no)``: with probability p the chain goes to ``yes``,
otherwise to ``no``.  The base class derives both views from it:

* ``step(state, rng)`` draws one transition.  The random draws come in a
  frozen order: the selection (``_draw``; one uniform, plus a fair direction
  bit for the inversion kernel, none for the one-dimensional walk), then one
  acceptance uniform u, going to ``yes`` when u < p.  A blocked slot has the
  law ``(1, state, state)``, so it still spends its acceptance draw, and
  trajectories are reproducible from (kernel, start, steps, seed) alone.
  The acceptance test is exact and cheap: u is k / 2**53 for an integer k,
  so u < p is compared on integers, never through a float rounding of p.
* ``transition_distribution(state)`` returns the exact one-step distribution
  as a dict of successor -> Fraction, which the analysis code turns into
  matrices.  Self-loops are folded into one hold entry, inserted last.
  Probabilities sum to exactly 1.

Kernels:

* ``NearestNeighborChain``   adjacent transpositions under a bias table.
* ``InversionChain``         +-1 moves on one inversion-table coordinate;
                             equivalently, swapping a label with the nearest
                             larger label across smaller ones.
* ``TreeChain``              transpositions that are adjacent inside one
                             node string of the league-tree encoding.
* ``OnedChain``              biased walk on 0..k with holding boundaries.
* ``AsepChain``              adjacent exclusion moves on a binary string.
* ``WalkChain``              adjacent (+1, -1) swaps on staircase walks with
                             position-dependent bias (fluctuating or constant).
* ``WalkTranspositionChain`` arbitrary (+1, -1) swaps with Metropolis
                             acceptance under the same walk weights.

Blocked proposals count as holds, never as errors.

Each kernel class builds itself from a parsed model (``from_model``, with its
coercion notice and usage errors) and declares its size ``n``, its
``observable``, a ``default_start()`` and ``space_size()``, which counts
``space()`` without enumerating it.  ``build`` looks kinds up in ``KERNELS``.

``run`` serves the uniforms of ``make_rng(seed)`` from blocks of array draws
(``BlockUniforms``); Philox gives an array draw the same values as repeated
scalar draws, so a trajectory is the same as one drawn a uniform at a time and
``step`` is the only sampling code path.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, combinations
from typing import Callable, NamedTuple

import numpy as np

from . import perms, walks
from ._common import as_probability
from .bias import BiasTable, CywSpec, Model, SlowMixSpec, choose_your_weapon, league_hierarchy, weight_exact
from .trees import LeagueTree, complete_tree

HALF = Fraction(1, 2)
# numpy's uniform doubles are k * 2**-53 with an integer 0 <= k < 2**53
UNIT_BITS = 53
UNIT = float(1 << UNIT_BITS)
BLOCK = 2048  # uniforms per array draw in ``run``


class StepOutcome(NamedTuple):
    state: object
    moved: bool


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the documented draw order makes runs portable."""
    return np.random.Generator(np.random.Philox(seed))


class BlockUniforms:
    """``random()`` yields the uniforms of ``make_rng(seed)`` in order, drawn
    ``BLOCK`` at a time: the same values as repeated ``make_rng(seed).random()``."""

    def __init__(self, seed: int):
        gen = make_rng(seed)
        self.random = chain.from_iterable(iter(lambda: gen.random(BLOCK).tolist(), None)).__next__


def _notice(text: str):
    print(f"notice: {text}", file=sys.stderr)


def _pick_uniform(u: float, count: int) -> int:
    k = int(u * count)
    return min(k, count - 1)  # guard u == 1.0 edge


class Kernel:
    """A transition law given by ``_slots`` and ``_law``; see the module docstring."""

    kind: str
    observable: str  # a key of OBSERVABLES
    n: int
    _slots: list  # (slot, exact selection mass)

    def _law(self, state, slot) -> tuple:
        raise NotImplementedError

    def _uniform(self, slots) -> list:
        """Slots of equal selection mass; a kernel needs at least one."""
        if not slots:
            raise ValueError(f"{self.kind} kernel has no move at this size")
        return [(slot, Fraction(1, len(slots))) for slot in slots]

    def _draw(self, rng):
        return self._slots[_pick_uniform(rng.random(), len(self._slots))][0]

    def step(self, state, rng) -> StepOutcome:
        p, yes, no = self._law(state, self._draw(rng))
        # u < p exactly, for a Fraction or int p, with u = k / 2**53
        new = yes if int(rng.random() * UNIT) * p.denominator < p.numerator << UNIT_BITS else no
        return StepOutcome(new, new != state)

    def transition_distribution(self, state) -> dict:
        out: dict = {}
        hold = Fraction(0)
        for slot, mass in self._slots:
            p, yes, no = self._law(state, slot)
            for target, prob in ((yes, p), (no, 1 - p)):
                if not prob:
                    continue
                w = mass if prob == 1 else mass * prob
                if target == state:
                    hold += w
                elif target in out:
                    out[target] += w
                else:
                    out[target] = w
        out[state] = hold
        return out


class PermutationKernel(Kernel):
    """A kernel on S_n whose stationary weight is the product form of ``self.table``."""

    observable = "inversions"
    table: BiasTable

    def space(self):
        return list(perms.all_permutations(self.n))

    def space_size(self) -> int:
        return math.factorial(self.n)

    def default_start(self):
        return perms.reversal(self.n)

    def stationary_weight(self, sigma) -> Fraction:
        return weight_exact(sigma, self.table)


class NearestNeighborChain(PermutationKernel):
    """Pick an adjacent position uniformly; reorder the pair by its bias entry."""

    kind = "nn"

    def __init__(self, table: BiasTable):
        self.table = table
        self.n = table.n
        self._slots = self._uniform(range(self.n - 1))

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "NearestNeighborChain":
        if model.kind in ("oned", "asep"):
            raise ValueError(f"chain nn cannot use model {model.kind}")
        size = model.n or n
        if size is None:
            raise ValueError("chain nn with a constant model needs --n")
        return cls(model.bias_table(size))

    def _law(self, sigma, pos):
        return self.table.p(sigma[pos + 1], sigma[pos]), perms.adjacent_swap(sigma, pos), sigma

    def min_hold_probability(self) -> Fraction:
        """Every state holds at least this often."""
        return min(
            min(self.table.p(i, j), self.table.p(j, i))
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


def _inv_targets(sigma, i: int) -> tuple[int | None, int | None]:
    """(first larger label after i, last larger label before i) in sigma."""
    pos = sigma.index(i)
    after = next((v for v in sigma[pos + 1 :] if v > i), None)
    before = next((v for v in reversed(sigma[:pos]) if v > i), None)
    return after, before


class InversionChain(PermutationKernel):
    """Move one inversion-table coordinate by +-1.

    Label i is selected with probability (n-i)/C(n,2), then a fair direction
    bit: +1 swaps i with the first larger label after it (acceptance 1-r_i),
    -1 swaps i with the last larger label before it (acceptance r_i).  All
    skipped labels are smaller than both, so the swap changes only coordinate
    i of the inversion table.  Holds with probability at least 1/2.

    The max variant conjugates the min law with the mirror relabeling rather
    than writing a second one.
    """

    kind = "inv"

    def __init__(self, spec: CywSpec):
        self.n = n = spec.n
        self._mirror = spec.variant == "max"
        r = (spec.mirrored() if self._mirror else spec).r
        self.table = choose_your_weapon(spec)
        # slot (i, direction, acceptance) with mass (n-i)/C(n,2) * 1/2; label n
        # is never selected
        self._slots = [
            ((i, b, accept), Fraction(n - i, n * (n - 1)))
            for i in range(1, n)
            for b, accept in ((1, 1 - r[i - 1]), (-1, r[i - 1]))
        ]
        if not self._slots:
            raise ValueError(f"{self.kind} kernel has no move at this size")
        self._edges = list(accumulate((n - i) / (n * (n - 1) // 2) for i in range(1, n)))

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "InversionChain":
        if model.kind == "constant":
            if n is None:
                raise ValueError("chain inv with a constant model needs --n")
            _notice(f"constant model coerced to cyw with all ranks {model.p}")
            return cls(CywSpec(r=(model.p,) * (n - 1)))
        if model.kind != "cyw":
            raise ValueError("chain inv requires a cyw (or constant) model")
        return cls(model.cyw)

    def _draw(self, rng):
        # float cumulative pick of label i by weight (n - i), then the direction bit
        u = rng.random()
        for i, edge in enumerate(self._edges, 1):
            if u < edge:
                break
        else:
            i = self.n - 1
        down = rng.random() >= 0.5
        return self._slots[2 * i - 2 + down][0]

    def _law(self, sigma, slot):
        if self._mirror:
            p, yes, no = self._min_law(perms.mirror(sigma), slot)
            return p, perms.mirror(yes), perms.mirror(no)
        return self._min_law(sigma, slot)

    @staticmethod
    def _min_law(sigma, slot):
        i, b, accept = slot
        after, before = _inv_targets(sigma, i)
        j = after if b == 1 else before
        if j is None:
            return 1, sigma, sigma
        return accept, perms.swap_values(sigma, i, j), sigma

    def min_hold_probability(self) -> Fraction:
        return HALF


class TreeChain(PermutationKernel):
    """Transpose a label pair when no stranger separates them.

    An unordered pair {a, b} is selected uniformly among C(n,2).  If every
    label between a and b in the permutation lies outside the subtree of
    lca(a, b), the pair is put in order with probability q at the lca and out
    of order otherwise (a no-op counts as a hold); else the step holds.
    """

    kind = "tree"

    def __init__(self, tree: LeagueTree):
        self.tree = tree
        self.n = n = tree.n
        self.table = league_hierarchy(tree)
        # slot (a, b, q, leaves under lca(a, b)) for a < b, in dense pair order
        self._slots = self._uniform([
            (a, b, self.table.p(a, b), tree.leaves_under(tree.lca(a, b)))
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
        ])

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "TreeChain":
        if model.kind == "constant":
            if n is None:
                raise ValueError("chain tree with a constant model needs --n")
            _notice(f"constant model coerced to a complete league tree with q = {model.p}")
            return cls(complete_tree(n, model.p))
        if model.kind != "league":
            raise ValueError("chain tree requires a league (or constant) model")
        return cls(model.tree)

    @staticmethod
    def _span(sigma, a: int, b: int, under) -> tuple[int, int] | None:
        """Ordered positions of a and b, or None if a label of ``under`` lies between."""
        i, j = sigma.index(a), sigma.index(b)
        lo, hi = (i, j) if i < j else (j, i)
        if not under.isdisjoint(sigma[lo + 1 : hi]):
            return None
        return lo, hi

    def pair_is_free(self, sigma, a: int, b: int) -> bool:
        """No element between a and b descends from lca(a, b)."""
        return self._span(tuple(sigma), a, b, self.tree.leaves_under(self.tree.lca(a, b))) is not None

    def _law(self, sigma, slot):
        a, b, q, under = slot
        span = self._span(sigma, a, b, under)
        if span is None:
            return 1, sigma, sigma
        lo, hi = span
        in_order, out_of_order = list(sigma), list(sigma)
        in_order[lo], in_order[hi] = a, b
        out_of_order[lo], out_of_order[hi] = b, a
        return q, tuple(in_order), tuple(out_of_order)

    def min_hold_probability(self) -> Fraction:
        qs = [self.tree.q_of(v) for v in self.tree.internal_ids()]
        return min(min(q, 1 - q) for q in qs)


class OnedChain(Kernel):
    """Walk on 0..k: up with probability r, down with 1-r, clamped holds."""

    kind = "oned"
    observable = "value"

    def __init__(self, r, k: int):
        self.r = as_probability(r)
        self.n = self.k = int(k)
        if self.k < 1:
            raise ValueError(f"oned walk on 0..{self.k} has fewer than two states; use k >= 1")
        self._slots = [(None, Fraction(1))]

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "OnedChain":
        if model.kind != "oned":
            raise ValueError("chain oned requires an oned:<r>,<k> model")
        return cls(*model.params)

    def space(self):
        return list(range(self.k + 1))

    def space_size(self) -> int:
        return self.k + 1

    def default_start(self) -> int:
        return 0

    def stationary_weight(self, h: int) -> Fraction:
        if self.r == 1:
            return Fraction(1) if h == self.k else Fraction(0)
        return (self.r / (1 - self.r)) ** h

    def _draw(self, rng):
        return None

    def _law(self, h: int, slot):
        if not 0 <= h <= self.k:
            raise ValueError(f"state out of range 0..{self.k}: {h}")
        return self.r, min(h + 1, self.k), max(h - 1, 0)


class AsepChain(Kernel):
    """Adjacent exclusion moves on binary strings with k1 ones and k2 zeros.

    A position pair is chosen uniformly among the k-1 adjacencies; an unequal
    pair is set to (1, 0) with probability p and to (0, 1) otherwise.
    """

    kind = "asep"
    observable = "order-pairs"

    def __init__(self, p, k1: int, k2: int):
        self.p = as_probability(p)
        self.k1, self.k2 = int(k1), int(k2)
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError(
                f"asep with {self.k1} ones and {self.k2} zeros has fewer than two states; use k1, k2 >= 1"
            )
        self.n = self.k = self.k1 + self.k2
        self._slots = self._uniform(range(self.k - 1))

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "AsepChain":
        if model.kind != "asep":
            raise ValueError("chain asep requires an asep:<p>,<k1>,<k2> model")
        return cls(*model.params)

    def space(self):
        out = []
        for ones in combinations(range(self.k), self.k1):
            s = ["0"] * self.k
            for i in ones:
                s[i] = "1"
            out.append("".join(s))
        out.sort()
        return out

    def space_size(self) -> int:
        return math.comb(self.k, self.k1)

    def default_start(self) -> str:
        return "0" * self.k2 + "1" * self.k1

    @staticmethod
    def order_pairs(s: str) -> int:
        """Number of (1 before 0) index pairs."""
        zeros_after = 0
        total = 0
        for ch in reversed(s):
            if ch == "0":
                zeros_after += 1
            else:
                total += zeros_after
        return total

    def stationary_weight(self, s: str) -> Fraction:
        if self.p == 1:
            raise ValueError("p = 1 has a degenerate stationary law")
        return (self.p / (1 - self.p)) ** self.order_pairs(s)

    def _law(self, s: str, pos: int):
        if s[pos] == s[pos + 1]:
            return 1, s, s
        head, tail = s[:pos], s[pos + 2 :]
        return self.p, head + "10" + tail, head + "01" + tail


class WalkKernel(Kernel):
    """A kernel on the staircase walks with n up-steps and n down-steps."""

    observable = "max-height"

    def space(self):
        return walks.all_walks(self.n)

    def space_size(self) -> int:
        return math.comb(2 * self.n, self.n)

    def default_start(self) -> tuple:
        return (-1,) * self.n + (1,) * self.n


class WalkChain(WalkKernel):
    """Adjacent (+1, -1) swaps on staircase walks.

    The orientation probability of each unequal adjacent pair comes from
    ``bias_at(ones_before, downs_before)``: the probability of the (+1, -1)
    arrangement for the pair formed by the l-th up-step and m-th down-step.
    Use :meth:`fluctuating` for the slow-mixing family and :meth:`constant`
    for a uniform-bias reference chain of the same size.  Each pair's bias is
    taken from ``bias_at`` once per kernel.
    """

    kind = "walk"

    def __init__(
        self,
        n: int,
        bias_at: Callable[[int, int], Fraction],
        weight_of: Callable[[tuple], Fraction],
    ):
        self.n = n
        self.bias_at = bias_at
        self._weight_of = weight_of
        self._slots = self._uniform(range(2 * n - 1))
        self._bias: dict[tuple[int, int], Fraction] = {}

    @classmethod
    def fluctuating(cls, spec: SlowMixSpec) -> "WalkChain":
        return cls(
            spec.n,
            lambda l, m: spec.cross_prob(l, spec.n + m),
            lambda w: walks.walk_weight(w, spec.gamma, spec.xi),
        )

    @classmethod
    def constant(cls, n: int, p) -> "WalkChain":
        q = as_probability(p)
        if q in (0, 1):
            raise ValueError(f"constant walk bias {q} is degenerate: every swap goes one way; use 0 < p < 1")
        lam = q / (1 - q)

        def weight(w) -> Fraction:
            return lam ** walks.tile_count_total(w)

        return cls(n, lambda l, m: q, weight)

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "WalkChain":
        if model.kind == "slowmix":
            return cls.fluctuating(model.slowmix)
        if model.kind == "constant":
            if n is None:
                raise ValueError("chain walk with a constant model needs --n (half size)")
            return cls.constant(n, model.p)
        raise ValueError("chain walk requires a slowmix or constant model")

    def stationary_weight(self, w) -> Fraction:
        return self._weight_of(w)

    def _pair_bias(self, w, pos: int) -> Fraction:
        ones = w[: pos + 2].count(1)
        pair = (ones, pos + 2 - ones)
        bias = self._bias.get(pair)
        if bias is None:
            bias = self._bias[pair] = self.bias_at(*pair)
        return bias

    def _law(self, w, pos: int):
        if w[pos] == w[pos + 1]:
            return 1, w, w
        head, tail = w[:pos], w[pos + 2 :]
        return self._pair_bias(w, pos), head + (1, -1) + tail, head + (-1, 1) + tail


class WalkTranspositionChain(WalkKernel):
    """Swap any (+1, -1) step pair with Metropolis acceptance.

    The pair is selected uniformly among the n*n (up-step, down-step) index
    pairs; acceptance is min(1, weight ratio) under the fluctuating-bias walk
    weights.  A single swap changes the maximum height by at most 2.  The ratio
    depends only on the change (flat, steep) of the tile counts, so each
    class's acceptance is built once per kernel.
    """

    kind = "walk-transposition"

    def __init__(self, spec: SlowMixSpec):
        self.spec = spec
        self.n = n = spec.n
        self._slots = self._uniform([divmod(idx, n) for idx in range(n * n)])
        self._accept: dict[tuple[int, int], Fraction | int] = {}

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "WalkTranspositionChain":
        if model.kind != "slowmix":
            raise ValueError("chain walk-transposition requires a slowmix model")
        return cls(model.slowmix)

    def stationary_weight(self, w) -> Fraction:
        return walks.walk_weight(w, self.spec.gamma, self.spec.xi)

    def _swapped(self, w, which_up: int, which_down: int):
        ups = [k for k, s in enumerate(w) if s == 1]
        downs = [k for k, s in enumerate(w) if s == -1]
        new = list(w)
        a, b = ups[which_up], downs[which_down]
        new[a], new[b] = new[b], new[a]
        return tuple(new)

    def _law(self, w, slot):
        new = self._swapped(w, *slot)
        f0, s0 = walks.tile_counts(w)
        f1, s1 = walks.tile_counts(new)
        change = (f1 - f0, s1 - s0)
        accept = self._accept.get(change)
        if accept is None:
            accept = self._accept[change] = min(1, self.spec.gamma ** change[0] * self.spec.xi ** change[1])
        return accept, new, w


KERNELS: dict[str, type[Kernel]] = {
    cls.kind: cls
    for cls in (
        NearestNeighborChain, InversionChain, TreeChain, OnedChain, AsepChain, WalkChain, WalkTranspositionChain,
    )
}


def build(kind: str, model: Model, n: int | None = None) -> Kernel:
    """The ``kind`` kernel of a parsed model; ``n``, when given, must be its size."""
    kernel = KERNELS[kind].from_model(model, n)
    if n is not None and n != kernel.n:
        raise ValueError(f"model has n={kernel.n}, requested n={n}")
    return kernel


# -- observables and the run loop ------------------------------------------------


def inversion_observable(state) -> float:
    return float(perms.inversion_count(state))


def max_height_observable(state) -> float:
    return float(walks.max_height(state))


OBSERVABLES: dict[str, Callable] = {
    "inversions": inversion_observable,
    "max-height": max_height_observable,
    "value": lambda state: float(state) if isinstance(state, int) else float("nan"),
    "order-pairs": lambda s: float(AsepChain.order_pairs(s)),
}


@dataclass
class Trajectory:
    final_state: object
    steps: int
    seed: int
    observable: str
    records: list = field(default_factory=list)  # (step, value)
    moves: int = 0


def run(kernel, start, steps: int, seed: int, stride: int = 0) -> Trajectory:
    """Deterministic trajectory: same (kernel, start, steps, seed) -> same output."""
    rng = BlockUniforms(seed)
    obs = OBSERVABLES[kernel.observable]
    state = start
    traj = Trajectory(final_state=start, steps=steps, seed=seed, observable=kernel.observable)
    if stride:
        traj.records.append((0, obs(state)))
    moves = 0
    for t in range(1, steps + 1):
        state, moved = kernel.step(state, rng)
        moves += moved
        if stride and t % stride == 0:
            traj.records.append((t, obs(state)))
    traj.final_state = state
    traj.moves = moves
    return traj
