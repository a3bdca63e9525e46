"""
Single-step kernels for the sampling chains, plus a seeded run loop.

Every kernel writes its transition law once, as a list of selection slots
``_slots`` of (slot, exact selection mass) and a rule ``_law(state, slot)``
returning ``(p, yes, no)``: with probability p the chain goes to ``yes``,
otherwise to ``no``.  The base class derives both views from it:

* ``step(state, rng)`` draws one transition.  A step spends ``uniforms``
  uniforms in a frozen order: the selection (``_draw``, by the kernel's rule
  ``_select``), then one acceptance uniform u, going to ``yes`` when u < p.
  A blocked slot has the law ``(1, state, state)``, so it still spends its
  acceptance draw, and trajectories are reproducible from (kernel, start,
  steps, seed) alone.  Every uniform u is k / 2**53 for an integer k, and
  the rules read k: the acceptance test compares u < p on integers, never
  through a float rounding of p, and a uniform slot pick (``_pick``) is
  floor(k * count / 2**53), also on integers.  ``_advance`` is the one loop
  that applies laws and acceptance tests; ``step`` runs it for one step.
* ``transition_distribution(state)`` returns the exact one-step distribution
  as a dict of successor -> Fraction, which the analysis code turns into
  matrices.  Self-loops are folded into one hold entry, inserted last.
  Probabilities sum to exactly 1.  Each kernel memoizes its slot products
  mass * p and mass * (1 - p) by (slot index, p) (``SlotTerms``), and sums
  the hold on their integer numerators over the lcm of the memoized
  denominators: one Fraction per row for the hold, and the same rows, in the
  same order, as the per-slot Fraction loop the tests keep as the oracle.

Kernels:

* ``NearestNeighborChain``   adjacent transpositions under a bias table.
* ``InversionChain``         +-1 moves on one inversion-table coordinate;
                             equivalently, swapping a label with the nearest
                             larger label across smaller ones.
* ``TreeChain``              transpositions that are adjacent inside one
                             node string of the league-tree encoding.
* ``OnedChain``              biased walk on 0..k with holding boundaries.
* ``AsepChain``              adjacent exclusion moves on a binary string.
* ``WalkChain``              adjacent (+1, -1) swaps on staircase walks, by
                             two swap probabilities (flat and steep tiles).
* ``WalkTranspositionChain`` arbitrary (+1, -1) swaps with Metropolis
                             acceptance under the same walk weights; the
                             change in tile counts is read from the tiles
                             between the two paths, not by recounting both.

Blocked proposals count as holds, never as errors.

Each kernel class builds itself from a parsed model (``from_model``, with its
coercion notice and usage errors) and declares its size ``n``, its
``observable``, a ``default_start()`` and ``space_size()``, which counts
``space()`` without enumerating it.  ``build`` looks kinds up in ``KERNELS``.

``run`` draws the k of ``make_rng(seed)``'s uniforms ``BLOCK`` steps at a time;
Philox gives an array draw the same values as repeated scalar draws.  It makes
a block's picks with one array expression of ``_select`` and hands the block
to ``_advance``, so a trajectory is the one repeated ``step`` calls draw.
Uniforms per step: 2 for the uniform picks of nn, tree, asep, walk and
walk-transposition (pick, acceptance); 3 for inv (its float cumulative pick
of a slot pair, a fair direction bit k >= 2**52, the acceptance); 1 for oned.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, combinations, count
from typing import Callable, NamedTuple

import numpy as np

from . import perms, walks
from ._common import as_probability
from .bias import BiasTable, CywSpec, Model, SlowMixSpec, choose_your_weapon, league_hierarchy, positive_bias, weight_exact
from .trees import LeagueTree, complete_tree

HALF = Fraction(1, 2)
# numpy's uniform doubles are k * 2**-53 with an integer 0 <= k < 2**53
UNIT_BITS = 53
UNIT = float(1 << UNIT_BITS)
BLOCK = 1024  # steps per array draw in ``run``
PICK_CAP = 1 << 35  # the most slots ``_pick`` splits exactly in int64


class StepOutcome(NamedTuple):
    state: object
    moved: bool


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the documented draw order makes runs portable."""
    return np.random.Generator(np.random.Philox(seed))


def _integers(rng, count: int) -> np.ndarray:
    """The k = u * 2**53 of the next ``count`` uniforms, as int64 (the product is exact)."""
    return (rng.random(count) * UNIT).astype(np.int64)


def _notice(text: str):
    print(f"notice: {text}", file=sys.stderr)


def _advance(law, state, slots, ks, first: int = 0, stride: int = 0, records=None, obs=None) -> tuple:
    """Steps first + 1, first + 2, ... from ``state``, one per slot and acceptance k: the law
    ``(p, yes, no)`` goes to ``yes`` when u = k / 2**53 < p, compared exactly on integers for a
    Fraction or int p.  With ``stride``, (t, obs(state)) is appended to ``records`` at every t
    divisible by it.  Returns the last state and the number of steps that moved."""
    moves = 0
    for t, slot, k in zip(count(first + 1), slots, ks):
        p, yes, no = law(state, slot)
        num, den = p.as_integer_ratio()
        new = yes if k * den < num << UNIT_BITS else no
        moves += new != state
        state = new
        if stride and t % stride == 0:
            records.append((t, obs(state)))
    return state, moves


def _pick(k, count: int):
    """floor(k * count / 2**53), on an int k or an int64 array: each slot gets floor or ceil
    of 2**53 / count values of k.  For k = a * 2**26 + b it sums a * count + floor(b * count
    / 2**26), whose terms stay below 2**63 for count <= ``PICK_CAP``."""
    return ((k >> 26) * count + (((k & ((1 << 26) - 1)) * count) >> 26)) >> 27


class Kernel:
    """A transition law given by ``_slots`` and ``_law``; see the module docstring."""

    kind: str
    observable: str  # a key of OBSERVABLES
    n: int
    _slots: list  # (slot, exact selection mass)
    uniforms = 2  # per step: the slot pick, then the acceptance

    def _law(self, state, slot) -> tuple:
        raise NotImplementedError

    def _uniform(self, slots) -> list:
        """Slots of equal selection mass; a kernel needs at least one."""
        if not slots:
            raise ValueError(f"{self.kind} kernel has no move at this size")
        if len(slots) > PICK_CAP:
            raise ValueError(f"{self.kind} kernel has {len(slots)} slots; an exact pick allows at most {PICK_CAP}")
        return [(slot, Fraction(1, len(slots))) for slot in slots]

    def _select(self, k=0):
        """The slot index of a step's pick k (an int, or an int64 array elementwise);
        with no pick uniform (``uniforms == 1``) the one slot."""
        return _pick(k, len(self._slots))

    def _draw(self, rng):
        return self._slots[self._select(*(int(rng.random() * UNIT) for _ in range(self.uniforms - 1)))][0]

    def step(self, state, rng) -> StepOutcome:
        slot = self._draw(rng)
        new, moves = _advance(self._law, state, (slot,), (int(rng.random() * UNIT),))
        return StepOutcome(new, bool(moves))

    @cached_property
    def _terms(self) -> SlotTerms:
        return SlotTerms()

    def transition_distribution(self, state) -> dict:
        out: dict = {}
        terms = self._terms
        entries = terms.entries
        hold = 0  # numerator over terms.common
        for k, (slot, mass) in enumerate(self._slots):
            p, yes, no = self._law(state, slot)
            key = (k, p.numerator, p.denominator)
            entry = entries.get(key)
            if entry is None:
                common = terms.common
                entry = terms.add(key, mass, p)
                hold *= terms.common // common  # the partial hold, over a grown denominator
            for target, (w, num) in zip((yes, no), entry):
                if w is None:
                    continue
                if target == state:
                    hold += num
                elif target in out:
                    out[target] += w
                else:
                    out[target] = w
        out[state] = Fraction(hold, terms.common)
        return out


class SlotTerms:
    """Memoized slot products of one kernel, for ``transition_distribution``.

    An entry, keyed by (slot index, p.numerator, p.denominator), holds the
    branch terms mass * p and mass * (1 - p), each as (Fraction, its numerator
    over ``common``), or (None, 0) for a zero branch.  ``common`` is the lcm
    of every memoized denominator, so holds are summed on integers.
    """

    def __init__(self):
        self.entries: dict[tuple[int, int, int], tuple] = {}
        self.common = 1

    def add(self, key, mass: Fraction, p) -> tuple:
        """Memoize a new key; when ``common`` grows, every entry's numerators
        are rescaled, and a caller's partial sums must be too."""
        ws = [(mass if prob == 1 else mass * prob) if prob else None for prob in (p, 1 - p)]
        common = math.lcm(self.common, *(w.denominator for w in ws if w is not None))
        if common != self.common:
            scale = common // self.common
            for k, entry in self.entries.items():
                self.entries[k] = tuple((w, num * scale) for w, num in entry)
            self.common = common
        entry = self.entries[key] = tuple(
            (None, 0) if w is None else (w, w.numerator * (common // w.denominator)) for w in ws
        )
        return entry


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
        # p[i][j] read unchecked: a state holds each of the labels 1..n once
        self._p = table._p

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "NearestNeighborChain":
        if model.kind in ("oned", "asep"):
            raise ValueError(f"chain nn cannot use model {model.kind}")
        size = model.n or n
        if size is None:
            raise ValueError("chain nn with a constant model needs --n")
        return cls(model.bias_table(size))

    def _law(self, sigma, pos):
        left, right = sigma[pos], sigma[pos + 1]
        new = list(sigma)
        new[pos], new[pos + 1] = right, left
        return self._p[right][left], tuple(new), sigma

    def min_hold_probability(self) -> Fraction:
        """Every state holds at least this often."""
        return min(
            min(self.table.p(i, j), self.table.p(j, i))
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


class InversionChain(PermutationKernel):
    """Move one inversion-table coordinate by +-1.

    Slot (label, side, acceptance, larger) swaps ``label`` with the nearest
    label on ``side`` (+1 after it, -1 before it) that is larger than it when
    ``larger`` holds and smaller otherwise, with probability ``acceptance``;
    with no such label the step holds.  The skipped labels are all smaller
    than both swapped ones in the min variant and all larger in the max
    variant, so a move changes one coordinate of the inversion table (of the
    mirrored permutation, in the max variant).

    In the min variant label i is selected with probability (n-i)/C(n,2), then
    a fair direction bit picks (i, +1, 1-r_i, True) or (i, -1, r_i, True).  The
    max variant moves L = n+1-i instead, by its own rank r_L, toward smaller
    labels: (L, -1, 1-r_L, False) or (L, +1, r_L, False).  Holds with
    probability at least 1/2.
    """

    kind = "inv"
    uniforms = 3  # the slot pair, the direction bit, the acceptance

    def __init__(self, spec: CywSpec):
        self.n = n = spec.n
        self.variant = spec.variant
        self.table = choose_your_weapon(spec)
        larger = self.variant == "min"
        # slot pair i has mass (n-i)/C(n,2) * 1/2 and moves label i (min) or
        # n+1-i (max), whose rank is r[i-1] of the ranks read from its end
        r, side = (spec.r, 1) if larger else (spec.r[::-1], -1)
        self._slots = [
            ((i if larger else n + 1 - i, b * side, accept, larger), Fraction(n - i, n * (n - 1)))
            for i in range(1, n)
            for b, accept in ((1, 1 - r[i - 1]), (-1, r[i - 1]))
        ]
        if not self._slots:
            raise ValueError(f"{self.kind} kernel has no move at this size")
        self._edges = np.array(list(accumulate((n - i) / (n * (n - 1) // 2) for i in range(1, n))))

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "InversionChain":
        if model.kind == "constant":
            if n is None:
                raise ValueError("chain inv with a constant model needs --n")
            p = positive_bias(model.p)
            _notice(f"constant model coerced to cyw with all ranks {p}")
            return cls(CywSpec(r=(p,) * (n - 1)))
        if model.kind != "cyw":
            raise ValueError("chain inv requires a cyw (or constant) model")
        return cls(model.cyw)

    def _select(self, pair, bit):
        # float cumulative pick of slot pair i by weight (n - i): the first pair whose edge
        # exceeds u, else the last (the float edges can end below u); then the bit u >= 1/2
        i = np.minimum(np.searchsorted(self._edges, pair / UNIT, side="right"), self.n - 2)
        return 2 * i + (bit >= 1 << (UNIT_BITS - 1))

    def _law(self, sigma, slot):
        label, side, accept, larger = slot
        pos = q = sigma.index(label)
        end = len(sigma) if side == 1 else -1
        while (q := q + side) != end:
            if (sigma[q] > label) == larger:
                new = list(sigma)
                new[pos], new[q] = sigma[q], label
                return accept, tuple(new), sigma
        return 1, sigma, sigma

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
            q = positive_bias(model.p)
            _notice(f"constant model coerced to a complete league tree with q = {q}")
            return cls(complete_tree(n, q))
        if model.kind != "league":
            raise ValueError("chain tree requires a league (or constant) model")
        return cls(model.tree)

    def _law(self, sigma, slot):
        a, b, q, under = slot
        i, j = sigma.index(a), sigma.index(b)
        lo, hi = (i, j) if i < j else (j, i)
        if not under.isdisjoint(sigma[lo + 1 : hi]):
            return 1, sigma, sigma
        swapped = list(sigma)
        swapped[i], swapped[j] = b, a
        # sigma is the pair in order when a comes first, and out of order otherwise
        return (q, sigma, tuple(swapped)) if i < j else (q, tuple(swapped), sigma)

    def min_hold_probability(self) -> Fraction:
        qs = [self.tree.q_of(v) for v in self.tree.internal_ids()]
        return min(min(q, 1 - q) for q in qs)


class OnedChain(Kernel):
    """Walk on 0..k: up with probability r, down with 1-r, clamped holds."""

    kind = "oned"
    observable = "value"
    uniforms = 1  # the acceptance; the one slot needs no pick

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

    def _law(self, h: int, slot):
        k = self.k
        if not 0 <= h <= k:
            raise ValueError(f"state out of range 0..{k}: {h}")
        return self.r, h + 1 if h < k else k, h - 1 if h else 0


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
    """A kernel on the staircase walks with n up-steps and n down-steps.

    A (+1, -1) pair whose tile is steep is ordered with probability ``steep``,
    any other with ``flat``; their odds ``gamma`` and ``xi`` give the one
    stationary weight gamma^#flat * xi^#steep, so law and weight agree.
    """

    observable = "max-height"

    def __init__(self, n: int, flat: Fraction, steep: Fraction):
        self.n = n
        self.flat, self.steep = flat, steep
        self.gamma = flat / (1 - flat)
        self.xi = steep / (1 - steep)
        self.level = walks.cut_level(n)

    def space(self):
        return walks.all_walks(self.n)

    def space_size(self) -> int:
        return math.comb(2 * self.n, self.n)

    def default_start(self) -> tuple:
        return (-1,) * self.n + (1,) * self.n

    def stationary_weight(self, w) -> Fraction:
        return walks.walk_weight(w, self.gamma, self.xi)


class WalkChain(WalkKernel):
    """Adjacent (+1, -1) swaps on staircase walks.

    The pair of the l-th up-step and the m-th down-step has a steep tile when
    ``walks.exceeds_diag(l - m + 1, n)``, that is l - m + 1 >= ``level``.
    Use :meth:`fluctuating` for the slow-mixing family and :meth:`constant`
    for a uniform-bias reference chain of the same size, whose two
    probabilities are equal.
    """

    kind = "walk"

    def __init__(self, n: int, flat: Fraction, steep: Fraction):
        super().__init__(n, flat, steep)
        self._slots = self._uniform(range(2 * n - 1))

    @classmethod
    def fluctuating(cls, spec: SlowMixSpec) -> "WalkChain":
        return cls(spec.n, spec.flat, spec.steep)

    @classmethod
    def constant(cls, n: int, p) -> "WalkChain":
        q = as_probability(p)
        if q in (0, 1):
            raise ValueError(f"constant walk bias {q} is degenerate: every swap goes one way; use 0 < p < 1")
        return cls(n, q, q)

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "WalkChain":
        if model.kind == "slowmix":
            return cls.fluctuating(model.slowmix)
        if model.kind == "constant":
            if n is None:
                raise ValueError("chain walk with a constant model needs --n (half size)")
            return cls.constant(n, model.p)
        raise ValueError("chain walk requires a slowmix or constant model")

    def _law(self, w, pos: int):
        left, right = w[pos], w[pos + 1]
        if left == right:
            return 1, w, w
        ups = w[: pos + 2].count(1)  # l, and m = pos + 2 - l
        p = self.steep if 2 * ups - pos - 1 >= self.level else self.flat
        flipped = w[:pos] + (right, left) + w[pos + 2 :]
        # w itself is the pair set to (+1, -1) when it starts with an up-step
        return (p, w, flipped) if left == 1 else (p, flipped, w)


class WalkTranspositionChain(WalkKernel):
    """Swap any (+1, -1) step pair with Metropolis acceptance.

    The pair is selected uniformly among the n*n (up-step, down-step) index
    pairs; acceptance is min(1, weight ratio) under the fluctuating-bias walk
    weights.  A single swap changes the maximum height by at most 2.  The ratio
    depends only on the change (flat, steep) of the tile counts, so each
    class's acceptance is built once per kernel.

    The change is read from the tiles between the two paths.  Swapping the
    up-step at a with the down-step at b moves the path between them by one
    diagonal unit, so with lo, hi = sorted((a, b)) there is one tile per
    position k in [lo, hi), and it is steep iff the higher path's height after
    step k is at least ``level``.  The higher path is the old one when a < b
    (its tiles are removed) and the new one otherwise (they are added); its
    height after step lo is one above the common height before it, and then
    follows the old steps lo + 1 .. hi - 1.
    """

    kind = "walk-transposition"

    def __init__(self, spec: SlowMixSpec):
        super().__init__(spec.n, spec.flat, spec.steep)
        self.spec = spec
        n = spec.n
        self._slots = self._uniform([divmod(idx, n) for idx in range(n * n)])
        self._accept: dict[tuple[int, int], Fraction | int] = {}

    @classmethod
    def from_model(cls, model: Model, n: int | None) -> "WalkTranspositionChain":
        if model.kind != "slowmix":
            raise ValueError("chain walk-transposition requires a slowmix model")
        return cls(model.slowmix)

    def _law(self, w, slot):
        ups, downs = slot  # up-steps and down-steps left to pass before a and b
        a = b = -1
        for k, s in enumerate(w):
            if s == 1:
                if not ups:
                    a = k
                    if b >= 0:
                        break
                ups -= 1
            else:
                if not downs:
                    b = k
                    if a >= 0:
                        break
                downs -= 1
        new = list(w)
        new[a], new[b] = -1, 1
        new = tuple(new)
        lo, hi = (a, b) if a < b else (b, a)
        level, steep = self.level, 0
        for h in accumulate(w[lo + 1 : hi], initial=sum(w[:lo]) + 1):
            if h >= level:
                steep += 1
        flat = hi - lo - steep
        change = (-flat, -steep) if a < b else (flat, steep)
        accept = self._accept.get(change)
        if accept is None:
            accept = self._accept[change] = min(1, self.gamma ** change[0] * self.xi ** change[1])
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
    rng = make_rng(seed)
    obs = OBSERVABLES[kernel.observable]
    law, uniforms = kernel._law, kernel.uniforms
    slots = [slot for slot, _ in kernel._slots]
    state = start
    traj = Trajectory(final_state=start, steps=steps, seed=seed, observable=kernel.observable)
    if stride:
        traj.records.append((0, obs(state)))
    moves = 0
    for first in range(0, steps, BLOCK):
        size = min(BLOCK, steps - first)
        *picks, accepts = _integers(rng, size * uniforms).reshape(size, uniforms).T
        picked = map(slots.__getitem__, np.broadcast_to(kernel._select(*picks), size).tolist())
        state, moved = _advance(law, state, picked, accepts.tolist(), first, stride, traj.records, obs)
        moves += moved
    traj.final_state = state
    traj.moves = moves
    return traj
