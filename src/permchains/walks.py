"""
Staircase walks: sequences of n up-steps (+1) and n down-steps (-1).

A walk is the image of a permutation of 1..2n in which the labels 1..n map to
+1 and the labels n+1..2n map to -1.  Geometrically it is a lattice path from
(0, n) to (n, 0) (+1 = right, -1 = down); the quantity tracked everywhere
below is the prefix-sum height h_k, whose lattice reading is x+y = n + h_k at
the path corner after k steps.

Unit squares (tiles) under the path are indexed by their top-right lattice
corner (x, y), 1 <= x, y <= n.  A tile is "steep" when x + y - n clears the
threshold n - sqrt(n); steep tiles carry the heavy swap ratio xi, the rest the
near-critical ratio gamma.  The same integer predicate drives the swap
probabilities of the fluctuating-bias chains, so walk weights factor exactly
as gamma^(#flat tiles) * xi^(#steep tiles).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._common import check_walk_count
from .perms import check_permutation


def check_walk(steps: Sequence[int]) -> tuple[int, ...]:
    w = tuple(int(s) for s in steps)
    if len(w) % 2 or any(s not in (-1, 1) for s in w):
        raise ValueError("walk must be an even-length sequence over {-1, +1}")
    if sum(w) != 0:
        raise ValueError("walk must have equal numbers of +1 and -1 steps")
    return w


def to_staircase_walk(sigma: Sequence[int]) -> tuple[int, ...]:
    """Map a permutation of 1..2n to steps: +1 for labels <= n, else -1.

    >>> to_staircase_walk((5, 1, 7, 8, 4, 3, 6, 2))
    (-1, 1, -1, -1, 1, 1, -1, 1)
    """
    sigma = check_permutation(sigma)
    if len(sigma) % 2:
        raise ValueError("need an even number of labels")
    n = len(sigma) // 2
    return tuple(1 if v <= n else -1 for v in sigma)


def walk_to_permutation(w: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`to_staircase_walk` on its image.

    Small labels are placed in increasing order at the +1 positions and large
    labels in increasing order at the -1 positions, matching the chains in
    which each half stays internally sorted.
    """
    w = check_walk(w)
    n = len(w) // 2
    small, large = iter(range(1, n + 1)), iter(range(n + 1, 2 * n + 1))
    return tuple(next(small) if s == 1 else next(large) for s in w)


def heights(w: Sequence[int]) -> tuple[int, ...]:
    out = []
    h = 0
    for s in w:
        h += s
        out.append(h)
    return tuple(out)


def max_height(w: Sequence[int]) -> int:
    return max(heights(w))


def all_walks(n: int) -> list[tuple[int, ...]]:
    """All C(2n, n) walks, lexicographic with -1 < +1."""
    out = []
    for ups in itertools.combinations(range(2 * n), n):
        w = [-1] * (2 * n)
        for k in ups:
            w[k] = 1
        out.append(tuple(w))
    out.sort()
    return out


# -- integer walk codes ---------------------------------------------------------
#
# A walk of 2n steps is coded as a 2n-bit integer, up = 1, first step in the
# most significant bit.  Integer order then equals the lexicographic order of
# all_walks, so a walk's index is a binary search over the sorted codes.


def code_to_walk(code: int, n: int) -> tuple[int, ...]:
    return tuple(1 if code >> k & 1 else -1 for k in range(2 * n - 1, -1, -1))


@dataclass(frozen=True)
class WalkArrays:
    """Per-walk statistics of a set of walk codes, one row per code.

    ``steps`` is the 0/1 step matrix (1 = up); ``flat``, ``steep`` and
    ``max_height`` equal :func:`tile_counts` and :func:`max_height` row by row.
    """

    n: int
    codes: np.ndarray
    steps: np.ndarray
    flat: np.ndarray
    steep: np.ndarray
    max_height: np.ndarray

    def walk(self, row: int) -> tuple[int, ...]:
        return code_to_walk(int(self.codes[row]), self.n)


def _sorted_codes(n: int) -> np.ndarray:
    """Ascending codes of all 2n-bit integers with n set bits."""
    # by[k]: ascending codes of the current length with k set bits and at
    # most n clear ones; a new top bit 0 keeps a code below every code whose
    # new top bit is 1
    none = np.zeros(0, dtype=np.int64)
    by = {0: np.zeros(1, dtype=np.int64)}
    for length in range(2 * n):
        top = np.int64(1) << length
        by = {
            k: np.concatenate([by.get(k, none), top + by.get(k - 1, none)])
            for k in range(max(0, length + 1 - n), min(length + 1, n) + 1)
        }
    return by[n]


def walk_arrays(n: int, codes: np.ndarray | None = None) -> WalkArrays:
    """Step matrix, tile counts and max heights of the given codes (default: all walks).

    Vectorised :func:`tile_counts`: the up-step at position k closes column
    x = (ups through k) at height n - (downs before k), and that column holds
    max(0, height - max(n + level - x, 1) + 1) steep tiles.
    """
    codes = _sorted_codes(n) if codes is None else np.asarray(codes, dtype=np.int64)
    # per-step values stay within +-2 * 2n, so int8 holds them for every n
    # whose codes fit in int64
    steps = np.empty((len(codes), 2 * n), dtype=np.int8)
    for k in range(2 * n):
        steps[:, k] = codes >> (2 * n - 1 - k) & 1
    ups = np.cumsum(steps, axis=1, dtype=np.int8)
    through = np.arange(1, 2 * n + 1, dtype=np.int8)
    column = n - (through - ups)
    steep_in_column = np.clip(column - np.maximum(n + cut_level(n) - ups, 1) + 1, 0, None)
    total = (steps * column).sum(axis=1, dtype=np.int64)
    steep = (steps * steep_in_column).sum(axis=1, dtype=np.int64)
    return WalkArrays(
        n=n,
        codes=codes,
        steps=steps,
        flat=total - steep,
        steep=steep,
        max_height=(2 * ups - through).max(axis=1).astype(np.int64),
    )


# -- the fluctuating-bias threshold ------------------------------------------


def cut_level(n: int) -> int:
    """Integer height level of the bottleneck: ceil(n - sqrt(n)) = n - isqrt(n)."""
    return n - math.isqrt(n)


def exceeds_diag(t: int, n: int) -> bool:
    """Exact test for t >= n - sqrt(n), no floating point.

    Used both for classifying tiles (t = x + y - n) and for picking the swap
    probability of a (small, large) label pair (t = small - (large - n) + 1).
    """
    return t >= cut_level(n)


def tile_counts(w: Sequence[int]) -> tuple[int, int]:
    """(flat, steep) tile counts under the walk.

    Column x (1-based) holds tiles y = 1..H(x) where H(x) is the path height
    over that column; the tile (x, y) is steep iff x + y - n >= n - sqrt(n).
    """
    return count_tiles(check_walk(w))


def count_tiles(w: Sequence[int]) -> tuple[int, int]:
    """:func:`tile_counts` of a walk already known to be valid, unchecked."""
    n = len(w) // 2
    level = cut_level(n)
    total = 0
    steep = 0
    downs_seen = 0
    col = 0
    for s in w:
        if s == -1:
            downs_seen += 1
        else:
            col += 1
            height = n - downs_seen
            total += height
            y_min = n + level - col  # the lowest steep tile: col + y - n >= level
            if height >= y_min:
                steep += height - max(y_min, 1) + 1
    return total - steep, steep


def walk_weight(w: Sequence[int], gamma: Fraction, xi: Fraction) -> Fraction:
    flat, steep = tile_counts(w)
    return gamma**flat * xi**steep


def height_class(h: int, n: int, widened: bool = False) -> int:
    """1, 2, or 3 by max height h below / at / above the bottleneck level.

    The widened variant counts level+1 as part of the middle class, which is
    the right cut for chains that can change the max height by 2 per move.
    """
    level = cut_level(n)
    top = level + 1 if widened else level
    if h < level:
        return 1
    return 2 if h <= top else 3


def cut_class(w: Sequence[int], widened: bool = False) -> int:
    """The :func:`height_class` of the walk's max height."""
    return height_class(max_height(w), len(w) // 2, widened)


@dataclass(frozen=True)
class HeightProfile:
    """Per max-height tile statistics: counts[h][(flat, steep)] = #walks."""

    n: int
    counts: dict

    def class_table(self, widened: bool = False) -> dict[int, dict]:
        """Merge heights into cut classes 1, 2, 3."""
        out = {1: {}, 2: {}, 3: {}}
        for h, table in self.counts.items():
            bucket = out[height_class(h, self.n, widened)]
            for key, cnt in table.items():
                bucket[key] = bucket.get(key, 0) + cnt
        return out


@lru_cache(maxsize=None)
def height_profile(n: int) -> HeightProfile:
    """Bucket the tile counts of all walks by max height; more than ``WALK_CAP``
    walks raise ``CapExceeded`` before any is enumerated."""
    check_walk_count(n)
    a = walk_arrays(n)
    side = n * n + 1  # heights, flat and steep counts all lie in 0..n^2
    keys, sizes = np.unique((a.max_height * side + a.flat) * side + a.steep, return_counts=True)
    counts: dict[int, dict] = {}
    for key, size in zip(keys.tolist(), sizes.tolist()):
        rest, steep = divmod(key, side)
        h, flat = divmod(rest, side)
        counts.setdefault(h, {})[(flat, steep)] = size
    return HeightProfile(n=n, counts=counts)


def class_weight(table: dict, gamma: Fraction, xi) -> Fraction:
    """Sum of gamma^flat * xi^steep over a {(flat, steep): count} table."""
    total = 0
    for (flat, steep), cnt in table.items():
        total += cnt * gamma**flat * xi**steep
    return total
