"""
Permutations of the integers 1..n in one-line notation.

Permutations are plain tuples ``(sigma(1), ..., sigma(n))`` over the labels
1..n.  Positions are 0-based inside the code; labels are 1-based everywhere,
including file formats and reports.

The inversion table of a permutation records, for each label i, how many
larger labels appear before i.  Entry i ranges over 0..n-i, and the map is a
bijection onto the set of all such tables.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence


def check_permutation(entries: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a permutation of 1..n to a tuple.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    sigma = tuple(int(v) for v in entries)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma}")
    return sigma


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def reversal(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def adjacent_swap(sigma: Sequence[int], pos: int) -> tuple[int, ...]:
    """Swap positions pos and pos+1 (0-based)."""
    out = list(sigma)
    out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return tuple(out)


def swap_values(sigma: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """Exchange the positions of the labels a and b."""
    out = list(sigma)
    ia, ib = out.index(a), out.index(b)
    out[ia], out[ib] = b, a
    return tuple(out)


def inversion_count(sigma: Sequence[int]) -> int:
    n = len(sigma)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )


def inversion_table(sigma: Sequence[int]) -> tuple[int, ...]:
    """Entry i counts labels j > i placed before i in sigma.

    >>> inversion_table((8, 1, 5, 3, 7, 4, 6, 2))
    (1, 7, 2, 3, 1, 2, 1, 0)
    """
    sigma = check_permutation(sigma)
    n = len(sigma)
    pos = {v: k for k, v in enumerate(sigma)}
    table = []
    for i in range(1, n + 1):
        table.append(sum(1 for j in range(i + 1, n + 1) if pos[j] < pos[i]))
    return tuple(table)


def permutation_from_inversion_table(table: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`inversion_table`.

    Label i goes into the (table[i]+1)-st free slot, scanning left to right,
    for i = 1, 2, ..., n in that order.

    >>> permutation_from_inversion_table((1, 7, 2, 3, 1, 2, 1, 0))
    (8, 1, 5, 3, 7, 4, 6, 2)
    """
    n = len(table)
    out: list[int] = [0] * n
    for i, x in enumerate(table, start=1):
        if not (0 <= x <= n - i):
            raise ValueError(f"entry {i} out of range 0..{n - i}: {x}")
        free = -1
        seen = 0
        for k in range(n):
            if out[k] == 0:
                seen += 1
                if seen == x + 1:
                    free = k
                    break
        out[free] = i
    return tuple(out)


def mirror(sigma: Sequence[int]) -> tuple[int, ...]:
    """Reverse the order and replace each label v by n+1-v.

    Conjugating by this map swaps the roles of "small" and "large" labels
    while preserving adjacency, so a chain biased by the smaller label of
    each pair turns into one biased by the larger label.
    """
    n = len(sigma)
    return tuple(n + 1 - v for v in reversed(sigma))
