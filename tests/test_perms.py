"""
Permutation and inversion-table behavior:

- the worked 8-element example encodes and decodes correctly
- the codec is a bijection on all of S_n for small n
- S_n is enumerated lexicographically: identity first, reversal last
- table entries stay inside 0..n-i and sum to the inversion count
- decoding rejects out-of-range entries
"""
import itertools

import pytest

from permchains.perms import (
    adjacent_swap,
    all_permutations,
    check_permutation,
    identity,
    inversion_count,
    inversion_table,
    mirror,
    permutation_from_inversion_table,
    reversal,
    swap_values,
)

EXAMPLE = (8, 1, 5, 3, 7, 4, 6, 2)
# label 2 sits after six of its seven larger labels; the sum over labels of
# larger-labels-before equals the direct inversion count (16)
EXAMPLE_TABLE = (1, 6, 2, 3, 1, 2, 1, 0)


def brute_table(sigma):
    n = len(sigma)
    pos = {v: k for k, v in enumerate(sigma)}
    return tuple(
        sum(1 for j in range(i + 1, n + 1) if pos[j] < pos[i]) for i in range(1, n + 1)
    )


def test_worked_example():
    assert inversion_table(EXAMPLE) == EXAMPLE_TABLE
    assert permutation_from_inversion_table(EXAMPLE_TABLE) == EXAMPLE
    assert sum(EXAMPLE_TABLE) == inversion_count(EXAMPLE) == 16


def test_identity_and_reversal():
    assert inversion_table(identity(6)) == (0,) * 6
    assert inversion_table(reversal(6)) == (5, 4, 3, 2, 1, 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_roundtrip_exhaustive(n):
    states = list(all_permutations(n))
    assert states == sorted(states) and states[0] == identity(n) and states[-1] == reversal(n)
    for sigma in states:
        table = inversion_table(sigma)
        assert table == brute_table(sigma)
        assert all(0 <= x <= n - i for i, x in enumerate(table, start=1))
        assert permutation_from_inversion_table(table) == sigma
        assert sum(table) == inversion_count(sigma)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        permutation_from_inversion_table((1, 7, 2, 3, 1, 2, 1, 0))
    with pytest.raises(ValueError):
        permutation_from_inversion_table((-1, 0))


def test_check_permutation_rejects():
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((0, 1, 2))


def test_swap_helpers():
    assert adjacent_swap((1, 2, 3), 1) == (1, 3, 2)
    assert swap_values((3, 1, 2, 4), 3, 4) == (4, 1, 2, 3)


def test_mirror_is_involution():
    for sigma in all_permutations(5):
        assert mirror(mirror(sigma)) == sigma
    assert mirror((1, 2, 3)) == (1, 2, 3)
    assert mirror((2, 1, 3)) == (1, 3, 2)
