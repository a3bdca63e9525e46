"""
Staircase walks and the fluctuating-bias geometry:

- the worked mapping sends small labels to +1 and closes at height 0
- walk <-> permutation codec round-trips on the sorted-half support
- tile counts match a brute-force column scan and respect the exact
  diagonal rule; toggling one square moves exactly one tile class
- cut classes partition by max height around level n - isqrt(n)
- integer walk codes round-trip, sort in all_walks order, and carry the
  tile counts and max height of their walk (random walks up to n = 12,
  every walk up to n = 6)
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permchains.perms import all_permutations
from permchains.walks import (
    all_walks,
    check_walk,
    class_weight,
    code_to_walk,
    cut_class,
    cut_level,
    exceeds_diag,
    heights,
    height_profile,
    max_height,
    tile_counts,
    to_staircase_walk,
    walk_arrays,
    walk_to_permutation,
)

from support import walk_to_code

EXAMPLE_PERM = (5, 1, 7, 8, 4, 3, 6, 2)
EXAMPLE_WALK = (-1, 1, -1, -1, 1, 1, -1, 1)


def test_worked_example():
    assert to_staircase_walk(EXAMPLE_PERM) == EXAMPLE_WALK
    assert heights(EXAMPLE_WALK) == (-1, 0, -1, -2, -1, 0, -1, 0)
    assert max_height(EXAMPLE_WALK) == 0
    assert heights(EXAMPLE_WALK)[-1] == 0


def test_identity_maps_to_staircase():
    assert to_staircase_walk(tuple(range(1, 9))) == (1, 1, 1, 1, -1, -1, -1, -1)


def test_rejects_odd_and_unbalanced():
    with pytest.raises(ValueError):
        to_staircase_walk((1, 2, 3))
    with pytest.raises(ValueError):
        check_walk((1, 1, -1))
    with pytest.raises(ValueError):
        check_walk((1, 1, 1, -1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_permutation_roundtrip(n):
    for w in all_walks(n):
        assert to_staircase_walk(walk_to_permutation(w)) == w


def test_all_walks_count():
    for n in (2, 3, 4, 5):
        assert len(all_walks(n)) == math.comb(2 * n, n)


def brute_tile_counts(w):
    """Column scan oracle: tile (x, y) is under the walk when the path height
    over column x is at least y; steep when x + y - n >= n - sqrt(n)."""
    n = len(w) // 2
    col_height = []
    downs = 0
    for s in w:
        if s == -1:
            downs += 1
        else:
            col_height.append(n - downs)
    flat = steep = 0
    for x, hh in enumerate(col_height, start=1):
        for y in range(1, hh + 1):
            # float comparison is safe: sqrt is exact for square n and the
            # threshold is irrational otherwise, so no integer ever ties
            if x + y - n >= n - math.sqrt(n):
                steep += 1
            else:
                flat += 1
    return flat, steep


@pytest.mark.parametrize("n", [4, 5])
def test_tile_counts_against_brute_force(n):
    for w in all_walks(n):
        assert tile_counts(w) == brute_tile_counts(w)


def test_exceeds_diag_exact():
    for n in range(4, 30):
        for t in range(-2, 2 * n):
            # integer t clears the irrational threshold iff it reaches the level
            assert exceeds_diag(t, n) == (t >= n - math.sqrt(n))
        assert cut_level(n) == math.ceil(n - math.sqrt(n))


def test_square_toggle_changes_one_tile():
    n = 4
    for w in all_walks(n):
        f0, s0 = tile_counts(w)
        for pos in range(2 * n - 1):
            if (w[pos], w[pos + 1]) != (-1, 1):
                continue
            new = list(w)
            new[pos], new[pos + 1] = 1, -1
            f1, s1 = tile_counts(tuple(new))
            assert (f1 - f0) + (s1 - s0) == 1
            assert (f1 - f0, s1 - s0) in ((1, 0), (0, 1))


@pytest.mark.parametrize("n", [4, 5, 9])
def test_cut_classes_partition(n):
    level = cut_level(n)
    assert level == n - math.isqrt(n)
    for w in all_walks(n) if n < 6 else all_walks(n)[:500]:
        h = max_height(w)
        cls = cut_class(w)
        assert cls == (1 if h < level else (2 if h == level else 3))
        wide = cut_class(w, widened=True)
        assert wide == (1 if h < level else (2 if h <= level + 1 else 3))


def test_low_class_has_no_steep_tiles():
    for n in (4, 5):
        for w in all_walks(n):
            if cut_class(w) == 1:
                assert tile_counts(w)[1] == 0


def test_height_profile_totals():
    n = 5
    prof = height_profile(n)
    total = sum(cnt for table in prof.counts.values() for cnt in table.values())
    assert total == math.comb(2 * n, n)
    # class weights at gamma = xi = 1 count states
    tables = prof.class_table()
    assert sum(class_weight(tables[c], Fraction(1), Fraction(1)) for c in (1, 2, 3)) == total


# -- integer walk codes -------------------------------------------------------------


@st.composite
def walk_lists(draw):
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.permutations([1] * n + [-1] * n), min_size=1, max_size=8))


def assert_rows_match(arrays, ws):
    assert arrays.flat.tolist() == [tile_counts(w)[0] for w in ws]
    assert arrays.steep.tolist() == [tile_counts(w)[1] for w in ws]
    assert arrays.max_height.tolist() == [max_height(w) for w in ws]
    assert (2 * arrays.steps.astype(int) - 1).tolist() == [list(w) for w in ws]


@given(walk_lists())
def test_walk_codes_on_random_walks(case):
    n, ws = case
    ws = [tuple(w) for w in ws]
    codes = [walk_to_code(w) for w in ws]
    assert [code_to_walk(c, n) for c in codes] == ws
    # integer order is the all_walks (lexicographic) order
    assert sorted(range(len(ws)), key=codes.__getitem__) == sorted(range(len(ws)), key=ws.__getitem__)
    arrays = walk_arrays(n, np.array(codes))
    assert arrays.codes.tolist() == codes
    assert_rows_match(arrays, ws)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_walk_arrays_exhaustive(n):
    ws = all_walks(n)
    arrays = walk_arrays(n)
    assert arrays.codes.tolist() == [walk_to_code(w) for w in ws]
    assert [arrays.walk(k) for k in range(len(ws))] == ws
    assert_rows_match(arrays, ws)
