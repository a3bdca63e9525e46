"""
Bias tables and model constructors:

- complementarity holds exactly; positive-bias flags behave
- weights: uniform, single-pair, and the brute-force product oracle; the
  one-integer-product weight equals the former pairwise Fraction product
  exhaustively at n <= 6, and the integer pair numerators are exact
  complements over their denominators (hypothesis)
- choose-your-weapon and league constructors match their pair rules
- weak monotonicity clauses report correctly
- a table of more than 1,000 labels raises CapExceeded (importable from
  analysis) before any entry is asked for; 1,000 labels pass the check
- the slow-mixing family freezes within-half pairs and balances the cut; the
  integer signs of its bisection equal the Fraction gap's (the reference) at
  both bracket ends and every midpoint for n = 4..9, and the gap changes sign
  within solve_delta's stated relative bracket 1e-11 of xi for n = 4..11
  (hypothesis)
"""
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from permchains import walks
from permchains.bias import (
    BiasTable,
    CywSpec,
    SlowMixSpec,
    _gap_coefficients,
    _gap_sign,
    choose_your_weapon,
    constant_bias,
    is_weakly_monotone,
    league_hierarchy,
    parse_model_spec,
    slow_mixing_bias,
    solve_delta,
    weight_exact,
)
from permchains.perms import all_permutations, identity
from permchains.trees import caterpillar_tree, complete_tree

from support import cyw_spec, truncate_tree_demo


def test_complementarity_exact():
    for table in (
        constant_bias(5, "0.7"),
        choose_your_weapon(cyw_spec(5)),
        slow_mixing_bias(4)[0],
    ):
        for i in range(1, table.n + 1):
            for j in range(1, table.n + 1):
                if i != j:
                    assert table.p(i, j) + table.p(j, i) == 1


def test_positively_biased_flag():
    assert constant_bias(5, "0.7").is_positively_biased()
    assert constant_bias(3, "0.5").is_positively_biased()
    skew = BiasTable(3, lambda i, j: Fraction(2, 5))
    assert not skew.is_positively_biased()


def test_constant_bias_bounds():
    with pytest.raises(ValueError):
        constant_bias(4, "0.4")
    table = constant_bias(3, 1)
    assert table.p(1, 2) == 1 and table.p(2, 1) == 0


def test_weight_uniform_case():
    n = 5
    table = constant_bias(n, "0.5")
    for sigma in ((1, 2, 3, 4, 5), (5, 3, 1, 2, 4)):
        assert weight_exact(sigma, table) == Fraction(1, 2) ** math.comb(n, 2)


def test_weight_single_pair():
    table = constant_bias(2, "0.7")
    assert weight_exact((1, 2), table) == Fraction(7, 10)
    assert weight_exact((2, 1), table) == Fraction(3, 10)


def test_weight_brute_force_product():
    table = constant_bias(4, "0.7")
    sigma = (2, 1, 3, 4)
    expected = Fraction(1)
    for a, b in itertools.combinations(range(4), 2):
        expected *= table.p(sigma[a], sigma[b])
    assert weight_exact(sigma, table) == expected == Fraction(3, 10) * Fraction(7, 10) ** 5


def _pairwise_weight(sigma, table):
    """The former weight_exact, kept as the reference: a running Fraction
    product of p over the in-order position pairs."""
    out = Fraction(1)
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            out *= table.p(sigma[a], sigma[b])
            if out == 0:
                return Fraction(0)
    return out


def _zero_one_table(n: int) -> BiasTable:
    """Pairs with i + j divisible by 3 frozen (p = 0 or 1) so that even labels
    go first, which keeps some arrangements allowed; other pairs at 2/3."""
    return BiasTable(n, lambda i, j: Fraction(2, 3) if (i + j) % 3 else Fraction(int(not (i % 2 and j % 2 == 0))))


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_equals_the_pairwise_product_exhaustively(n):
    zeros = 0
    for table in (
        constant_bias(n, "0.7"),
        choose_your_weapon(cyw_spec(n)),
        league_hierarchy(truncate_tree_demo(n)),
        _zero_one_table(n),
    ):
        for sigma in all_permutations(n):
            w = weight_exact(sigma, table)
            assert w == _pairwise_weight(sigma, table)
            zeros += w == 0
    assert zeros > 0 or n < 3


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    probs = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
    upper = {(i, j): draw(probs) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return BiasTable(n, lambda i, j: upper[(i, j)])


@given(_tables(), st.data())
def test_integer_pairs_are_exact_complements(table, data):
    a, total = table.integer_pairs
    labels = range(1, table.n + 1)
    for i, j in itertools.permutations(labels, 2):
        denominator = table.p(i, j).denominator
        assert a[i][j] + a[j][i] == denominator
        assert Fraction(a[i][j], denominator) == table.p(i, j)
    assert total == math.prod(table.p(i, j).denominator for i, j in itertools.combinations(labels, 2))
    sigma = tuple(data.draw(st.permutations(labels)))
    assert weight_exact(sigma, table) == _pairwise_weight(sigma, table)


def test_weight_zero_is_distinguished():
    table, _ = slow_mixing_bias(4)
    bad = (2, 1) + tuple(range(3, 9))  # labels 1,2 out of order are frozen
    assert weight_exact(bad, table) == 0


def test_identity_is_a_mode_under_positive_bias():
    table = choose_your_weapon(cyw_spec(5))
    w_id = weight_exact(identity(5), table)
    assert all(weight_exact(s, table) <= w_id for s in all_permutations(5))


def test_normalization():
    for n in (4, 5, 6):
        table = choose_your_weapon(cyw_spec(n))
        z = sum(weight_exact(s, table) for s in all_permutations(n))
        acc = sum(float(weight_exact(s, table) / z) for s in all_permutations(n))
        assert abs(acc - 1.0) <= 1e-12


def test_weight_dimension_mismatch():
    with pytest.raises(ValueError):
        weight_exact((1, 2, 3), constant_bias(4, "0.7"))


def test_cyw_rules():
    spec = CywSpec(r=("0.6", "0.9"))
    table = choose_your_weapon(spec)
    assert table.p(1, 2) == table.p(1, 3) == Fraction(3, 5)
    assert table.p(2, 3) == Fraction(9, 10)
    # max variant keys on the larger label
    mx = choose_your_weapon(CywSpec(r=("0.6", "0.9"), variant="max"))
    assert mx.p(1, 2) == Fraction(3, 5)
    assert mx.p(1, 3) == mx.p(2, 3) == Fraction(9, 10)


def test_cyw_constant_special_case():
    n = 5
    spec = CywSpec(r=("0.7",) * (n - 1))
    a, b = choose_your_weapon(spec), constant_bias(n, "0.7")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert a.p(i, j) == b.p(i, j)


def test_cyw_bounds():
    with pytest.raises(ValueError):
        CywSpec(r=("0.4",))
    with pytest.raises(ValueError):
        CywSpec(r=("1.0",))


def test_league_matches_lca(demo_tree):
    table = league_hierarchy(demo_tree)
    assert table.p(1, 4) == Fraction(4, 5)
    assert table.p(4, 9) == Fraction(9, 10)
    assert table.p(5, 8) == Fraction(7, 10)
    for i in range(1, 10):
        for j in range(i + 1, 10):
            assert table.p(i, j) == demo_tree.lca_q(i, j)


def test_league_complete_tree_is_constant():
    a = league_hierarchy(complete_tree(6, "0.7"))
    b = constant_bias(6, "0.7")
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert a.p(i, j) == b.p(i, j)


def test_league_caterpillar_is_cyw():
    r = ("0.6", "0.7", "0.8", "0.9")
    a = league_hierarchy(caterpillar_tree(5, r))
    b = choose_your_weapon(CywSpec(r=r))
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert a.p(i, j) == b.p(i, j)


def test_league_swap_neutrality(demo_tree):
    # labels outside the lca subtree compare identically against both endpoints
    table = league_hierarchy(demo_tree)
    for i in range(1, 10):
        for j in range(i + 1, 10):
            under = demo_tree.leaves_under(demo_tree.lca(i, j))
            for c in range(1, 10):
                if c not in under:
                    assert table.p(i, c) == table.p(j, c)


def test_weak_monotonicity_reports():
    both = is_weakly_monotone(constant_bias(5, "0.7"))
    assert both.rows_up and both.cols_down and both.monotone and bool(both)

    flat = {(1, 2): Fraction(9, 10), (1, 3): Fraction(3, 5), (2, 3): Fraction(9, 10)}
    tricky = is_weakly_monotone(BiasTable(3, lambda i, j: flat[(i, j)]))
    assert not tricky.rows_up  # p(1,3) < p(1,2)
    assert not tricky.cols_down  # p(1,3) < p(2,3)
    assert not tricky.weakly_monotone

    rows_only = is_weakly_monotone(league_hierarchy(caterpillar_tree(4, ["0.6", "0.7", "0.8"])))
    assert rows_only.rows_up and not rows_only.cols_down and bool(rows_only)


def test_weak_monotonicity_demo_tree(demo_tree):
    report = is_weakly_monotone(league_hierarchy(demo_tree))
    assert report.positive and report.rows_up


# -- slow-mixing family -------------------------------------------------------


def test_slowmix_structure():
    table, spec = slow_mixing_bias(4)
    n = 4
    assert table.p(1, 2) == 1  # within the small half
    assert table.p(6, 7) == 1  # within the large half
    # i=n, j=n+1 sits on the steep side of the diagonal
    assert table.p(n, n + 1) == 1 - spec.delta
    # i=1, j=2n sits far below it
    assert table.p(1, 2 * n) == Fraction(1, 2) + spec.eps
    assert table.is_positively_biased()


def test_slowmix_gamma_identity():
    for n in (4, 6, 9):
        spec = SlowMixSpec(n=n, delta=Fraction(1, 3))
        assert spec.gamma == 1 + Fraction(1, 4 * n)
        assert spec.eps == Fraction(1, 16 * n + 2)


def test_slowmix_requires_n4():
    with pytest.raises(ValueError):
        solve_delta(3)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_solve_delta_balances_cut(n):
    delta = solve_delta(n)
    assert Fraction(1, 65) < delta < Fraction(1, 2)
    spec = SlowMixSpec(n=n, delta=delta)
    assert spec.gamma < spec.xi < 4 * math.e**2
    tables = walks.height_profile(n).class_table()
    low = walks.class_weight(tables[1], spec.gamma, spec.xi)
    high = walks.class_weight(tables[3], spec.gamma, spec.xi)
    assert abs(low - high) / low <= Fraction(1, 10**8)


def _balance_gap(gamma: Fraction, xi, tables) -> Fraction:
    """Mass(S3) - mass(S1) at flat odds gamma and steep odds xi, in Fractions:
    the reference for the integer signs of solve_delta."""
    return walks.class_weight(tables[3], gamma, xi) - walks.class_weight(tables[1], gamma, xi)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_solve_delta_bracket_signs():
    # the integer sign equals the Fraction gap's at both bracket ends and at
    # every midpoint of the bisection, replayed here
    for n in range(4, 10):
        tables = walks.height_profile(n).class_table()
        coeffs = _gap_coefficients(n, tables)
        gamma = 1 + Fraction(1, 4 * n)
        lo, hi = gamma, Fraction(2957, 100)
        assert _gap_sign(coeffs, lo) == _sign(_balance_gap(gamma, lo, tables)) == -1
        assert _gap_sign(coeffs, hi) == _sign(_balance_gap(gamma, hi, tables)) == 1
        for _ in range(200):
            mid = (lo + hi) / 2
            sign = _gap_sign(coeffs, mid)
            assert sign == _sign(_balance_gap(gamma, mid, tables))
            lo, hi = (mid, hi) if sign < 0 else (lo, mid)
            if (hi - lo) / mid <= Fraction(1, 10**11):
                break
        assert solve_delta(n) == 1 / ((lo + hi) / 2 + 1)


@lru_cache(maxsize=None)
def _coefficients(n: int) -> list[int]:
    return _gap_coefficients(n, walks.height_profile(n).class_table())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=11))
def test_solve_delta_balance_within_its_relative_bracket(n):
    # the balance point lies within 1e-11 of xi, relative: the gap is negative
    # just below that band and not negative just above it
    xi = SlowMixSpec(n=n, delta=solve_delta(n)).xi
    tol = Fraction(1, 10**11)
    assert _gap_sign(_coefficients(n), xi * (1 - tol)) < 0 <= _gap_sign(_coefficients(n), xi * (1 + tol))


def test_solve_delta_regression():
    # frozen against the independent per-walk summation oracle below
    assert float(solve_delta(6)) == pytest.approx(0.28705824782207484, abs=1e-9)


def test_solve_delta_against_per_walk_oracle():
    # independent oracle: direct per-walk products of per-tile ratios
    n = 5
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    low = high = Fraction(0)
    for w in walks.all_walks(n):
        weight_w = Fraction(1)
        downs = 0
        col = 0
        for s in w:
            if s == -1:
                downs += 1
                continue
            col += 1
            for y in range(1, n - downs + 1):
                ratio = spec.xi if walks.exceeds_diag(col + y - n, n) else spec.gamma
                weight_w *= ratio
        cls = walks.cut_class(w)
        if cls == 1:
            low += weight_w
        elif cls == 3:
            high += weight_w
    assert abs(low - high) / low <= Fraction(1, 10**8)


def test_slowmix_frozen_pairs_never_invert():
    table, _ = slow_mixing_bias(4)
    # a sorted within-half pair can never swap out of order: that move has
    # probability p(j, i) = 0 for i < j in the same half
    for i in range(1, 4):
        assert table.p(i + 1, i) == 0
    for i in range(5, 8):
        assert table.p(i + 1, i) == 0


# -- model spec strings ----------------------------------------------------------


def test_parse_model_specs(tmp_path, demo_tree):
    m = parse_model_spec("constant:0.7")
    assert m.kind == "constant" and m.p == Fraction(7, 10)

    m = parse_model_spec("cyw:0.6,0.7,0.8")
    assert m.kind == "cyw" and m.cyw.variant == "min" and m.n == 4

    m = parse_model_spec("cyw:0.6,0.7:max")
    assert m.cyw.variant == "max"

    path = tmp_path / "tree.json"
    path.write_text(demo_tree.to_json())
    m = parse_model_spec(f"league:{path}")
    assert m.kind == "league" and m.n == 9

    m = parse_model_spec("slowmix:4")
    assert m.kind == "slowmix" and m.n == 8

    m = parse_model_spec("oned:0.75,10")
    assert m.params == (Fraction(3, 4), 10)

    m = parse_model_spec("asep:0.7,3,2")
    assert m.params == (Fraction(7, 10), 3, 2)

    with pytest.raises(ValueError):
        parse_model_spec("mystery:1")


def test_label_cap_checked_before_any_entry():
    from permchains import _common, analysis

    asked = []
    with pytest.raises(analysis.CapExceeded, match="1001 labels exceed the label cap 1000"):
        BiasTable(1001, lambda i, j: asked.append((i, j)) or Fraction(1, 2))
    assert asked == []
    assert analysis.CapExceeded is _common.CapExceeded
    _common.check_label_count(_common.LABEL_CAP)
