"""
Bias tables and model constructors:

- complementarity holds exactly; positive-bias flags behave
- weights: uniform, single-pair, and the brute-force product oracle
- choose-your-weapon and league constructors match their pair rules
- weak monotonicity clauses report correctly
- the slow-mixing family freezes within-half pairs and balances the cut
"""
import itertools
import math
from fractions import Fraction

import pytest

from permchains import walks
from permchains.bias import (
    BiasTable,
    CywSpec,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    is_weakly_monotone,
    league_hierarchy,
    parse_model_spec,
    slow_mixing_bias,
    solve_delta,
    weight,
    weight_exact,
    weight_log,
)
from permchains.perms import all_permutations, identity
from permchains.trees import caterpillar_tree, complete_tree

from support import cyw_spec


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
    assert weight(sigma, table) == pytest.approx(float(expected))
    assert weight_log(sigma, table) == pytest.approx(math.log(float(expected)))


def test_weight_zero_is_distinguished():
    table, _ = slow_mixing_bias(4)
    bad = (2, 1) + tuple(range(3, 9))  # labels 1,2 out of order are frozen
    assert weight_exact(bad, table) == 0
    assert weight_log(bad, table) == -math.inf


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


def test_solve_delta_bracket_signs():
    from permchains.bias import _balance_gap

    n = 5
    tables = walks.height_profile(n).class_table()
    gamma = 1 + Fraction(1, 4 * n)
    assert _balance_gap(n, gamma, tables) < 0
    assert _balance_gap(n, Fraction(2957, 100), tables) > 0


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


def test_bias_table_json_roundtrip():
    table = choose_your_weapon(cyw_spec(4))
    obj = table.to_json_obj()
    assert obj["n"] == 4 and len(obj["p"]) == 6
    back = BiasTable.from_json_obj(obj)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert abs(float(back.p(i, j) - table.p(i, j))) < 1e-15
