"""
Canonical paths and congestion:

- the 9-element worked route passes through its six expected waypoints and
  the stage-1 detail states
- inversion routes are legal, short, and never dip below the endpoint floor
- the four-stage route handles empty small/big sets and the mirrored clause
- congestion constants carry collision-free witnesses within n^2 / 4n^2
- the routing pass reports the same legality and floor outcome as a
  per-move reference loop, including on trees without the floor guarantee
- the comparison bound evaluates correctly and dominates exact mixing times
"""
import math
from fractions import Fraction

import pytest

from permchains.analysis import mixing_time_exact, stationary_exact, transition_matrix
from permchains.bias import (
    CywSpec,
    choose_your_weapon,
    is_weakly_monotone,
    league_hierarchy,
    weight_exact,
)
from permchains.chains import InversionChain, NearestNeighborChain, TreeChain
from permchains.paths import (
    NotAnEdge,
    _aux_edges,
    comparison_bound,
    congestion_A,
    is_inv_edge,
    is_tree_edge,
    path_inv_to_nn,
    path_tree_to_nn,
    transposition_path,
    verify_path,
)
from permchains.perms import all_permutations
from permchains.trees import LeagueTree, caterpillar_tree, leaf, mirror_tree, node

from support import cyw_spec, truncate_tree_demo

# neither clause of weak monotonicity holds; every floor still holds at n = 4
UNGUARANTEED_TREE = LeagueTree(node("0.6", node("0.9", leaf(1), leaf(2)), node("0.9", leaf(3), leaf(4))))
# neither clause holds, and some routes dip below their endpoint floor
FLOOR_FAILING_TREE = LeagueTree(
    node("0.5", leaf(1), node("0.6", node("0.9", leaf(2), leaf(3)), leaf(4)))
)

WORKED_START = (5, 8, 9, 2, 10, 3, 4, 1, 7)
WORKED_END = (7, 8, 9, 2, 10, 3, 4, 1, 5)
WORKED_WAYPOINTS = [
    (5, 8, 9, 2, 10, 3, 4, 1, 7),
    (5, 2, 8, 9, 3, 10, 4, 1, 7),
    (2, 8, 9, 3, 10, 4, 1, 5, 7),
    (2, 8, 9, 3, 10, 4, 1, 7, 5),
    (7, 2, 8, 9, 3, 10, 4, 1, 5),
    (7, 8, 9, 2, 10, 3, 4, 1, 5),
]


def test_worked_route_waypoints():
    path = transposition_path(WORKED_START, WORKED_END)
    keys = ("start", "after-stage-1", "before-endpoint-swap", "after-stage-2",
            "after-stage-3", "end")
    assert [path.milestones[k] for k in keys] == WORKED_WAYPOINTS
    positions = [path.states.index(m) for m in WORKED_WAYPOINTS]
    assert positions == sorted(positions)
    # stage-1 detail: the parked labels move one hop at a time
    assert (5, 8, 9, 2, 3, 10, 4, 1, 7) in path.states
    assert (5, 8, 2, 9, 3, 10, 4, 1, 7) in path.states
    # stage-2 detail: the moving endpoint marches right one hop at a time
    assert (2, 5, 8, 9, 3, 10, 4, 1, 7) in path.states


def test_worked_route_is_adjacent_swaps():
    path = transposition_path(WORKED_START, WORKED_END)
    for s, t in zip(path.states, path.states[1:]):
        diffs = [k for k, (a, b) in enumerate(zip(s, t)) if a != b]
        assert len(diffs) == 2 and diffs[1] == diffs[0] + 1


def test_inv_route_example():
    sigma, beta = (3, 1, 2, 4), (4, 1, 2, 3)
    assert is_inv_edge(sigma, beta)
    path = path_inv_to_nn(sigma, beta)
    assert path.states[0] == sigma and path.states[-1] == beta
    assert len(path) == 5  # 2 * gap - 1 with gap 3
    table = choose_your_weapon(cyw_spec(4))
    floor = min(weight_exact(sigma, table), weight_exact(beta, table))
    assert verify_path(path, table, floor).ok


def test_adjacent_move_is_single_step():
    sigma, beta = (1, 3, 2, 4), (1, 2, 3, 4)
    assert len(path_inv_to_nn(sigma, beta)) == 1
    tree = truncate_tree_demo(4)
    assert len(path_tree_to_nn(sigma, beta, tree)) == 1


def test_edge_predicates():
    assert not is_inv_edge((1, 2, 3), (1, 2, 3))
    assert not is_inv_edge((3, 1, 2, 4), (4, 1, 3, 2))
    # an in-between larger label breaks the inversion-move condition
    assert not is_inv_edge((2, 4, 3, 5, 1), (3, 4, 2, 5, 1))
    tree = truncate_tree_demo(4)
    # between 2 and 3 sits 1, not under lca(2,3): legal
    assert is_tree_edge((2, 1, 3, 4), (3, 1, 2, 4), tree)
    with pytest.raises(NotAnEdge):
        path_inv_to_nn((1, 2, 3), (3, 2, 1))


def test_empty_small_set_route():
    # in-betweens all larger than both endpoints
    sigma, beta = (1, 3, 4, 2), (2, 3, 4, 1)
    path = transposition_path(sigma, beta)
    assert path.states[0] == sigma and path.states[-1] == beta
    assert len(path) <= 4 * 4


def test_empty_big_set_route():
    sigma, beta = (3, 1, 2, 4), (4, 1, 2, 3)
    path = transposition_path(sigma, beta)
    assert path.states[-1] == beta


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inv_floors_exhaustive(n):
    spec = cyw_spec(n)
    table = choose_your_weapon(spec)
    for sigma, beta, _ in _aux_edges("inv", spec):
        path = path_inv_to_nn(sigma, beta, table)
        assert len(path) <= 2 * n
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        report = verify_path(path, table, floor)
        assert report.ok
        # marching over the in-between labels only removes inversions; the
        # final stage-1 swap crosses the endpoints and may step down to beta
        stage1_states = [
            path.states[k + 1] for k in range(len(path)) if path.stages[k] == 1
        ]
        for s in stage1_states[:-1]:
            assert weight_exact(s, table) >= weight_exact(sigma, table)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tree_floors_exhaustive(n):
    tree = truncate_tree_demo(n)
    table = league_hierarchy(tree)
    for sigma, beta, _ in _aux_edges("tree", tree):
        path = path_tree_to_nn(sigma, beta, tree)
        assert len(path) <= 4 * n
        assert path.floor_guaranteed
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        assert verify_path(path, table, floor).ok


def test_tree_stage2_weight_bound():
    # right after the endpoint swap the weight is at least the pair odds
    # times the start weight
    n = 5
    tree = truncate_tree_demo(n)
    table = league_hierarchy(tree)
    for sigma, beta, _ in _aux_edges("tree", tree):
        path = path_tree_to_nn(sigma, beta, tree)
        mid = path.milestones["after-stage-2"]
        lo, hi = path.origin
        a, b = sigma[lo], sigma[hi]
        first, second = (a, b) if sigma.index(a) < sigma.index(b) else (b, a)
        lam = table.p(second, first) / table.p(first, second)
        assert weight_exact(mid, table) >= lam * weight_exact(sigma, table)


def test_mirrored_clause_routes():
    # column-monotone-only model: mirror of an increasing caterpillar
    n = 5
    tree = mirror_tree(caterpillar_tree(n, ["0.6", "0.7", "0.8", "0.9"]))
    table = league_hierarchy(tree)
    report = is_weakly_monotone(table)
    assert report.cols_down and not report.rows_up
    for sigma, beta, _ in _aux_edges("tree", tree):
        path = path_tree_to_nn(sigma, beta, tree)
        assert path.floor_guaranteed
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        assert verify_path(path, table, floor).ok


def test_non_monotone_path_flagged():
    # a league model violating both monotonicity clauses still routes every
    # move, but without the floor guarantee
    report = is_weakly_monotone(league_hierarchy(UNGUARANTEED_TREE))
    assert not report.rows_up and not report.cols_down
    routed = [path_tree_to_nn(s, t, UNGUARANTEED_TREE) for s, t, _ in _aux_edges("tree", UNGUARANTEED_TREE)]
    assert len(routed) == 96
    assert not any(path.floor_guaranteed for path in routed)


def _reference_outcome(kind, model):
    """Per-move loop: (every path legal, every floor held, first failing move)."""
    if kind == "inv":
        table = choose_your_weapon(model)
        route = lambda s, t: path_inv_to_nn(s, t, table)
    else:
        table = league_hierarchy(model)
        route = lambda s, t: path_tree_to_nn(s, t, model)
    legal = floors_held = True
    failure = None
    for sigma, beta, _ in _aux_edges(kind, model):
        path = route(sigma, beta)
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        report = verify_path(path, table, floor)
        legal = legal and report.legal
        floors_held = floors_held and report.floor_ok
        if failure is None and not report.ok:
            failure = (sigma, beta, path.floor_guaranteed)
    return legal, floors_held, failure


PASS_CASES = {
    **{f"inv-cyw{n}": ("inv", cyw_spec(n)) for n in (3, 4, 5)},
    **{f"tree-demo{n}": ("tree", truncate_tree_demo(n)) for n in (3, 4, 5)},
    "tree-unguaranteed": ("tree", UNGUARANTEED_TREE),
    "tree-floor-failing": ("tree", FLOOR_FAILING_TREE),
}


@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_pass_outcome_matches_reference_loop(case):
    kind, model = PASS_CASES[case]
    result = congestion_A(kind, model, model.n)
    assert (result.legal, result.floors_held, result.failure) == _reference_outcome(kind, model)
    if case == "tree-floor-failing":
        assert not result.floors_held and result.failure[2] is False
    else:
        assert result.legal and result.floors_held and result.failure is None


def test_verify_path_negative_control():
    table = choose_your_weapon(cyw_spec(4))
    path = path_inv_to_nn((3, 1, 2, 4), (4, 1, 2, 3), table)
    shuffled = type(path)(
        states=[path.states[0], path.states[-1]],
        stages=[1],
        origin=path.origin,
    )
    report = verify_path(shuffled, table, Fraction(0))
    assert not report.legal
    assert any(tag == "not-adjacent-swap" for tag, _ in report.failures)


def test_congestion_pinned_value():
    # exhaustive routing of every inversion move at n=3 with all ranks 0.7
    result = congestion_A("inv", CywSpec(r=("0.7", "0.7")), 3)
    assert result.congestion_exact == Fraction(5, 3)
    assert result.collision_free


@pytest.mark.parametrize("n", [3, 4, 5])
def test_congestion_witnesses(n):
    inv = congestion_A("inv", cyw_spec(n), n)
    assert inv.max_paths_per_edge <= n * n
    assert inv.max_path_length <= 2 * n
    assert inv.collision_free
    tree = congestion_A("tree", truncate_tree_demo(n), n)
    assert tree.max_paths_per_edge <= 4 * n * n
    assert tree.max_path_length <= 4 * n
    assert tree.collision_free


def test_congestion_growth_trend():
    ns = [3, 4, 5, 6]
    a_inv = [congestion_A("inv", cyw_spec(n), n).congestion for n in ns]
    a_tree = [congestion_A("tree", truncate_tree_demo(n), n).congestion for n in ns]
    slope_inv = _slope(ns, a_inv)
    slope_tree = _slope(ns, a_tree)
    assert slope_inv <= 3.5  # within the cubic regime
    assert slope_tree <= 2.5  # within the quadratic regime


def _slope(ns, ys):
    import numpy as np

    return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])


def test_congestion_cap():
    with pytest.raises(ValueError):
        congestion_A("inv", cyw_spec(7), 7)


def test_comparison_bound_arithmetic():
    # 4 ln 8 / ln 2 = 12 at A = tau = 1, floor 1/2, eps 1/4
    assert comparison_bound(1, 1, 0.5, 0.25) == pytest.approx(12.0)
    assert comparison_bound(2, 1, 0.5, 0.25) == pytest.approx(24.0)
    assert comparison_bound(1, 3, 0.5, 0.25) == pytest.approx(36.0)
    with pytest.raises(ValueError):
        comparison_bound(1, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        comparison_bound(0, 1, 0.5, 0.25)


@pytest.mark.parametrize("n", [3, 4])
def test_comparison_bound_dominates_exact(n):
    eps = 0.25
    for kind in ("inv", "tree"):
        if kind == "inv":
            model = cyw_spec(n)
            aux = InversionChain(model)
        else:
            model = truncate_tree_demo(n)
            aux = TreeChain(model)
        table = aux.table
        nn = NearestNeighborChain(table)
        states = nn.space()
        pi = stationary_exact(nn, states)
        tau_nn = mixing_time_exact(transition_matrix(nn, states), pi, eps).tau
        tau_aux = mixing_time_exact(transition_matrix(aux, states), pi, eps).tau
        a_const = congestion_A(kind, model, n).congestion
        bound = comparison_bound(a_const, tau_aux, float(pi.min()), eps)
        assert bound >= tau_nn
