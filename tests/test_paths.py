"""
Canonical paths and congestion:

- the 9-element worked route passes through its six expected waypoints and
  the stage-1 detail states
- inversion routes are legal, short, and never dip below the endpoint floor
- the four-stage route handles empty small/big sets and the mirrored clause
- congestion constants carry collision-free witnesses within n^2 / 4n^2
- a max-variant inversion chain is routed through the mirror: its congestion
  equals the mirrored min variant's, with legal, floor-holding,
  collision-free paths
- the routing pass reports the same legality and floor outcome as a
  per-move reference loop, including on trees without the floor guarantee
- moves of one shape (end positions and the in-between positions holding
  labels smaller than both ends) take one route: each move's own route has
  the states its shape's first route reaches when replayed on it, with the
  same stages, origin and floor flag, on the pass cases and by hypothesis
  over random cyw tables (min and max) and random leagues at n <= 5
- congestion_A on integer weights and loads returns every field equal to the
  former all-Fraction loop (kept here, with its move enumerator over exact
  rows), on the pass cases and by hypothesis over random cyw tables and
  random leagues with q = 1 at n <= 5
- paths builds one bias table, one weight array and the Fraction rows of the
  nearest-neighbor chain alone
- a bias table has a forced pair (an entry of 0 or 1), which ``paths``
  refuses before routing, exactly when some state has weight 0
- the comparison bound evaluates correctly and dominates exact mixing times
"""
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from permchains.analysis import (
    ARRAY_ROWS,
    class_moves,
    distribution,
    lehmer_ranks,
    mixing_time_exact,
    perm_weights,
    stationary_exact,
    transition_matrix,
)
from permchains.bias import (
    CywSpec,
    choose_your_weapon,
    is_weakly_monotone,
    league_hierarchy,
    weight_exact,
)
from permchains.chains import KERNELS, InversionChain, NearestNeighborChain, TreeChain
from permchains.cli import main
from permchains.paths import (
    NotAnEdge,
    _mirrored_path,
    _replay,
    _route,
    _shape_keys,
    comparison_bound,
    congestion_A,
    is_inv_edge,
    is_tree_edge,
    path_inv_to_nn,
    path_tree_to_nn,
    transposition_path,
    verify_path,
    witness_caps,
)
from permchains.perms import all_permutations
from permchains.trees import LeagueTree, caterpillar_tree, leaf, mirror_tree, node

from support import cyw_kernels, cyw_spec, league_kernels, mirrored_spec, truncate_tree_demo


def _moves(rows: dict):
    """The off-diagonal entries (sigma, beta, P(sigma, beta)) of exact rows."""
    return ((s, t, p) for s, row in rows.items() for t, p in row.items() if t != s and p > 0)


def _aux_edges(aux):
    """Directed moves (sigma, beta, P'(sigma, beta)) of the auxiliary kernel."""
    return _moves({s: aux.transition_distribution(s) for s in aux.space()})


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
    assert len(path_tree_to_nn(sigma, beta, tree, is_weakly_monotone(league_hierarchy(tree)))) == 1


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
    for sigma, beta, _ in _aux_edges(InversionChain(spec)):
        path = path_inv_to_nn(sigma, beta)
        assert len(path) <= witness_caps("inv", n)[1]
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
    for sigma, beta, _ in _aux_edges(TreeChain(tree)):
        path = path_tree_to_nn(sigma, beta, tree, is_weakly_monotone(table))
        assert len(path) <= witness_caps("tree", n)[1]
        assert path.floor_guaranteed
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        assert verify_path(path, table, floor).ok


def test_tree_stage2_weight_bound():
    # right after the endpoint swap the weight is at least the pair odds
    # times the start weight
    n = 5
    tree = truncate_tree_demo(n)
    table = league_hierarchy(tree)
    for sigma, beta, _ in _aux_edges(TreeChain(tree)):
        path = path_tree_to_nn(sigma, beta, tree, is_weakly_monotone(table))
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
    for sigma, beta, _ in _aux_edges(TreeChain(tree)):
        path = path_tree_to_nn(sigma, beta, tree, report)
        assert path.floor_guaranteed
        floor = min(weight_exact(sigma, table), weight_exact(beta, table))
        assert verify_path(path, table, floor).ok


def test_non_monotone_path_flagged():
    # a league model violating both monotonicity clauses still routes every
    # move, but without the floor guarantee
    report = is_weakly_monotone(league_hierarchy(UNGUARANTEED_TREE))
    assert not report.rows_up and not report.cols_down
    routed = [path_tree_to_nn(s, t, UNGUARANTEED_TREE, report) for s, t, _ in _aux_edges(TreeChain(UNGUARANTEED_TREE))]
    assert len(routed) == 96
    assert not any(path.floor_guaranteed for path in routed)


def _reference_outcome(kind, model):
    """Per-move loop: (every path legal, every floor held, first failing move)."""
    if kind == "inv":
        table = choose_your_weapon(model)
        route = path_inv_to_nn
    else:
        table = league_hierarchy(model)
        route = lambda s, t: path_tree_to_nn(s, t, model, is_weakly_monotone(table))
    legal = floors_held = True
    failure = None
    for sigma, beta, _ in _aux_edges(KERNELS[kind](model)):
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
    result = congestion_A(KERNELS[kind](model))
    assert (result.legal, result.floors_held, result.failure) == _reference_outcome(kind, model)
    if case == "tree-floor-failing":
        assert not result.floors_held and result.failure[2] is False
    else:
        assert result.legal and result.floors_held and result.failure is None


def _reference_congestion(kind, model):
    """A from the normalized law pi = w / z, the way the routing pass once summed it."""
    aux = KERNELS[kind](model)
    table = aux.table
    route = path_inv_to_nn if kind == "inv" else (lambda s, t: path_tree_to_nn(s, t, model, is_weakly_monotone(table)))
    nn = NearestNeighborChain(table)
    weight = {s: weight_exact(s, table) for s in nn.space()}
    z = sum(weight.values())
    pi = {s: w / z for s, w in weight.items()}
    loads: dict = {}
    for sigma, beta, prob in _aux_edges(aux):
        path = route(sigma, beta)
        if not verify_path(path, table, 0).legal:
            continue
        for edge in zip(path.states, path.states[1:]):
            loads[edge] = loads.get(edge, Fraction(0)) + len(path) * pi[sigma] * prob
    return max(load / (pi[u] * nn.transition_distribution(u)[v]) for (u, v), load in loads.items())


@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_congestion_from_weights_equals_normalized_reference(case):
    kind, model = PASS_CASES[case]
    assert congestion_A(KERNELS[kind](model)).congestion_exact == _reference_congestion(kind, model)


def _fraction_congestion_A(aux):
    """The former congestion_A, kept as the reference: each weight from
    weight_exact, and every load, floor and ratio a Fraction."""
    n, table = aux.n, aux.table
    if aux.kind == "inv" and aux.variant == "max":
        build = lambda s, t: _mirrored_path(path_inv_to_nn, s, t)
    elif aux.kind == "inv":
        build = path_inv_to_nn
    else:
        monotone = is_weakly_monotone(table)
        build = lambda s, t: path_tree_to_nn(s, t, aux.tree, monotone)

    nn = NearestNeighborChain(table)
    states = aux.space()
    aux_rows = {s: aux.transition_distribution(s) for s in states}
    nn_rows = {s: nn.transition_distribution(s) for s in states}
    weight = {s: weight_exact(s, table) for s in states}

    loads: dict = {}
    owners: dict = {}
    max_len = 0
    edge_count = 0
    legal = floors_held = True
    failure = None
    for sigma, beta, prob in _moves(aux_rows):
        path = build(sigma, beta)
        edge_count += 1
        max_len = max(max_len, len(path))
        check = verify_path(path, table, min(weight[sigma], weight[beta]), weight)
        if not check.ok:
            legal &= check.legal
            floors_held &= check.floor_ok
            failure = failure or (sigma, beta, path.floor_guaranteed)
        if not check.legal:
            continue
        contribution = len(path) * weight[sigma] * prob
        for k in range(len(path)):
            edge = (path.states[k], path.states[k + 1])
            loads[edge] = loads.get(edge, Fraction(0)) + contribution
            owners.setdefault(edge, []).append(((sigma, beta), path.stages[k], path.origin))

    collision_free = True
    max_paths = 0
    for edge, entries in owners.items():
        max_paths = max(max_paths, len({owner for owner, _, _ in entries}))
        seen = {}
        for owner, stage, origin in entries:
            if seen.setdefault((stage, origin), owner) != owner:
                collision_free = False

    best = Fraction(0)
    for (u, v), load in loads.items():
        flow = weight[u] * nn_rows[u].get(v, Fraction(0))
        if flow == 0:
            raise AssertionError("path used a zero-probability edge")
        best = max(best, load / flow)
    return dict(
        kind=aux.kind, n=n, congestion=float(best), congestion_exact=best, edge_count=edge_count,
        max_paths_per_edge=max_paths, max_path_length=max_len, collision_free=collision_free,
        legal=legal, floors_held=floors_held, failure=failure,
        pi=distribution(weight.values()),
    )


def _assert_equals_fraction_loop(aux):
    try:
        expected = _fraction_congestion_A(aux)
    except AssertionError as exc:  # a path through a zero-weight state; the same refusal
        with pytest.raises(AssertionError, match=str(exc)):
            congestion_A(aux)
        return
    result = congestion_A(aux)
    assert type(result.congestion_exact) is Fraction
    for f in fields(result):
        got, want = getattr(result, f.name), expected[f.name]
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_congestion_equals_the_fraction_loop(case):
    kind, model = PASS_CASES[case]
    _assert_equals_fraction_loop(KERNELS[kind](model))


@settings(max_examples=40, deadline=None)
@given(cyw_kernels(max_n=5))
def test_congestion_equals_the_fraction_loop_for_random_cyw_tables(aux):
    _assert_equals_fraction_loop(aux)


@settings(max_examples=40, deadline=None)
@given(league_kernels(max_n=5))
def test_congestion_equals_the_fraction_loop_for_random_leagues(aux):
    _assert_equals_fraction_loop(aux)


def _assert_replay_is_the_route(aux):
    """Every move's own route is its shape's first route replayed on it: the
    same states (compared as ranks), stages, origin and floor flag."""
    states = aux.space()
    perms_array = np.array(states, dtype=np.int8)
    _, mass_id, successors = class_moves(aux, ARRAY_ROWS[aux.kind](aux, states))
    rows, slots = np.nonzero(mass_id >= 0)
    targets = successors[rows, slots]
    build = _route(aux)
    keys = _shape_keys(perms_array[rows], perms_array[targets])
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        first = build(states[rows[members[0]]], states[targets[members[0]]])
        replay = list(_replay(first, perms_array[rows[members]]))
        ranks = np.array([rows[members]] + [lehmer_ranks(cur) for _, _, cur in replay])
        stages = [stage for stage, _, _ in replay]
        for i, move in enumerate(members):
            path = build(states[rows[move]], states[targets[move]])
            assert lehmer_ranks(np.array(path.states, dtype=np.int8)).tolist() == ranks[:, i].tolist()
            assert (path.stages, path.origin, path.floor_guaranteed) == (stages, first.origin, first.floor_guaranteed)


@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_replay_is_the_route(case):
    kind, model = PASS_CASES[case]
    _assert_replay_is_the_route(KERNELS[kind](model))


@settings(max_examples=30, deadline=None)
@given(cyw_kernels(max_n=5))
@example(InversionChain(CywSpec(r=("0.6", "0.7", "0.8", "0.9"), variant="max")))
def test_replay_is_the_route_for_random_cyw_tables(aux):
    _assert_replay_is_the_route(aux)


@settings(max_examples=30, deadline=None)
@given(league_kernels(max_n=5))
def test_replay_is_the_route_for_random_leagues(aux):
    _assert_replay_is_the_route(aux)


@settings(max_examples=40, deadline=None)
@given(league_kernels(max_n=5))
def test_a_forced_pair_is_a_zero_weight_state(aux):
    weights = perm_weights(aux.table, np.array(aux.space(), dtype=np.int8))
    assert (aux.table.forced_pair() is not None) == (weights == 0).any()


def test_verify_path_negative_control():
    table = choose_your_weapon(cyw_spec(4))
    path = path_inv_to_nn((3, 1, 2, 4), (4, 1, 2, 3))
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
    result = congestion_A(InversionChain(CywSpec(r=("0.7", "0.7"))))
    assert result.congestion_exact == Fraction(5, 3)
    assert result.collision_free


@pytest.mark.parametrize("n", [3, 4, 5])
def test_congestion_witnesses(n):
    for aux in (InversionChain(cyw_spec(n)), TreeChain(truncate_tree_demo(n))):
        result = congestion_A(aux)
        per_edge, length = witness_caps(aux.kind, n)
        assert result.max_paths_per_edge <= per_edge
        assert result.max_path_length <= length
        assert result.collision_free


@pytest.mark.parametrize("r, expected", [
    (("0.6", "0.7", "0.8"), Fraction(3)),
    (("0.6", "0.7", "0.8", "0.9"), Fraction(44, 9)),
    (("0.6", "0.7", "0.8", "0.9", "0.95"), Fraction(15, 2)),
    (("0.9", "0.6", "0.75", "0.55", "0.8"), Fraction(5033, 528)),
])
def test_max_variant_congestion_equals_the_mirrored_min_variant(r, expected):
    spec = CywSpec(r=r, variant="max")
    result = congestion_A(InversionChain(spec))
    assert result.congestion_exact == congestion_A(InversionChain(mirrored_spec(spec))).congestion_exact
    assert result.congestion_exact == expected
    assert result.legal and result.floors_held and result.failure is None
    assert result.collision_free and result.within_witness_caps


def test_congestion_growth_trend():
    ns = [3, 4, 5, 6]
    a_inv = [congestion_A(InversionChain(cyw_spec(n))).congestion for n in ns]
    a_tree = [congestion_A(TreeChain(truncate_tree_demo(n))).congestion for n in ns]
    slope_inv = _slope(ns, a_inv)
    slope_tree = _slope(ns, a_tree)
    assert slope_inv <= 3.5  # within the cubic regime
    assert slope_tree <= 2.5  # within the quadratic regime


def _slope(ns, ys):
    import numpy as np

    return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])


def test_congestion_cap():
    with pytest.raises(ValueError):
        congestion_A(InversionChain(cyw_spec(7)))


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
        a_const = congestion_A(aux).congestion
        bound = comparison_bound(a_const, tau_aux, float(pi.min()), eps)
        assert bound >= tau_nn


def _paths_cli(kind, n, tmp_path):
    if kind == "inv":
        model = cyw_spec(n)
        return InversionChain(model), ["--model", "cyw:" + ",".join(map(str, model.r))]
    tree = truncate_tree_demo(n)
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(tree.to_json())
    return TreeChain(tree), ["--model", f"league:{tree_file}"]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", ["inv", "tree"])
def test_paths_report_matches_the_oracle_pipeline(kind, n, tmp_path, capsys):
    import csv

    aux, model_args = _paths_cli(kind, n, tmp_path)
    assert main(["paths", "--kind", kind, *model_args]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    record = dict(zip(*csv.reader(lines)))
    eps = 0.25
    nn = NearestNeighborChain(aux.table)
    states = nn.space()
    pi = stationary_exact(nn, states)
    tau_nn = mixing_time_exact(transition_matrix(nn, states), pi, eps).tau
    tau_aux = mixing_time_exact(transition_matrix(aux, states), pi, eps).tau
    bound = comparison_bound(float(record["A"]), tau_aux, float(pi.min()), eps)
    assert (record["tau-aux"], record["exact-tau"]) == (str(tau_aux), str(tau_nn))
    assert record["comparison-bound"] == repr(bound)


@pytest.mark.parametrize("kind", ["inv", "tree"])
def test_paths_builds_each_table_row_and_weight_once(kind, tmp_path, capsys, monkeypatch):
    """One bias table, one Fraction row per state of the nearest-neighbor
    chain, none of the auxiliary chain (its matrix and moves come from its
    finder's classes), and every weight from a single perm_weights call:
    weight_exact is never called."""
    from collections import Counter

    from permchains import analysis, bias, chains, paths

    counts = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    _, model_args = _paths_cli(kind, 5, tmp_path)
    monkeypatch.setattr(bias.BiasTable, "__init__", counting("tables", bias.BiasTable.__init__))
    for cls in (NearestNeighborChain, InversionChain, TreeChain):
        monkeypatch.setattr(cls, "transition_distribution", counting(cls.kind, cls.transition_distribution))
    perm_weights, weight_exact = analysis.perm_weights, bias.weight_exact
    for module in (analysis, paths):
        monkeypatch.setattr(module, "perm_weights", counting("perm_weights", perm_weights))
    for module in (bias, chains, paths):
        monkeypatch.setattr(module, "weight_exact", counting("weight_exact", weight_exact))
    assert main(["paths", "--kind", kind, *model_args]) == 0
    assert counts == {"tables": 1, "nn": 120, "perm_weights": 1}
