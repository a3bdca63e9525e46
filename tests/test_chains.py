"""
Kernel behavior:

- one-step distributions are exact, sum to 1, and have the right support
- detailed balance holds exactly for every kernel at enumerable sizes
- hold probabilities respect the documented floors
- the max-variant inv law is the mirror-conjugated min law, on random cyw
  tables too
- trajectories are deterministic given a seed and track the stationary law
- each kernel's sampler follows its own exact one-step row
- exact rows equal the per-slot Fraction loop in entries, order and value
  types, cold or warm, when the memo's common denominator grows inside a row,
  and on random rational nn tables
- the integer acceptance test equals u < p exactly, uniform slot picks are
  exact at every slot count on ints and int64 arrays, inv's array pick agrees
  with its scalar draw at the float edges, ``run``'s block draws equal scalar
  draws, and ``run`` reproduces the scalar-draw sampler
- the walk kernels obey the ratio and height-jump claims
- every rewritten law equals the former one (``support.REFERENCE_LAWS``) on
  every state and slot at small sizes, and walk-transposition's change in
  tile counts, read from the tiles between the two paths, equals the
  difference of the two walks' counts at random n up to 12
- every registered kernel starts inside its space, counts that space without
  enumerating it, and names an observable defined on its states
"""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permchains import walks
from permchains.analysis import (
    detailed_balance_violations,
    stationary_exact,
    transition_matrix,
)
from permchains.bias import (
    BiasTable,
    CywSpec,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    league_hierarchy,
    parse_model_spec,
    slow_mixing_bias,
    solve_delta,
)
from permchains.chains import (
    BLOCK,
    KERNELS,
    OBSERVABLES,
    PICK_CAP,
    AsepChain,
    InversionChain,
    Kernel,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    WalkChain,
    WalkTranspositionChain,
    _integers,
    _pick,
    build,
    make_rng,
    run,
)
from permchains.perms import all_permutations, identity, inversion_count, reversal
from permchains.trees import LeagueTree, caterpillar_tree, complete_tree, truncate_tree

from support import (
    REFERENCE_LAWS,
    cyw_kernels,
    cyw_spec,
    mirrored_spec,
    truncate_tree_demo,
    tv_distance,
    walk_transposition_change,
)


def test_nn_deterministic_swap():
    kernel = NearestNeighborChain(constant_bias(2, 1))
    out = kernel.step((2, 1), make_rng(0))
    assert out.state == (1, 2) and out.moved


def test_nn_one_step_distribution():
    k = NearestNeighborChain(constant_bias(3, "0.7"))
    d = k.transition_distribution((2, 1, 3))
    assert d == {
        (1, 2, 3): Fraction(35, 100),
        (2, 3, 1): Fraction(15, 100),
        (2, 1, 3): Fraction(1, 2),
    }


def test_nn_uniform_proposals():
    k = NearestNeighborChain(constant_bias(3, "0.5"))
    d = k.transition_distribution((1, 2, 3))
    swaps = {s: p for s, p in d.items() if s != (1, 2, 3)}
    assert all(p == Fraction(1, 4) for p in swaps.values()) and len(swaps) == 2


def test_distributions_sum_to_one_with_small_support():
    for kernel in (
        NearestNeighborChain(constant_bias(4, "0.7")),
        InversionChain(cyw_spec(4)),
        TreeChain(truncate_tree_demo(4)),
    ):
        for s in kernel.space():
            d = kernel.transition_distribution(s)
            assert sum(d.values()) == 1
            assert all(p >= 0 for p in d.values())


def test_nn_support_is_adjacent_swaps():
    k = NearestNeighborChain(constant_bias(4, "0.7"))
    sigma = (3, 1, 4, 2)
    support = set(k.transition_distribution(sigma))
    expected = {sigma}
    for pos in range(3):
        t = list(sigma)
        t[pos], t[pos + 1] = t[pos + 1], t[pos]
        expected.add(tuple(t))
    assert support <= expected


def test_inv_selection_weights():
    n = 5
    total = Fraction(n * (n - 1), 2)
    assert sum(Fraction(n - i) / total for i in range(1, n + 1)) == 1
    # the largest label is never selected: no move ever swaps it downward
    k = InversionChain(cyw_spec(n))
    for sigma in ((5, 4, 3, 2, 1), (1, 2, 3, 4, 5)):
        for tau in k.transition_distribution(sigma):
            if tau != sigma:
                a, b = sorted(
                    v for v, w in zip(sigma, tau) if v != w
                )
                assert a != n


def test_inv_targets_worked_example():
    sigma = (8, 1, 5, 3, 7, 4, 6, 2)
    r = ("0.6", "0.7", "0.8", "0.9", "0.6", "0.7", "0.8")
    # (variant, side, acceptance, the state label 4 moves to)
    cases = [
        ("min", 1, Fraction(1, 10), (8, 1, 5, 3, 7, 6, 4, 2)),  # first larger label after 4: 6
        ("min", -1, Fraction(9, 10), (8, 1, 5, 3, 4, 7, 6, 2)),  # last larger label before 4: 7
        ("max", 1, Fraction(4, 5), (8, 1, 5, 3, 7, 2, 6, 4)),  # first smaller label after 4: 2
        ("max", -1, Fraction(1, 5), (8, 1, 5, 4, 7, 3, 6, 2)),  # last smaller label before 4: 3
    ]
    for variant, side, accept, moved in cases:
        k = InversionChain(CywSpec(r=r, variant=variant))
        slot = next(slot for slot, _ in k._slots if slot[:2] == (4, side))
        assert k._law(sigma, slot) == (accept, moved, sigma)
    # no label after 7 is larger: the min law holds
    k = InversionChain(CywSpec(r=r))
    slot = next(slot for slot, _ in k._slots if slot[:2] == (7, 1))
    assert k._law(sigma, slot) == (1, sigma, sigma)


def test_inv_moves_change_one_coordinate():
    from permchains.perms import inversion_table

    k = InversionChain(cyw_spec(5))
    for sigma in all_permutations(5):
        x = inversion_table(sigma)
        for tau in k.transition_distribution(sigma):
            if tau == sigma:
                continue
            y = inversion_table(tau)
            diffs = [(a, b) for a, b in zip(x, y) if a != b]
            assert len(diffs) == 1
            assert abs(diffs[0][0] - diffs[0][1]) == 1


def test_inv_hold_probability_at_least_half():
    k = InversionChain(cyw_spec(4))
    for sigma in all_permutations(4):
        d = k.transition_distribution(sigma)
        assert d[sigma] >= Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(cyw_kernels(max_n=6).filter(lambda k: k.variant == "max"))
@example(InversionChain(CywSpec(r=("0.6", "0.7", "0.8"), variant="max")))
def test_inv_max_variant_is_mirror_conjugate(k):
    from permchains.perms import mirror

    # in the max variant p[1][L] is the rank of label L
    spec = CywSpec(r=tuple(k.table.p(1, L) for L in range(2, k.n + 1)), variant="max")
    k_min = InversionChain(mirrored_spec(spec))
    for sigma in all_permutations(k.n):
        d = k.transition_distribution(sigma)
        d_ref = {
            mirror(t): p
            for t, p in k_min.transition_distribution(mirror(sigma)).items()
        }
        assert d == d_ref


def test_tree_blocking_example(demo_tree):
    k = TreeChain(demo_tree)
    sigma = (5, 1, 9, 3, 8, 6, 7, 4, 2)
    slots = {slot[:2]: slot for slot, _ in k._slots}
    # between 5 and 7 sit 9, 3, 8, 6, 4; the labels 6, 8, 9 descend from
    # lca(5,7), so the pair is blocked and the step holds
    assert k._law(sigma, slots[5, 7]) == (1, sigma, sigma)
    # an adjacent pair is always free: put in order with probability q
    in_order = (1, 5, 9, 3, 8, 6, 7, 4, 2)
    assert k._law(sigma, slots[1, 5]) == (demo_tree.lca_q(1, 5), in_order, sigma)


def test_tree_swap_multiplies_weight_by_pair_ratio(demo_tree):
    from permchains.bias import league_hierarchy, weight_exact

    rng = make_rng(3)
    n = 6
    tree = truncate_tree_demo(n)
    table = league_hierarchy(tree)
    k = TreeChain(tree)
    for sigma in list(all_permutations(n))[:120]:
        for tau in k.transition_distribution(sigma):
            if tau == sigma:
                continue
            a, b = sorted(v for v, w in zip(sigma, tau) if v != w)
            lhs = weight_exact(tau, table) * table.p(*_order(sigma, a, b))
            rhs = weight_exact(sigma, table) * table.p(*_order(tau, a, b))
            assert lhs == rhs


def _order(sigma, a, b):
    return (a, b) if sigma.index(a) < sigma.index(b) else (b, a)


@pytest.mark.parametrize("n", [3, 4])
def test_detailed_balance_exhaustive(n, demo_tree):
    kernels = [
        NearestNeighborChain(constant_bias(n, "0.7")),
        NearestNeighborChain(choose_your_weapon(cyw_spec(n))),
        InversionChain(cyw_spec(n)),
        TreeChain(truncate_tree(demo_tree, n)),
    ]
    for k in kernels:
        assert not detailed_balance_violations(k)


def test_oned_examples():
    k = OnedChain(1, 5)
    h = 0
    rng = make_rng(0)
    for _ in range(5):
        h = k.step(h, rng).state
    assert h == 5
    # blocked moves hold
    assert OnedChain("0.75", 3).transition_distribution(3) == {
        3: Fraction(3, 4),
        2: Fraction(1, 4),
    }
    assert OnedChain("0.75", 3).transition_distribution(0) == {
        1: Fraction(3, 4),
        0: Fraction(1, 4),
    }
    with pytest.raises(ValueError):
        OnedChain("0.75", 5).step(7, make_rng(0))


def test_asep_two_state_stationary():
    k = AsepChain("0.7", 1, 1)
    pi = stationary_exact(k)
    states = k.space()
    assert states == ["01", "10"]
    assert pi[states.index("10")] == pytest.approx(0.7)
    assert not detailed_balance_violations(k)


def test_asep_twenty_string_stationary_matches_pair_count():
    k = AsepChain("0.7", 3, 3)
    states = k.space()
    assert len(states) == 20
    lam = Fraction(7, 3)
    weights = [lam ** AsepChain.order_pairs(s) for s in states]
    z = sum(weights)
    pi = stationary_exact(k, states)
    for s, w, p in zip(states, weights, pi):
        assert p == pytest.approx(float(w / z), abs=1e-14)
    m = transition_matrix(k, states)
    assert np.allclose(pi @ m.toarray(), pi, atol=1e-14)


def test_asep_symmetric_is_uniform():
    k = AsepChain("0.5", 2, 2)
    pi = stationary_exact(k)
    assert np.allclose(pi, 1.0 / 6)


def test_walk_ratio_classes():
    n = 4
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    k = WalkChain.fluctuating(spec)
    # the flat region has swap-odds gamma, the steep region xi
    low, high = (-1,) * n + (1,) * n, (1,) * n + (-1,) * n
    flat_pair, _, _ = k._law(low, n - 1)    # 1st up-step, n-th down-step: far below the diagonal
    steep_pair, _, _ = k._law(high, n - 1)  # n-th up-step, 1st down-step: at the corner
    assert flat_pair / (1 - flat_pair) == spec.gamma
    assert steep_pair / (1 - steep_pair) == spec.xi


def test_walk_adjacent_height_change():
    n = 4
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    k = WalkChain.fluctuating(spec)
    for w in walks.all_walks(n):
        h0 = walks.max_height(w)
        for t in k.transition_distribution(w):
            assert abs(walks.max_height(t) - h0) <= 1


def test_walk_transposition_height_jump_and_metropolis():
    n = 4
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    k = WalkTranspositionChain(spec)
    for w in walks.all_walks(n):
        h0 = walks.max_height(w)
        for t in k.transition_distribution(w):
            assert abs(walks.max_height(t) - h0) <= 2
    assert not detailed_balance_violations(k)


def test_walk_transposition_adjacent_matches_walk_ratio():
    n = 4
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    tchain = WalkTranspositionChain(spec)
    wchain = WalkChain.fluctuating(spec)
    for w in walks.all_walks(n):
        dt = tchain.transition_distribution(w)
        dw = wchain.transition_distribution(w)
        for t, p in dw.items():
            if t == w or t not in dt:
                continue
            back_t = tchain.transition_distribution(t).get(w, Fraction(0))
            back_w = wchain.transition_distribution(t).get(w, Fraction(0))
            if back_w and back_t:
                assert dt[t] / back_t == p / back_w  # same acceptance odds


def _slowmix(n):
    return SlowMixSpec(n=n, delta=solve_delta(n))


# -- the rewritten laws against the former ones ---------------------------------

FORMER_LAW_CASES = {
    **{f"nn-{n}": (lambda n=n: NearestNeighborChain(constant_bias(n, "0.7"))) for n in range(2, 6)},
    "nn-cyw-5": lambda: NearestNeighborChain(choose_your_weapon(cyw_spec(5))),
    **{f"inv-{v}-{n}": (lambda n=n, v=v: InversionChain(CywSpec(r=cyw_spec(n).r, variant=v)))
       for n in range(2, 6) for v in ("min", "max")},
    **{f"tree-complete-{n}": (lambda n=n: TreeChain(complete_tree(n, "0.7"))) for n in range(2, 6)},
    **{f"tree-caterpillar-{n}": (lambda n=n: TreeChain(caterpillar_tree(n, ["0.6", "0.7", "0.8", "0.9"][: n - 1])))
       for n in range(2, 6)},
    **{f"tree-demo-{n}": (lambda n=n: TreeChain(truncate_tree_demo(n))) for n in range(2, 6)},
    "oned": lambda: OnedChain("0.6", 6),
    **{f"walk-{n}": (lambda n=n: WalkChain.fluctuating(_slowmix(n))) for n in range(4, 8)},
    "walk-constant-5": lambda: WalkChain.constant(5, "0.7"),
    **{f"walk-transposition-{n}": (lambda n=n: WalkTranspositionChain(_slowmix(n))) for n in range(4, 8)},
}


@pytest.mark.parametrize("name", list(FORMER_LAW_CASES))
def test_law_equals_the_former_law(name):
    kernel = FORMER_LAW_CASES[name]()
    former = REFERENCE_LAWS[kernel.kind]
    for state in kernel.space():
        for slot, _ in kernel._slots:
            assert kernel._law(state, slot) == former(kernel, state, slot), (state, slot)


@st.composite
def _walk_swaps(draw):
    """(n, walk, slot): a random walk of half size n <= 12 and one of its n * n swaps."""
    n = draw(st.integers(1, 12))
    ups = draw(st.sets(st.integers(0, 2 * n - 1), min_size=n, max_size=n))
    w = tuple(1 if k in ups else -1 for k in range(2 * n))
    return n, w, (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


@settings(max_examples=400)
@given(_walk_swaps())
def test_walk_transposition_change_equals_the_tile_count_difference(case):
    n, w, slot = case
    # delta does not enter the change; the memo of a fresh kernel holds only this swap's key
    kernel = WalkTranspositionChain(SlowMixSpec(n=n, delta=Fraction(1, 5)))
    _, new, _ = kernel._law(w, slot)
    change, expected_new = walk_transposition_change(w, slot)
    assert new == expected_new and list(kernel._accept) == [change]


LOW_WALK = (-1, -1, -1, -1, 1, 1, 1, 1)
ZIGZAG_WALK = (1, -1, -1, 1, 1, -1, -1, 1)

# name -> (kernel factory, two fixed states)
LAW_CASES = {
    "nn": (lambda: NearestNeighborChain(constant_bias(4, "0.7")), [(1, 2, 3, 4), (3, 1, 4, 2)]),
    "inv": (lambda: InversionChain(cyw_spec(4)), [(4, 3, 2, 1), (3, 1, 4, 2)]),
    "inv-max": (lambda: InversionChain(CywSpec(r=cyw_spec(4).r, variant="max")), [(4, 3, 2, 1), (3, 1, 4, 2)]),
    "tree": (lambda: TreeChain(truncate_tree_demo(5)), [(1, 2, 3, 4, 5), (3, 5, 1, 4, 2)]),
    "oned": (lambda: OnedChain("0.6", 6), [0, 3]),
    "asep": (lambda: AsepChain("0.7", 3, 3), ["000111", "010101"]),
    "walk": (lambda: WalkChain.fluctuating(_slowmix(4)), [LOW_WALK, ZIGZAG_WALK]),
    "walk-transposition": (lambda: WalkTranspositionChain(_slowmix(4)), [LOW_WALK, ZIGZAG_WALK]),
}
LAW_DRAWS = 4_000


@pytest.mark.parametrize("name", sorted(LAW_CASES))
def test_sampler_matches_exact_law(name):
    """Repeated steps from one state follow that state's exact row (chi-square)."""
    from scipy.stats import chisquare

    make, states = LAW_CASES[name]
    kernel = make()
    rng = make_rng(7)
    for state in states:
        row = {t: p for t, p in kernel.transition_distribution(state).items() if p}
        counts = dict.fromkeys(row, 0)
        for _ in range(LAW_DRAWS):
            out = kernel.step(state, rng)
            assert out.state in counts and out.moved == (out.state != state)
            counts[out.state] += 1
        # outcomes expected fewer than 5 times are pooled into one cell
        common = [t for t in row if LAW_DRAWS * row[t] >= 5]
        rare = [t for t in row if t not in common]
        observed = [counts[t] for t in common] + ([sum(counts[t] for t in rare)] if rare else [])
        expected = [LAW_DRAWS * float(row[t]) for t in common]
        if rare:
            expected.append(LAW_DRAWS * float(sum(row[t] for t in rare)))
        if len(observed) > 1:
            assert chisquare(observed, expected).pvalue > 1e-3, (state, counts)


def test_run_contract():
    k = NearestNeighborChain(constant_bias(4, "0.7"))
    start = reversal(4)
    assert run(k, start, 0, seed=5).final_state == start
    a = run(k, start, 500, seed=5, stride=100)
    b = run(k, start, 500, seed=5, stride=100)
    assert a.final_state == b.final_state and a.records == b.records
    c = run(k, start, 500, seed=6, stride=100)
    assert a.records != c.records or a.final_state != c.final_state


def test_trajectory_tracks_stationary_law():
    k = NearestNeighborChain(constant_bias(5, "0.7"))
    states = k.space()
    pi = stationary_exact(k, states)
    idx = {s: i for i, s in enumerate(states)}
    rng = make_rng(11)
    counts = np.zeros(len(states))
    state = identity(5)
    for _ in range(300_000):
        state = k.step(state, rng).state
        counts[idx[state]] += 1
    assert tv_distance(counts / counts.sum(), pi) < 0.05


def test_observable_records():
    k = NearestNeighborChain(constant_bias(4, "0.7"))
    traj = run(k, reversal(4), 100, seed=1, stride=50)
    assert [t for t, _ in traj.records] == [0, 50, 100]
    assert traj.records[0][1] == inversion_count(reversal(4))


# -- exact acceptance, block draws, and the run loop against the scalar sampler --

UNIT = 2**53


class _Coin(Kernel):
    """One slot with law (p, "yes", "no"): ``step`` goes to "yes" exactly when u < p."""

    kind = "coin"

    def __init__(self, p):
        self.p = p
        self._slots = [(None, Fraction(1))]

    def _draw(self, rng):
        return None

    def _law(self, state, slot):
        return self.p, "yes", "no"


class _Uniforms:
    """Stands in for a generator whose next uniforms are given."""

    def __init__(self, *us):
        self.random = iter(us).__next__


def _accepts(u, p) -> bool:
    return _Coin(p).step("start", _Uniforms(u)).state == "yes"


@st.composite
def _uniform_near(draw):
    """(k, p): a 53-bit k anywhere, or within a few units of p * 2**53."""
    p = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**30) | st.sampled_from([0, 1]))
    offset = draw(st.integers(-2, 2) | st.none())
    if offset is None:
        return draw(st.integers(0, UNIT - 1)), p
    return min(max(math.floor(p * UNIT) + offset, 0), UNIT - 1), p


@given(_uniform_near())
def test_integer_acceptance_equals_exact_comparison(case):
    k, p = case
    assert _accepts(k / UNIT, p) == (Fraction(k, UNIT) < p)


@pytest.mark.parametrize("p", [Fraction(7, 10), Fraction(1, 3), Fraction(2, 3)])
def test_integer_acceptance_at_the_rounded_probability(p):
    # float(p) lies below p, so u == float(p) is accepted; a float compare would not
    u = float(p)
    assert Fraction(u) < p and not u < float(p)
    assert _accepts(u, p)


def _first_k(j: int, count: int) -> int:
    """The smallest 53-bit k whose slot among count is j or above: ceil(j * 2**53 / count)."""
    return -(-j * UNIT // count)


@given(st.integers(2, PICK_CAP), st.data())
def test_uniform_pick_is_exact_at_slot_boundaries(count, data):
    j = data.draw(st.integers(1, count - 1))
    start, end = _first_k(j, count), _first_k(j + 1, count)
    assert _pick(start, count) == j
    assert _pick(start - 1, count) == j - 1
    assert _pick(end - 1, count) == j
    assert end - start in (UNIT // count, -(-UNIT // count))
    assert _pick(UNIT - 1, count) == count - 1


def test_uniform_pick_where_the_float_product_rounds_up():
    # u * 3 = 2 - 2**-53 rounds to 2.0, so int(u * 3) would pick slot 2
    k = _first_k(2, 3) - 1
    assert int(k / UNIT * 3) == 2
    assert _pick(k, 3) == 1


# slot counts around the int64 limit of the unsplit product k * count (2**10), up to
# the C(1000, 2) pairs of a tree at the label cap, and the cap of the split one
PICK_COUNTS = [2, 3, 7, 1_023, 1_024, 1_025, 1_225, 4_096, 65_537, 499_500, 2**33 + 1, PICK_CAP]


@pytest.mark.parametrize("count", PICK_COUNTS)
def test_array_pick_equals_the_exact_pick(count):
    rng = np.random.default_rng(count)
    edges = [_first_k(j, count) + d for j in rng.integers(1, count, 50).tolist() for d in (-1, 0)]
    ks = [0, UNIT - 1, *edges, *rng.integers(0, UNIT, 500).tolist()]
    exact = [(k * count) >> 53 for k in ks]  # on Python ints, which do not wrap
    assert _pick(np.array(ks, dtype=np.int64), count).tolist() == exact
    assert [_pick(k, count) for k in ks] == exact


def test_uniform_kernels_refuse_more_slots_than_the_pick_allows():
    with pytest.raises(ValueError, match="an exact pick allows at most"):
        _Coin(1)._uniform(range(PICK_CAP + 1))


def _inv_pick(kernel, u: float, bit: float) -> int:
    """The float cumulative pick as first written: the first pair whose edge exceeds u,
    else the last pair; then the direction bit."""
    for i, edge in enumerate(kernel._edges, 1):
        if u < edge:
            break
    else:
        i = kernel.n - 1
    return 2 * i - 2 + (bit >= 0.5)


@pytest.mark.parametrize("n", [4, 6])
def test_inv_array_pick_agrees_with_its_draw_at_the_float_edges(n):
    kernel = InversionChain(cyw_spec(n))
    *interior, last = kernel._edges.tolist()
    # n = 4's float edges end below 1, so u in [last edge, 1) falls past them; n = 6's end at 1
    assert (last < 1) == (n == 4)
    firsts = [math.ceil(Fraction(edge) * UNIT) for edge in interior]  # the first k with k / 2**53 >= edge
    pairs = [k + d for k in firsts for d in (-1, 0)] + [math.ceil(Fraction(last) * UNIT) - 1, UNIT - 1]
    if last < 1:
        pairs += [math.ceil(Fraction(last) * UNIT), (UNIT - 1 + math.ceil(Fraction(last) * UNIT)) // 2]
    cases = [(k, bit) for k in pairs for bit in (0, UNIT // 2 - 1, UNIT // 2, UNIT - 1)]
    picks = kernel._select(*np.array(cases, dtype=np.int64).T).tolist()
    slots = [slot for slot, _ in kernel._slots]
    for (k, bit), pick in zip(cases, picks):
        expected = _inv_pick(kernel, k / UNIT, bit / UNIT)
        assert pick == expected and kernel._draw(_Uniforms(k / UNIT, bit / UNIT)) == slots[expected]


def test_integer_acceptance_for_int_probabilities():
    largest = (UNIT - 1) / UNIT
    assert not _accepts(0.0, 0) and not _accepts(largest, 0)
    assert _accepts(0.0, 1) and _accepts(largest, 1)


def test_run_block_draws_equal_scalar_draws():
    uniforms = InversionChain.uniforms
    blocks, scalar = make_rng(5), make_rng(5)
    # two full blocks and a partial one, as run draws them: crosses two block boundaries
    drawn = [k for count in (BLOCK, BLOCK, 17) for k in _integers(blocks, count * uniforms).tolist()]
    assert [k / UNIT for k in drawn] == [scalar.random() for _ in range((2 * BLOCK + 17) * uniforms)]


def _reference_run(kernel, start, steps: int, seed: int):
    """The sampler as first written: scalar draws and u < Fraction(p), stride 1."""
    rng = make_rng(seed)
    obs = OBSERVABLES[kernel.observable]
    state, moves, records = start, 0, [(0, obs(start))]
    for t in range(1, steps + 1):
        p, yes, no = kernel._law(state, kernel._draw(rng))
        new = yes if rng.random() < Fraction(p) else no
        moves += new != state
        state = new
        records.append((t, obs(state)))
    return state, moves, records


@pytest.mark.parametrize("name", sorted(LAW_CASES))
def test_run_matches_scalar_reference_loop(name):
    make, states = LAW_CASES[name]
    start = states[0]
    traj = run(make(), start, 3_000, seed=17, stride=1)
    assert (traj.final_state, traj.moves, traj.records) == _reference_run(make(), start, 3_000, 17)


def test_run_matches_scalar_reference_loop_past_the_int64_product():
    # 1,225 slots: k * count would wrap in int64 for most k
    kernel = TreeChain(complete_tree(50, Fraction(7, 10)))
    assert len(kernel._slots) == 1_225
    traj = run(kernel, kernel.default_start(), 2_500, seed=3, stride=1)
    assert (traj.final_state, traj.moves, traj.records) == _reference_run(kernel, kernel.default_start(), 2_500, 3)


# -- exact rows against the per-slot Fraction loop ----------------------------------


def reference_row(kernel, state) -> dict:
    """The former per-slot Fraction loop of ``transition_distribution``, kept as the oracle."""
    out: dict = {}
    hold = Fraction(0)
    for slot, mass in kernel._slots:
        p, yes, no = kernel._law(state, slot)
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


def _typed(row: dict) -> list:
    """Entries in insertion order, with each value's type."""
    return [(t, type(p), p) for t, p in row.items()]


LEAGUE6 = LeagueTree.from_json(
    '{"q": 0.9, "left": {"q": 0.8, "left": {"q": 0.6, "left": 1, "right": {"q": 0.5, "left": 2, "right": 3}},'
    ' "right": 4}, "right": {"q": 0.7, "left": 5, "right": 6}}'
)
# adjacent pairs with coprime denominators: the common denominator grows mid-row
COPRIME = dict(zip(combinations(range(1, 5), 2), map(Fraction, ("3/5", "2/3", "13/17", "5/7", "11/13", "7/11"))))

ROW_ORACLE_KERNELS = {
    "nn-constant": lambda: NearestNeighborChain(constant_bias(6, "0.75")),
    "nn-cyw": lambda: NearestNeighborChain(choose_your_weapon(cyw_spec(6))),
    "nn-league": lambda: NearestNeighborChain(league_hierarchy(LEAGUE6)),
    "nn-deterministic": lambda: NearestNeighborChain(constant_bias(4, 1)),
    "nn-coprime": lambda: NearestNeighborChain(BiasTable(4, lambda i, j: COPRIME[i, j])),
    "inv-min": lambda: InversionChain(cyw_spec(6)),
    "inv-max": lambda: InversionChain(CywSpec(r=cyw_spec(6).r, variant="max")),
    "tree-constant": lambda: TreeChain(complete_tree(6, "0.75")),
    "tree-league6": lambda: TreeChain(LEAGUE6),
    "oned": lambda: OnedChain("0.6", 6),
    "asep": lambda: AsepChain("0.7", 3, 3),
    "walk": lambda: WalkChain.fluctuating(_slowmix(4)),
    "walk-constant": lambda: WalkChain.constant(4, "0.75"),
    "walk-transposition": lambda: WalkTranspositionChain(_slowmix(4)),
}


@pytest.mark.parametrize("name", sorted(ROW_ORACLE_KERNELS))
def test_rows_equal_the_fraction_loop(name):
    kernel = ROW_ORACLE_KERNELS[name]()
    for s in kernel.space():
        assert _typed(kernel.transition_distribution(s)) == _typed(reference_row(kernel, s))


@pytest.mark.parametrize("name", sorted(ROW_ORACLE_KERNELS))
def test_cold_rows_equal_warm_rows(name):
    """A kernel's first row equals the row of one whose memo other rows filled."""
    make = ROW_ORACLE_KERNELS[name]
    warm = make()
    states = warm.space()
    for s in reversed(states):
        warm.transition_distribution(s)
    for s in states[:: max(1, len(states) // 40)]:
        cold = make().transition_distribution(s)
        assert _typed(cold) == _typed(warm.transition_distribution(s)) == _typed(reference_row(warm, s))


@pytest.mark.parametrize("name", ["nn-coprime", "tree-league6"])
def test_common_denominator_grows_inside_a_row(name):
    """The memo's denominator grows between two hold terms of a cold kernel's row."""
    kernel = ROW_ORACLE_KERNELS[name]()
    state = kernel.default_start()
    grown = []
    add = kernel._terms.add

    def recording_add(key, mass, p):
        before = kernel._terms.common
        entry = add(key, mass, p)
        grown.append(kernel._terms.common != before)
        return entry

    kernel._terms.add = recording_add
    row = kernel.transition_distribution(state)
    assert sum(grown[1:]) >= 1
    assert _typed(row) == _typed(reference_row(kernel, state))


@given(st.lists(st.fractions(0, 1, max_denominator=30), min_size=6, max_size=6))
def test_rows_equal_the_fraction_loop_on_rational_tables(ps):
    upper = dict(zip(combinations(range(1, 5), 2), ps))
    kernel = NearestNeighborChain(BiasTable(4, lambda i, j: upper[i, j]))
    for s in all_permutations(4):
        assert _typed(kernel.transition_distribution(s)) == _typed(reference_row(kernel, s))


# -- the kernel registry ----------------------------------------------------------

# kind -> (model, --n), a small space of every registered kernel
REGISTRY_CONFIGS = {
    "nn": ("cyw:0.6,0.7,0.8", None),
    "inv": ("constant:0.7", 4),
    "tree": ("constant:0.7", 4),
    "oned": ("oned:0.6,5", None),
    "asep": ("asep:0.6,2,3", None),
    "walk": ("constant:0.7", 3),
    "walk-transposition": ("slowmix:4", None),
}


@pytest.mark.parametrize("kind", list(KERNELS))
def test_registered_kernel_metadata(kind):
    model, n = REGISTRY_CONFIGS[kind]
    kernel = build(kind, parse_model_spec(model), n)
    assert type(kernel) is KERNELS[kind] and kernel.kind == kind
    states = kernel.space()
    start = kernel.default_start()
    assert start in states
    assert kernel.space_size() == len(states)
    assert isinstance(OBSERVABLES[kernel.observable](start), float)
