"""
Kernel behavior:

- one-step distributions are exact, sum to 1, and have the right support
- detailed balance holds exactly for every kernel at enumerable sizes
- hold probabilities respect the documented floors
- trajectories are deterministic given a seed and track the stationary law
- each kernel's sampler follows its own exact one-step row
- the integer acceptance test equals u < p exactly, block-served uniforms
  equal scalar draws, and ``run`` reproduces the scalar-draw sampler
- the walk kernels obey the ratio and height-jump claims
- every registered kernel starts inside its space, counts that space without
  enumerating it, and names an observable defined on its states
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permchains import walks
from permchains.analysis import (
    detailed_balance_violations,
    stationary_exact,
    transition_matrix,
    tv_distance,
)
from permchains.bias import (
    CywSpec,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    parse_model_spec,
    slow_mixing_bias,
    solve_delta,
)
from permchains.chains import (
    BLOCK,
    KERNELS,
    OBSERVABLES,
    AsepChain,
    BlockUniforms,
    InversionChain,
    Kernel,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    WalkChain,
    WalkTranspositionChain,
    build,
    make_rng,
    run,
)
from permchains.perms import all_permutations, identity, inversion_count, reversal
from permchains.trees import truncate_tree

from support import cyw_spec, truncate_tree_demo


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
    from permchains.chains import _inv_targets

    after, before = _inv_targets(sigma, 4)
    assert after == 6  # first larger label after 4
    assert before == 7  # last larger label before 4


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


def test_inv_max_variant_is_mirror_conjugate():
    from permchains.perms import mirror

    spec = CywSpec(r=("0.6", "0.7", "0.8"), variant="max")
    k = InversionChain(spec)
    k_min = InversionChain(spec.mirrored())
    for sigma in all_permutations(4):
        d = k.transition_distribution(sigma)
        d_ref = {
            mirror(t): p
            for t, p in k_min.transition_distribution(mirror(sigma)).items()
        }
        assert d == d_ref


def test_tree_blocking_example(demo_tree):
    k = TreeChain(demo_tree)
    sigma = (5, 1, 9, 3, 8, 6, 7, 4, 2)
    # between 5 and 7 sit 9, 3, 8, 6, 4; the labels 6, 8, 9 descend from
    # lca(5,7), so the pair is blocked
    assert not k.pair_is_free(sigma, 5, 7)
    # an adjacent pair is always free
    assert k.pair_is_free(sigma, 5, 1)


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
    flat_pair = k.bias_at(1, n)      # far below the diagonal
    steep_pair = k.bias_at(n, 1)     # at the corner
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


def test_integer_acceptance_for_int_probabilities():
    largest = (UNIT - 1) / UNIT
    assert not _accepts(0.0, 0) and not _accepts(largest, 0)
    assert _accepts(0.0, 1) and _accepts(largest, 1)


def test_block_uniforms_equal_scalar_draws():
    count = 2 * BLOCK + 17  # crosses two block boundaries
    blocks, scalar = BlockUniforms(5), make_rng(5)
    assert [blocks.random() for _ in range(count)] == [scalar.random() for _ in range(count)]


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
