"""
Exact analysis machinery:

- transition matrices are row stochastic with the hand-enumerated 2-state law
- weight-derived stationary vectors are matrix fixed points
- TV distance, mixing times, spectral gaps, and conductance match small
  hand-computed oracles; the mixing-time iteration's distances equal a
  ``block @ matrix`` reference step for step
- every explicit cut lower-bounds the exact mixing time
- the product bound is sound on a 4-state toy and reproduces the plug-in form
- coupling and hitting-time estimates agree with birth-death formulas
- the n=4 monotone grid has no gap below the uniform table
- the array-backed walk matrices, stationary law, long-swap conductance and
  height profile equal their Fraction-oracle builds bit for bit at n = 4..7
"""
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from permchains.analysis import (
    CapExceeded,
    GapScan,
    conductance_of_cut,
    coupling_time_estimate,
    gap_problem_scan,
    hitting_time_mean_exact,
    hitting_time_samples,
    is_fixed_point_exact,
    kron_product_matrix,
    level_cuts_by_weight,
    loglog_slope,
    long_swap_conductance,
    mixing_time_exact,
    monotone_grid_tables,
    product_mixing_bound,
    spectral_gap,
    state_index,
    stationary_exact,
    transition_matrix,
    tv_distance,
    walk_stationary,
    walk_transition_matrix,
)
from permchains import walks
from permchains.bias import SlowMixSpec, solve_delta
from permchains.chains import WalkChain, WalkTranspositionChain
from permchains.bias import choose_your_weapon, constant_bias
from permchains.chains import (
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
)
from permchains.perms import identity, reversal
from permchains.trees import truncate_tree

from support import cyw_spec


def test_two_state_matrix():
    k = NearestNeighborChain(constant_bias(2, "0.7"))
    m = transition_matrix(k).toarray()
    assert np.allclose(m, [[0.7, 0.3], [0.7, 0.3]])


def test_uniform_chain_is_doubly_stochastic():
    k = NearestNeighborChain(constant_bias(3, "0.5"))
    m = transition_matrix(k).toarray()
    assert np.allclose(m.sum(axis=0), 1.0)
    assert np.allclose(m.sum(axis=1), 1.0)


def test_row_sums():
    k = NearestNeighborChain(choose_your_weapon(cyw_spec(4)))
    m = transition_matrix(k)
    assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), 1.0, atol=1e-14)


def test_stationary_examples():
    k = NearestNeighborChain(constant_bias(2, "0.7"))
    pi = stationary_exact(k)
    assert pi[0] == pytest.approx(0.7) and pi[1] == pytest.approx(0.3)
    u = NearestNeighborChain(constant_bias(3, "0.5"))
    assert np.allclose(stationary_exact(u), 1 / 6)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_eigen_weight_agreement(n, demo_tree):
    for kernel in (
        NearestNeighborChain(choose_your_weapon(cyw_spec(n))),
        InversionChain(cyw_spec(n)),
        TreeChain(truncate_tree(demo_tree, n)),
    ):
        states = kernel.space()
        pi = stationary_exact(kernel, states)
        m = transition_matrix(kernel, states)
        assert np.abs(pi @ m.toarray() - pi).max() < 1e-10
        assert is_fixed_point_exact(kernel, states)


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0
    assert tv_distance([1, 0], [0, 1]) == 1
    m = 8
    point = np.zeros(m)
    point[0] = 1
    assert tv_distance(point, np.full(m, 1 / m)) == pytest.approx(1 - 1 / m)


def test_mixing_time_deterministic_step():
    k = NearestNeighborChain(constant_bias(2, 1))
    m = transition_matrix(k)
    pi = stationary_exact(k)
    assert mixing_time_exact(m, pi, 0.25).tau == 1


def test_mixing_time_pinned_uniform_n3():
    k = NearestNeighborChain(constant_bias(3, "0.5"))
    res = mixing_time_exact(transition_matrix(k), stationary_exact(k), 0.25)
    assert res.tau == 4
    # worst-start TV never increases along the horizon
    assert all(a >= b - 1e-12 for a, b in zip(res.distances, res.distances[1:]))


def test_mixing_time_deterministic_climb():
    k = OnedChain(1, 5)
    m = transition_matrix(k)
    pi = stationary_exact(k)
    assert mixing_time_exact(m, pi, 0.1).tau == 5


def _distances_by_rmatmul(matrix, pi, eps, starts):
    """Worst-start TV curve stepped with ``block @ matrix``: the reference."""
    block = np.eye(matrix.shape[0])
    if starts is not None:
        block = block[starts]
    distances = [float(np.abs(block - pi).sum(axis=1).max() * 0.5)]
    while distances[-1] > eps:
        block = block @ matrix
        distances.append(float(np.abs(block - pi).sum(axis=1).max() * 0.5))
    return distances


@pytest.mark.parametrize("chain", ["nn", "walk"])
def test_mixing_iteration_matches_rmatmul(chain):
    if chain == "nn":
        kernel = NearestNeighborChain(choose_your_weapon(cyw_spec(5)))
        starts = None
    else:
        kernel = WalkChain.fluctuating(SlowMixSpec(n=5, delta=solve_delta(5)))
        starts = [0, len(kernel.space()) - 1]
    matrix = transition_matrix(kernel)
    pi = stationary_exact(kernel)
    res = mixing_time_exact(matrix, pi, 0.25, starts=starts)
    assert res.tau > 1
    assert res.distances == _distances_by_rmatmul(matrix, pi, 0.25, starts)


def test_spectral_gap_two_state():
    k = NearestNeighborChain(constant_bias(2, "0.7"))
    gap = spectral_gap(transition_matrix(k), stationary_exact(k))
    assert gap == pytest.approx(1.0)


def test_spectral_gap_in_unit_interval(demo_tree):
    for kernel in (
        NearestNeighborChain(choose_your_weapon(cyw_spec(4))),
        TreeChain(truncate_tree(demo_tree, 4)),
    ):
        gap = spectral_gap(transition_matrix(kernel), stationary_exact(kernel))
        assert 0 < gap <= 1


def test_spectral_gap_rejects_non_reversible():
    m = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral_gap(m, np.full(3, 1 / 3))


def test_spectral_gap_rejects_zero_mass(recwarn):
    k = OnedChain(1, 5)  # all mass on the top state
    with pytest.raises(ValueError, match="pi > 0"):
        spectral_gap(transition_matrix(k), stationary_exact(k))
    assert not recwarn.list


def test_conductance_two_state_hand_value():
    k = NearestNeighborChain(constant_bias(2, "0.7"))
    m = transition_matrix(k)
    pi = stationary_exact(k)
    # cut {(2,1)}: mass 0.3, flow 0.3 * 0.7
    assert conductance_of_cut(m, pi, [1]) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        conductance_of_cut(m, pi, [])


def test_conductance_disconnected_is_zero():
    m = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pi = np.array([0.5, 0.5])
    assert conductance_of_cut(m, pi, [0]) == 0


def test_conductance_large_cut_uses_complement():
    k = NearestNeighborChain(constant_bias(2, "0.7"))
    m = transition_matrix(k)
    pi = stationary_exact(k)
    assert conductance_of_cut(m, pi, [0]) == pytest.approx(0.7)


@pytest.mark.parametrize("n", [3, 4])
def test_mixing_respects_explicit_cut_bounds(n):
    k = NearestNeighborChain(choose_your_weapon(cyw_spec(n)))
    states = k.space()
    m = transition_matrix(k, states)
    pi = stationary_exact(k, states)
    tau = mixing_time_exact(m, pi, 0.25).tau
    for cut in level_cuts_by_weight(pi):
        phi = conductance_of_cut(m, pi, cut)
        if phi > 0:
            assert tau >= 1 / (4 * phi) - 0.5 - 1e-9


# -- product chains ---------------------------------------------------------------


def lazy_pair_chain(p: float, move_prob: float) -> np.ndarray:
    k = np.array([[p, 1 - p], [p, 1 - p]])
    return (1 - move_prob) * np.eye(2) + move_prob * k


def test_product_bound_single_factor():
    tau_calls = []

    def tau(eps):
        tau_calls.append(eps)
        return 7

    assert product_mixing_bound([1.0], [tau], 1, 0.25) == pytest.approx(14.0)
    assert tau_calls == [0.125]  # eps / (2M)


def test_product_bound_soundness_two_factor_toy():
    p1, pi1 = lazy_pair_chain(0.7, 0.2), np.array([0.7, 0.3])
    p2, pi2 = lazy_pair_chain(0.6, 0.2), np.array([0.6, 0.4])

    def tau1(e):
        return mixing_time_exact(sp.csr_matrix(p1), pi1, e).tau

    def tau2(e):
        return mixing_time_exact(sp.csr_matrix(p2), pi2, e).tau

    select = (0.3, 0.7)
    prod = kron_product_matrix([p1, p2], select)
    pi = np.kron(pi1, pi2)
    for eps in (0.25, 0.05):
        exact = mixing_time_exact(sp.csr_matrix(prod), pi, eps).tau
        bound = product_mixing_bound(select, [tau1, tau2], 2, eps)
        assert bound >= exact


def test_product_bound_reproduces_inversion_plugin():
    # with tau_i(x) = (n - i) ln(1/x) every factor contributes the same
    # 2 C(n,2) ln(2M/eps); the factor 2 comes from the bound itself
    n, eps = 6, 0.25
    pairs = math.comb(n, 2)
    select = [(n - i) / pairs for i in range(1, n)]
    taus = [(lambda i: (lambda x: (n - i) * math.log(1 / x)))(i) for i in range(1, n)]
    bound = product_mixing_bound(select, taus, n - 1, eps)
    assert bound == pytest.approx(2 * pairs * math.log(2 * (n - 1) / eps))


def test_product_bound_validation():
    with pytest.raises(ValueError):
        product_mixing_bound([], [], 0, 0.25)
    with pytest.raises(ValueError):
        product_mixing_bound([0.9, 0.9], [lambda e: 1, lambda e: 1], 2, 0.25)


# -- one-dimensional estimates ---------------------------------------------------


def test_hitting_time_exact_formula():
    # birth-death recursion: t_0 = 1/r, t_h = (1 + (1-r) t_{h-1}) / r
    assert hitting_time_mean_exact(1.0, 5) == pytest.approx(5.0)
    assert hitting_time_mean_exact(0.75, 10) == pytest.approx(19.0 + 3.0**-10)
    # symmetric walk with a holding boundary: exactly k(k+1)
    assert hitting_time_mean_exact(0.5, 16) == pytest.approx(16 * 17)


def test_hitting_time_samples_match_exact():
    samples = hitting_time_samples(0.75, 10, 50_000, seed=6)
    assert samples.mean() == pytest.approx(hitting_time_mean_exact(0.75, 10), rel=0.02)


def test_coupling_estimates():
    est = coupling_time_estimate(OnedChain(1, 5), 1000, seed=3)
    assert est.mean_coupling_time == pytest.approx(5.0)
    est = coupling_time_estimate(OnedChain("0.75", 10), 100_000, seed=3)
    assert est.mean_coupling_time == pytest.approx(10 / (2 * 0.75 - 1), rel=0.10)
    est = coupling_time_estimate(OnedChain("0.5", 8), 50_000, seed=3)
    assert est.mean_coupling_time <= 64
    assert est.tau_bound(0.25) == pytest.approx(est.mean_coupling_time * math.e * 2)


# -- gap scan ----------------------------------------------------------------------


def test_monotone_grid_count():
    tables = monotone_grid_tables(4, [0.5, 0.6, 0.7, 0.8, 0.9])
    for flat in tables[:50]:
        assert flat[(1, 2)] <= flat[(1, 3)] <= flat[(1, 4)]
        assert flat[(1, 3)] >= flat[(2, 3)]
        assert flat[(1, 4)] >= flat[(2, 4)] >= flat[(3, 4)]
    assert len(tables) == 1001


def test_gap_scan_small_grid():
    scan = gap_problem_scan(3, values=(Fraction(1, 2), Fraction(7, 10)))
    assert isinstance(scan, GapScan)
    assert not scan.violations
    assert scan.min_gap >= scan.uniform_gap - 1e-12


def test_loglog_slope():
    ns = [3, 4, 5, 6]
    cubes = [n**3 for n in ns]
    assert loglog_slope(ns, cubes) == pytest.approx(3.0)


def test_cap_enforced():
    class Fake:
        def space(self):
            return list(range(200_001))

    with pytest.raises(CapExceeded):
        transition_matrix(Fake())


# -- array-backed walk spaces against the Fraction oracle -------------------------

WALK_SIZES = [4, 5, 6, 7]


def _slowmix_spec(n):
    return SlowMixSpec(n=n, delta=solve_delta(n))


WALK_CHAINS = {
    "fluctuating": lambda n: WalkChain.fluctuating(_slowmix_spec(n)),
    "constant-3/4": lambda n: WalkChain.constant(n, Fraction(3, 4)),
    "constant-2/3": lambda n: WalkChain.constant(n, Fraction(2, 3)),
}


@pytest.mark.parametrize("name", sorted(WALK_CHAINS))
@pytest.mark.parametrize("n", WALK_SIZES)
def test_walk_matrix_and_pi_match_oracle(n, name):
    chain = WALK_CHAINS[name](n)
    arrays = walks.walk_arrays(n)
    states = walks.all_walks(n)
    fast = walk_transition_matrix(chain, arrays)
    exact = transition_matrix(chain, states)
    assert (fast != exact).nnz == 0
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, attr), getattr(exact, attr))
    assert np.array_equal(walk_stationary(chain, arrays), stationary_exact(chain, states))


def row_by_row_long_swap_conductance(chain, pi):
    """Flow out of the low class over its mass, one transition_distribution row at a time."""
    level = chain.spec.level
    mass = flow = 0.0
    for k, w in enumerate(walks.all_walks(chain.n)):
        h = walks.max_height(w)
        if h >= level:
            continue
        mass += pi[k]
        if h < level - 2:
            continue
        for t, p in chain.transition_distribution(w).items():
            if t != w and walks.max_height(t) >= level:
                flow += pi[k] * float(p)
    return flow / mass


@pytest.mark.parametrize("n", WALK_SIZES)
def test_long_swap_conductance_matches_row_scan(n):
    spec = _slowmix_spec(n)
    arrays = walks.walk_arrays(n)
    pi = walk_stationary(WalkChain.fluctuating(spec), arrays)
    chain = WalkTranspositionChain(spec)
    assert long_swap_conductance(chain, arrays, pi) == row_by_row_long_swap_conductance(chain, pi)


@pytest.mark.parametrize("n", WALK_SIZES)
def test_height_profile_matches_tuple_build(n):
    counts = {}
    for w in walks.all_walks(n):
        table = counts.setdefault(walks.max_height(w), {})
        key = walks.tile_counts(w)
        table[key] = table.get(key, 0) + 1
    assert walks.height_profile(n).counts == counts
