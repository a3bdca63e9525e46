"""
Exact analysis machinery:

- transition matrices are row stochastic with the hand-enumerated 2-state law
- weight-derived stationary vectors are matrix fixed points
- TV distance, mixing times, spectral gaps, and conductance match small
  hand-computed oracles; the in-place spectral gap equals the former
  out-of-place steps bit for bit; the chunked mixing-time iteration's distances and
  tau equal a ``block @ matrix`` reference and the former transposed-block
  loop step for step (720-state all-starts runs, extreme starts at 5,040
  permutations and 3,432 and 12,870 walks, a single-column chunk, a horizon
  that runs out, eps met at t = 0, a single start, a pi that is not
  stationary), with one worker and with two, and with a chunk stepping at
  most five steps per pass; tau is the first step every live chunk has taken
  with every chunk within eps, a retired chunk counting as within; a pi that
  is not stationary turns retirement off, and a chunk that retired above the
  final maximum is stepped on to tau; only runs of two or more chunks start a
  thread pool, no thread outlives the call, a worker's exception reaches the
  caller without a hang, no chunk steps past tau with chunks queued, the
  lowest extreme start reaches tau in its first pass, and the highest walk
  retires a few steps after its crossing; the retirement floor counts the
  terms of a dense column
- every explicit cut lower-bounds the exact mixing time; the vectorised cut
  flow equals the former loop over COO entries, and the slowmix level cut's
  flow from the walk classes equals it on the built matrix at n = 4..9
- the product bound is sound on a 4-state toy and reproduces the plug-in form
- coupling and hitting-time estimates agree with birth-death formulas
- the n=4 monotone grid has no gap below the uniform table
- the array-backed walk matrices, stationary law, long-swap conductance and
  height profile equal their Fraction-oracle builds bit for bit at n = 4..7
  (the conductance also at n = 8), and the matrices and law of slowmix's two
  chains at n = 8; the row classes keyed by one integer hold where one
  mixed-radix key would overflow, and on signed rows shifted to 0 equal
  np.unique(axis=0)'s
- the array-backed inv and tree matrices equal ``transition_matrix`` in
  indptr, indices and data at n = 2..7 and, by hypothesis, for random
  rational cyw tables (min and max) and random league trees with q = 1
  allowed at n <= 6; the permutation finders refuse states out of
  lexicographic order
- every matrix gate goes through one check of the assembly
  (``class_rows_matrix``) against ``transition_matrix``, which also runs
  once per finder on the largest space the benchmark builds with it
- the array stationary law of nn, inv and tree equals the Fraction weights'
  ``distribution``, also where a p = 1 pair leaves states with zero weight
"""
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from permchains.analysis import (
    ARRAY_ROWS,
    CHUNK,
    CapExceeded,
    class_rows_matrix,
    conductance_of_cut,
    distribution,
    is_fixed_point_exact,
    level_cuts_by_weight,
    loglog_slope,
    long_swap_conductance,
    mixing_time_exact,
    spectral_gap,
    state_index,
    stationary_exact,
    transition_matrix,
    walk_stationary,
)
from permchains import analysis, walks
from permchains.bias import SlowMixSpec, solve_delta
from permchains.chains import WalkChain, WalkTranspositionChain
from permchains.bias import BiasTable, choose_your_weapon, constant_bias, parse_model_spec
from permchains.chains import (
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    build,
)
from permchains.perms import identity, reversal
from permchains.trees import complete_tree, truncate_tree

from support import (
    GapScan,
    coupling_time_estimate,
    cyw_kernels,
    cyw_spec,
    gap_problem_scan,
    hitting_time_mean_exact,
    hitting_time_samples,
    kron_product_matrix,
    league_kernels,
    monotone_grid_tables,
    product_mixing_bound,
    tv_distance,
)


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


def _start_blocks(m, starts, whole=False):
    """The (starts, states) blocks a reference steps: the whole identity for
    every start, else one (1, states) block per explicit start, or all of
    them in one block if ``whole``."""
    eye = np.eye(m)
    if starts is None:
        return [eye]
    return [eye[starts]] if whole else [eye[[s]] for s in starts]


def _stepped_distances(step, pi, eps, blocks, horizon):
    """The worst TV over ``blocks`` at each step of ``step``, until it is
    within eps or the horizon is spent."""
    def worst():
        return max(float(np.abs(block - pi).sum(axis=1).max() * 0.5) for block in blocks)

    distances = [worst()]
    while distances[-1] > eps and len(distances) <= horizon:
        blocks = [step(block) for block in blocks]
        distances.append(worst())
    return distances


def _distances_by_rmatmul(matrix, pi, eps, starts):
    """Worst-start TV curve stepped with ``block @ matrix``: the reference."""
    return _stepped_distances(lambda block: block @ matrix, pi, eps, _start_blocks(matrix.shape[0], starts), 200_000)


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


def _distances_by_transposed_block(matrix, pi, eps, starts, horizon=200_000, whole=False):
    """The former stepping loop, kept as the reference: a (starts, states) block
    stepped through ``(matrix.T @ block.T).T``, a new |block - pi| every step.
    Explicit starts step one block each, unless ``whole`` (the former loop)."""
    transposed = matrix.T
    blocks = _start_blocks(matrix.shape[0], starts, whole)
    return _stepped_distances(lambda block: (transposed @ block.T).T, pi, eps, blocks, horizon)


def _kernel_case(kind, model, n=None, extreme=False):
    kernel = build(kind, parse_model_spec(model), n)
    states = kernel.space()
    starts = [0, len(states) - 1] if extreme else None
    return transition_matrix(kernel, states), stationary_exact(kernel, states), starts


def _walk_case(chain):
    arrays = walks.walk_arrays(chain.n)
    starts = [0, len(arrays.codes) - 1]
    return class_rows_matrix(chain, analysis._walk_swaps(chain, arrays)), walk_stationary(chain, arrays), starts


# id: (matrix, pi, starts), eps, horizon
FORMER_LOOP_CASES = {
    # the 720-state all-starts runs of exact/scan at n = 6: six chunks
    "nn-cyw:0.6,0.7,0.8,0.9,0.75": (lambda: _kernel_case("nn", "cyw:0.6,0.7,0.8,0.9,0.75"), 0.25, 200_000),
    "inv-constant:0.75": (lambda: _kernel_case("inv", "constant:0.75", 6), 0.25, 200_000),
    "tree-constant:0.75": (lambda: _kernel_case("tree", "constant:0.75", 6), 0.25, 200_000),
    # extreme starts, a (states, 1) block each: exact at n = 7 and the slowmix walks
    "nn-5040": (lambda: _kernel_case("nn", "constant:0.75", 7, extreme=True), 0.25, 200_000),
    "inv-5040": (lambda: _kernel_case("inv", "constant:0.75", 7, extreme=True), 0.25, 200_000),
    "tree-5040": (lambda: _kernel_case("tree", "constant:0.75", 7, extreme=True), 0.25, 200_000),
    "walk-slowmix:7": (lambda: _kernel_case("walk", "slowmix:7", extreme=True), 0.25, 200_000),
    "slowmix-comparison-8": (lambda: _walk_case(WalkChain.constant(8, Fraction(3, 4))), 0.25, 200_000),
    # CHUNK + 1 states: two chunks, of 65 and 64 columns
    "chunk-plus-one": (lambda: _kernel_case("oned", f"oned:0.6,{CHUNK}"), 0.25, 200_000),
    "horizon-runs-out": (lambda: _kernel_case("oned", f"oned:0.6,{CHUNK}"), 0.25, 10),
    "eps-met-at-0": (lambda: _kernel_case("tree", "constant:0.75", 6), 1.0, 200_000),
    "single-start": (lambda: _kernel_case("tree", "constant:0.75", 6)[:2] + ([719],), 0.25, 200_000),
    # uniform pi on a biased chain: ||pi P - pi||_1 = 0.13, so no chunk may retire
    "nn-uniform-pi": (lambda: (_kernel_case("nn", "constant:0.75", 6)[0], np.full(720, 1 / 720), None), 0.8, 200_000),
}


@pytest.mark.parametrize("case", sorted(FORMER_LOOP_CASES))
def test_mixing_distances_equal_the_former_loop(case, monkeypatch):
    build_case, eps, horizon = FORMER_LOOP_CASES[case]
    matrix, pi, starts = build_case()
    expected = _distances_by_transposed_block(matrix, pi, eps, starts, horizon)
    tau = len(expected) - 1 if expected[-1] <= eps else None
    for workers in (1, 2):  # the chunks on the calling thread, then on a pool
        monkeypatch.setattr(analysis, "WORKERS", workers)
        res = mixing_time_exact(matrix, pi, eps, starts=starts, horizon=horizon)
        assert res.distances == expected
        assert res.tau == tau
    if starts is not None and len(starts) > 1:
        # the former loop summed the starts' block in one order for all of them
        former = _distances_by_transposed_block(matrix, pi, eps, starts, horizon, whole=True)
        assert len(former) == len(expected) and np.allclose(former, expected, rtol=0, atol=1e-12)
    if case == "horizon-runs-out":
        assert res.tau is None and len(res.distances) == horizon + 1
    elif case == "eps-met-at-0":
        assert res.tau == 0
    else:
        assert res.tau > 1


@pytest.mark.parametrize("case", [
    "tree-constant:0.75", "chunk-plus-one", "horizon-runs-out", "slowmix-comparison-8", "walk-slowmix:7",
])
def test_mixing_distances_hold_across_many_passes(case, monkeypatch):
    # five steps per chunk and pass: tau 172, 672 and 750 take 35, 135 and 150
    # passes, and the extreme starts' chunks step on across the pass boundaries
    build_case, eps, horizon = FORMER_LOOP_CASES[case]
    matrix, pi, starts = build_case()
    monkeypatch.setattr(analysis, "WORKERS", 2)
    monkeypatch.setattr(analysis, "LOG", 5)
    res = mixing_time_exact(matrix, pi, eps, starts=starts, horizon=horizon)
    assert res.distances == _distances_by_transposed_block(matrix, pi, eps, starts, horizon)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_start_curve_does_not_depend_on_its_companions(workers, monkeypatch):
    # each explicit start is a chunk of its own, so two starts together give
    # the larger of their curves on the steps both take alone
    monkeypatch.setattr(analysis, "WORKERS", workers)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    low, high = (mixing_time_exact(matrix, pi, 0.25, starts=[s]).distances for s in (0, 719))
    both = mixing_time_exact(matrix, pi, 0.25, starts=[0, 719]).distances
    common = min(len(low), len(high))
    assert both[:common] == list(map(max, low[:common], high[:common]))


@pytest.mark.parametrize("curves, tau", [
    ([[0.5, 0.3, 0.2], [0.4, 0.2, 0.1, 0.1]], 3),  # uneven lengths
    ([[0.5, 0.2, 0.1, 0.05, 0.01], [0.5, 0.3, 0.2]], 3),  # a chunk ran past tau
    ([[0.5, 0.2, 0.3, 0.2], [0.5, 0.4, 0.3, 0.1]], 4),  # a dip below eps, then a rise
    ([[0.25, 0.3, 0.1], [0.3, 0.25, 0.2]], 3),  # each at eps once, never at one t
    ([[0.3, 0.25], [0.3, 0.25]], 2),  # eps itself is within
    ([[0.5, 0.2, 0.1], [0.5]], None),  # past the common prefix
    ([[0.5, 0.4], [0.3, 0.3]], None),  # the horizon ran out
])
def test_tau_is_the_first_common_step_with_every_chunk_within_eps(curves, tau):
    # each curve starts at its t = 0 value
    assert analysis._tau([[1.0] + curve for curve in curves], 0.25)[0] == tau


@pytest.mark.parametrize("curves, retired, distances, tau", [
    # a retired chunk counts as within eps past its last step
    ([[1, 0.5, 0.3, 0.2], [1, 0.2, 0.1]], {1}, [1, 0.5, 0.3, 0.2], 3),
    # a retired chunk ahead of the live one: only the live one's steps count
    ([[1, 0.5, 0.3], [1, 0.6, 0.2, 0.1, 0.05]], {1}, [1, 0.6, 0.3], None),
    # every chunk retired: every step taken counts
    ([[1, 0.2, 0.1], [1, 0.5, 0.2, 0.1]], {0, 1}, [1, 0.5, 0.2, 0.1], 2),
    # a live chunk past eps, the other retired before it crossed: not yet tau
    ([[1, 0.4, 0.3], [1, 0.2, 0.1]], {1}, [1, 0.4, 0.3], None),
])
def test_tau_counts_a_retired_chunk_as_within_eps(curves, retired, distances, tau):
    assert analysis._tau(curves, 0.25, retired) == (tau, distances)


def _steps_per_chunk(monkeypatch):
    """Record the step count each pass leaves each chunk at, keyed by the
    state of the chunk's first start, and each pass's ``floor``."""
    real, reached, keys = analysis._run_chunk, {}, {}

    def recording(transposed, pi, x, spare, log, curve, reached_, eps, horizon, floor):
        if len(curve) == 1:  # t = 0: the chunk's first nonzero is its first start
            keys[id(curve)] = int(np.flatnonzero(x)[0]) // x.shape[1]
        taken = real(transposed, pi, x, spare, log, curve, reached_, eps, horizon, floor)
        reached.setdefault(keys[id(curve)], []).append((len(curve) - 1 + taken, floor))
        return taken

    monkeypatch.setattr(analysis, "_run_chunk", recording)
    return reached


def test_no_chunk_steps_past_tau_with_chunks_queued(monkeypatch):
    # six chunks on two workers: a chunk within eps stops at its first
    # crossing past the others' step counts, or retires before it
    monkeypatch.setattr(analysis, "WORKERS", 2)
    reached = _steps_per_chunk(monkeypatch)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    res = mixing_time_exact(matrix, pi, 0.25)
    ends = [steps[-1][0] for steps in reached.values()]
    assert len(ends) == 6 and max(ends) == res.tau == 172 and min(ends) < res.tau


def _retirement_step(matrix, pi, start, eps):
    """The step at which ``start`` alone retires, from the reference loop."""
    import scipy.sparse as sp

    floor = analysis._retirement_floor(sp.csc_matrix(matrix.T), pi, eps, 200_000)
    curve = _distances_by_transposed_block(matrix, pi, eps / 2, [start])
    return next(t for t in range(1, len(curve)) if analysis._retired(curve[t - 1], curve[t], eps, floor))


def test_extreme_starts_finish_together_in_one_pass(monkeypatch):
    # the highest walk is within eps at step 19 and the lowest at 550: the
    # lowest reaches tau in its first pass and never waits, and the highest
    # stops at its crossing, then takes the few steps to retire in the next
    # pass, while the lowest takes none; no chunk is resumed
    monkeypatch.setattr(analysis, "WORKERS", 2)
    monkeypatch.setattr(analysis, "LOG", 4096)
    reached = _steps_per_chunk(monkeypatch)
    matrix, pi, starts = _walk_case(WalkChain.constant(7, Fraction(3, 4)))
    res = mixing_time_exact(matrix, pi, 0.25, starts=starts)
    crossing = len(_distances_by_transposed_block(matrix, pi, 0.25, starts[1:])) - 1
    retiring = _retirement_step(matrix, pi, starts[1], 0.25)
    low, high = ([steps for steps, floor in reached[s] if floor is not None] for s in starts)
    assert res.tau == 550 and low == [550, 550]
    assert high == [crossing, retiring] and crossing < retiring <= crossing + 3
    assert sum(map(len, reached.values())) == 4  # two passes, nothing resumed


def test_a_pi_that_is_not_stationary_turns_retirement_off(monkeypatch):
    # with no chunk retired, each stops at a crossing at or past the largest
    # step count of the pass before, so none ends before tau
    import scipy.sparse as sp

    build_case, eps, horizon = FORMER_LOOP_CASES["nn-uniform-pi"]
    matrix, pi, _ = build_case()
    assert analysis._retirement_floor(sp.csc_matrix(matrix.T), pi, eps, horizon) is None
    monkeypatch.setattr(analysis, "WORKERS", 2)
    reached = _steps_per_chunk(monkeypatch)
    res = mixing_time_exact(matrix, pi, eps)
    assert res.distances == _distances_by_transposed_block(matrix, pi, eps, None)
    assert len(reached) == 6
    assert all(steps[-1][0] >= res.tau and floor is None for steps in reached.values() for _, floor in steps)


@pytest.mark.parametrize("chain, model, n", [
    ("nn", "constant:0.75", 6), ("tree", "constant:0.75", 6), ("walk", "slowmix:7", None),
])
def test_the_retirement_floor_holds_on_stochastic_matrices(chain, model, n):
    # the rows' and pi's defects are rounding, so 1e-9 is the floor; a
    # negative entry turns retirement off
    import scipy.sparse as sp

    matrix, pi, _ = _kernel_case(chain, model, n)
    transposed = sp.csc_matrix(matrix.T)
    assert analysis._retirement_floor(transposed, pi, 0.25, 200_000) == 1e-9
    transposed.data[0] = -transposed.data[0]
    assert analysis._retirement_floor(transposed, pi, 0.25, 200_000) is None


def test_the_retirement_floor_counts_the_terms_of_a_dense_column():
    # every state holds or moves to state 0 with probability 1/2: a row has
    # at most two nonzeros, but entry 0 of xP sums all m of column 0
    import scipy.sparse as sp

    m, horizon = 1000, 200_000
    rows = np.concatenate([np.arange(m), np.arange(m)])
    matrix = sp.csr_matrix((np.full(2 * m, 0.5), (rows, np.r_[np.arange(m), np.zeros(m, int)])), shape=(m, m))
    pi = np.eye(m)[0]  # stationary: state 0 holds
    floor = analysis._retirement_floor(sp.csc_matrix(matrix.T), pi, 0.25, horizon)
    assert floor == pytest.approx((horizon + 1) * m * np.finfo(float).eps) and floor > 1e-9


@pytest.mark.parametrize("workers", [1, 2])
def test_a_chunk_retired_above_the_final_maximum_is_resumed(workers, monkeypatch):
    # with no margin, a chunk retires at its crossing; three of the six cross
    # at 129 to 135 with values above distances[172], so they step on to tau
    monkeypatch.setattr(analysis, "_retired", lambda prev, last, eps, floor: last <= eps)
    monkeypatch.setattr(analysis, "WORKERS", workers)
    reached = _steps_per_chunk(monkeypatch)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    res = mixing_time_exact(matrix, pi, 0.25)
    assert res.distances == _distances_by_transposed_block(matrix, pi, 0.25, None)
    resumed = [steps for steps in reached.values() if steps[-1][1] is None]
    assert len(resumed) == 3 and all(steps[-1][0] == res.tau > steps[-2][0] for steps in resumed)


@pytest.mark.parametrize("horizon", [200_000, 10])
def test_all_starts_pool_leaves_no_thread(horizon, monkeypatch):
    # CHUNK + 1 states: two chunks, so two workers, and two explicit starts
    # with a worker each; horizon 10 runs out
    monkeypatch.setattr(analysis, "WORKERS", 2)
    matrix, pi, _ = _kernel_case("oned", f"oned:0.6,{CHUNK}")
    for starts in (None, [0, CHUNK]):
        before = threading.active_count()
        res = mixing_time_exact(matrix, pi, 0.25, starts=starts, horizon=horizon)
        assert (res.tau is not None) == (horizon > 10)
        assert threading.active_count() == before


def _within(seconds, call):
    """Run ``call`` on a daemon thread; its result or exception, which must
    come within ``seconds``."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:  # handed to the test, which checks it
            outcome.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive()
    return outcome[0]


def test_speculation_holds_with_more_workers_than_cores(monkeypatch):
    # four explicit starts with a worker each, more workers than a small host
    # has CPUs; a switch interval of a microsecond and five steps a pass make
    # the threads switch mid-step and the chunks retire across many passes
    monkeypatch.setattr(analysis, "WORKERS", 4)
    monkeypatch.setattr(analysis, "LOG", 5)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    starts = [0, 100, 500, 719]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = _within(60, lambda: mixing_time_exact(matrix, pi, 0.25, starts=starts))
    finally:
        sys.setswitchinterval(interval)
    assert res.distances == _distances_by_transposed_block(matrix, pi, 0.25, starts)


class _FailingPi(np.ndarray):
    """A stationary law whose first use in a step raises."""

    def __array_ufunc__(self, *args, **kwargs):
        raise RuntimeError("chunk 1 failed")


def test_a_worker_exception_neither_hangs_nor_leaks(monkeypatch):
    # the highest walk's chunk fails in its first step, after its sparse
    # product, while the lowest walk's chunk is far above eps
    real = analysis._run_chunk

    def failing(transposed, pi, x, *rest):
        return real(transposed, pi.view(_FailingPi) if x[-1, 0] == 1 else pi, x, *rest)

    monkeypatch.setattr(analysis, "_run_chunk", failing)
    monkeypatch.setattr(analysis, "WORKERS", 2)
    monkeypatch.setattr(analysis, "LOG", 4096)  # one pass: the lowest walk crosses at 550
    reached = _steps_per_chunk(monkeypatch)
    matrix, pi, starts = _walk_case(WalkChain.constant(7, Fraction(3, 4)))
    before = threading.active_count()
    outcome = _within(10, lambda: mixing_time_exact(matrix, pi, 0.25, starts=starts))
    assert isinstance(outcome, RuntimeError) and str(outcome) == "chunk 1 failed"
    assert threading.active_count() == before
    # the other chunk stopped at its crossing, instead of stepping on to LOG
    assert [steps for steps, _ in reached[starts[0]]] == [550]
    assert list(reached) == [starts[0]]


def test_pool_only_for_two_or_more_chunks(monkeypatch):
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(analysis, "WORKERS", 2)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    mixing_time_exact(matrix, pi, 0.25, starts=[719])  # a single start
    mixing_time_exact(*_kernel_case("oned", f"oned:0.6,{CHUNK - 1}")[:2], 0.25)  # one chunk
    assert pools == []
    mixing_time_exact(matrix, pi, 0.25, starts=[0, 719])  # two explicit starts
    assert pools == [2]
    mixing_time_exact(matrix, pi, 0.25)  # six chunks
    assert pools == [2, 2]


def test_pool_binds_each_worker_to_its_own_cpu(monkeypatch):
    # the calling thread keeps its mask; each worker takes one CPU of it
    monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {3, 5, 7})
    monkeypatch.setattr(analysis, "WORKERS", 2)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    for starts in ([0, 719], None):
        bound = []
        monkeypatch.setattr(analysis.os, "sched_setaffinity", lambda pid, cpus: bound.append((threading.get_ident(), cpus)))
        mixing_time_exact(matrix, pi, 0.25, starts=starts)
        assert sorted(cpus for _, cpus in bound) == [{3}, {5}]
        assert len({thread for thread, _ in bound}) == 2
        assert threading.get_ident() not in {thread for thread, _ in bound}


def test_pool_runs_unbound_past_the_mask(monkeypatch):
    # more workers than CPUs (a patched WORKERS), or a refused binding
    def refuse(pid, cpus):
        raise OSError("binding refused")

    monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(analysis.os, "sched_setaffinity", refuse)
    monkeypatch.setattr(analysis, "WORKERS", 2)
    matrix, pi, _ = _kernel_case("tree", "constant:0.75", 6)
    res = mixing_time_exact(matrix, pi, 0.25)
    assert res.distances == _distances_by_transposed_block(matrix, pi, 0.25, None)


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


def former_spectral_gap(matrix, pi, tol=1e-9):
    """spectral_gap as written before its in-place steps: the reference."""
    dense = matrix.toarray()
    flows = pi[:, None] * dense
    if not np.allclose(flows, flows.T, atol=tol, rtol=0):
        raise ValueError("kernel is not reversible with respect to pi")
    root = np.sqrt(pi)
    sym = dense * (root[:, None] / root[None, :])
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2)
    return float(1.0 - np.sort(np.abs(eigs))[::-1][1])


@pytest.mark.parametrize("chain, model, n", [
    ("nn", "constant:0.75", 6),
    ("inv", "cyw:0.6,0.7,0.8,0.9,0.95", None),
    ("inv", "cyw:0.6,0.7,0.8,0.9:max", None),
    ("tree", "constant:0.75", 6),
    ("tree", "constant:0.6", 5),
])
def test_spectral_gap_equals_the_former_steps(chain, model, n):
    kernel = build(chain, parse_model_spec(model), n)
    matrix, pi = transition_matrix(kernel), stationary_exact(kernel)
    assert spectral_gap(matrix, pi) == former_spectral_gap(matrix, pi)


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


def reference_conductance(matrix, pi, cut) -> float:
    """The former COO loop of ``conductance_of_cut``, kept as the reference."""
    cut = sorted(set(cut))
    mass = float(pi[cut].sum())
    inside = np.zeros(matrix.shape[0], dtype=bool)
    inside[cut] = True
    if mass > 0.5:
        inside = ~inside
        mass = 1.0 - mass
    rows = np.where(inside)[0]
    flow = 0.0
    coo = matrix[rows].tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if not inside[c]:
            flow += pi[rows[r]] * v
    return flow / mass


@pytest.mark.parametrize("kind, model, n", [
    *((kind, "constant:0.75", n) for kind in ("nn", "inv", "tree") for n in (3, 4, 5, 6)),
    ("nn", "cyw:0.6,0.7,0.8,0.9,0.95", None),
    ("inv", "cyw:0.6,0.7,0.8,0.9,0.95:max", None),
])
def test_conductance_equals_the_entry_loop_on_weight_cuts(kind, model, n):
    kernel = build(kind, parse_model_spec(model), n)
    m = transition_matrix(kernel)
    pi = stationary_exact(kernel)
    for cut in level_cuts_by_weight(pi):
        assert conductance_of_cut(m, pi, cut) == reference_conductance(m, pi, cut)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_conductance_equals_the_entry_loop_on_the_slowmix_level_cut(n):
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    arrays = walks.walk_arrays(n)
    chain = WalkChain.fluctuating(spec)
    m = class_rows_matrix(chain, analysis._walk_swaps(chain, arrays))
    pi = walk_stationary(chain, arrays)
    cut = np.flatnonzero(arrays.max_height < spec.level).tolist()
    assert conductance_of_cut(m, pi, cut) == reference_conductance(m, pi, cut) > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_level_cut_flow_from_the_walk_classes_equals_the_matrix(n):
    # slowmix's cut, and its complement, which holds more than half the mass
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    arrays = walks.walk_arrays(n)
    chain = WalkChain.fluctuating(spec)
    classes = list(analysis._walk_swaps(chain, arrays))
    matrix, pi = class_rows_matrix(chain, classes), walk_stationary(chain, arrays)
    low = arrays.max_height < spec.level
    for inside in (low, ~low):
        expected = conductance_of_cut(matrix, pi, np.flatnonzero(inside).tolist())
        assert analysis.class_cut_conductance(chain, classes, pi, inside) == expected > 0


def test_conductance_without_outgoing_flow_equals_the_entry_loop():
    m = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    pi = np.array([0.25, 0.25, 0.5])
    for cut in ([0, 1], [2], [0, 2]):
        assert conductance_of_cut(m, pi, cut) == reference_conductance(m, pi, cut)
    assert conductance_of_cut(m, pi, [2]) == 0.0


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


# -- the array assembly against the Fraction oracle --------------------------------


def _assert_matrix_matches_oracle(kernel, classes, states):
    """The assembly of a finder's classes equals ``transition_matrix`` bit for bit."""
    fast = class_rows_matrix(kernel, classes)
    exact = transition_matrix(kernel, states)
    assert (fast != exact).nnz == 0
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, attr), getattr(exact, attr))


def _walk_gate(chain):
    return chain, analysis._walk_swaps(chain, walks.walk_arrays(chain.n)), walks.all_walks(chain.n)


def _perm_gate(kernel):
    states = kernel.space()
    return kernel, ARRAY_ROWS[kernel.kind](kernel, states), states


# finder -> its largest space in the benchmark: walks at n = 8, S_7
FINDER_GATES = {
    "inv-min": lambda: _perm_gate(build("inv", parse_model_spec("constant:0.75"), 7)),
    "inv-max": lambda: _perm_gate(build("inv", parse_model_spec("cyw:0.6,0.7,0.8,0.9,0.95,0.5:max"))),
    "tree": lambda: _perm_gate(build("tree", parse_model_spec("constant:0.75"), 7)),
    "walk-fluctuating": lambda: _walk_gate(WalkChain.fluctuating(SlowMixSpec(n=8, delta=solve_delta(8)))),
    "walk-constant-3/4": lambda: _walk_gate(WalkChain.constant(8, Fraction(3, 4))),
}


@pytest.mark.parametrize("finder", sorted(FINDER_GATES))
def test_assembly_matches_oracle_for_every_finder(finder):
    _assert_matrix_matches_oracle(*FINDER_GATES[finder]())


def test_row_classes_hold_past_the_int64_range():
    # 20 columns of values up to 15: one mixed-radix key would need 16^20 =
    # 2^80, and wrapped to 64 bits it would lose the first four columns, so the
    # rows that differ there alone would share a class
    rows = np.random.default_rng(5).integers(0, 16, size=(300, 20))
    rows[0] = 15
    shifted = rows.copy()
    shifted[:, 0] = 15 - shifted[:, 0]
    rows = np.concatenate([rows, shifted, rows[::7]])
    first, inverse = analysis._row_classes(rows)
    _, first_rows = np.unique(rows, axis=0, return_index=True)
    assert np.array_equal(np.sort(first), np.sort(first_rows))  # each class's first row
    assert np.array_equal(rows[first][inverse], rows)  # each row in its own class


def test_shifted_row_classes_equal_the_2d_unique():
    # long_swap_conductance's classes of signed (flat, steep) changes, shifted
    # to start at 0: the same first rows and class ids as np.unique(axis=0)
    rng = np.random.default_rng(29)
    for size in (1, 7, 500):
        change = rng.integers(-6, 7, size=(size, 2))
        _, first, inverse = np.unique(change, axis=0, return_index=True, return_inverse=True)
        got_first, got_inverse = analysis._row_classes(change - change.min(axis=0))
        assert np.array_equal(got_first, first) and np.array_equal(got_inverse, inverse.reshape(-1))


# -- array-backed walk spaces against the Fraction oracle -------------------------

WALK_SIZES = [4, 5, 6, 7]


def _slowmix_spec(n):
    return SlowMixSpec(n=n, delta=solve_delta(n))


WALK_CHAINS = {
    "fluctuating": lambda n: WalkChain.fluctuating(_slowmix_spec(n)),
    "constant-3/4": lambda n: WalkChain.constant(n, Fraction(3, 4)),
    "constant-2/3": lambda n: WalkChain.constant(n, Fraction(2, 3)),
}


# n = 8 for the two chains that slowmix builds there
@pytest.mark.parametrize("n, name", [(n, name) for n in WALK_SIZES for name in sorted(WALK_CHAINS)]
                         + [(8, "constant-3/4"), (8, "fluctuating")])
def test_walk_matrix_and_pi_match_oracle(n, name):
    chain = WALK_CHAINS[name](n)
    arrays = walks.walk_arrays(n)
    states = walks.all_walks(n)
    _assert_matrix_matches_oracle(chain, analysis._walk_swaps(chain, arrays), states)
    assert np.array_equal(walk_stationary(chain, arrays), stationary_exact(chain, states))


def row_by_row_long_swap_conductance(chain, pi):
    """Flow out of the low class over its mass, one transition_distribution row at a time."""
    level = chain.level
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


@pytest.mark.parametrize("n", [*WALK_SIZES, 8])
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


# -- array-backed permutation spaces against the Fraction oracle ------------------


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("chain", ["inv", "tree"])
def test_perm_matrix_matches_oracle(chain, n):
    _assert_matrix_matches_oracle(*_perm_gate(build(chain, parse_model_spec("constant:0.75"), n)))


@pytest.mark.parametrize("model", [
    "cyw:0.6,0.7,0.8,0.9,0.95",
    "cyw:0.6,0.7,0.8,0.9,0.95,0.5:max",
    "cyw:0.5,0.55,0.9,0.6,0.95,0.7:max",
])
def test_perm_matrix_matches_oracle_for_cyw_models(model):
    _assert_matrix_matches_oracle(*_perm_gate(build("inv", parse_model_spec(model))))


def test_perm_matrix_matches_oracle_for_a_league(demo_tree):
    _assert_matrix_matches_oracle(*_perm_gate(TreeChain(truncate_tree(demo_tree, 6))))


@settings(max_examples=30, deadline=None)
@given(cyw_kernels(max_n=6))
def test_perm_matrix_matches_oracle_for_random_cyw_tables(kernel):
    _assert_matrix_matches_oracle(*_perm_gate(kernel))


@settings(max_examples=30, deadline=None)
@given(league_kernels(max_n=6))
def test_perm_matrix_matches_oracle_for_random_leagues(kernel):
    _assert_matrix_matches_oracle(*_perm_gate(kernel))


def test_perm_matrix_needs_lexicographic_states():
    kernel = build("tree", parse_model_spec("constant:0.75"), 4)
    with pytest.raises(ValueError, match="lexicographic"):
        class_rows_matrix(kernel, ARRAY_ROWS[kernel.kind](kernel, kernel.space()[::-1]))


def _zero_pair_table(n):
    # p[1][n] = 1: every state with n before 1 has weight 0
    return BiasTable(n, lambda i, j: 1 if (i, j) == (1, n) else Fraction(3, 5))


@pytest.mark.parametrize("make, zeros", [
    (lambda: NearestNeighborChain(constant_bias(6, "0.7")), False),
    (lambda: NearestNeighborChain(choose_your_weapon(cyw_spec(5))), False),
    (lambda: NearestNeighborChain(_zero_pair_table(5)), True),
    (lambda: InversionChain(cyw_spec(6)), False),
    (lambda: build("inv", parse_model_spec("cyw:0.6,0.7,0.8,0.9,0.95:max")), False),
    (lambda: TreeChain(complete_tree(6, "0.75")), False),
    (lambda: TreeChain(complete_tree(5, 1)), True),
], ids=["nn-constant", "nn-cyw", "nn-p1-pair", "inv-min", "inv-max", "tree", "tree-q1"])
def test_perm_stationary_matches_fraction_weights(make, zeros):
    kernel = make()
    states = kernel.space()
    pi = stationary_exact(kernel, states)
    assert np.array_equal(pi, distribution(kernel.stationary_weight(s) for s in states))
    assert (not pi.all()) is zeros
