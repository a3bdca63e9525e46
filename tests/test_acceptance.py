"""
Acceptance gate: ten end-to-end criteria, one test each, run at the stated
tolerances.  Each test prints a single PASS line with its headline numbers
(visible with pytest -s); any assertion failure marks the criterion red.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from permchains import walks
from permchains.analysis import (
    is_fixed_point_exact,
    loglog_slope,
    mixing_time_exact,
    slowmix_cut_report,
    state_index,
    stationary_exact,
    transition_matrix,
)
from permchains.bias import (
    CywSpec,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    is_weakly_monotone,
    league_hierarchy,
    solve_delta,
)
from permchains.chains import (
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    WalkTranspositionChain,
)
from permchains.paths import comparison_bound, congestion_A, transposition_path, witness_caps
from permchains.perms import (
    all_permutations,
    identity,
    inversion_count,
    inversion_table,
    permutation_from_inversion_table,
    reversal,
)
from permchains.trees import tree_decode, tree_encode, truncate_tree
from permchains.verify import check_inv_product_projection, check_tree_product_projection

from support import (
    coupling_time_estimate,
    cyw_spec,
    gap_problem_scan,
    hitting_time_mean_exact,
    hitting_time_samples,
    kron_product_matrix,
    product_mixing_bound,
)


def report(criterion: int, detail: str):
    print(f"[criterion {criterion:2d}] PASS: {detail}")


# -- 1. bijection exhaustiveness ------------------------------------------------


def test_criterion_1_bijections():
    t0 = time.time()
    total = 0
    for n in range(1, 8):
        for sigma in all_permutations(n):
            table = inversion_table(sigma)
            assert permutation_from_inversion_table(table) == sigma
            total += 1
    # worked 8-element example; its printed second entry (7) exceeds the
    # bound n - i = 6, and the direct inversion count fixes it at 6
    example = (8, 1, 5, 3, 7, 4, 6, 2)
    assert inversion_table(example) == (1, 6, 2, 3, 1, 2, 1, 0)
    assert sum(inversion_table(example)) == inversion_count(example) == 16
    assert permutation_from_inversion_table((1, 6, 2, 3, 1, 2, 1, 0)) == example
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, f"{total} permutations round-trip (n ≤ 7) in {elapsed:.1f}s")


# -- 2. detailed balance / stationarity -------------------------------------------


def test_criterion_2_stationarity(demo_tree):
    t0 = time.time()
    checked = []
    for n in (4, 5):
        cyw = cyw_spec(n)
        league = truncate_tree(demo_tree, n)
        models = {
            "constant": constant_bias(n, "0.7"),
            "cyw": choose_your_weapon(cyw),
            "league": league_hierarchy(league),
        }
        for name, table in models.items():
            assert is_fixed_point_exact(NearestNeighborChain(table))
            checked.append(f"nn/{name}/{n}")
        assert is_fixed_point_exact(InversionChain(cyw))
        checked.append(f"inv/cyw/{n}")
        assert is_fixed_point_exact(TreeChain(league))
        checked.append(f"tree/league/{n}")
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, f"{len(checked)} chain/model fixed points exact (rational) in {elapsed:.1f}s")


# -- 3. tree encoding --------------------------------------------------------------


def test_criterion_3_tree_encoding(demo_tree):
    t0 = time.time()
    sigma = (5, 1, 9, 3, 8, 6, 7, 4, 2)
    enc = tree_encode(sigma, demo_tree)
    by_leaves = {tuple(sorted(demo_tree.leaves_under(i))): s for i, s in enc.items()}
    expected = {
        (1, 2, 3, 4, 5, 6, 7, 8, 9): "010100011",
        (1, 2, 3, 4): "1101",
        (1, 2, 3): "100",
        (2, 3): "01",
        (5, 6): "10",
        (7, 8, 9): "011",
        (7, 8): "01",
        # the node over 5..9 follows the same left=1 rule as the seven above
        (5, 6, 7, 8, 9): "10010",
    }
    for leaves, bits in expected.items():
        assert by_leaves[leaves] == bits, (leaves, by_leaves[leaves])
    assert tree_decode(enc, demo_tree) == sigma
    elapsed = time.time() - t0
    assert elapsed < 1
    report(3, f"root string 010100011 and all node strings match; decode inverts ({elapsed:.2f}s)")


# -- 4. one-dimensional walk --------------------------------------------------------


def test_criterion_4_oned_walk():
    t0 = time.time()
    r = 0.75
    details = []
    for k in (10, 20, 40):
        target = k / (2 * r - 1)
        exact = hitting_time_mean_exact(r, k)
        assert abs(exact - target) / target <= 0.05
        mean = float(hitting_time_samples(r, k, 100_000, seed=6).mean())
        assert abs(mean - target) / target <= 0.05
        details.append(f"k={k}: {mean:.2f} vs {target:.0f}")
    # symmetric case: the coupled pair from the extreme states coalesces
    # within k^2 steps on average
    est = coupling_time_estimate(OnedChain("0.5", 16), 100_000, seed=6)
    assert est.mean_coupling_time <= 256
    details.append(f"coupling k=16: {est.mean_coupling_time:.1f} ≤ 256")
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, "; ".join(details) + f" ({elapsed:.1f}s)")


# -- 5. product structure -------------------------------------------------------------


def test_criterion_5_product_structure():
    # the invariant suite's projection checks at the full profile: inversion
    # coordinates at n=5; node strings at n=6 for complete, caterpillar and
    # truncated demo trees
    for check in (check_inv_product_projection, check_tree_product_projection):
        ok, detail = check(False, 0)
        assert ok, detail
    report(5, "inversion coordinates (n=5) and node strings (n=6, three shapes) project exactly")


# -- 6. product-of-chains bound --------------------------------------------------------


def test_criterion_6_product_bound():
    import scipy.sparse as sp

    def lazy_pair_chain(p, move_prob):
        k = np.array([[p, 1 - p], [p, 1 - p]])
        return (1 - move_prob) * np.eye(2) + move_prob * k

    p1, pi1 = lazy_pair_chain(0.7, 0.2), np.array([0.7, 0.3])
    p2, pi2 = lazy_pair_chain(0.6, 0.2), np.array([0.6, 0.4])

    def tau1(e):
        return mixing_time_exact(sp.csr_matrix(p1), pi1, e).tau

    def tau2(e):
        return mixing_time_exact(sp.csr_matrix(p2), pi2, e).tau

    select = (0.3, 0.7)
    prod = kron_product_matrix([p1, p2], select)
    pi = np.kron(pi1, pi2)
    details = []
    for eps in (0.25, 0.05):
        exact = mixing_time_exact(sp.csr_matrix(prod), pi, eps).tau
        bound = product_mixing_bound(select, [tau1, tau2], 2, eps)
        assert bound >= exact
        details.append(f"eps={eps}: bound {bound:.1f} ≥ exact {exact}")
    report(6, "; ".join(details))


# -- 7. canonical paths ------------------------------------------------------------------


def test_criterion_7_canonical_paths(demo_tree):
    t0 = time.time()
    edge_totals = {"inv": 0, "tree": 0}
    for n in range(3, 7):
        spec = cyw_spec(n)
        tree = truncate_tree(demo_tree, n)
        assert is_weakly_monotone(league_hierarchy(tree)).weakly_monotone
        # one pass routes every move: legality, exact floors and congestion
        inv_res = congestion_A(InversionChain(spec))
        tree_res = congestion_A(TreeChain(tree))
        for res in (inv_res, tree_res):
            assert res.legal and res.floors_held and res.failure is None
            assert res.collision_free
            edge_totals[res.kind] += res.edge_count
        for res in (inv_res, tree_res):
            per_edge, length = witness_caps(res.kind, n)
            assert res.max_path_length <= length
            assert res.max_paths_per_edge <= per_edge

        eps = 0.25
        for kind, model, aux, res in (
            ("inv", spec, InversionChain(spec), inv_res),
            ("tree", tree, TreeChain(tree), tree_res),
        ):
            nn = NearestNeighborChain(aux.table)
            states = nn.space()
            pi = stationary_exact(nn, states)
            tau_nn = mixing_time_exact(transition_matrix(nn, states), pi, eps).tau
            tau_aux = mixing_time_exact(transition_matrix(aux, states), pi, eps).tau
            bound = comparison_bound(res.congestion, tau_aux, float(pi.min()), eps)
            assert bound >= tau_nn

    # the canonical six-configuration reference route
    path = transposition_path((5, 8, 9, 2, 10, 3, 4, 1, 7), (7, 8, 9, 2, 10, 3, 4, 1, 5))
    waypoints = [
        (5, 8, 9, 2, 10, 3, 4, 1, 7),
        (5, 2, 8, 9, 3, 10, 4, 1, 7),
        (2, 8, 9, 3, 10, 4, 1, 5, 7),
        (2, 8, 9, 3, 10, 4, 1, 7, 5),
        (7, 2, 8, 9, 3, 10, 4, 1, 5),
        (7, 8, 9, 2, 10, 3, 4, 1, 5),
    ]
    keys = ("start", "after-stage-1", "before-endpoint-swap", "after-stage-2",
            "after-stage-3", "end")
    assert [path.milestones[k] for k in keys] == waypoints
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        7,
        f"{edge_totals['inv']} inversion and {edge_totals['tree']} tree moves routed "
        f"(n ≤ 6), floors exact, bounds sound, worked route verbatim ({elapsed:.0f}s)",
    )


# -- 8. slow mixing ------------------------------------------------------------------------


def test_criterion_8_slow_mixing():
    t0 = time.time()
    ratios = []
    ratios_wide = []
    factors = []
    for n in range(5, 10):
        rep = slowmix_cut_report(n)
        assert 1 / 65 < rep.delta < 0.5
        spec = SlowMixSpec(n=n, delta=solve_delta(n))
        tables = walks.height_profile(n).class_table()
        low = walks.class_weight(tables[1], spec.gamma, spec.xi)
        high = walks.class_weight(tables[3], spec.gamma, spec.xi)
        assert abs(low - high) / low <= Fraction(1, 10**8)
        ratios.append(rep.ratio_s2_s1)
        ratios_wide.append(rep.ratio_wide)
        assert rep.tau_lower >= 1 / (4 * rep.phi_s1) - 0.5 - 1e-9
        factors.append(rep.tau_lower / rep.tau_comparison)
    # the bottleneck deepens with n, exactly
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(a > b for a, b in zip(ratios_wide, ratios_wide[1:]))
    # the conductance floor grows against the constant-bias reference chain;
    # at square n the cut level ties with n-1, which softens that single step
    assert all(a < b for a, b in zip(factors[:-1], factors[1:-1]))
    assert factors[-1] > factors[0]
    # long swaps move the max height by at most 2, so the widened middle
    # class still separates the two sides
    spec4 = SlowMixSpec(n=4, delta=solve_delta(4))
    chain4 = WalkTranspositionChain(spec4)
    for w in walks.all_walks(4):
        h0 = walks.max_height(w)
        for t in chain4.transition_distribution(w):
            assert abs(walks.max_height(t) - h0) <= 2
    elapsed = time.time() - t0
    assert elapsed < 600
    report(
        8,
        f"n=5..9: cut ratio {float(ratios[0]):.3f} → {float(ratios[-1]):.3f}, "
        f"widened {float(ratios_wide[0]):.3f} → {float(ratios_wide[-1]):.3f}, "
        f"bound/reference factor {factors[0]:.2f} → {factors[-1]:.2f} ({elapsed:.0f}s)",
    )


# -- 9. gap problem at n = 4 ------------------------------------------------------------------


def test_criterion_9_gap_problem():
    t0 = time.time()
    scan = gap_problem_scan(4)
    assert scan.tables_checked == 1001
    assert not scan.violations
    assert scan.min_gap >= scan.uniform_gap - 1e-12
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        9,
        f"{scan.tables_checked} monotone tables: min gap {scan.min_gap:.6f} ≥ "
        f"uniform gap {scan.uniform_gap:.6f}, zero violations ({elapsed:.0f}s)",
    )


# -- 10. growth trends -------------------------------------------------------------------------


def test_criterion_10_growth_trends():
    t0 = time.time()
    ns = list(range(3, 8))
    slopes = {}
    for p, window in (("0.5", (2.5, 4.5)), ("0.75", (1.5, 2.5))):
        taus = []
        for n in ns:
            kernel = NearestNeighborChain(constant_bias(n, p))
            states = kernel.space()
            matrix = transition_matrix(kernel, states)
            pi = stationary_exact(kernel, states)
            if n <= 6:
                starts = None
            else:
                idx = state_index(states)
                starts = [idx[identity(n)], idx[reversal(n)]]
            res = mixing_time_exact(matrix, pi, 0.25, starts=starts)
            taus.append(res.tau)
        # fit per-element times tau/n so sizes are comparable across n; the
        # fitted slope is exactly the raw-step slope minus one
        slope = loglog_slope(ns, [t / n for t, n in zip(taus, ns)])
        lo, hi = window
        assert lo <= slope <= hi, (p, slope, taus)
        slopes[p] = (slope, taus)
    elapsed = time.time() - t0
    report(
        10,
        f"per-element slopes: p=0.5 {slopes['0.5'][0]:.2f} in [2.5,4.5] "
        f"(step taus {slopes['0.5'][1]}), p=0.75 {slopes['0.75'][0]:.2f} in [1.5,2.5] "
        f"(step taus {slopes['0.75'][1]}) ({elapsed:.0f}s)",
    )
