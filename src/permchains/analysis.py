"""
Exhaustive small-instance analysis of the chains.

Everything here materializes a kernel's exact transition law on an enumerated
state space: stationary distributions from weights and from matrix fixed
points, worst-start total-variation mixing times, spectral gaps of the
symmetrized kernel, conductance of explicit cuts, the bottleneck report for
the slow-mixing family, the product-of-chains mixing bound, and coupling /
hitting-time estimates for the one-dimensional walk.

State orderings are frozen (lexicographic) so ids are comparable across runs.
Dense linear algebra is used up to 10^4 states, sparse iteration above; the
hard cap on materialized spaces is 10^5 states.

The staircase-walk spaces of the bottleneck report are array-backed: walks are
integer codes (``walks.walk_arrays``), and the walk matrices, the stationary
law and the long-swap conductance are numpy builds that call the kernel's own
``_law`` and ``stationary_weight`` once per class of walks sharing the value.
The Fraction path (``transition_distribution``, ``transition_matrix``,
``stationary_exact``) stays the oracle; the array builds equal it bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import walks
from .bias import SlowMixSpec, solve_delta
from .chains import WalkChain, WalkTranspositionChain, make_rng

STATE_CAP = 100_000
DENSE_CAP = 10_000


class CapExceeded(ValueError):
    """State space larger than the configured materialization cap."""


def state_index(states) -> dict:
    return {s: k for k, s in enumerate(states)}


def transition_matrix(kernel, states=None) -> sp.csr_matrix:
    """Row-stochastic sparse matrix of the kernel on the enumerated space."""
    if states is None:
        states = kernel.space()
    if len(states) > STATE_CAP:
        raise CapExceeded(f"{len(states)} states exceed the cap {STATE_CAP}")
    idx = state_index(states)
    rows, cols, vals = [], [], []
    for i, s in enumerate(states):
        for t, p in kernel.transition_distribution(s).items():
            rows.append(i)
            cols.append(idx[t])
            vals.append(float(p))
    m = sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    return m


def stationary_weights_exact(kernel, states=None) -> list[Fraction]:
    if states is None:
        states = kernel.space()
    weights = [kernel.stationary_weight(s) for s in states]
    total = sum(weights)
    if total == 0:
        raise ValueError("all states have zero weight")
    return [w / total for w in weights]


def stationary_exact(kernel, states=None) -> np.ndarray:
    """Normalized stationary distribution from the weight formula."""
    return np.array([float(x) for x in stationary_weights_exact(kernel, states)])


def is_fixed_point_exact(kernel, states=None, pi: list[Fraction] | None = None) -> bool:
    """Exact check that pi P = pi, entry by entry."""
    if states is None:
        states = kernel.space()
    if pi is None:
        pi = stationary_weights_exact(kernel, states)
    idx = state_index(states)
    acc = [Fraction(0)] * len(states)
    for i, s in enumerate(states):
        if pi[i] == 0:
            continue
        for t, p in kernel.transition_distribution(s).items():
            acc[idx[t]] += pi[i] * p
    return acc == list(pi)


def detailed_balance_violations(kernel, states=None, tol: Fraction = Fraction(0)) -> list:
    """Pairs (s, t) with pi(s)K(s,t) != pi(t)K(t,s), exact arithmetic."""
    if states is None:
        states = kernel.space()
    idx = state_index(states)
    pi = stationary_weights_exact(kernel, states)
    rows = [kernel.transition_distribution(s) for s in states]
    bad = []
    for i, s in enumerate(states):
        for t, p in rows[i].items():
            j = idx[t]
            if j <= i:
                continue
            back = rows[j].get(s, Fraction(0))
            if abs(pi[i] * p - pi[j] * back) > tol:
                bad.append((s, t))
    return bad


def tv_distance(mu, nu) -> float:
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return 0.5 * float(np.abs(mu - nu).sum())


@dataclass
class MixingResult:
    tau: int | None         # None when the horizon ran out
    eps: float
    distances: list         # worst-start TV at t = 0, 1, ...
    converged: bool
    caveat: str             # "all-starts" or "extreme-starts"


def mixing_time_exact(
    matrix: sp.csr_matrix,
    pi: np.ndarray,
    eps: float,
    starts=None,
    horizon: int = 200_000,
) -> MixingResult:
    """Smallest t with worst-start TV <= eps.

    Worst-start TV is non-increasing in t, so the first crossing is the
    mixing time; the recorded trajectory lets callers verify monotonicity.
    starts=None uses every state (distributions tracked as a dense block).
    """
    m = matrix.shape[0]
    if starts is None:
        block = np.eye(m)
        caveat = "all-starts"
    else:
        block = np.zeros((len(starts), m))
        for r, s in enumerate(starts):
            block[r, s] = 1.0
        caveat = "extreme-starts"
    distances = [float(np.abs(block - pi).sum(axis=1).max() * 0.5)]
    if distances[-1] <= eps:
        return MixingResult(0, eps, distances, True, caveat)
    # block @ matrix would transpose the sparse matrix on every step
    transposed = matrix.T
    for t in range(1, horizon + 1):
        block = (transposed @ block.T).T
        d = float(np.abs(block - pi).sum(axis=1).max() * 0.5)
        distances.append(d)
        if d <= eps:
            return MixingResult(t, eps, distances, True, caveat)
    return MixingResult(None, eps, distances, False, caveat)


def spectral_gap(matrix: sp.csr_matrix, pi: np.ndarray, tol: float = 1e-9) -> float:
    """1 minus the second-largest eigenvalue modulus of the symmetrized kernel.

    Requires reversibility and pi > 0; the similarity transform
    D^(1/2) P D^(-1/2) is then symmetric and the spectrum is real.
    """
    m = matrix.shape[0]
    if m > DENSE_CAP:
        raise CapExceeded(f"{m} states exceed the dense eigensolve cap {DENSE_CAP}")
    if not pi.all():
        raise ValueError("pi has zero entries; the symmetrization needs pi > 0")
    dense = matrix.toarray()
    flows = pi[:, None] * dense
    if not np.allclose(flows, flows.T, atol=tol, rtol=0):
        raise ValueError("kernel is not reversible with respect to pi")
    root = np.sqrt(pi)
    sym = dense * (root[:, None] / root[None, :])
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2)
    mods = np.sort(np.abs(eigs))[::-1]
    return float(1.0 - mods[1])


def conductance_of_cut(matrix: sp.csr_matrix, pi: np.ndarray, cut) -> float:
    """Boundary probability flow out of the cut divided by its mass.

    Evaluates the complement instead when the cut holds more than half the
    mass, matching the usual min(pi(S), pi(S-bar)) normalization.
    """
    cut = sorted(set(cut))
    if not cut:
        raise ValueError("empty cut")
    mass = float(pi[cut].sum())
    inside = np.zeros(matrix.shape[0], dtype=bool)
    inside[cut] = True
    if mass > 0.5:
        inside = ~inside
        mass = 1.0 - mass
    rows = np.where(inside)[0]
    flow = 0.0
    sub = matrix[rows]
    coo = sub.tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if not inside[c]:
            flow += pi[rows[r]] * v
    return flow / mass


# -- slow-mixing bottleneck report ---------------------------------------------


@dataclass
class SlowMixReport:
    n: int
    delta: float
    xi: float
    level: int
    pi_s1: float
    pi_s2: float
    pi_s3: float
    ratio_s2_s1: Fraction
    phi_s1: float
    tau_lower: float
    pi_s2_wide: float
    ratio_wide: Fraction
    phi_s1_transposition: float
    tau_lower_transposition: float
    tau_comparison: int | None = None
    comparison_label: str = ""


def _class_masses(n: int, spec: SlowMixSpec, widened: bool) -> dict[int, Fraction]:
    tables = walks.height_profile(n).class_table(widened=widened)
    return {
        cls: walks.class_weight(tables[cls], spec.gamma, spec.xi) for cls in (1, 2, 3)
    }


def slowmix_cut_report(n: int, comparison_p=Fraction(3, 4), compute_comparison: bool = True) -> SlowMixReport:
    """Exact bottleneck quantities for the fluctuating-bias walk chain at size n.

    The balance point makes the low and high sides carry equal mass; the cut
    class at the bottleneck level is exponentially lighter, which the
    conductance bound converts into a mixing-time floor.  For contrast, the
    report optionally includes the exact tau(1/4) of a constant-bias walk
    chain on the same space, measured from the two extreme walks.
    """
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    masses = _class_masses(n, spec, widened=False)
    total = masses[1] + masses[2] + masses[3]
    masses_w = _class_masses(n, spec, widened=True)

    arrays = walks.walk_arrays(n)
    chain = WalkChain.fluctuating(spec)
    pi = walk_stationary(chain, arrays)
    matrix = walk_transition_matrix(chain, arrays)
    phi = conductance_of_cut(matrix, pi, np.flatnonzero(arrays.max_height < spec.level).tolist())
    phi_t = long_swap_conductance(WalkTranspositionChain(spec), arrays, pi)

    tau_cmp = None
    label = ""
    if compute_comparison:
        cmp_chain = WalkChain.constant(n, comparison_p)
        cmp_matrix = walk_transition_matrix(cmp_chain, arrays)
        cmp_pi = walk_stationary(cmp_chain, arrays)
        # the lowest and the highest walk have the smallest and the largest code
        res = mixing_time_exact(cmp_matrix, cmp_pi, 0.25, starts=[0, len(arrays.codes) - 1])
        tau_cmp = res.tau
        label = f"constant:{Fraction(comparison_p)}"

    return SlowMixReport(
        n=n,
        delta=float(spec.delta),
        xi=float(spec.xi),
        level=spec.level,
        pi_s1=float(masses[1] / total),
        pi_s2=float(masses[2] / total),
        pi_s3=float(masses[3] / total),
        ratio_s2_s1=masses[2] / masses[1],
        phi_s1=phi,
        tau_lower=1.0 / (4.0 * phi) - 0.5,
        pi_s2_wide=float(masses_w[2] / total),
        ratio_wide=masses_w[2] / masses_w[1],
        phi_s1_transposition=phi_t,
        tau_lower_transposition=1.0 / (4.0 * phi_t) - 0.5,
        tau_comparison=tau_cmp,
        comparison_label=label,
    )


# -- array-backed walk spaces ----------------------------------------------------
#
# Each builder equals its Fraction-oracle build on walks.all_walks(n) bit for
# bit: exact values are converted to float once per class, and float sums run
# in the oracle's order.


def _running_total(values: np.ndarray):
    """Left-to-right float sum, as a Python loop adds; np.sum adds pairwise."""
    return np.add.accumulate(values)[-1]


def walk_stationary(chain, arrays: walks.WalkArrays) -> np.ndarray:
    """stationary_exact over all walks, one weight per (flat, steep) class.

    Valid for walk chains whose weight depends on the tile counts only, as
    the fluctuating and the constant-bias walk weights do.
    """
    keys = np.stack([arrays.flat, arrays.steep], axis=1)
    _, first, inverse, sizes = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    weights = [chain.stationary_weight(arrays.walk(row)) for row in first.tolist()]
    total = sum(size * w for size, w in zip(sizes.tolist(), weights))
    if total == 0:
        raise ValueError("all states have zero weight")
    return np.array([float(w / total) for w in weights])[inverse.reshape(-1)]


def walk_transition_matrix(chain: WalkChain, arrays: walks.WalkArrays) -> sp.csr_matrix:
    """transition_matrix of an adjacent-swap walk chain over all walks.

    Slot ``pos`` swaps steps pos and pos+1.  Its law depends on the walk only
    through the pair's orientation and the number of up-steps through pos+1,
    so ``_law`` runs once per (pos, ones, orientation) class.  A row's hold
    entry is the exact 1 - sum of its off-diagonal masses, computed once per
    distinct count of each exact mass.
    """
    codes, steps = arrays.codes, arrays.steps
    m, length = steps.shape
    ups = np.cumsum(steps, axis=1, dtype=np.int64)
    masses: dict[Fraction, int] = {}  # exact off-diagonal mass -> id
    mass_id = np.full((m, length), -1)  # per slot; -1 where the walk stays
    cols = np.empty((m, length), dtype=np.int64)  # the last column is the hold
    cols[:, -1] = np.arange(m)
    for pos, mass in chain._slots:
        cols[:, pos] = np.searchsorted(codes, codes ^ (3 << (length - 2 - pos)))
        moving = np.flatnonzero(steps[:, pos] != steps[:, pos + 1])
        _, first, inverse = np.unique(
            2 * ups[moving, pos + 1] + steps[moving, pos], return_index=True, return_inverse=True
        )
        ids = []
        for row in moving[first].tolist():
            w = arrays.walk(row)
            p, yes, no = chain._law(w, pos)
            prob = p if no == w else 1 - p
            ids.append(masses.setdefault(mass * prob, len(masses)) if prob else -1)
        mass_id[moving, pos] = np.asarray(ids, dtype=np.int64)[inverse.reshape(-1)]

    exact = list(masses)
    counts = np.stack([(mass_id == k).sum(axis=1) for k in range(len(exact))], axis=1)
    patterns, inverse = np.unique(counts, axis=0, return_inverse=True)
    holds = [float(1 - sum(c * x for c, x in zip(row, exact))) for row in patterns.tolist()]
    vals = np.append([float(x) for x in exact], 0.0)[mass_id]
    vals[:, -1] = np.asarray(holds)[inverse.reshape(-1)]
    keep = mass_id >= 0
    keep[:, -1] = True
    # entries in the oracle's order: row by row, slots ascending, hold last
    return sp.csr_matrix(
        (vals[keep], (np.nonzero(keep)[0], cols[keep])), shape=(m, m)
    )


def long_swap_conductance(chain: WalkTranspositionChain, arrays: walks.WalkArrays, pi: np.ndarray) -> float:
    """Flow out of the low class under the long-swap chain, over its mass.

    Only walks within jumping distance of the level can cross, so the scan
    touches the thin slice with max height in {level-2, level-1}, as one
    (walks x n^2 slots) array.  Every slot has mass 1/n^2 and an acceptance
    fixed by the swap's change in (flat, steep), so ``_law`` runs once per
    distinct change.  Both sums run sequentially in (walk, slot) order, as
    the row-by-row scan adds them.
    """
    n, level = chain.n, chain.spec.level
    low = arrays.max_height < level
    mass = _running_total(pi[low])
    thin = np.flatnonzero(low & (arrays.max_height >= level - 2))
    steps = arrays.steps[thin]
    up_at = np.nonzero(steps)[1].reshape(-1, n)
    down_at = np.nonzero(steps == 0)[1].reshape(-1, n)
    top = 2 * n - 1
    # slot (i, j) swaps the i-th up-step with the j-th down-step
    flips = (np.int64(1) << (top - up_at))[:, :, None] | (np.int64(1) << (top - down_at))[:, None, :]
    targets = np.searchsorted(arrays.codes, arrays.codes[thin, None] ^ flips.reshape(len(thin), n * n))
    walk, slot = np.nonzero(arrays.max_height[targets] >= level)
    target = targets[walk, slot]
    source = thin[walk]
    change = np.stack([arrays.flat[target] - arrays.flat[source], arrays.steep[target] - arrays.steep[source]], axis=1)
    _, first, inverse = np.unique(change, axis=0, return_index=True, return_inverse=True)
    probs = []
    for k in first.tolist():
        slot_k, slot_mass = chain._slots[slot[k]]
        p, _, _ = chain._law(arrays.walk(source[k]), slot_k)
        probs.append(float(slot_mass * p))
    terms = pi[source] * np.asarray(probs)[inverse.reshape(-1)]
    return _running_total(terms) / mass


# -- product chains ------------------------------------------------------------


def product_mixing_bound(p_select, taus, m_factors: int, eps: float) -> float:
    """max_i (2/p_i) tau_i(eps / (2M)) for a product of M independent chains."""
    p_select = list(p_select)
    if not p_select:
        raise ValueError("empty factor list")
    if len(p_select) != m_factors or len(taus) != m_factors:
        raise ValueError("factor count mismatch")
    if sum(p_select) > 1 + 1e-12:
        raise ValueError("selection probabilities must sum to at most 1")
    inner = eps / (2 * m_factors)
    return max((2 / p) * tau(inner) for p, tau in zip(p_select, taus))


def kron_product_matrix(mats, p_select) -> np.ndarray:
    """Transition matrix of the product chain that updates factor i w.p. p_i."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    dims = [m.shape[0] for m in mats]
    total = int(np.prod(dims))
    out = np.zeros((total, total))
    for i, (m, p) in enumerate(zip(mats, p_select)):
        factors = [np.eye(d) for d in dims]
        factors[i] = m
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        out += p * term
    return out


# -- one-dimensional walk estimates ---------------------------------------------


def hitting_time_mean_exact(r: float, k: int) -> float:
    """Mean steps for the 0..k walk to first reach k from 0, holding at 0."""
    r = float(r)
    mean = 0.0
    t_prev = 0.0
    for h in range(k):
        if h == 0:
            t_prev = 1.0 / r
        else:
            t_prev = (1.0 + (1.0 - r) * t_prev) / r
        mean += t_prev
    return mean


def hitting_time_samples(r: float, k: int, trials: int, seed: int) -> np.ndarray:
    """Vectorized first-passage times to k from 0 over independent walkers."""
    rng = make_rng(seed)
    state = np.zeros(trials, dtype=np.int64)
    hit = np.full(trials, -1, dtype=np.int64)
    active = np.arange(trials)
    t = 0
    while active.size:
        t += 1
        up = rng.random(active.size) < r
        s = state[active]
        s = np.where(up, np.minimum(s + 1, k), np.maximum(s - 1, 0))
        state[active] = s
        done = s == k
        hit[active[done]] = t
        active = active[~done]
    return hit


@dataclass
class CouplingEstimate:
    mean_coupling_time: float
    pairs: int
    tau_bound: object  # callable eps -> float


def coupling_time_estimate(kernel, pairs: int, seed: int) -> CouplingEstimate:
    """Coalescence time of the same-direction coupling from the extreme pair.

    Defined for the bounded one-dimensional walk only: both copies follow
    identical up/down draws, the order is preserved, the gap closes only at
    the clamped boundaries, and once the copies meet they stay together.
    The implied mixing bound is T * e * ceil(ln(1/eps)).
    """
    from .chains import OnedChain

    if not isinstance(kernel, OnedChain):
        raise TypeError("the monotone coupling is defined for the oned kernel only")
    return _coupling_time_estimate(float(kernel.r), kernel.k, pairs, seed)


def _coupling_time_estimate(r: float, k: int, pairs: int, seed: int) -> CouplingEstimate:
    rng = make_rng(seed)
    lo = np.zeros(pairs, dtype=np.int64)
    hi = np.full(pairs, k, dtype=np.int64)
    times = np.zeros(pairs, dtype=np.int64)
    active = np.arange(pairs)
    t = 0
    while active.size:
        t += 1
        up = rng.random(active.size) < r
        step = np.where(up, 1, -1)
        lo_a = np.clip(lo[active] + step, 0, k)
        hi_a = np.clip(hi[active] + step, 0, k)
        lo[active] = lo_a
        hi[active] = hi_a
        met = lo_a == hi_a
        times[active[met]] = t
        active = active[~met]
    mean_t = float(times.mean())

    def tau_bound(eps: float) -> float:
        return mean_t * math.e * math.ceil(math.log(1.0 / eps))

    return CouplingEstimate(mean_coupling_time=mean_t, pairs=pairs, tau_bound=tau_bound)


# -- spectral-gap grid scan -------------------------------------------------------


@dataclass
class GapScan:
    n: int
    values: tuple
    tables_checked: int
    min_gap: float
    uniform_gap: float
    violations: list = field(default_factory=list)


def monotone_grid_tables(n: int, values) -> list[dict]:
    """All fully monotone assignments of grid values to the upper triangle.

    Monotone means rows never decrease to the right and never increase
    downward: p[i][j] <= p[i][j+1] and p[i-1][j] >= p[i][j].
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    values = sorted(values)
    tables: list[dict] = []

    def extend(k: int, current: dict):
        if k == len(pairs):
            tables.append(dict(current))
            return
        i, j = pairs[k]
        lo = max(
            current.get((i, j - 1), values[0]) if j - 1 > i else values[0],
            current.get((i + 1, j), values[0]) if i + 1 < j else values[0],
        )
        hi = current.get((i - 1, j), values[-1]) if i >= 2 else values[-1]
        for v in values:
            if lo <= v <= hi:
                current[(i, j)] = v
                extend(k + 1, current)
                del current[(i, j)]

    extend(0, {})
    return tables


def gap_problem_scan(n: int = 4, values=(Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))) -> GapScan:
    """Check gap(P) >= gap(uniform) over all monotone grid tables."""
    from .bias import BiasTable
    from .chains import NearestNeighborChain

    values = tuple(Fraction(v) for v in values)
    states = None
    uniform_gap = None
    gaps = []
    tables = monotone_grid_tables(n, values)
    for flat in tables:
        table = BiasTable(n, lambda i, j: flat[(i, j)])
        kernel = NearestNeighborChain(table)
        if states is None:
            states = kernel.space()
        matrix = transition_matrix(kernel, states)
        pi = stationary_exact(kernel, states)
        gap = spectral_gap(matrix, pi)
        if all(v == Fraction(1, 2) for v in flat.values()):
            uniform_gap = gap
        gaps.append((flat, gap))
    if uniform_gap is None:
        raise ValueError("grid must include the uniform table")
    min_gap = min(g for _, g in gaps)
    violations = [
        (dict(flat), g) for flat, g in gaps if g < uniform_gap - 1e-12
    ]
    return GapScan(
        n=n,
        values=values,
        tables_checked=len(tables),
        min_gap=min_gap,
        uniform_gap=uniform_gap,
        violations=violations,
    )


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def level_cuts_by_weight(pi: np.ndarray, count: int = 8) -> list[list[int]]:
    """Nested cuts taken along increasing stationary mass, for bound checks."""
    order = np.argsort(pi)
    cuts = []
    m = len(pi)
    for frac in np.linspace(0.1, 0.9, count):
        size = max(1, int(frac * m))
        cut = order[:size].tolist()
        if float(pi[cut].sum()) <= 0.5 and cut:
            cuts.append(cut)
    return cuts or [order[:1].tolist()]
