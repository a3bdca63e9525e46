"""
Exhaustive small-instance analysis of the chains.

Everything here materializes a kernel's exact transition law on an enumerated
state space: stationary distributions from weights and from matrix fixed
points, worst-start total-variation mixing times, spectral gaps of the
symmetrized kernel, conductance of explicit cuts, and the bottleneck report
for the slow-mixing family.

State orderings are frozen (lexicographic) so ids are comparable across runs.
Dense linear algebra is used up to 10^4 states, sparse iteration above; the
hard cap on materialized spaces is 10^5 states.

The staircase-walk spaces of the bottleneck report are array-backed: walks are
integer codes (``walks.walk_arrays``), and the stationary law and the
long-swap conductance call the kernel's own ``stationary_weight`` and ``_law``
once per class of walks sharing the value.  The walk matrices and those of
the ``inv`` and ``tree`` kernels (``ARRAY_ROWS``) come from one assembly,
``class_rows_matrix``, fed by a finder: per slot, a vectorised rule yields
the states that move and their successors, in classes that share the move's
probability, and ``class_moves`` runs ``_law`` once per class.
``_walk_swaps`` yields (pos, ups, orientation) classes, exact since a
``chains.WalkChain`` is set by two swap probabilities; ``_inv_swaps`` and
``_tree_swaps`` work over S_n as an int8 array, with Lehmer ranks as the
successors.  A permutation kernel's stationary law is one object-dtype
column product per label pair (``perm_weights``).
The Fraction path (``transition_distribution``, ``transition_matrix``, and the
kernels' ``stationary_weight``) stays the oracle; the array builds equal it
bit for bit.  Its rows come from memoized slot products with the hold summed
on integers, equal to a per-slot Fraction loop, which the tests keep as the
reference.  ``nn`` keeps the Fraction rows in every command.

``mixing_time_exact`` steps the start distributions in chunks, each a
C-contiguous (states, w) block of w <= CHUNK columns, until the first t at
which every start is within eps: every state split evenly into cache-sized
chunks, or one column per explicit start.  Its distances and tau equal
stepping each chunk's block on its own, which the tests keep as the reference,
bit for bit; for every start that is the whole (states, states) block, and an
explicit start's curve does not depend on the starts passed with it.  Two or
more chunks run on a thread pool with one worker per usable CPU (``WORKERS``),
each bound to a CPU of its own and stepping into buffers that the calling
thread made; a chunk below eps by a margin retires, as a start's TV to a
stationary pi never grows.  A column's steps depend on that column alone, so
the results do not depend on the number of cores.

scipy is imported where a sparse matrix is made (``transition_matrix``,
``class_rows_matrix`` and ``mixing_time_exact``'s transpose) and where
``_run_chunk`` steps one, not with this module: importing it, and with it the
CLI, loads no scipy module, so ``sample`` starts without it.
"""
from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING

import numpy as np

from . import walks
from ._common import CapExceeded
from .bias import BiasTable, SlowMixSpec, solve_delta
from .chains import PermutationKernel, WalkChain, WalkTranspositionChain

if TYPE_CHECKING:
    import scipy.sparse as sp

STATE_CAP = 100_000
DENSE_CAP = 10_000
CHUNK = 128  # start columns stepped together by mixing_time_exact
LOG = 512  # steps a chunk may take per pass of mixing_time_exact
# threads for mixing_time_exact's chunks: the CPUs this process may use
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
COMPARISON_P = Fraction(3, 4)  # bias of the slowmix report's constant-bias chain


def state_index(states) -> dict:
    return {s: k for k, s in enumerate(states)}


def transition_matrix(kernel, states=None) -> sp.csr_matrix:
    """Row-stochastic sparse matrix of the kernel on the enumerated space."""
    if states is None:
        states = kernel.space()
    if len(states) > STATE_CAP:
        raise CapExceeded(f"{len(states)} states exceed the cap {STATE_CAP}")
    import scipy.sparse as sp

    idx = state_index(states)
    r, cols, vals = [], [], []
    for i, row in enumerate(map(kernel.transition_distribution, states)):
        for t, p in row.items():
            r.append(i)
            cols.append(idx[t])
            vals.append(float(p))
    return sp.csr_matrix((vals, (r, cols)), shape=(len(states), len(states)))


def normalized(weights) -> list[Fraction]:
    """Exact weights over their total."""
    total = sum(weights)
    if total == 0:
        raise ValueError("all states have zero weight")
    return [w / total for w in weights]


def stationary_exact(kernel, states=None) -> np.ndarray:
    """Normalized stationary distribution from the weight formula.

    A permutation kernel's weights are taken as array products
    (``perm_weights``), equal to ``distribution`` of its Fraction weights.
    """
    if states is None:
        states = kernel.space()
    if isinstance(kernel, PermutationKernel):
        return _shares(perm_weights(kernel.table, np.array(states, dtype=np.int8)).tolist())
    return distribution(kernel.stationary_weight(s) for s in states)


def distribution(weights) -> np.ndarray:
    """Floats of exact weights over their total.

    The weights are scaled to integers W over their common denominator, and
    each float is the int quotient W / sum(W): correctly rounded, so it is
    float(w / total) without a Fraction division per state.
    """
    weights = list(weights)
    common = math.lcm(*{w.denominator for w in weights})
    # the raw weights are freed before the floats are made
    scaled = [w.numerator * (common // w.denominator) for w in weights]
    del weights
    return _shares(scaled)


def _shares(weights: list[int]) -> np.ndarray:
    """Each integer weight over their sum, as a correctly rounded int quotient."""
    total = sum(weights)
    if total == 0:
        raise ValueError("all states have zero weight")
    return np.array([w / total for w in weights])


def is_fixed_point_exact(kernel, states=None) -> bool:
    """Exact check that pi P = pi, entry by entry, for pi from the kernel's weights."""
    if states is None:
        states = kernel.space()
    pi = normalized([kernel.stationary_weight(s) for s in states])
    idx = state_index(states)
    acc = [Fraction(0)] * len(states)
    for i, s in enumerate(states):
        if pi[i] == 0:
            continue
        for t, p in kernel.transition_distribution(s).items():
            acc[idx[t]] += pi[i] * p
    return acc == pi


def detailed_balance_violations(kernel, states=None) -> list:
    """Pairs (s, t) with pi(s)K(s,t) != pi(t)K(t,s), exact arithmetic."""
    if states is None:
        states = kernel.space()
    idx = state_index(states)
    pi = normalized([kernel.stationary_weight(s) for s in states])
    rows = [kernel.transition_distribution(s) for s in states]
    bad = []
    for i, s in enumerate(states):
        for t, p in rows[i].items():
            j = idx[t]
            if j <= i:
                continue
            back = rows[j].get(s, Fraction(0))
            if pi[i] * p != pi[j] * back:
                bad.append((s, t))
    return bad


@dataclass
class MixingResult:
    tau: int | None         # None when the horizon ran out
    distances: list         # worst-start TV at t = 0, 1, ...
    caveat: str             # "all-starts" or "extreme-starts"


def mixing_time_exact(
    matrix: sp.csr_matrix,
    pi: np.ndarray,
    eps: float,
    starts=None,
    horizon: int = 200_000,
) -> MixingResult:
    """Smallest t with worst-start TV <= eps, and the worst-start TV at each t.

    starts=None uses every state ("all-starts"); explicit starts are the
    "extreme-starts" caveat.  The starts are stepped in chunks, each a
    C-contiguous (states, w) block with its own curve of worst TV per step:
    with starts=None, the states split evenly into ceil(states / CHUNK)
    blocks, small enough to stay in cache and, with two or more states, two or
    more columns wide, as numpy sums such a block's states in the order of the
    whole block; with explicit starts, one column per start.  A start's TV to
    a stationary pi never grows along a stochastic matrix (Levin, Peres and
    Wilmer, ch. 4), so a chunk within eps by a margin retires (``_retired``)
    and steps no further, unless ``_retirement_floor`` finds the premise
    false.  Each pass steps every live chunk until it retires or, within eps,
    reaches the largest step count of the live chunks, until tau and the
    distances (``_tau``) exist or the horizon is spent; they equal stepping
    each chunk's block on its own, and with starts=None the whole block, since
    before tau the largest value exceeds eps and no retired chunk's later
    value does, and at tau a retired chunk not below distances[tau] by the
    floor steps on to tau.  Columns step alone, so chunks run in any order:
    with two or more live chunks, on up to ``WORKERS`` threads bound to a CPU
    each (``_pool``), into buffers the calling thread made, at most ``LOG``
    steps per pass.
    """
    pi = np.asarray(pi)
    m = matrix.shape[0]
    if starts is None:
        groups = np.array_split(np.arange(m), -(-m // CHUNK))
        caveat = "all-starts"
    else:
        groups = [[s] for s in starts]
        caveat = "extreme-starts"
    xs, curves = [], []  # curves[k][t]: chunk k's worst TV at step t
    for group in groups:
        rows = np.zeros((len(group), m))
        rows[np.arange(len(group)), group] = 1.0
        curves.append([float(np.abs(rows - pi).sum(axis=1).max() * 0.5)])
        # a C-contiguous (states, w) block, the layout the sparsetools kernel
        # reads and writes, so nothing is transposed per step
        xs.append(np.ascontiguousarray(rows.T))
    if max(c[0] for c in curves) <= eps:
        return MixingResult(0, [max(c[0] for c in curves)], caveat)
    import scipy.sparse as sp

    transposed = sp.csc_matrix(matrix.T, dtype=float)  # formed once
    floor = _retirement_floor(transposed, pi, eps, horizon)
    workers = min(WORKERS, len(xs))
    # every buffer the workers write is made here (see _run_chunk)
    spares: queue.SimpleQueue = queue.SimpleQueue()
    width = max(x.size for x in xs)
    for _ in range(workers):
        spares.put((np.empty(width), np.empty(CHUNK)))
    logs = np.empty((len(xs), LOG))
    retired: set = set()
    stepping, reached, retiring = range(len(xs)), 1, floor

    def run(k):
        spare = spares.get()
        try:
            return _run_chunk(transposed, pi, xs[k], spare, logs[k], curves[k], reached, eps, horizon, retiring)
        finally:
            spares.put(spare)

    with _pool(workers) as pool:
        while stepping:
            spread = map if pool is None or len(stepping) == 1 else pool.map
            for k, taken in zip(stepping, spread(run, stepping)):
                curve = curves[k]
                curve.extend(logs[k, :taken].tolist())
                if retiring is not None and len(curve) > 1 and _retired(curve[-2], curve[-1], eps, retiring):
                    retired.add(k)
            tau, distances = _tau(curves, eps, retired)
            if tau is None:
                live = [k for k in range(len(xs)) if k not in retired]
                stepping = [k for k in live if len(curves[k]) <= horizon]
                reached = max(len(curves[k]) for k in live) - 1
            else:
                # resume: a retired chunk steps on to tau where its value could be the largest
                stepping = [k for k in retired if len(curves[k]) <= tau and curves[k][-1] + floor > distances[tau]]
                reached, retiring = tau, None
    return MixingResult(tau, distances[: None if tau is None else tau + 1], caveat)


def _tau(curves, eps: float, retired=()) -> tuple[int | None, list]:
    """tau (None before it) and the distances, each step's largest worst TV
    over the chunks that took it, to the last step every live chunk took (or
    any took, once all retired): a retired chunk's later values count for nothing."""
    live = [len(curve) for k, curve in enumerate(curves) if k not in retired]
    distances = list(map(max, zip_longest(*curves, fillvalue=-math.inf)))[: min(live) if live else None]
    return next((t for t, worst in enumerate(distances) if worst <= eps), None), distances


def _retirement_floor(transposed, pi: np.ndarray, eps: float, horizon: int) -> float | None:
    """The least margin below eps at which a chunk may retire; None (a
    negative entry, or a pi that is not stationary) where none may.

    ||(x - pi) P||_1 <= ||x - pi||_1 for P >= 0 with rows summing to 1.  A
    float step may add the rows' largest defect from 1, ||pi P - pi||_1 and
    the rounding of an entry of xP, a sum over a column of P, and a measured
    TV is off by the state count times the machine epsilon: over the
    horizon, at least 1e-9, that is the floor.
    """
    unit = np.finfo(float).eps
    rows = np.abs(np.asarray(transposed.sum(axis=0)).ravel() - 1).max()
    drift = np.abs(transposed @ pi - pi).sum()
    terms = np.bincount(transposed.indices, minlength=len(pi)).max()  # a column of P's nonzeros
    floor = max(1e-9, float(horizon * (rows + drift + terms * unit) + len(pi) * unit))
    return floor if floor < eps and not (transposed.data < 0).any() else None


def _retired(prev: float, last: float, eps: float, floor: float) -> bool:
    """Whether a chunk whose worst TV stepped from ``prev`` to ``last`` retires:
    ``last`` lies below eps by twice that drop, and at least by ``floor``."""
    return last <= eps - max(2 * (prev - last), floor)


def _pool(workers: int):
    """A pool of ``workers`` threads, each bound to a CPU of its own from the
    calling thread's affinity mask; for one worker, no pool.

    The binding is what makes the pool's speed repeatable.  Where the kernel
    does not move running threads between CPUs (a cpuset with load balancing
    off), new threads start on the CPU of the thread that made them and stay
    there: unbound, the workers shared one CPU in some calls and not in
    others, and a call took the serial time or about 0.6 of it by chance.
    """
    if workers == 1:
        return nullcontext()
    cpus: queue.SimpleQueue = queue.SimpleQueue()
    if hasattr(os, "sched_setaffinity"):
        for cpu in sorted(os.sched_getaffinity(0))[:workers]:
            cpus.put(cpu)
    return ThreadPoolExecutor(workers, initializer=_bind_worker, initargs=(cpus,))


def _bind_worker(cpus: queue.SimpleQueue) -> None:
    """Bind the calling worker thread to the next CPU of ``cpus``; with none
    left (more workers than CPUs) or the binding refused, it runs unbound."""
    try:
        os.sched_setaffinity(0, {cpus.get_nowait()})
    except (queue.Empty, OSError):
        pass


def _run_chunk(transposed, pi, x, spare, log, curve, reached, eps, horizon, floor) -> int:
    """Step chunk x on from step t = len(curve) - 1 until it retires (never
    when ``floor`` is None), is within eps at a step at or past ``reached``,
    reaches horizon or fills ``log`` with its worst TV per step; return the
    number of steps taken.

    Each step zeroes y and calls the sparsetools kernel that ``transposed @ x``
    calls into its own zeroed result, so the values are those of ``@``; then
    x and y swap, the former x takes |x - pi|, and the worst TV is the largest
    of its column sums.  The chunk's last values are copied back into its own
    array.

    y and the column sums are views of the worker's ``spare``: nothing a step
    writes is allocated in the worker thread, whose blocks, freed by the
    calling thread and grown by realloc there, drew its later allocations
    into the worker's malloc arena and raised peak RSS.
    """
    from scipy.sparse import _sparsetools

    own = x
    block, sums = spare
    y = block[: x.size].reshape(x.shape)
    width = x.shape[1]
    centre = pi[:, None]
    rows, cols = transposed.shape
    args = (transposed.indptr, transposed.indices, transposed.data)
    t = len(curve) - 1
    prev, last = curve[-2] if t else math.inf, curve[-1]
    taken = 0
    while taken < len(log) and t + taken < horizon:
        if last <= eps and (t + taken >= reached or floor is not None and _retired(prev, last, eps, floor)):
            break
        y.fill(0.0)
        if width == 1:
            _sparsetools.csc_matvec(rows, cols, *args, x.ravel(), y.ravel())
        else:
            _sparsetools.csc_matvecs(rows, cols, width, *args, x.ravel(), y.ravel())
        x, y = y, x
        np.subtract(x, centre, out=y)
        np.abs(y, out=y)
        prev, last = last, y.sum(axis=0, out=sums[:width]).max() * 0.5
        log[taken] = last
        taken += 1
    if x is not own:
        own[...] = x
    return taken


def spectral_gap(matrix: sp.csr_matrix, pi: np.ndarray) -> float:
    """1 minus the second-largest eigenvalue modulus of the symmetrized kernel.

    Requires reversibility to within 1e-9 and pi > 0; the similarity transform
    D^(1/2) P D^(-1/2) is then symmetric and the spectrum is real.
    """
    m = matrix.shape[0]
    if m > DENSE_CAP:
        raise CapExceeded(f"{m} states exceed the dense eigensolve cap {DENSE_CAP}")
    if not pi.all():
        raise ValueError("pi has zero entries; the symmetrization needs pi > 0")
    dense = matrix.toarray()
    # in place where the values allow, so that at most three (m, m) arrays
    # are alive at once; the symmetrized matrix is the same, bit for bit
    flows = pi[:, None] * dense
    flows -= flows.T
    if not np.abs(flows, out=flows).max() <= 1e-9:
        raise ValueError("kernel is not reversible with respect to pi")
    del flows
    root = np.sqrt(pi)
    dense *= root[:, None] / root[None, :]
    dense += dense.T
    dense /= 2
    eigs = np.linalg.eigvalsh(dense)
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
    rows = np.flatnonzero(inside)
    coo = matrix[rows].tocoo()
    out = ~inside[coo.col]
    # a sequential sum in COO order, as a loop over the entries would add them
    flows = np.add.accumulate(pi[rows[coo.row[out]]] * coo.data[out])
    return (flows[-1] if flows.size else 0.0) / mass


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
    return {cls: walks.class_weight(table, spec.gamma, spec.xi) for cls, table in tables.items()}


def slowmix_cut_report(n: int, compute_comparison: bool = True) -> SlowMixReport:
    """Exact bottleneck quantities for the fluctuating-bias walk chain at size n.

    The balance point makes the low and high sides carry equal mass; the cut
    class at the bottleneck level is exponentially lighter, which the
    conductance bound converts into a mixing-time floor.  For contrast, the
    report optionally includes the exact tau(1/4) of the ``COMPARISON_P``
    constant-bias walk chain, measured from the two extreme walks.
    """
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    masses = _class_masses(n, spec, widened=False)
    total = masses[1] + masses[2] + masses[3]
    masses_w = _class_masses(n, spec, widened=True)

    arrays = walks.walk_arrays(n)
    chain = WalkChain.fluctuating(spec)
    pi = walk_stationary(chain, arrays)
    classes = list(_walk_swaps(chain, arrays))  # those of every WalkChain of size n
    phi = class_cut_conductance(chain, classes, pi, arrays.max_height < spec.level)
    phi_t = long_swap_conductance(WalkTranspositionChain(spec), arrays, pi)

    tau_cmp = None
    label = ""
    if compute_comparison:
        cmp_chain = WalkChain.constant(n, COMPARISON_P)
        cmp_matrix = class_rows_matrix(cmp_chain, classes)
        cmp_pi = walk_stationary(cmp_chain, arrays)
        # the lowest and the highest walk have the smallest and the largest code
        res = mixing_time_exact(cmp_matrix, cmp_pi, 0.25, starts=[0, len(arrays.codes) - 1])
        tau_cmp = res.tau
        label = f"constant:{COMPARISON_P}"

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
# Each build equals its Fraction-oracle build on walks.all_walks(n) bit for
# bit: exact values are converted to float once per class, and float sums run
# in the oracle's order.


def _running_total(values: np.ndarray):
    """Left-to-right float sum, as a Python loop adds; np.sum adds pairwise."""
    return np.add.accumulate(values)[-1]


def walk_stationary(chain, arrays: walks.WalkArrays) -> np.ndarray:
    """stationary_exact over all walks, one weight per (flat, steep) class.

    A walk kernel's weight gamma^flat * xi^steep depends on the tile counts
    alone, so one walk stands for its class.
    """
    first, inverse = _row_classes(np.stack([arrays.flat, arrays.steep], axis=1))
    weights = [chain.stationary_weight(arrays.walk(row)) for row in first.tolist()]
    total = sum(size * w for size, w in zip(np.bincount(inverse).tolist(), weights))
    if total == 0:
        raise ValueError("all states have zero weight")
    return np.array([float(w / total) for w in weights])[inverse]


def _row_classes(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each class of equal rows of a non-negative integer
    array, and each row's class id, from one 1-D unique per column: a column
    folds into the ids of the columns before it, which stay below the row
    count, so the integer key cannot overflow however many columns there are."""
    first, key = np.zeros(1, dtype=np.intp), np.zeros(len(columns), dtype=np.int64)
    for column in columns.T:
        _, first, key = np.unique(key * (int(column.max()) + 1) + column, return_index=True, return_inverse=True)
    return first, key


def class_moves(kernel, classes) -> tuple[list[Fraction], np.ndarray, np.ndarray]:
    """The moves of a kernel whose moves a finder gives in classes.

    ``classes`` yields (slot index, rows, successor rows, one state of the
    class) for each class of states that the slot moves with one probability,
    ``_move_mass`` of that state.  Returns the distinct exact off-diagonal
    masses, in the order first met, and two (states, slots) arrays: each
    move's mass id (-1 where the state stays) and its successor row.
    """
    m, slots = kernel.space_size(), len(kernel._slots)
    masses: dict[Fraction, int] = {}  # exact off-diagonal mass -> id
    mass_id = np.full((m, slots), -1)
    successors = np.empty((m, slots), dtype=np.int64)
    for k, rows, targets, state in classes:
        move = _move_mass(kernel, k, state)
        if move:
            mass_id[rows, k] = masses.setdefault(move, len(masses))
            successors[rows, k] = targets
    return list(masses), mass_id, successors


def _move_mass(kernel, k: int, state) -> Fraction:
    """Slot k's exact probability of moving ``state``: one ``_law``, its branch away."""
    slot, mass = kernel._slots[k]
    p, _, no = kernel._law(state, slot)
    return mass * (p if no == state else 1 - p)


def class_rows_matrix(kernel, classes) -> sp.csr_matrix:
    """transition_matrix of a kernel whose moves a finder gives in classes,
    from ``class_moves``.  A row's hold is the exact 1 - sum of its masses,
    taken once per distinct count of each mass, on integers over the masses'
    common denominator and rounded once.  Entries go in the oracle's order
    (row by row, slots ascending, hold last) through the oracle's COO route.
    """
    import scipy.sparse as sp

    exact, mass_id, cols = class_moves(kernel, classes)
    m = len(mass_id)
    mass_id = np.column_stack([mass_id, np.full(m, -1)])  # the last column is the hold
    cols = np.column_stack([cols, np.arange(m)])
    counts = np.stack([(mass_id == k).sum(axis=1) for k in range(len(exact))], axis=1)
    first, inverse = _row_classes(counts)
    common = math.lcm(*(x.denominator for x in exact))
    numerators = [x.numerator * (common // x.denominator) for x in exact]
    holds = [(common - sum(c * v for c, v in zip(row, numerators))) / common for row in counts[first].tolist()]
    vals = np.append([float(x) for x in exact], 0.0)[mass_id]
    vals[:, -1] = np.asarray(holds)[inverse]
    keep = mass_id >= 0
    keep[:, -1] = True
    return sp.csr_matrix((vals[keep], (np.nonzero(keep)[0], cols[keep])), shape=(m, m))


def class_cut_conductance(kernel, classes, pi: np.ndarray, inside: np.ndarray) -> float:
    """``conductance_of_cut`` of the states where ``inside`` holds on
    ``class_rows_matrix(kernel, classes)``, from the moves out of the cut (or
    its complement, by the same rule), one ``_move_mass`` per class that has
    one, added in sequence by (row, target) as on the matrix: the same float."""
    mass = float(pi[inside].sum())
    if mass > 0.5:
        inside, mass = ~inside, 1.0 - mass
    moves = []  # (rows, targets, float masses) of the moves out of the cut
    for k, rows, successors, state in classes:
        leaving = inside[rows] & ~inside[successors]
        if leaving.any():
            move = float(_move_mass(kernel, k, state))
            moves.append((rows[leaving], successors[leaving], np.full(leaving.sum(), move)))
    if not moves:
        return 0.0
    sources, targets, values = map(np.concatenate, zip(*moves))
    order = np.lexsort((targets, sources))
    return _running_total(pi[sources[order]] * values[order]) / mass


def _walk_swaps(chain: WalkChain, arrays: walks.WalkArrays):
    """The classes of an adjacent-swap walk chain over all walks: slot ``pos``
    swaps steps pos and pos+1 where they differ, and its law picks ``flat`` or
    ``steep`` by the number of up-steps through pos+1."""
    codes, steps = arrays.codes, arrays.steps
    ups = np.cumsum(steps, axis=1, dtype=np.int64)
    for k, (pos, _) in enumerate(chain._slots):
        moving = np.flatnonzero(steps[:, pos] != steps[:, pos + 1])
        targets = np.searchsorted(codes, codes[moving] ^ (3 << (2 * chain.n - 2 - pos)))
        keys = 2 * ups[moving, pos + 1] + steps[moving, pos]
        order = np.argsort(keys, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            rows = moving[group]
            yield k, rows, targets[group], arrays.walk(rows[0])


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


# -- array-backed permutation spaces ----------------------------------------------
#
# S_n is an (n!, n) int8 array in lexicographic order, so a permutation's row
# is its Lehmer rank.  The finders' matrices equal their Fraction-oracle builds
# bit for bit.


def lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic ranks in S_n of the rows of an (m, n) permutation array."""
    n = perms.shape[1]
    later_smaller = (perms[:, None, :] < perms[:, :, None]) & np.triu(np.ones((n, n), dtype=bool), 1)
    factorials = np.array([math.factorial(n - 1 - k) for k in range(n)], dtype=np.int64)
    return later_smaller.sum(axis=2, dtype=np.int64) @ factorials


def perm_weights(table: BiasTable, perms: np.ndarray) -> np.ndarray:
    """``weight_exact``'s numerators over D, one Python int per row of ``perms``.

    W(sigma) is the product over label pairs i < j of a[i][j] where i stands
    before j and a[j][i] otherwise, from ``table.integer_pairs``: one
    object-dtype column product per pair.
    """
    if perms.shape[1] != table.n:
        raise ValueError(f"permutation size {perms.shape[1]} != table size {table.n}")
    a, _ = table.integer_pairs
    pos = np.argsort(perms, axis=1)
    weights = np.ones(len(perms), dtype=object)
    for i in range(1, table.n + 1):
        for j in range(i + 1, table.n + 1):
            before = (pos[:, i - 1] < pos[:, j - 1]).astype(np.intp)
            weights *= np.array([a[j][i], a[i][j]], dtype=object)[before]
    return weights


def _swap_finder(positions):
    """The finder over ``states``, S_n in lexicographic order as ``kernel.space()``
    lists it, of a rule ``positions(kernel, perms)`` that yields per class the
    rows that move and the two positions they swap; the successors are the
    Lehmer ranks of the swapped rows."""

    def finder(kernel, states):
        perms = np.array(states, dtype=np.int8)
        m, n = perms.shape
        if m != math.factorial(n) or not np.array_equal(lehmer_ranks(perms), np.arange(m)):
            raise ValueError("states must list S_n in lexicographic order")
        for k, rows, first, second in positions(kernel, perms):
            moved = perms[rows]
            at = np.arange(len(rows))
            moved[at, first], moved[at, second] = perms[rows, second], perms[rows, first]
            yield k, rows, lehmer_ranks(moved), states[rows[0]]

    return finder


@_swap_finder
def _inv_swaps(kernel, perms: np.ndarray):
    """Slot (label, side, acceptance, larger) swaps ``label`` with the nearest
    label on ``side`` (+1 after it, -1 before it) that is larger than it when
    ``larger`` holds and smaller otherwise, as ``InversionChain._law`` does.
    A slot is one class."""
    n = perms.shape[1]
    places = np.arange(n)
    for k, ((i, side, _, larger), _) in enumerate(kernel._slots):
        at = np.argmax(perms == i, axis=1)
        beyond = places > at[:, None] if side == 1 else places < at[:, None]
        targets = ((perms > i) == larger) & beyond
        j = np.argmax(targets, axis=1) if side == 1 else n - 1 - np.argmax(targets[:, ::-1], axis=1)
        rows = np.flatnonzero(targets.any(axis=1))
        yield k, rows, at[rows], j[rows]


@_swap_finder
def _tree_swaps(kernel, perms: np.ndarray):
    """Slot (a, b, q, under) swaps a and b where no other label of ``under``
    stands between them, in two classes: a before b, and b before a."""
    n = perms.shape[1]
    pos = np.argsort(perms, axis=1)
    places = np.arange(n)
    for k, ((a, b, _, under), _) in enumerate(kernel._slots):
        pa, pb = pos[:, a - 1], pos[:, b - 1]
        between = (places > np.minimum(pa, pb)[:, None]) & (places < np.maximum(pa, pb)[:, None])
        free = ~(between & np.isin(perms, list(under))).any(axis=1)
        for order in (pa < pb, pa > pb):
            rows = np.flatnonzero(free & order)
            yield k, rows, pa[rows], pb[rows]


# kinds with array rows -> their swap finder; nn keeps the Fraction rows
ARRAY_ROWS = {"inv": _inv_swaps, "tree": _tree_swaps}


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
