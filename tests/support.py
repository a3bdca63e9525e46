"""Model builders and reference helpers shared by the test modules.

Besides the model builders and hypothesis strategies, this module holds the
lab helpers that only tests call, kept out of the package: the total
variation distance, the product-of-chains mixing bound and the Kronecker
product matrix it is checked on, the hitting-time and coupling estimates for
the one-dimensional walk, the monotone-grid spectral-gap scan behind Fill's
question (acceptance criteria 4, 6 and 9), the walk-to-code loop that is
the reference for ``walks.walk_arrays(...).codes``, the permutation swaps
that no kernel calls any more, and the kernels' former transition laws,
which the tests keep as the references of the rewritten ones.

They live here, not in ``conftest.py``, because ``perfbench/tests`` has a
``conftest`` module of its own and only one module of that name can be
imported by name in a pytest run.
"""
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from permchains import walks
from permchains.analysis import spectral_gap, stationary_exact, transition_matrix
from permchains.bias import CywSpec
from permchains.chains import InversionChain, TreeChain, make_rng
from permchains.trees import LeagueTree, random_tree, truncate_tree
from permchains.verify import _cyw as cyw_spec  # noqa: F401
from permchains.verify import demo_tree
from permchains.walks import check_walk


def truncate_tree_demo(n: int) -> LeagueTree:
    return truncate_tree(demo_tree(), n)


def mirrored_spec(spec: CywSpec) -> CywSpec:
    """The same model seen through the relabeling v -> n+1-v."""
    other = "max" if spec.variant == "min" else "min"
    return CywSpec(r=tuple(reversed(spec.r)), variant=other)


@st.composite
def cyw_kernels(draw, max_n: int):
    """Inversion chains of random rational cyw tables, min and max variants."""
    # CywSpec keeps every rank below 1, so 1/2 is the boundary drawn here
    n = draw(st.integers(min_value=2, max_value=max_n))
    ranks = st.fractions(min_value=Fraction(1, 2), max_value=Fraction(99, 100), max_denominator=100)
    r = tuple(draw(st.lists(ranks, min_size=n - 1, max_size=n - 1)))
    return InversionChain(CywSpec(r=r, variant=draw(st.sampled_from(["min", "max"]))))


@st.composite
def league_kernels(draw, max_n: int):
    """Tree chains of random leagues; q = 1 may be drawn, giving zero weights."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    qs = st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(9, 10), Fraction(1)])
    q_choices = tuple(draw(st.lists(qs, min_size=1, max_size=3)))
    return TreeChain(random_tree(n, make_rng(draw(st.integers(min_value=0, max_value=2**32))), q_choices))


def tv_distance(mu, nu) -> float:
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return 0.5 * float(np.abs(mu - nu).sum())


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
    from permchains.chains import OnedChain

    if not isinstance(kernel, OnedChain):
        raise TypeError("the monotone coupling is defined for the oned kernel only")
    r, k = float(kernel.r), kernel.k
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
    from permchains.bias import BiasTable
    from permchains.chains import NearestNeighborChain

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


# -- integer walk codes: the reference order of walks.walk_arrays(...).codes --


def walk_to_code(w: Sequence[int]) -> int:
    code = 0
    for s in check_walk(w):
        code = 2 * code + (s == 1)
    return code


# -- permutation swaps -------------------------------------------------------------


def adjacent_swap(sigma: Sequence[int], pos: int) -> tuple[int, ...]:
    """Swap positions pos and pos+1 (0-based)."""
    out = list(sigma)
    out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return tuple(out)


def swap_values(sigma: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """Exchange the positions of the labels a and b."""
    out = list(sigma)
    ia, ib = out.index(a), out.index(b)
    out[ia], out[ib] = b, a
    return tuple(out)


# -- the former transition laws: each kernel's ``_law`` as first written ----------
#
# Each takes the kernel as ``self``; ``REFERENCE_LAWS[kind](kernel, state, slot)``
# must equal ``kernel._law(state, slot)``.


def _nn_law(self, sigma, pos):
    return self.table.p(sigma[pos + 1], sigma[pos]), adjacent_swap(sigma, pos), sigma


def _inv_law(self, sigma, slot):
    label, side, accept, larger = slot
    pos = sigma.index(label)
    scan = sigma[pos + 1 :] if side == 1 else reversed(sigma[:pos])
    j = next((v for v in scan if (v > label) == larger), None)
    if j is None:
        return 1, sigma, sigma
    return accept, swap_values(sigma, label, j), sigma


def _tree_span(sigma, a: int, b: int, under) -> tuple[int, int] | None:
    """Ordered positions of a and b, or None if a label of ``under`` lies between."""
    i, j = sigma.index(a), sigma.index(b)
    lo, hi = (i, j) if i < j else (j, i)
    if not under.isdisjoint(sigma[lo + 1 : hi]):
        return None
    return lo, hi


def _tree_law(self, sigma, slot):
    a, b, q, under = slot
    span = _tree_span(sigma, a, b, under)
    if span is None:
        return 1, sigma, sigma
    lo, hi = span
    in_order, out_of_order = list(sigma), list(sigma)
    in_order[lo], in_order[hi] = a, b
    out_of_order[lo], out_of_order[hi] = b, a
    return q, tuple(in_order), tuple(out_of_order)


def _oned_law(self, h: int, slot):
    if not 0 <= h <= self.k:
        raise ValueError(f"state out of range 0..{self.k}: {h}")
    return self.r, min(h + 1, self.k), max(h - 1, 0)


def _walk_law(self, w, pos: int):
    if w[pos] == w[pos + 1]:
        return 1, w, w
    ups = w[: pos + 2].count(1)
    downs = pos + 2 - ups
    p = self.steep if walks.exceeds_diag(ups - downs + 1, self.n) else self.flat
    head, tail = w[:pos], w[pos + 2 :]
    return p, head + (1, -1) + tail, head + (-1, 1) + tail


def walk_transposition_change(w, slot) -> tuple[tuple[int, int], tuple[int, ...]]:
    """((change in flat tiles, change in steep tiles), new walk) of a swap, by recounting both walks."""
    which_up, which_down = slot
    a = [k for k, s in enumerate(w) if s == 1][which_up]
    b = [k for k, s in enumerate(w) if s == -1][which_down]
    new = list(w)
    new[a], new[b] = new[b], new[a]
    new = tuple(new)
    f0, s0 = walks.count_tiles(w)
    f1, s1 = walks.count_tiles(new)
    return (f1 - f0, s1 - s0), new


def _walk_transposition_law(self, w, slot):
    change, new = walk_transposition_change(w, slot)
    return min(1, self.gamma ** change[0] * self.xi ** change[1]), new, w


REFERENCE_LAWS = {
    "nn": _nn_law,
    "inv": _inv_law,
    "tree": _tree_law,
    "oned": _oned_law,
    "walk": _walk_law,
    "walk-transposition": _walk_transposition_law,
}
