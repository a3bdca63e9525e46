"""
Canonical nearest-neighbor paths for the long-range chain moves.

A transition of the inversion chain or the tree chain transposes two labels
that may be far apart.  Each such move is simulated by a fixed sequence of
adjacent transpositions whose intermediate weights never drop below
min(weight(start), weight(end)):

* inversion moves: march the earlier endpoint right until it passes the
  other, then march the other back to the vacated position.  Every skipped
  label is smaller than both endpoints, so skipping is weight-neutral under
  a choose-your-weapon table.
* tree moves: a four-stage route.  Stage 1 parks one small label to the left
  of each large in-between label (processing small labels right to left);
  stage 2 marches the earlier endpoint right and swaps it past the other;
  stage 3 marches the other endpoint to the vacated position; stage 4
  restores the displaced labels.  The weight floor needs the bias table to
  be weakly monotone; the column-monotone flavor is handled by mirroring the
  instance, building the row-monotone path, and mirroring back.

``congestion_A`` routes each move once, checks its legality and floor with
``verify_path``, and adds its load to the nearest-neighbor edges it uses; the
congestion A feeds the comparison bound 4 ln(1/(eps pi_min)) / ln(1/(2 eps)) * A * tau_aux.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from . import perms
from .analysis import CapExceeded
from .bias import (
    BiasTable,
    MonotonicityReport,
    choose_your_weapon,
    is_weakly_monotone,
    league_hierarchy,
    weight_exact,
)
from .chains import KERNELS, NearestNeighborChain
from .trees import LeagueTree


@dataclass
class NnPath:
    """Adjacent-transposition route with per-step stage labels.

    states[k] and states[k+1] differ by one adjacent swap; stages[k] labels
    that swap (0 = already adjacent, 1..4 = construction stage).  milestones
    maps stage boundaries to the configuration reached there.
    """

    states: list
    stages: list
    origin: tuple  # 0-based (position of first endpoint, position of second)
    milestones: dict = field(default_factory=dict)
    floor_guaranteed: bool = True

    def __len__(self) -> int:
        return len(self.states) - 1


class NotAnEdge(ValueError):
    """The given pair of permutations is not a move of the auxiliary chain."""


def _swap_positions(sigma, beta) -> tuple[int, int]:
    diff = [k for k, (a, b) in enumerate(zip(sigma, beta)) if a != b]
    if len(diff) != 2:
        raise NotAnEdge(f"states differ in {len(diff)} positions, need 2")
    lo, hi = diff
    if sigma[lo] != beta[hi] or sigma[hi] != beta[lo]:
        raise NotAnEdge("differing positions do not hold transposed labels")
    return lo, hi


def is_inv_edge(sigma, beta) -> bool:
    """True when the move swaps a label with a larger one across smaller ones."""
    try:
        lo, hi = _swap_positions(sigma, beta)
    except NotAnEdge:
        return False
    a, b = sigma[lo], sigma[hi]
    return all(v < min(a, b) for v in sigma[lo + 1 : hi])


def is_tree_edge(sigma, beta, tree: LeagueTree) -> bool:
    try:
        lo, hi = _swap_positions(sigma, beta)
    except NotAnEdge:
        return False
    a, b = sigma[lo], sigma[hi]
    under = tree.leaves_under(tree.lca(min(a, b), max(a, b)))
    return all(v not in under for v in sigma[lo + 1 : hi])


class _Builder:
    def __init__(self, sigma):
        self.cur = list(sigma)
        self.states = [tuple(sigma)]
        self.stages: list[int] = []

    def swap(self, pos: int, stage: int):
        self.cur[pos], self.cur[pos + 1] = self.cur[pos + 1], self.cur[pos]
        self.states.append(tuple(self.cur))
        self.stages.append(stage)

    def move_left(self, value, hoppable, stage: int):
        """March value left one swap at a time while its left neighbor is hoppable."""
        pos = self.cur.index(value)
        while pos > 0 and self.cur[pos - 1] in hoppable:
            self.swap(pos - 1, stage)
            pos -= 1


def path_inv_to_nn(sigma, beta, table: BiasTable | None = None) -> NnPath:
    """Two-stage route for an inversion-chain move.

    Stage 1 marches the earlier endpoint right until it has passed the later
    endpoint; stage 2 marches the later endpoint left to the vacated
    position.  Length is 2(gap) - 1 <= 2n.
    """
    if not is_inv_edge(sigma, beta):
        raise NotAnEdge(f"not an inversion-chain move: {sigma} -> {beta}")
    lo, hi = _swap_positions(sigma, beta)
    b = _Builder(sigma)
    for pos in range(lo, hi):
        b.swap(pos, 1)
    b.milestone_after_stage1 = tuple(b.cur)
    for pos in range(hi - 1, lo, -1):
        b.swap(pos - 1, 2)
    path = NnPath(states=b.states, stages=b.stages, origin=(lo, hi))
    path.milestones = {
        "start": tuple(sigma),
        "after-stage-1": b.milestone_after_stage1,
        "end": tuple(b.cur),
    }
    if path.states[-1] != tuple(beta):
        raise AssertionError("path did not terminate at the target state")
    return path


def transposition_path(sigma, beta) -> NnPath:
    """Four-stage adjacent-swap route between states differing by one transposition.

    Works on any sequence of distinct integers; every label between the two
    endpoints must compare the same way against both (all smaller or all
    larger), which is exactly what the tree chain's blocking rule guarantees.
    """
    lo, hi = _swap_positions(sigma, beta)
    a_val, b_val = sigma[lo], sigma[hi]
    between = list(sigma[lo + 1 : hi])
    small = {v for v in between if v < min(a_val, b_val)}
    big = {v for v in between if v > max(a_val, b_val)}
    if small | big != set(between):
        raise NotAnEdge("an in-between label separates the endpoint values")

    b = _Builder(sigma)
    milestones = {"start": tuple(sigma)}

    # stage 1: if big labels trail right next to the later endpoint, slide it
    # left past them; then park each blocked small label, rightmost first
    b.move_left(b_val, big, 1)
    order = sorted(small, key=lambda v: -b.cur.index(v))
    for v in order:
        b.move_left(v, big, 1)
    milestones["after-stage-1"] = tuple(b.cur)

    # stage 2: march the earlier endpoint right up to the later one, then swap
    pos = b.cur.index(a_val)
    while b.cur[pos + 1] != b_val:
        b.swap(pos, 2)
        pos += 1
    milestones["before-endpoint-swap"] = tuple(b.cur)
    b.swap(pos, 2)
    milestones["after-stage-2"] = tuple(b.cur)

    # stage 3: march the later endpoint left into the vacated position
    pos = b.cur.index(b_val)
    while pos > lo:
        b.swap(pos - 1, 3)
        pos -= 1
    milestones["after-stage-3"] = tuple(b.cur)

    # stage 4: return parked small labels (leftmost first), then walk the
    # earlier endpoint right past any big labels it still owes a crossing
    target = list(beta)
    moved = sorted(small, key=lambda v: b.cur.index(v))
    for v in moved:
        pos = b.cur.index(v)
        while pos < target.index(v):
            b.swap(pos, 4)
            pos += 1
    pos = b.cur.index(a_val)
    while pos < target.index(a_val):
        b.swap(pos, 4)
        pos += 1
    milestones["end"] = tuple(b.cur)

    if b.cur != target:
        raise AssertionError("four-stage path did not terminate at the target")
    path = NnPath(states=b.states, stages=b.stages, origin=(lo, hi))
    path.milestones = milestones
    return path


def path_tree_to_nn(sigma, beta, tree: LeagueTree, monotone: MonotonicityReport | None = None) -> NnPath:
    """Four-stage route for a tree-chain move, mirrored when only the
    column-monotone clause of weak monotonicity holds; ``monotone`` is the
    tree's ``is_weakly_monotone`` report, computed here when not given."""
    if not is_tree_edge(sigma, beta, tree):
        raise NotAnEdge(f"not a tree-chain move: {sigma} -> {beta}")
    if monotone is None:
        monotone = is_weakly_monotone(league_hierarchy(tree))
    if monotone.rows_up or not monotone.cols_down:
        # default construction; also the fallback when neither clause holds
        path = transposition_path(sigma, beta)
        path.floor_guaranteed = monotone.weakly_monotone
        return path
    flipped = transposition_path(perms.mirror(sigma), perms.mirror(beta))
    n = len(sigma)
    states = [perms.mirror(s) for s in flipped.states]
    path = NnPath(
        states=states,
        stages=flipped.stages,
        origin=(n - 1 - flipped.origin[1], n - 1 - flipped.origin[0]),
    )
    path.milestones = {k: perms.mirror(v) for k, v in flipped.milestones.items()}
    return path


# -- path verification ------------------------------------------------------------


@dataclass
class PathReport:
    legal: bool
    floor_ok: bool
    min_weight: Fraction
    floor: Fraction
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.legal and self.floor_ok


def verify_path(path: NnPath, table: BiasTable, floor, weight: dict | None = None) -> PathReport:
    """Check step legality under the nearest-neighbor kernel and the weight
    floor; ``weight`` maps states to exact weights, else ``weight_exact`` runs."""
    failures = []
    legal = True
    for k in range(len(path)):
        s, t = path.states[k], path.states[k + 1]
        diff = [pos for pos, (x, y) in enumerate(zip(s, t)) if x != y]
        if len(diff) != 2 or diff[1] != diff[0] + 1 or s[diff[0]] != t[diff[1]] or s[diff[1]] != t[diff[0]]:
            legal = False
            failures.append(("not-adjacent-swap", k))
            continue
        # the probability of realizing t's arrangement at the chosen position
        if table.p(t[diff[0]], t[diff[1]]) == 0:
            legal = False
            failures.append(("zero-probability-step", k))
    min_weight = min(weight[s] if weight else weight_exact(s, table) for s in path.states)
    floor = Fraction(floor) if not isinstance(floor, Fraction) else floor
    floor_ok = min_weight >= floor
    if not floor_ok:
        failures.append(("floor-violated", float(min_weight / floor) if floor else 0.0))
    return PathReport(
        legal=legal,
        floor_ok=floor_ok,
        min_weight=min_weight,
        floor=floor,
        failures=failures,
    )


# -- congestion --------------------------------------------------------------------


@dataclass
class CongestionResult:
    kind: str
    n: int
    congestion: float            # the constant A
    congestion_exact: Fraction
    edge_count: int              # directed auxiliary edges routed
    max_paths_per_edge: int
    max_path_length: int
    collision_free: bool         # (edge, stage, origin) identifies the path
    legal: bool                  # every path is a chain of positive-probability adjacent swaps
    floors_held: bool            # no path dips below min(weight(sigma), weight(beta))
    failure: tuple | None        # (sigma, beta, floor_guaranteed) of the first path failing either


def _aux_edges(kind: str, model):
    """Directed moves (sigma, beta, P'(sigma, beta)) of the auxiliary chain."""
    kernel = KERNELS[kind](model)
    for sigma in kernel.space():
        for beta, prob in kernel.transition_distribution(sigma).items():
            if beta != sigma and prob > 0:
                yield sigma, beta, prob


def congestion_A(kind: str, model, n: int) -> CongestionResult:
    """Route every auxiliary move once: legality, weight floors and congestion.

    Enumerates all directed auxiliary edges at size n (capped at 6), builds
    each canonical path, records its ``verify_path`` outcome against the floor
    min(weight(sigma), weight(beta)), and adds len * pi(sigma) * P'(sigma, beta)
    to every nearest-neighbor edge a legal path uses; A is the worst load over
    edges divided by the edge's own flow pi * P.
    """
    if n > 6:
        raise CapExceeded(f"path enumeration is capped at n = 6, got {n}")
    if kind == "inv":
        table = choose_your_weapon(model)
        build = lambda s, t: path_inv_to_nn(s, t, table)
    else:
        table = league_hierarchy(model)
        monotone = is_weakly_monotone(table)
        build = lambda s, t: path_tree_to_nn(s, t, model, monotone)
    if table.n != n:
        raise ValueError(f"model size {table.n} != n = {n}")

    nn = NearestNeighborChain(table)
    weight = {s: weight_exact(s, table) for s in nn.space()}
    z = sum(weight.values())
    pi = {s: w / z for s, w in weight.items()}

    loads: dict = {}
    owners: dict = {}
    max_len = 0
    edge_count = 0
    legal = floors_held = True
    failure = None
    for sigma, beta, prob in _aux_edges(kind, model):
        path = build(sigma, beta)
        edge_count += 1
        max_len = max(max_len, len(path))
        check = verify_path(path, table, min(weight[sigma], weight[beta]), weight)
        if not check.ok:
            legal &= check.legal
            floors_held &= check.floor_ok
            failure = failure or (sigma, beta, path.floor_guaranteed)
        if not check.legal:
            continue  # its steps are not nearest-neighbor edges
        contribution = len(path) * pi[sigma] * prob
        for k in range(len(path)):
            edge = (path.states[k], path.states[k + 1])
            loads[edge] = loads.get(edge, Fraction(0)) + contribution
            owners.setdefault(edge, []).append(
                ((sigma, beta), path.stages[k], path.origin)
            )

    collision_free = True
    max_paths = 0
    for edge, entries in owners.items():
        max_paths = max(max_paths, len({owner for owner, _, _ in entries}))
        seen = {}
        for owner, stage, origin in entries:
            key = (stage, origin)
            if seen.setdefault(key, owner) != owner:
                collision_free = False

    rows: dict = {}  # each loaded state's nearest-neighbor row, built once
    best = Fraction(0)
    for (u, v), load in loads.items():
        row = rows.get(u)
        if row is None:
            row = rows[u] = nn.transition_distribution(u)
        flow = pi[u] * row.get(v, Fraction(0))
        if flow == 0:
            raise AssertionError("path used a zero-probability edge")
        best = max(best, load / flow)
    return CongestionResult(
        kind=kind,
        n=n,
        congestion=float(best),
        congestion_exact=best,
        edge_count=edge_count,
        max_paths_per_edge=max_paths,
        max_path_length=max_len,
        collision_free=collision_free,
        legal=legal,
        floors_held=floors_held,
        failure=failure,
    )


def comparison_bound(a_const: float, tau_aux: float, pi_min: float, eps: float) -> float:
    """Mixing bound transferred through the canonical paths (natural logs)."""
    if eps >= 0.5 or eps <= 0:
        raise ValueError(f"eps must lie in (0, 1/2): {eps}")
    if a_const <= 0 or tau_aux <= 0 or pi_min <= 0:
        raise ValueError("inputs must be positive")
    return 4.0 * math.log(1.0 / (eps * pi_min)) / math.log(1.0 / (2 * eps)) * a_const * tau_aux
