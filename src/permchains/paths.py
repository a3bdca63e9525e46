"""
Canonical nearest-neighbor paths for the long-range chain moves.

A transition of the inversion chain or the tree chain transposes two labels
that may be far apart.  Each such move is simulated by a fixed sequence of
adjacent transpositions whose intermediate weights never drop below
min(weight(start), weight(end)):

* inversion moves: march the earlier endpoint right until it passes the
  other, then march the other back to the vacated position.  Every skipped
  label is smaller than both endpoints, so skipping is weight-neutral under
  a choose-your-weapon table.  The max variant's moves skip larger labels;
  they are routed by mirroring the move, routing it, and mirroring back.
* tree moves: a four-stage route.  Stage 1 parks one small label to the left
  of each large in-between label (processing small labels right to left);
  stage 2 marches the earlier endpoint right and swaps it past the other;
  stage 3 marches the other endpoint to the vacated position; stage 4
  restores the displaced labels.  The weight floor needs the bias table to
  be weakly monotone; the column-monotone flavor is handled by mirroring the
  instance, building the row-monotone path, and mirroring back.

``congestion_A(aux)`` takes the auxiliary kernel and picks the route from its
kind; it takes the moves from the kind's finder classes (``class_moves``),
once per class, and the weights as integer numerators from one
``perm_weights`` call.  A route's swap positions depend only on the move's
shape: its two positions and which in-between positions hold labels smaller
than both ends.  So it routes one move per shape with the builders above and
replays that route's swaps on the array of all the shape's moves, ranking
every state reached.  It checks legality and floors and sums loads on
integers, and returns A (for the bound 4 ln(1/(eps pi_min)) / ln(1/(2 eps))
* A * tau_aux) as one Fraction, with pi.  It builds no matrix: the CLI takes
both chains' matrices the way ``exact`` does.
``witness_caps`` is the one table of the caps each construction meets: at
most n^2 (inv) or 4n^2 (tree) paths share an edge, and no path is longer than
2n (inv) or 4n (tree) swaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import perms
from .analysis import ARRAY_ROWS, CapExceeded, _shares, class_moves, lehmer_ranks, perm_weights
from .bias import BiasTable, MonotonicityReport, is_weakly_monotone, weight_exact
from .chains import NearestNeighborChain
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


def path_inv_to_nn(sigma, beta) -> NnPath:
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
    after_stage1 = tuple(b.cur)
    for pos in range(hi - 1, lo, -1):
        b.swap(pos - 1, 2)
    milestones = {"start": tuple(sigma), "after-stage-1": after_stage1, "end": tuple(b.cur)}
    path = NnPath(states=b.states, stages=b.stages, origin=(lo, hi), milestones=milestones)
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


def path_tree_to_nn(sigma, beta, tree: LeagueTree, monotone: MonotonicityReport) -> NnPath:
    """Four-stage route for a tree-chain move, mirrored when only the
    column-monotone clause of weak monotonicity holds; ``monotone`` is the
    ``is_weakly_monotone`` report of the tree's bias table."""
    if not is_tree_edge(sigma, beta, tree):
        raise NotAnEdge(f"not a tree-chain move: {sigma} -> {beta}")
    if monotone.rows_up or not monotone.cols_down:
        # default construction; also the fallback when neither clause holds
        path = transposition_path(sigma, beta)
        path.floor_guaranteed = monotone.weakly_monotone
        return path
    return _mirrored_path(transposition_path, sigma, beta)


def _mirrored_path(route, sigma, beta) -> NnPath:
    """``route`` conjugated with ``perms.mirror``: built for the mirrored move,
    then mapped back state by state, with the stages kept."""
    flipped = route(perms.mirror(sigma), perms.mirror(beta))
    n = len(sigma)
    return NnPath(
        states=[perms.mirror(s) for s in flipped.states],
        stages=flipped.stages,
        origin=(n - 1 - flipped.origin[1], n - 1 - flipped.origin[0]),
        milestones={k: perms.mirror(v) for k, v in flipped.milestones.items()},
        floor_guaranteed=flipped.floor_guaranteed,
    )


# -- path verification ------------------------------------------------------------


@dataclass
class PathReport:
    legal: bool
    floor_ok: bool
    min_weight: Fraction | int  # on the scale of the weights and floor given
    floor: Fraction | int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.legal and self.floor_ok


def _adjacent_swap(s, t) -> int | None:
    """The position pos where t is s with the entries at pos and pos + 1
    swapped, or None when t is not such a swap of s."""
    diff = [pos for pos, (x, y) in enumerate(zip(s, t)) if x != y]
    if len(diff) != 2 or diff[1] != diff[0] + 1 or s[diff[0]] != t[diff[1]] or s[diff[1]] != t[diff[0]]:
        return None
    return diff[0]


def verify_path(path: NnPath, table: BiasTable, floor, weight: dict | None = None) -> PathReport:
    """Check step legality under the nearest-neighbor kernel and the weight
    floor.  ``weight`` maps states to weights on one scale, such as the
    integer numerators over D of ``perm_weights``, with ``floor`` on the same
    scale; without it ``weight_exact`` runs and ``floor`` is an exact weight.
    Neither is converted."""
    failures = []
    legal = True
    for k in range(len(path)):
        s, t = path.states[k], path.states[k + 1]
        pos = _adjacent_swap(s, t)
        if pos is None:
            legal = False
            failures.append(("not-adjacent-swap", k))
            continue
        # the probability of realizing t's arrangement at the chosen position
        if table.p(t[pos], t[pos + 1]) == 0:
            legal = False
            failures.append(("zero-probability-step", k))
    if weight:
        min_weight = min(map(weight.__getitem__, path.states))
    else:
        min_weight = min(weight_exact(s, table) for s in path.states)
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


def witness_caps(kind: str, n: int) -> tuple[int, int]:
    """Caps (paths sharing one nearest-neighbor edge, swaps in one path) that
    the inv and tree path constructions meet at size n."""
    return {"inv": (n * n, 2 * n), "tree": (4 * n * n, 4 * n)}[kind]


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
    pi: np.ndarray               # the float stationary law, in ``aux.space()`` order

    @property
    def within_witness_caps(self) -> bool:
        per_edge, length = witness_caps(self.kind, self.n)
        return self.max_paths_per_edge <= per_edge and self.max_path_length <= length


def _shape_keys(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One int per move (rows of ``first`` -> rows of ``second``, each a
    transposition): its two positions lo < hi and the mask of the positions
    between them whose labels are smaller than both endpoints.  The routes
    read nothing else, so moves with one key take the same swaps."""
    n = first.shape[1]
    differ = first != second
    lo = np.argmax(differ, axis=1)
    hi = n - 1 - np.argmax(differ[:, ::-1], axis=1)
    at, places = np.arange(len(first)), np.arange(n)
    floor = np.minimum(first[at, lo], first[at, hi])
    small = (first < floor[:, None]) & (places > lo[:, None]) & (places < hi[:, None])
    return (lo * n + hi) << n | small @ (1 << places)


def _route(aux):
    """The route ``build(sigma, beta)`` of ``aux``'s moves."""
    if aux.kind == "inv" and aux.variant == "max":
        # the max law is the min law conjugated with the mirror; so is its route
        return lambda s, t: _mirrored_path(path_inv_to_nn, s, t)
    if aux.kind == "inv":
        return path_inv_to_nn
    monotone = is_weakly_monotone(aux.table)
    return lambda s, t: path_tree_to_nn(s, t, aux.tree, monotone)


def _replay(path: NnPath, start: np.ndarray):
    """Take ``path``'s steps on every row of ``start``, moves of ``path``'s
    shape: yields per step its stage, its position when it is an adjacent
    swap (None otherwise) and the rows after it."""
    cur = start
    for s, t, stage in zip(path.states, path.states[1:], path.stages):
        cur = cur[:, [s.index(v) for v in t]]
        yield stage, _adjacent_swap(s, t), cur


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, sorted, through one sort: plain
    ``np.unique`` took seconds on a few million int64 keys (numpy 2.4)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def congestion_A(aux) -> CongestionResult:
    """Route every move of ``aux`` (inv or tree, n <= 6) once: legality,
    weight floors and congestion.

    The moves come from ``class_moves`` over the kind's ``ARRAY_ROWS`` finder,
    and the weights from one ``perm_weights`` call: integer numerators W over
    the table's D, and pi from them.  The moves are grouped by shape
    (``_shape_keys``).  One move of each shape is routed and its steps checked
    as ``verify_path`` does; a step that is not an adjacent swap makes the
    whole shape illegal.  Its swaps are then replayed on the array of all the
    shape's moves, ranking every state reached, with a step illegal where the
    swapped pair has probability 0 and the floor a running minimum of W.  A
    legal path adds len * W(sigma) * P'num(sigma, beta) to each
    nearest-neighbor edge it uses, where P'num is the move's mass times c_aux,
    the lcm of the masses' denominators.  An edge (u, v) swaps the labels at
    one position, and its P(u, v) is that slot's mass times the
    ``NearestNeighborChain`` law there; its flow is W(u) * P(u, v).  D
    cancels in load / flow, the worst ratio is found by integer
    cross-multiplication, and A is the one Fraction made from it.  The
    failure reported is the first failing move in (row, slot) order, the
    order the exact rows list them.
    """
    n, table = aux.n, aux.table
    if n > 6:
        raise CapExceeded(f"path enumeration is capped at n = 6, got {n}")
    build = _route(aux)
    states = aux.space()
    m = len(states)
    masses, mass_id, successors = class_moves(aux, ARRAY_ROWS[aux.kind](aux, states))
    c_aux = math.lcm(*(x.denominator for x in masses))
    numerators = np.array([x.numerator * (c_aux // x.denominator) for x in masses], dtype=object)
    perms_array = np.array(states, dtype=np.int8)
    weights = perm_weights(table, perms_array)
    labels = range(1, n + 1)
    zero = np.zeros((n + 1, n + 1), dtype=bool)  # zero[a, b]: p(a, b) == 0
    zero[1:, 1:] = [[a != b and table.p(a, b) == 0 for b in labels] for a in labels]

    rows, slots = np.nonzero(mass_id >= 0)
    targets = successors[rows, slots]
    legal = np.ones(len(rows), dtype=bool)
    floor_ok = np.ones(len(rows), dtype=bool)
    guaranteed = np.ones(len(rows), dtype=bool)
    max_len = 0
    # per step of a legal path: edge rank(u) * n + pos, stage * n^2 + origin, move, load
    parts = [[np.empty(0, dtype=np.int64)] * 3 + [np.empty(0, dtype=object)]]
    shapes, shape_of = np.unique(_shape_keys(perms_array[rows], perms_array[targets]), return_inverse=True)
    for shape in range(len(shapes)):
        members = np.flatnonzero(shape_of == shape)  # the first is routed
        start, end = rows[members], targets[members]
        path = build(states[start[0]], states[end[0]])
        length = len(path)
        max_len = max(max_len, length)
        guaranteed[members] = path.floor_guaranteed
        ranks, low = start, weights[start]
        route_legal = np.ones(len(members), dtype=bool)
        steps = []
        for stage, pos, cur in _replay(path, perms_array[start]):
            if pos is None:
                route_legal[:] = False
            else:
                route_legal &= ~zero[cur[:, pos], cur[:, pos + 1]]
                steps.append((ranks * n + pos, stage))
            ranks = lehmer_ranks(cur)
            low = np.minimum(low, weights[ranks])
        if not np.array_equal(ranks, end):
            raise AssertionError("path did not terminate at the target state")
        legal[members] = route_legal
        floor_ok[members] = low >= np.minimum(weights[start], weights[end])
        if not route_legal.any():
            continue
        kept = np.flatnonzero(route_legal)
        origin = path.origin[0] * n + path.origin[1]
        load = length * weights[start[kept]] * numerators[mass_id[start[kept], slots[members[kept]]]]
        parts.append([
            np.concatenate([step[kept] for step, _ in steps]),
            np.repeat([stage * n * n + origin for _, stage in steps], len(kept)),
            np.tile(start[kept] * m + end[kept], length),
            np.tile(load, length),
        ])
    edges, tags, owners, contributions = map(np.concatenate, zip(*parts))

    # distinct moves per edge, and whether (edge, stage, origin) names one move
    per_edge = np.unique(_distinct(edges * m * m + owners) // (m * m), return_counts=True)[1]
    max_paths = int(per_edge.max(initial=0))
    named = edges * 5 * n * n + tags  # stages run 0..4
    collision_free = len(_distinct(named * m * m + owners)) == len(_distinct(named))

    by_edge = np.argsort(edges, kind="stable")
    heads = np.flatnonzero(np.diff(edges[by_edge], prepend=-1))
    used = edges[by_edge][heads].tolist()
    loads = np.add.reduceat(contributions[by_edge], heads).tolist() if len(heads) else []
    nn = NearestNeighborChain(table)
    laws: dict = {}  # (pos, label there, label after) -> P(u, v)
    best_load, best_flow = 0, 1  # the worst load / flow, both times P(u, v)'s denominator
    for edge, load in zip(used, loads):
        u, pos = divmod(edge, n)
        key = (pos, states[u][pos], states[u][pos + 1])
        if key not in laws:
            slot, mass = nn._slots[pos]
            laws[key] = mass * nn._law(states[u], slot)[0]
        p = laws[key]
        flow = weights[u] * p.numerator
        if flow == 0:
            raise AssertionError("path used a zero-probability edge")
        if load * p.denominator * best_flow > best_load * flow:
            best_load, best_flow = load * p.denominator, flow
    best = Fraction(best_load, best_flow * c_aux)
    failing = np.flatnonzero(~(legal & floor_ok))
    failure = None
    if len(failing):
        first = failing[0]
        failure = (states[rows[first]], states[targets[first]], bool(guaranteed[first]))
    return CongestionResult(
        kind=aux.kind,
        n=n,
        congestion=float(best),
        congestion_exact=best,
        edge_count=len(rows),
        max_paths_per_edge=max_paths,
        max_path_length=max_len,
        collision_free=collision_free,
        legal=bool(legal.all()),
        floors_held=bool(floor_ok.all()),
        failure=failure,
        pi=_shares(weights.tolist()),
    )


def comparison_bound(a_const: float, tau_aux: float, pi_min: float, eps: float) -> float:
    """Mixing bound transferred through the canonical paths (natural logs)."""
    if eps >= 0.5 or eps <= 0:
        raise ValueError(f"eps must lie in (0, 1/2): {eps}")
    if a_const <= 0 or tau_aux <= 0 or pi_min <= 0:
        raise ValueError("inputs must be positive")
    return 4.0 * math.log(1.0 / (eps * pi_min)) / math.log(1.0 / (2 * eps)) * a_const * tau_aux
