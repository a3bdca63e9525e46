"""
Self-contained invariant suite behind the ``verify`` CLI subcommand.

Each check returns (ok, detail).  The fast profile trims sizes so the whole
suite runs in seconds; the default profile runs the documented full sizes
(bijections exhaustively to n = 7, detailed balance exhaustively to n = 5
with spot checks at n = 8, product projections, and canonical-path floors).
A seed only perturbs the randomized spot checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import perms, walks
from .analysis import detailed_balance_violations, is_fixed_point_exact
from .bias import (
    CywSpec,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    league_hierarchy,
    solve_delta,
    weight_exact,
)
from .chains import (
    AsepChain,
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    WalkChain,
    WalkTranspositionChain,
    make_rng,
)
from .paths import congestion_A
from .trees import (
    LeagueTree,
    caterpillar_tree,
    complete_tree,
    leaf,
    node,
    random_tree,
    tree_decode,
    tree_encode,
    truncate_tree,
)


def demo_tree() -> LeagueTree:
    """Nine-player league tree used across the checks and docs."""
    return LeagueTree(
        node(
            "0.9",
            node("0.8", node("0.6", leaf(1), node("0.5", leaf(2), leaf(3))), leaf(4)),
            node(
                "0.7",
                node("0.7", leaf(5), leaf(6)),
                node("0.6", node("0.5", leaf(7), leaf(8)), leaf(9)),
            ),
        )
    )


def _cyw(n: int) -> CywSpec:
    base = ("0.6", "0.7", "0.8", "0.9", "0.75", "0.65", "0.85")
    return CywSpec(r=base[: n - 1])


def check_inversion_roundtrip(fast: bool, seed: int):
    top = 4 if fast else 7
    total = 0
    for n in range(1, top + 1):
        for sigma in perms.all_permutations(n):
            table = perms.inversion_table(sigma)
            if perms.permutation_from_inversion_table(table) != sigma:
                return False, f"round trip failed at {sigma}"
            if sum(table) != perms.inversion_count(sigma):
                return False, f"inversion count mismatch at {sigma}"
            total += 1
    return True, f"{total} permutations, n <= {top}"


def check_tree_roundtrip(fast: bool, seed: int):
    top = 4 if fast else 6
    rng = make_rng(seed)
    count = 0
    for n in range(2, top + 1):
        shapes = [
            complete_tree(n, "0.7"),
            caterpillar_tree(n, ["0.6"] * (n - 1)),
            random_tree(n, rng),
        ]
        for tree in shapes:
            for sigma in perms.all_permutations(n):
                enc = tree_encode(sigma, tree)
                if tree_decode(enc, tree) != sigma:
                    return False, f"tree round trip failed at n={n}, {sigma}"
                count += 1
    return True, f"{count} (permutation, tree) pairs, n <= {top}"


def check_weight_normalization(fast: bool, seed: int):
    top = 5 if fast else 7
    for n in range(2, top + 1):
        table = constant_bias(n, "0.7")
        total = sum(weight_exact(s, table) for s in perms.all_permutations(n))
        z = float(total)
        probs = [float(weight_exact(s, table)) / z for s in perms.all_permutations(n)]
        if abs(sum(probs) - 1.0) > 1e-12:
            return False, f"normalization off at n={n}"
    return True, f"weights normalize to 1 within 1e-12, n <= {top}"


def _kernels(n: int):
    tree = truncate_tree(demo_tree(), n)
    yield NearestNeighborChain(constant_bias(n, "0.7"))
    yield NearestNeighborChain(choose_your_weapon(_cyw(n)))
    yield InversionChain(_cyw(n))
    yield InversionChain(CywSpec(r=_cyw(n).r, variant="max"))
    yield TreeChain(tree)
    yield NearestNeighborChain(league_hierarchy(tree))


def check_detailed_balance(fast: bool, seed: int):
    top = 4 if fast else 5
    for n in range(3, top + 1):
        for kernel in _kernels(n):
            bad = detailed_balance_violations(kernel)
            if bad:
                return False, f"{kernel.kind} at n={n}: {bad[0]}"
            if not is_fixed_point_exact(kernel):
                return False, f"{kernel.kind} at n={n}: pi not a fixed point"
    extra = [OnedChain("0.75", 5), AsepChain("0.7", 3, 2)]
    if not fast:
        spec = SlowMixSpec(n=4, delta=solve_delta(4))
        extra += [WalkChain.fluctuating(spec), WalkTranspositionChain(spec)]
    for kernel in extra:
        bad = detailed_balance_violations(kernel)
        if bad:
            return False, f"{kernel.kind}: {bad[0]}"
    return True, f"exact detailed balance, permutation kernels n <= {top} plus walk kernels"


def check_detailed_balance_sampled(fast: bool, seed: int):
    """Spot-check detailed balance on random moves at a size beyond enumeration."""
    n = 6 if fast else 8
    rng = make_rng(seed)
    kernel = NearestNeighborChain(choose_your_weapon(_cyw(n)))
    labels = list(range(1, n + 1))
    checked = 0
    for _ in range(200):
        sigma = tuple(rng.permutation(labels).tolist())
        row = kernel.transition_distribution(sigma)
        w_sigma = weight_exact(sigma, kernel.table)
        for tau, p in row.items():
            if tau == sigma:
                continue
            back = kernel.transition_distribution(tau).get(sigma, Fraction(0))
            if w_sigma * p != weight_exact(tau, kernel.table) * back:
                return False, f"detailed balance broken at {sigma} -> {tau}"
            checked += 1
    return True, f"{checked} sampled moves at n={n}, exact"


def check_inv_product_projection(fast: bool, seed: int):
    n = 4 if fast else 5
    spec = _cyw(n)
    kernel = InversionChain(spec)
    half = Fraction(1, 2)
    total = Fraction(n * (n - 1), 2)
    for sigma in perms.all_permutations(n):
        x_all = perms.inversion_table(sigma)
        row = [(perms.inversion_table(tau), p) for tau, p in kernel.transition_distribution(sigma).items()]
        for i in range(1, n):
            x = x_all[i - 1]
            got: dict = {}
            for y_all, p in row:
                got[y_all[i - 1]] = got.get(y_all[i - 1], Fraction(0)) + p
            sel = Fraction(n - i) / total
            r_i = spec.r[i - 1]
            up = sel * half * (1 - r_i) if x < n - i else Fraction(0)
            down = sel * half * r_i if x > 0 else Fraction(0)
            ref = {x: 1 - up - down}
            if up:
                ref[x + 1] = up
            if down:
                ref[x - 1] = down
            if got != ref:
                return False, f"projection off at i={i}, {sigma}"
    return True, f"coordinate projections equal slowed walk kernels at n={n}"


def check_tree_product_projection(fast: bool, seed: int):
    n = 4 if fast else 6
    shapes = [complete_tree(n, "0.7"), caterpillar_tree(n, ["0.6"] * (n - 1)), truncate_tree(demo_tree(), n)]
    pair_mass = Fraction(1, n * (n - 1) // 2)
    for tree in shapes:
        kernel = TreeChain(tree)
        for sigma in perms.all_permutations(n):
            enc = tree_encode(sigma, tree)
            row = [(tree_encode(tau, tree), p) for tau, p in kernel.transition_distribution(sigma).items()]
            for nid in tree.internal_ids():
                q = tree.q_of(nid)
                s = enc[nid]
                got: dict = {}
                for t_enc, p in row:
                    got[t_enc[nid]] = got.get(t_enc[nid], Fraction(0)) + p
                ref: dict = {}
                for pos in range(len(s) - 1):
                    if s[pos] == s[pos + 1]:
                        continue
                    for pair, pr in (("10", q), ("01", 1 - q)):
                        t = s[:pos] + pair + s[pos + 2 :]
                        if t != s:
                            ref[t] = ref.get(t, Fraction(0)) + pair_mass * pr
                ref[s] = 1 - sum(ref.values())
                if got != ref:
                    return False, f"node {nid} projection off at {sigma}"
    return True, f"node-string projections are exclusion kernels at n={n}, {len(shapes)} shapes"


def check_path_floors(fast: bool, seed: int):
    top = 4 if fast else 6
    checked = 0
    for n in range(3, top + 1):
        for aux in (InversionChain(_cyw(n)), TreeChain(truncate_tree(demo_tree(), n))):
            result = congestion_A(aux)
            if not (result.legal and result.floors_held and result.within_witness_caps):
                return False, f"{aux.kind} paths failed at n={n}: first failing move {result.failure}"
            checked += result.edge_count
    return True, f"{checked} canonical paths legal, within length bounds, floors hold (n <= {top})"


def check_walk_closure(fast: bool, seed: int):
    n = 4
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    for w in walks.all_walks(n):
        if sum(w) != 0:
            return False, f"walk does not close: {w}"
        flat, steep = walks.tile_counts(w)
        # toggling any addable square moves the weight by exactly one ratio
        for pos in range(2 * n - 1):
            if (w[pos], w[pos + 1]) != (-1, 1):
                continue
            new = list(w)
            new[pos], new[pos + 1] = 1, -1
            nf, ns = walks.tile_counts(tuple(new))
            d = (nf - flat, ns - steep)
            if d not in ((1, 0), (0, 1)):
                return False, f"square toggle changed tiles by {d} at {w}"
            ones = sum(1 for s in w[: pos + 2] if s == 1)
            downs = pos + 2 - ones
            steep_rule = walks.exceeds_diag(ones - downs + 1, n)
            if steep_rule != (d == (0, 1)):
                return False, f"tile class disagrees with swap rule at {w} pos {pos}"
    return True, "walks close and square toggles match the swap-rule tile classes (n=4)"


def check_laziness(fast: bool, seed: int):
    n = 4
    for kernel in _kernels(n):
        bound = kernel.min_hold_probability()
        for sigma in perms.all_permutations(n):
            row = kernel.transition_distribution(sigma)
            hold = row.get(sigma, Fraction(0))
            if hold < bound:
                return False, f"{kernel.kind} holds {hold} < bound {bound} at {sigma}"
    return True, "hold mass respects per-kernel lower bounds at n=4"


def unreachable_from_sorted(kernel) -> list:
    """States of the kernel's space with no positive-mass path to the identity."""
    states = kernel.space()
    preds: dict = {s: [] for s in states}
    for s in states:
        for t, p in kernel.transition_distribution(s).items():
            if p and t != s:
                preds[t].append(s)
    seen = {perms.identity(kernel.n)}
    frontier = list(seen)
    while frontier:
        for s in preds[frontier.pop()]:
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return [s for s in states if s not in seen]


def check_connectivity(fast: bool, seed: int):
    from .bias import slow_mixing_bias

    for kernel in [*_kernels(4), NearestNeighborChain(slow_mixing_bias(4)[0])]:
        stuck = unreachable_from_sorted(kernel)
        if stuck:
            return False, f"{kernel.kind} cannot reach the sorted permutation from {stuck[0]}"
    return True, "every state reaches the sorted permutation by positive-probability moves"


CHECKS: list[tuple[str, Callable]] = [
    ("inversion-bijection-roundtrip", check_inversion_roundtrip),
    ("tree-encoding-roundtrip", check_tree_roundtrip),
    ("weight-normalization", check_weight_normalization),
    ("detailed-balance-exhaustive", check_detailed_balance),
    ("detailed-balance-sampled", check_detailed_balance_sampled),
    ("inversion-product-structure", check_inv_product_projection),
    ("tree-product-structure", check_tree_product_projection),
    ("canonical-path-floors", check_path_floors),
    ("walk-closure-and-tile-rule", check_walk_closure),
    ("hold-probability-bounds", check_laziness),
    ("connectivity-to-sorted", check_connectivity),
]


@dataclass
class SuiteResult:
    passed: int
    failed: int
    lines: list


def run_suite(fast: bool = False, seed: int = 0, emit=print) -> SuiteResult:
    passed = failed = 0
    lines = []
    for name, fn in CHECKS:
        ok, detail = fn(fast, seed)
        status = "ok" if ok else "FAIL"
        line = f"{status:4s} {name}: {detail}"
        lines.append(line)
        emit(line)
        if ok:
            passed += 1
        else:
            failed += 1
    return SuiteResult(passed=passed, failed=failed, lines=lines)
