"""
Command-line harness: sampling, exact analysis, bottleneck reports, path
verification, and the invariant suite.

Subcommands: sample, exact, slowmix, paths, verify, scan.  Every output file
starts with '#'-prefixed metadata lines (config echo, package version, seed)
followed by a CSV body (or a JSON document with the same content).  Outputs
are bit-stable: the same config and seed produce identical bytes.

``--chain`` names a kernel of ``chains.KERNELS``, made by ``chains.build``;
an ``--n`` that contradicts a sized model is a usage error, and rows report
the kernel's own ``n``.  ``exact`` and ``scan`` check the counted size of the
state space against the cap before enumerating it.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 resource cap
exceeded, 4 internal soundness failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .analysis import (
    CapExceeded,
    STATE_CAP,
    conductance_of_cut,
    level_cuts_by_weight,
    loglog_slope,
    mixing_time_exact,
    slowmix_cut_report,
    spectral_gap,
    stationary_exact,
    transition_matrix,
)
from .bias import parse_model_spec
from .chains import KERNELS, NearestNeighborChain, build, run
from .paths import comparison_bound, congestion_A
from .verify import run_suite


class UsageError(ValueError):
    pass


class SoundnessError(RuntimeError):
    pass


def _parse_n_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        ns = list(range(int(lo), int(hi) + 1))
        if not ns:
            raise UsageError(f"empty n range: {text}")
        return ns
    return [int(text)]


def _metadata(args, extra: dict | None = None) -> list[str]:
    skip = {"func", "out", "format"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    lines = [f"# permchains-version: {__version__}"]
    lines.append("# config: " + json.dumps(config, default=str, sort_keys=True))
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _write_table(args, header: list[str], rows: list[list], extra_meta: dict | None = None):
    meta = _metadata(args, extra_meta)
    if args.format == "json":
        doc = {
            "metadata": [m[2:] for m in meta],
            "columns": header,
            "rows": rows,
        }
        text = json.dumps(doc, indent=2, default=str) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = "\n".join(meta) + "\n" + buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if hasattr(v, "item"):  # numpy scalar
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


# -- subcommands -----------------------------------------------------------------


def cmd_sample(args) -> int:
    if args.steps < 0 or args.stride < 0:
        raise UsageError("--steps and --stride must be non-negative")
    kernel = build(args.chain, parse_model_spec(args.model), args.n)
    traj = run(kernel, kernel.default_start(), args.steps, args.seed, stride=args.stride)
    rows = [[step, traj.observable, value] for step, value in traj.records]
    extra = {"final-state": "".join(map(str, traj.final_state)) if not isinstance(traj.final_state, (int, str)) else str(traj.final_state),
             "moves-accepted": traj.moves}
    _write_table(args, ["step", "observable", "value"], rows, extra)
    return 0


def _exact_rows(args, ns: list[int | None]):
    """One row per size; a size of None takes the model's own."""
    model = parse_model_spec(args.model)
    rows = []
    for requested in ns:
        kernel = build(args.chain, model, requested)
        n = kernel.n
        size = kernel.space_size()
        if size > STATE_CAP:
            raise CapExceeded(f"{size} states at n={n} exceed the cap {STATE_CAP}")
        states = kernel.space()
        matrix = transition_matrix(kernel, states)
        pi = stationary_exact(kernel, states)
        if not pi.all():
            raise UsageError(
                f"{args.model} is a degenerate bias: {int((pi == 0).sum())} of {len(states)} states have zero "
                f"stationary mass at n={n}; use probabilities strictly between 0 and 1"
            )
        if len(states) <= 720:
            starts = None
            caveat = "all-starts"
        else:
            # the first and last states: for permutations, the identity and the reversal
            starts = [0, len(states) - 1]
            caveat = "extreme-starts"
        res = mixing_time_exact(matrix, pi, args.eps, starts=starts)
        gap = spectral_gap(matrix, pi) if len(states) <= 2000 else float("nan")
        # any explicit cut lower-bounds the mixing time; check a few
        for cut in level_cuts_by_weight(pi, count=4):
            phi = conductance_of_cut(matrix, pi, cut)
            if phi > 0 and res.tau is not None and res.tau < 1 / (4 * phi) - 0.5 - 1e-9:
                raise SoundnessError(
                    f"tau={res.tau} violates the conductance bound {1/(4*phi)-0.5:.2f}"
                )
        rows.append([n, args.chain, args.model, args.eps, res.tau, gap, float(pi.min()), caveat])
    return rows


def cmd_exact(args) -> int:
    ns = _parse_n_range(args.n_range) if args.n_range else [args.n]
    rows = _exact_rows(args, ns)
    _write_table(args, ["n", "chain", "model", "eps", "tau", "gap", "pi_min", "caveat"], rows)
    return 0


def cmd_scan(args) -> int:
    ns = _parse_n_range(args.n_range)
    rows = _exact_rows(args, ns)
    taus = [r[4] for r in rows]
    slope = loglog_slope(ns, taus)
    element_slope = loglog_slope(ns, [t / n for t, n in zip(taus, ns)])
    for row in rows:
        row.extend([slope, element_slope])
    _write_table(
        args,
        ["n", "chain", "model", "eps", "tau", "gap", "pi_min", "caveat", "fit_slope", "fit_slope_per_element"],
        rows,
    )
    return 0


def cmd_slowmix(args) -> int:
    ns = _parse_n_range(args.n_range) if args.n_range else [args.n]
    if ns == [None]:
        raise UsageError("slowmix needs --n or --n-range")
    header = [
        "n", "delta", "xi", "level", "piS1", "piS2", "piS3", "ratio_s2_s1",
        "phi_bound", "tau_lower", "piS2_widened", "ratio_widened",
        "phi_bound_transposition", "tau_lower_transposition", "tau_comparison", "comparison_model",
    ]
    rows = []
    for n in ns:
        if n < 4:
            raise UsageError("slowmix needs n >= 4")
        if math.comb(2 * n, n) > STATE_CAP:
            raise CapExceeded(f"walk space at n={n} exceeds the cap")
        rep = slowmix_cut_report(n, compute_comparison=not args.no_comparison)
        rows.append([
            rep.n, rep.delta, rep.xi, rep.level, rep.pi_s1, rep.pi_s2, rep.pi_s3,
            float(rep.ratio_s2_s1), rep.phi_s1, rep.tau_lower, rep.pi_s2_wide,
            float(rep.ratio_wide), rep.phi_s1_transposition, rep.tau_lower_transposition,
            rep.tau_comparison if rep.tau_comparison is not None else "",
            rep.comparison_label,
        ])
    _write_table(args, header, rows)
    return 0


def cmd_paths(args) -> int:
    model = parse_model_spec(args.model)
    need = {"inv": "cyw", "tree": "league"}[args.kind]
    if model.kind != need:
        raise UsageError(f"paths --kind {args.kind} needs a {need} model")
    aux = build(args.kind, model, args.n)
    n = aux.n

    result = congestion_A(args.kind, model.cyw if args.kind == "inv" else model.tree, n)
    if result.failure and (not result.legal or result.failure[2]):
        what = "illegal canonical path" if not result.legal else "weight floor violated"
        raise SoundnessError(f"{what}; first failing move {result.failure[0]} -> {result.failure[1]}")
    per_edge_cap, length_cap = (n * n, 2 * n) if args.kind == "inv" else (4 * n * n, 4 * n)
    if result.max_paths_per_edge > per_edge_cap or result.max_path_length > length_cap:
        raise SoundnessError("path witness bounds violated")

    kernel = NearestNeighborChain(aux.table)
    states = kernel.space()
    matrix = transition_matrix(kernel, states)
    pi = stationary_exact(kernel, states)
    tau_nn = mixing_time_exact(matrix, pi, args.eps).tau
    tau_aux = mixing_time_exact(transition_matrix(aux, states), pi, args.eps).tau
    bound = comparison_bound(result.congestion, tau_aux, float(pi.min()), args.eps)
    if tau_nn is not None and bound < tau_nn:
        raise SoundnessError(f"comparison bound {bound:.1f} below exact tau {tau_nn}")

    rows = [[
        args.kind, n, args.model, result.edge_count, result.max_paths_per_edge,
        result.max_path_length, result.congestion, "pass" if result.floors_held else "not-guaranteed",
        tau_aux, bound, tau_nn,
    ]]
    header = [
        "kind", "n", "model", "edge-count", "max-paths-per-edge", "max-path-length",
        "A", "floor-check", "tau-aux", "comparison-bound", "exact-tau",
    ]
    _write_table(args, header, rows)
    return 0


def cmd_verify(args) -> int:
    result = run_suite(fast=args.fast, seed=args.seed)
    return 0 if result.failed == 0 else 1


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permchains",
        description="Biased permutation chains: sampling, exact analysis, bottleneck reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed")

    p = sub.add_parser("sample", help="run a seeded trajectory and emit observables")
    common(p)
    p.add_argument("--chain", required=True, choices=tuple(KERNELS))
    p.add_argument("--model", required=True, help="constant:<p> | cyw:<r1,...>[:max] | league:<tree.json> | slowmix:<n> | oned:<r>,<k> | asep:<p>,<k1>,<k2>")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--stride", type=int, default=100)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("exact", help="exact mixing time, gap, and stationary floor")
    common(p)
    p.add_argument("--chain", required=True, choices=tuple(KERNELS))
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", default=None, help="lo:hi inclusive")
    p.add_argument("--eps", type=float, default=0.25)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("scan", help="exact over an n range plus fitted growth exponents")
    common(p)
    p.add_argument("--chain", required=True, choices=tuple(KERNELS))
    p.add_argument("--model", required=True)
    p.add_argument("--n-range", required=True)
    p.add_argument("--eps", type=float, default=0.25)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("slowmix", help="bottleneck report for the fluctuating-bias family")
    common(p)
    p.add_argument("--n", type=int, default=None, help="half size (state has 2n steps)")
    p.add_argument("--n-range", default=None)
    p.add_argument("--no-comparison", action="store_true",
                   help="skip the exact mixing time of the constant-bias reference chain")
    p.set_defaults(func=cmd_slowmix)

    p = sub.add_parser("paths", help="canonical-path floors, congestion, and the comparison bound")
    common(p)
    p.add_argument("--kind", required=True, choices=("inv", "tree"))
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.25)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--fast", action="store_true", help="restrict sizes to n <= 4")
    p.add_argument("--seed", type=int, default=0, help="perturbs randomized sub-checks only")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
