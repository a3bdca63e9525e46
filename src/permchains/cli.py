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

Exit codes: 0 success, 1 invariant failure, 2 usage error (``--eps`` outside
(0, 1), or (0, 1/2) for ``paths``, or below the machine epsilon, both
checked before any work), 3 resource cap exceeded (also a bias
table or league tree of more than ``LABEL_CAP`` labels, and a tau that
``scan``'s fit or ``paths``' bound needs but that does not come within the
step horizon of ``mixing_time_exact``), 4 internal soundness failure.  A
model whose states include some of zero stationary mass is a usage error:
``exact`` and ``scan`` find them in pi before building the matrix, ``paths``
in its bias table before routing, and both refuse inv's constant:1 before
building the kernel.  ``exact``, ``scan`` and ``paths``
take every matrix from ``_matrix``: the array rows of ``analysis.ARRAY_ROWS``
kinds, assembled by ``analysis.class_rows_matrix`` from the kind's finder,
and the Fraction rows of the others.  The commands import ``analysis``,
``paths`` and ``verify`` when they run, so ``sample``, ``--help`` and usage
errors do not load them.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from ._common import CapExceeded
from .bias import parse_model_spec
from .chains import KERNELS, build, run


class UsageError(ValueError):
    pass


def __getattr__(name: str):
    # perfbench's tracer test reads cli.transition_matrix, the one analysis name served here
    if name != "transition_matrix":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analysis

    return getattr(analysis, name)


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


def _sizes(args) -> list[int | None]:
    """The sizes of --n-range, else the one --n (None when neither is given)."""
    if args.n_range is None:
        return [args.n]
    if args.n is not None:
        raise UsageError("give --n or --n-range, not both")
    return _parse_n_range(args.n_range)


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


def _check_eps(eps: float, top: float):
    if not 0 < eps < top:
        raise UsageError(f"--eps must lie strictly between 0 and {top}, got {eps}")
    # a TV summed in floats meets a smaller eps only by cancelling to exactly 0;
    # otherwise the whole step horizon runs out first
    if eps < sys.float_info.epsilon:
        raise UsageError(f"--eps {eps} lies below the machine epsilon {sys.float_info.epsilon:.3g}, finer than a float TV resolves")


def _degenerate(model: str, states_with: str, n: int) -> UsageError:
    return UsageError(
        f"{model} is a degenerate bias: {states_with} zero stationary mass at n={n}; "
        "use probabilities strictly between 0 and 1"
    )


def _kernel(kind: str, text: str, model, n: int | None):
    """``build`` of ``model``, parsed from ``text``.  inv would coerce
    constant:1 to ranks of 1, which ``CywSpec`` refuses as out of range; that
    model forces every pair's order, and is refused here as degenerate."""
    if kind == "inv" and model.kind == "constant" and model.p == 1 and n is not None and n > 1:
        raise _degenerate(text, "p(1, 2) = 1 leaves some states with", n)
    return build(kind, model, n)


def _matrix(kernel, states):
    """The kernel's matrix on ``states``, from its finder's classes or its Fraction rows."""
    from .analysis import ARRAY_ROWS, class_rows_matrix, transition_matrix

    finder = ARRAY_ROWS.get(kernel.kind)
    return transition_matrix(kernel, states) if finder is None else class_rows_matrix(kernel, finder(kernel, states))


def _reached(res, n: int) -> int:
    """The tau of ``res``, which a later step needs: one that did not come
    within the step horizon exceeds a cap."""
    if res.tau is None:
        raise CapExceeded(f"tau not reached at n={n} within the horizon of {len(res.distances) - 1} steps")
    return res.tau


def _exact_rows(args, ns: list[int | None], need_tau: bool = False):
    """One row per size; a size of None takes the model's own.  With
    ``need_tau``, a size whose tau does not come within the horizon exceeds a cap."""
    from . import analysis

    model = parse_model_spec(args.model)
    kernels = []
    for requested in ns:  # every size's counted space, before any is enumerated
        kernel = _kernel(args.chain, args.model, model, requested)
        if kernel.space_size() > analysis.STATE_CAP:  # no later size is built
            raise CapExceeded(f"{kernel.space_size()} states at n={kernel.n} exceed the cap {analysis.STATE_CAP}")
        kernels.append(kernel)
    rows = []
    for kernel in kernels:
        n = kernel.n
        states = kernel.space()
        pi = analysis.stationary_exact(kernel, states)
        if not pi.all():
            raise _degenerate(args.model, f"{int((pi == 0).sum())} of {len(states)} states have", n)
        matrix = _matrix(kernel, states)
        # above 720 states, the first and last: for permutations, the identity and the reversal
        starts = None if len(states) <= 720 else [0, len(states) - 1]
        res = analysis.mixing_time_exact(matrix, pi, args.eps, starts=starts)
        if need_tau:
            _reached(res, n)
        gap = analysis.spectral_gap(matrix, pi) if len(states) <= analysis.DENSE_CAP else float("nan")
        # any explicit cut lower-bounds the mixing time: tau >= (1/2 - eps)/phi - 1/2
        for cut in analysis.level_cuts_by_weight(pi, count=4):
            phi = analysis.conductance_of_cut(matrix, pi, cut)
            bound = (0.5 - args.eps) / phi - 0.5 if phi > 0 else 0.0
            if res.tau is not None and res.tau < bound - 1e-9:
                raise SoundnessError(f"tau={res.tau} violates the conductance bound {bound:.2f}")
        rows.append([n, args.chain, args.model, args.eps, res.tau, gap, float(pi.min()), res.caveat])
    return rows


def cmd_exact(args) -> int:
    ns = _sizes(args)
    _check_eps(args.eps, 1)
    rows = _exact_rows(args, ns)
    _write_table(args, ["n", "chain", "model", "eps", "tau", "gap", "pi_min", "caveat"], rows)
    return 0


def cmd_scan(args) -> int:
    from .analysis import loglog_slope

    ns = _parse_n_range(args.n_range)
    _check_eps(args.eps, 1)
    if len(ns) < 2:
        raise UsageError("scan needs at least two sizes")
    rows = _exact_rows(args, ns, need_tau=True)
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
    from .analysis import STATE_CAP, slowmix_cut_report

    ns = _sizes(args)
    if ns == [None]:
        raise UsageError("slowmix needs --n or --n-range")
    header = [
        "n", "delta", "xi", "level", "piS1", "piS2", "piS3", "ratio_s2_s1",
        "phi_bound", "tau_lower", "piS2_widened", "ratio_widened",
        "phi_bound_transposition", "tau_lower_transposition", "tau_comparison", "comparison_model",
    ]
    for n in ns:  # every size, before any is computed
        if n < 4:
            raise UsageError("slowmix needs n >= 4")
        if math.comb(2 * n, n) > STATE_CAP:
            raise CapExceeded(f"walk space at n={n} exceeds the cap")
    rows = []
    for n in ns:
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
    from . import analysis, paths

    _check_eps(args.eps, 0.5)
    aux = _kernel(args.kind, args.model, parse_model_spec(args.model), args.n)
    forced = aux.table.forced_pair()
    if forced:
        # zero-weight states leave A and pi_min of the bound undefined
        i, j = forced
        raise _degenerate(args.model, f"p({i}, {j}) = {aux.table.p(i, j)} leaves some states with", aux.n)
    result = paths.congestion_A(aux)
    if result.failure and (not result.legal or result.failure[2]):
        what = "illegal canonical path" if not result.legal else "weight floor violated"
        raise SoundnessError(f"{what}; first failing move {result.failure[0]} -> {result.failure[1]}")
    if not result.within_witness_caps:
        raise SoundnessError("path witness bounds violated")

    states = aux.space()
    tau_nn = analysis.mixing_time_exact(_matrix(KERNELS["nn"](aux.table), states), result.pi, args.eps).tau
    tau_aux = _reached(analysis.mixing_time_exact(_matrix(aux, states), result.pi, args.eps), aux.n)
    bound = paths.comparison_bound(result.congestion, tau_aux, float(result.pi.min()), args.eps)
    if tau_nn is not None and bound < tau_nn:
        raise SoundnessError(f"comparison bound {bound:.1f} below exact tau {tau_nn}")

    rows = [[
        args.kind, aux.n, args.model, result.edge_count, result.max_paths_per_edge,
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
    from .verify import run_suite

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
