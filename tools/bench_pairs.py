"""Interleaved parent/change pairs of the benchmark, written to BENCH_<pr>.json.

Run from anywhere inside a checkout of the change, with the change committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr <number> --first-seed <seed>

For every workload of BENCHMARK.json and each of its 10 pairs k it runs, once
on each side,

    python3 perfbench/run.py --workload W --seed <first-seed + k> --seconds S --trace 0

with S the ``run_seconds`` of BENCHMARK.json.  Both sides run alike from
``git archive`` exports into temporary directories, removed after the run:
the change is ``HEAD``, the parent ``--parent``.  A checkout whose tracked
files differ from ``HEAD`` is refused, since its edits would not be measured.
Pairs alternate which side runs first, so a drift in the host's speed falls
on both sides alike.  The file, rewritten after each workload, holds every
run's end-to-end metrics and ``failed`` count and, for each metric of each
workload, both sides' medians and quartiles, how many pairs the change won
(ties count for neither), the ratio of the medians, the metric's ``bound``
from BENCHMARK.json and ``beyond_bound``: whether that ratio is worse than
1 + bound (lower is better) or 1 - bound (higher is better).  Each breach is
also printed as one line on stderr when its workload finishes.  Under ``host`` it
records the machine's CPU count and the CPUs of this process's affinity
mask (the two differ under a cpuset), and whether ``PYTHONDONTWRITEBYTECODE``
is set for the runs it starts: without cached bytecode every run compiles the
package, which shows in ``setup_s``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@contextmanager
def exported(rev: str, side: str):
    with tempfile.TemporaryDirectory(prefix=f"bench-{side}-") as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json's entries): both sides' spread,
    the change's wins, the ratio of medians and whether it is beyond the bound."""
    out = {}
    for metric in end_to_end:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["parent"]["metrics"][name] - p["change"]["metrics"][name]) > 0 for p in pairs)
        stats = {side: spread(values[side]) for side in SIDES}
        parent_median = stats["parent"]["median"]
        ratio = stats["change"]["median"] / parent_median if parent_median else None
        out[name] = dict(
            stats,
            better=direction,
            change_wins=wins,
            pairs=len(pairs),
            ratio_of_medians=ratio,
            bound=bound,
            beyond_bound=ratio is not None and sign * (ratio - 1) > bound,
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("tracked files differ from HEAD; commit the change first")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    doc = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            # the CPUs this process may run on, which size the TV pool (analysis.WORKERS)
            "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
            # the runs inherit this environment; a non-empty value is "set" to Python
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "workloads": {},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    with exported(args.parent, "parent") as parent, exported("HEAD", "change") as change:
        checkouts = {"parent": parent, "change": change}
        for workload in workloads:
            pairs = []
            for k in range(PAIRS):
                seed = args.first_seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {pair[side]['metrics']} failed {pair[side]['failed']}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            summary = summarize(pairs, spec["end_to_end"])
            doc["workloads"][workload] = {"pairs": pairs, "summary": summary}
            out.write_text(json.dumps(doc, indent=1) + "\n")  # each finished workload survives a later failure
            for name, s in summary.items():
                if s["beyond_bound"]:
                    print(f"beyond bound: {workload} {name} ratio of medians {s['ratio_of_medians']:.3f}, "
                          f"bound {s['bound']}", file=sys.stderr, flush=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
