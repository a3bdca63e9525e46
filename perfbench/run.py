"""Benchmark of permchains: seeded sampling and exact desk-scale analysis.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample --seed 0 --seconds 25 --trace 0

The benchmark drives the public entry point ``permchains.cli.main([...])``
in-process, with stdout captured, as one closed-loop client: the jobs of a
workload run back to back, each after the previous one returned.  It checks
every output and prints every metric by name with its unit; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.

Workloads (each a list of CLI jobs) and why they were chosen:

* ``sample``: one ``sample`` job per kernel, seeded from ``--seed``, each
  sized to take about a second.  All of its work is ``step``/``run``; it never
  builds exact rows, so a faster sampler shows here and array-backed analysis
  must not.
* ``exact-perm``: ``scan`` of nn and ``exact`` of inv and tree over n = 3..7
  (up to 5040 states): Fraction rows, sparse assembly, the TV iteration, the
  dense eigensolve (only here) and cut conductance.
* ``paths``: canonical-path floors and congestion for inv and for a 6-leaf
  league tree; path routing and ``weight_exact`` dominate it.
* ``slowmix``: the bottleneck report for n = 5..8 (up to 12,870 walks):
  ``solve_delta``, ``height_profile``, both walk matrices and the long-swap
  conductance scan.  n = 9 is left out: it takes over a minute per run, and
  n = 8 has the same stage mix.

With ``--trace 0`` the jobs repeat while ``--seconds`` allows (at least once)
and the end-to-end metrics are medians over the repetitions:

* ``wall_s``: time to finish the workload's jobs;
* ``setup_s``: median over several set-ups of importing ``permchains.cli`` in
  a fresh interpreter plus building the workload's inputs;
* ``peak_rss_mb``: the peak resident memory of the benchmark process.

Failed jobs are the ``failed`` count of the result line: a job fails on a
non-zero exit code, an exception, or an output that differs from its
reference.

With ``--trace 1`` the jobs run once untraced and once with timing and
counting wrappers installed on the package's bindings (see ``spans.py``); the
per-layer metrics come from the traced run, except the per-job times and
steps/s, which come from the untraced one.  Spans are written to
``perfbench/out/``.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported: with two threads
# the dense eigensolve in `scan nn` now and then took 15 times longer.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import gc
import inspect
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF_DIR = HERE / "ref"
OUT_DIR = HERE / "out"
# relative to ROOT, as the CLI echoes it into the output
LEAGUE_TREE = "perfbench/inputs/league6.json"

REF_SEED = 0
SETUP_REPS = 5
STRIDE = 100
SELF_SUM_TOL_S = 1e-6

# kind -> (model arguments, steps, size of the state space)
SAMPLE_JOBS = {
    "nn": (["--model", "constant:0.7", "--n", "8"], 80_000, {"n": 8}),
    "inv": (["--model", "cyw:0.6,0.65,0.7,0.75,0.8,0.85,0.9"], 64_000, {"n": 8}),
    "tree": (["--model", "constant:0.7", "--n", "8"], 80_000, {"n": 8}),
    "oned": (["--model", "oned:0.6,20"], 100_000, {"k": 20}),
    "asep": (["--model", "asep:0.6,6,6"], 120_000, {"k1": 6, "k2": 6}),
    "walk": (["--model", "slowmix:8"], 65_000, {"n": 8}),
    "walk-transposition": (["--model", "slowmix:8"], 16_000, {"n": 8}),
}
KERNELS = tuple(SAMPLE_JOBS)
EXACT_JOBS = {
    "exact-perm": {
        "scan.nn": ["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:7"],
        "exact.inv": ["exact", "--chain", "inv", "--model", "constant:0.75", "--n-range", "3:7"],
        "exact.tree": ["exact", "--chain", "tree", "--model", "constant:0.75", "--n-range", "3:7"],
    },
    "paths": {
        "paths.inv": ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8,0.9,0.95"],
        "paths.tree": ["paths", "--kind", "tree", "--model", f"league:{LEAGUE_TREE}"],
    },
    "slowmix": {
        "slowmix": ["slowmix", "--n-range", "5:8"],
    },
}
WORKLOADS = ("sample", *EXACT_JOBS)
JOB_NAMES = tuple(f"sample.{k}" for k in KERNELS) + tuple(n for jobs in EXACT_JOBS.values() for n in jobs)

# span name -> reported suffixes; "s" is inclusive time, "self_s" excludes
# child spans, "calls" counts spans, anything else is a count the wrapper adds
TD_KINDS = ("nn", "inv", "tree", "walk", "walk-transposition")
LAYERS = {
    "chains.run": ("s", "steps", "accept_ratio"),
    **{f"chains.{k}.step": ("s",) for k in KERNELS},
    **{f"chains.{k}.transition_distribution": ("s", "calls") for k in TD_KINDS},
    "analysis.transition_matrix": ("s", "self_s", "nnz"),
    "analysis.mixing_time_exact": ("s", "iterations", "start_rows"),
    "analysis.spectral_gap": ("s", "dim"),
    "analysis.stationary_exact": ("s",),
    "analysis.conductance_of_cut": ("s", "calls"),
    "analysis.slowmix_cut_report": ("s", "self_s"),
    "bias.solve_delta": ("s",),
    "bias.weight_exact": ("s", "calls"),
    "bias.parse_model_spec": ("s",),
    "walks.class_weight": ("calls",),
    "walks.height_profile": ("s",),
    "walks.tile_counts": ("s", "calls"),
    "walks.all_walks": ("s", "states"),
    "perms.all_permutations": ("s", "states"),
    "paths.congestion_A": ("s", "edges"),
    "paths.path_inv_to_nn": ("s", "calls"),
    "paths.path_tree_to_nn": ("s", "calls"),
    "paths.verify_path": ("s", "calls"),
    "cli.main": ("self_s",),
}
UNITS = {"s": "s", "self_s": "s", "accept_ratio": "ratio"}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = (
    [(f"{span}.{suffix}", UNITS.get(suffix, "count")) for span, suffixes in LAYERS.items() for suffix in suffixes]
    + [(f"job.{name}.s", "s") for name in JOB_NAMES]
    + [(f"steps_per_s.{k}", "1/s") for k in KERNELS]
    + [("trace.untraced_wall_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


@dataclass
class Job:
    name: str
    argv: list[str]
    kind: str | None = None  # kernel kind, for sample jobs
    steps: int = 0
    size: dict = field(default_factory=dict)


@dataclass
class JobResult:
    rc: object  # exit code, or the exception that escaped main()
    stdout: str
    seconds: float


def workload_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "sample":
        return [
            Job(
                f"sample.{kind}",
                ["sample", "--chain", kind, *model, "--steps", str(steps), "--stride", str(STRIDE), "--seed", str(seed)],
                kind,
                steps,
                size,
            )
            for kind, (model, steps, size) in SAMPLE_JOBS.items()
        ]
    return [Job(name, argv) for name, argv in EXACT_JOBS[workload].items()]


def load_references(jobs: list[Job]) -> dict:
    refs = {}
    for job in jobs:
        if job.kind is None:
            refs[job.name] = (REF_DIR / f"{job.name}.csv").read_text(encoding="utf-8")
    if any(job.kind for job in jobs):
        refs["sample-digests"] = json.loads((REF_DIR / f"sample-seed{REF_SEED}.json").read_text(encoding="utf-8"))
    return refs


def build_inputs(workload: str, seed: int) -> tuple[list[Job], dict]:
    jobs = workload_jobs(workload, seed)
    if workload == "paths":
        json.loads((ROOT / LEAGUE_TREE).read_text(encoding="utf-8"))
    return jobs, load_references(jobs)


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up: import the CLI in a fresh interpreter, then build the inputs.

    The import is timed until the child reports it done, so the child's
    interpreter teardown is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import permchains.cli; print('imported', flush=True)"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        imported = time.perf_counter()
        child.stdout.read()
        if child.wait(timeout=120) != 0 or line.strip() != "imported":
            raise RuntimeError("importing permchains.cli in a fresh interpreter failed")
    t1 = time.perf_counter()
    build_inputs(workload, seed)
    return (imported - t0) + (time.perf_counter() - t1)


def clear_caches():
    """Start every job cold.

    ``solve_delta`` and ``height_profile`` are lru-cached per process; without
    clearing, the walk-transposition job would get ``solve_delta(8)`` free
    after the walk job, unlike a real ``permchains`` invocation.
    """
    from permchains import bias, walks

    for cached in (bias.solve_delta, walks.height_profile):
        # under tracing the module attribute is a wrapper around the cache
        inspect.unwrap(cached, stop=lambda f: hasattr(f, "cache_clear")).cache_clear()
    gc.collect()


def run_job(main, job: Job) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(job.argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        rc = exc.code
    except Exception as exc:  # a traceback fails the job, not the benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return JobResult(rc, out.getvalue(), time.perf_counter() - t0)


def run_rep(main, jobs: list[Job], rec: spans.Recorder | None = None) -> tuple[float, list[JobResult]]:
    results = []
    wall = 0.0
    for index, job in enumerate(jobs):
        clear_caches()
        if rec is not None:
            rec.current_job = index
        t0 = time.perf_counter()
        results.append(run_job(main, job))
        wall += time.perf_counter() - t0
    return wall, results


def check_job(job: Job, result: JobResult, refs: dict, seed: int) -> list[str]:
    if result.rc != 0:
        return [f"exit {result.rc}"]
    if job.kind is None:
        return checks.compare_columns(result.stdout, refs[job.name])
    problems = checks.check_sample(result.stdout, job.kind, job.steps, STRIDE, seed, job.size)
    if seed == REF_SEED and checks.digest(result.stdout) != refs["sample-digests"][job.name]:
        problems.append(f"sha256 differs from the seed-{REF_SEED} reference")
    return problems


# -- metrics ---------------------------------------------------------------------------


def layer_metrics(rec: spans.Recorder) -> tuple[dict, list[tuple[float, float]]]:
    """Per-layer values, and per job its traced wall time and summed self times."""
    names = [rec.names[i] for i in rec.name_id]
    selfs = spans.self_times(rec.start, rec.end, rec.parent)
    inclusive = spans.inclusive_times(names, rec.start, rec.end, rec.parent)
    self_sum: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, self_s in zip(names, selfs):
        self_sum[name] = self_sum.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    counts: dict[str, float] = {}
    for (_, key), value in rec.counts.items():
        counts[key] = counts.get(key, 0) + value

    values = {}
    for span, suffixes in LAYERS.items():
        for suffix in suffixes:
            if suffix == "s":
                value = inclusive.get(span, 0.0)
            elif suffix == "self_s":
                value = self_sum.get(span, 0.0)
            elif suffix == "calls":
                value = calls.get(span, 0)
            elif suffix == "accept_ratio":
                steps = counts.get("chains.run.steps", 0)
                value = counts.get("chains.run.moves", 0) / steps if steps else 0.0
            else:
                value = counts.get(f"{span}.{suffix}", 0)
            values[f"{span}.{suffix}"] = value

    per_job = []
    for job in sorted(set(rec.job)):
        members = [i for i, j in enumerate(rec.job) if j == job]
        wall = sum(rec.end[i] - rec.start[i] for i in members if rec.parent[i] < 0)
        per_job.append((wall, sum(selfs[i] for i in members)))
    return values, per_job


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "blas_threads": THREADS,
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- measurement ----------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from permchains import cli

    setups = [setup_seconds(workload, seed) for _ in range(SETUP_REPS)]
    jobs, refs = build_inputs(workload, seed)
    failures: list[str] = []
    attempted = 0

    def checked(results: list[JobResult], first: list[JobResult] | None, extra=None) -> None:
        nonlocal attempted
        for i, (job, result) in enumerate(zip(jobs, results)):
            attempted += 1
            problems = check_job(job, result, refs, seed) + (extra[i] if extra else [])
            if first is not None and result.stdout != first[i].stdout:
                problems.append("output differs from the first untraced repetition")
            if problems:
                failures.append(f"{job.name}: {'; '.join(problems[:3])}")

    walls, reps = [], []
    t0 = time.perf_counter()
    while True:
        wall, results = run_rep(cli.main, jobs)
        checked(results, reps[0] if reps else None)
        walls.append(wall)
        reps.append(results)
        if trace or time.perf_counter() - t0 + wall > seconds:
            break
    report = {
        "workload": workload,
        "reps": len(walls),
        "rep_wall_s": walls,
        "setup_s": setups,
        "job_s": {job.name: [rep[i].seconds for rep in reps] for i, job in enumerate(jobs)},
    }
    steps_per_s = {
        job.kind: statistics.median(job.steps / rep[i].seconds for rep in reps)
        for i, job in enumerate(jobs)
        if job.kind
    }
    report["steps_per_s"] = steps_per_s
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, dict(report, attempted=attempted, failures=failures)

    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        traced_wall, traced = run_rep(spans.timed(rec, "cli.main", cli.main), jobs, rec)
    finally:
        patches.restore()
    metrics, per_job = layer_metrics(rec)
    checked(traced, reps[0], [
        [f"self times sum to {total:.6g} s, not the traced {wall:.6g} s"] if abs(total - wall) > SELF_SUM_TOL_S else []
        for wall, total in per_job
    ])
    for i, job in enumerate(jobs):
        metrics[f"job.{job.name}.s"] = reps[0][i].seconds
    metrics.update({f"steps_per_s.{kind}": value for kind, value in steps_per_s.items()})
    metrics.update({
        "trace.untraced_wall_s": walls[0],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - walls[0],
    })
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0)
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(str(OUT_DIR / f"spans-{workload}.json.gz"))
    report.update(
        attempted=attempted,
        failures=failures,
        spans=len(rec),
        traced_job_s={job.name: wall for job, (wall, _) in zip(jobs, per_job)},
        self_sum_s={job.name: total for job, (_, total) in zip(jobs, per_job)},
    )
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permchains" / "cli.py").is_file():
        print(f"error: no permchains sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import permchains

    if Path(permchains.__file__).resolve().parent != (SRC / "permchains").resolve():
        print(f"error: imported permchains from {permchains.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    metrics, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    failed = len(report["failures"])
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload}: {report['reps']} repetition(s), closed loop, one client")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    print(f"# jobs_failed_frac {failed / report['attempted']:.6g}")
    for name, total in report.get("self_sum_s", {}).items():
        print(f"# traced job {name}: wall {report['traced_job_s'][name]:.9f} s, summed self times {total:.9f} s")
    if not args.trace:
        for kind, value in report["steps_per_s"].items():
            print(f"# steps_per_s.{kind} {value:.6g} 1/s")
    for name, unit in names:
        print(f"{name} {metrics[name]:.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"env": env, "report": report, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
