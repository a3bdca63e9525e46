"""Regenerate the benchmark's inputs and reference outputs.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/make_refs.py

It writes the 6-leaf league tree used by the ``paths`` workload, the full
output of every exact job under ``ref/``, and the sha256 of every ``sample``
job's output at the reference seed.  Only rerun it when a change is meant to
alter these outputs, and say so where the change is recorded.
"""
from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from permchains import cli, trees, verify

    tree = trees.truncate_tree(verify.demo_tree(), 6)
    (run.ROOT / run.LEAGUE_TREE).write_text(tree.to_json() + "\n", encoding="utf-8")
    run.REF_DIR.mkdir(exist_ok=True)
    digests = {}
    for workload in run.WORKLOADS:
        for job in run.workload_jobs(workload, run.REF_SEED):
            run.clear_caches()
            result = run.run_job(cli.main, job)
            if result.rc != 0:
                print(f"error: {job.name} exited {result.rc}", file=sys.stderr)
                return 1
            if job.kind:
                digests[job.name] = run.checks.digest(result.stdout)
            else:
                (run.REF_DIR / f"{job.name}.csv").write_text(result.stdout, encoding="utf-8")
            print(f"{job.name}: {result.seconds:.2f} s")
    (run.REF_DIR / f"sample-seed{run.REF_SEED}.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
