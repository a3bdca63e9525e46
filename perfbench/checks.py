"""Output checks: column-wise comparison against pinned references, byte
digests for sampled trajectories, and validity of a trajectory at any seed.

Every check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from fractions import Fraction

# Floats in the exact workloads come from sparse products and a dense
# eigensolve; with one BLAS thread they repeat bit for bit, so this only
# absorbs reordering of a sum.
FLOAT_REL_TOL = 1e-9

_INT = re.compile(r"[+-]?\d+\Z")
_FRACTION = re.compile(r"[+-]?\d+/\d+\Z")


def _typed(cell: str):
    if _INT.match(cell):
        return int(cell)
    if _FRACTION.match(cell):
        return Fraction(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def _cell_problem(actual: str, expected: str) -> str | None:
    if actual == expected:
        return None
    want = _typed(expected)
    got = _typed(actual)
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return None
        if math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return None
    elif type(want) is type(got) and not isinstance(want, str) and got == want:
        return None
    return f"{actual!r} != {expected!r}"


def compare_columns(actual: str, expected: str) -> list[str]:
    """Compare CLI output with a reference, cell by cell.

    Metadata lines ('#') and strings must match exactly, as must integers and
    Fractions; floats must match within FLOAT_REL_TOL.
    """
    got_lines = actual.splitlines()
    want_lines = expected.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    problems = []
    for lineno, (got, want) in enumerate(zip(got_lines, want_lines), 1):
        if want.startswith("#") or got.startswith("#"):
            if got != want:
                problems.append(f"line {lineno}: {got!r} != {want!r}")
            continue
        got_cells = next(csv.reader([got]))
        want_cells = next(csv.reader([want]))
        if len(got_cells) != len(want_cells):
            problems.append(f"line {lineno}: {len(got_cells)} cells, expected {len(want_cells)}")
            continue
        for col, (g, w) in enumerate(zip(got_cells, want_cells)):
            problem = _cell_problem(g, w)
            if problem:
                problems.append(f"line {lineno} column {col}: {problem}")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _final_state_problem(kind: str, text: str, size: dict) -> str | None:
    if kind in ("nn", "inv", "tree"):
        # labels 1..n with n <= 9 are written digit by digit
        expected = "".join(str(i) for i in range(1, size["n"] + 1))
        ok = "".join(sorted(text)) == expected
    elif kind in ("walk", "walk-transposition"):
        steps = re.findall(r"-1|1", text)
        ok = "".join(steps) == text and len(steps) == 2 * size["n"] and steps.count("1") == size["n"]
    elif kind == "oned":
        ok = _INT.match(text) is not None and 0 <= int(text) <= size["k"]
    elif kind == "asep":
        ok = set(text) <= {"0", "1"} and text.count("1") == size["k1"] and text.count("0") == size["k2"]
    else:
        return f"unknown kernel kind {kind}"
    return None if ok else f"final state {text!r} is not in the {kind} space"


def check_sample(output: str, kind: str, steps: int, stride: int, seed: int, size: dict) -> list[str]:
    """Validity of a `sample` output at any seed.

    The final state lies in the kernel's space, the records are one row per
    stride from 0 to steps with a single observable and a finite value, and
    the accepted moves do not exceed the steps.
    """
    meta: dict[str, str] = {}
    body = []
    for line in output.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    problems = []
    try:
        config = json.loads(meta.get("config", ""))
    except json.JSONDecodeError:
        return ["missing or malformed config line"]
    if (config.get("chain"), config.get("steps"), config.get("seed")) != (kind, steps, seed):
        problems.append(f"config echo {config} does not match the job")
    moves = meta.get("moves-accepted", "")
    if not (_INT.match(moves) and 0 <= int(moves) <= steps):
        problems.append(f"moves-accepted {moves!r} not within 0..{steps}")
    problem = _final_state_problem(kind, meta.get("final-state", ""), size)
    if problem:
        problems.append(problem)
    if not body or body[0] != "step,observable,value":
        return problems + ["missing header row"]
    rows = list(csv.reader(body[1:]))
    expected_steps = list(range(0, steps + 1, stride))
    if [r[0] for r in rows] != [str(s) for s in expected_steps]:
        problems.append("record steps are not 0, stride, 2*stride, ...")
    if len({r[1] for r in rows if len(r) == 3}) != 1 or any(len(r) != 3 for r in rows):
        problems.append("records do not carry exactly one observable")
    for r in rows:
        try:
            if len(r) == 3 and not math.isfinite(float(r[2])):
                raise ValueError
        except ValueError:
            problems.append(f"record value {r[2]!r} is not a finite number")
            break
    return problems
