"""
CLI behavior:

- outputs begin with '#' metadata lines and are byte-stable per (config, seed)
- model/chain pairings validate, with the documented constant-model coercions
- exit codes: 0 success, 1 invariant failure, 2 usage error (degenerate
  sizes, one-state spaces, zero-mass stationary laws refused before the
  matrix is built, inv's constant:1 by the same degenerate-bias wording as
  tree's, negative step counts,
  an --n that contradicts a sized model, --n given with --n-range, a scan
  over one size and, before any work, an eps below the machine epsilon
  included), 3 cap exceeded (checked before the state space is enumerated,
  for more than 1,000 labels before a bias table is filled, for a slowmix
  model of more than C(24, 12) walks before any walk is made, and a tau that
  scan's fit or paths' bound needs but the step horizon does not reach), 4 soundness failure
  (an inv or tree route with one swap dropped is an illegal canonical path)
- a league file as deep as the label cap allows (a 990-leaf caterpillar) samples
  with exit 0, and a 1,001-leaf caterpillar file exits 3
- exact, scan and paths print the same bytes for inv and tree with the array
  rows and weights as with the Fraction oracle's
- a constant model below 1/2 is refused with one wording (exit 2, no
  coercion notice) for nn, inv and tree, and samples for the walk kernel
- each row reports the kernel's own size; for walks, the half size
- paths routes a max-variant inversion model (exit 0), and refuses a
  degenerate bias (a table entry of 0 or 1) with exit 2 before routing
- importing the CLI, sample with every kernel, --help and a usage error load
  no scipy module; exact loads it and prints the in-process bytes
- n-range scans emit one row per size with monotone mixing times
"""
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permchains.cli import main

from support import truncate_tree_demo


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _paths_record(out: str) -> dict:
    rows = list(csv.reader(l for l in out.splitlines() if l and not l.startswith("#")))
    return dict(zip(rows[0], rows[1]))


def test_sample_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--chain", "nn", "--model", "constant:0.7", "--n", "5",
            "--steps", "500", "--stride", "100", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# permchains-version:")
    assert "# config:" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "step,observable,value"
    assert len(body) == 1 + 6  # header plus strides 0..500


def test_sample_seed_changes_body(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sample", "--chain", "nn", "--model", "constant:0.7", "--n", "5",
            "--steps", "500", "--stride", "100"]
    main(base + ["--seed", "1", "--out", str(a)])
    main(base + ["--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_inv_constant_coercion_notice(capsys):
    code, out, err = run_cli(
        ["sample", "--chain", "inv", "--model", "constant:0.7", "--n", "4",
         "--steps", "10", "--stride", "5"],
        capsys,
    )
    assert code == 0
    assert "coerced" in err


def test_tree_requires_league_or_constant(capsys):
    code, _, err = run_cli(
        ["sample", "--chain", "tree", "--model", "cyw:0.6,0.7", "--steps", "5"],
        capsys,
    )
    assert code == 2
    assert "league" in err


def test_walk_requires_slowmix_or_constant(capsys):
    code, _, err = run_cli(
        ["sample", "--chain", "walk-transposition", "--model", "constant:0.7",
         "--n", "4", "--steps", "5"],
        capsys,
    )
    assert code == 2


def test_malformed_model_is_usage_error(capsys):
    code, _, err = run_cli(
        ["sample", "--chain", "nn", "--model", "constant:1.7", "--n", "4"], capsys
    )
    assert code == 2


def test_exact_rows_increase(tmp_path, capsys):
    code, out, _ = run_cli(
        ["exact", "--chain", "nn", "--model", "constant:0.5",
         "--n-range", "3:5", "--eps", "0.25"],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [int(r[0]) for r in rows] == [3, 4, 5]
    taus = [int(r[4]) for r in rows]
    assert taus == sorted(taus) and taus[0] < taus[-1]


def test_exact_cap_exit_code(tmp_path, capsys, demo_tree):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(demo_tree.to_json())
    code, _, err = run_cli(
        ["exact", "--chain", "tree", "--model", f"league:{tree_file}", "--n", "9"],
        capsys,
    )
    assert code == 3
    assert "cap" in err


def test_paths_size_mismatch(tmp_path, capsys, demo_tree):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(demo_tree.to_json())
    code, _, err = run_cli(
        ["paths", "--kind", "tree", "--model", f"league:{tree_file}", "--n", "6"],
        capsys,
    )
    assert code == 2
    assert "9" in err


def test_paths_inv_pass(capsys):
    code, out, _ = run_cli(
        ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8,0.9", "--n", "5"],
        capsys,
    )
    assert code == 0
    record = _paths_record(out)
    assert record["floor-check"] == "pass"
    assert int(record["max-paths-per-edge"]) <= 25
    assert float(record["comparison-bound"]) >= float(record["exact-tau"])


def test_paths_inv_max_variant_pass(capsys):
    # routed through the mirror; once exited 2 with "not an inversion-chain move"
    code, out, _ = run_cli(["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8:max"], capsys)
    assert code == 0
    record = _paths_record(out)
    assert (record["n"], record["edge-count"], record["A"], record["floor-check"]) == ("4", "92", "3.0", "pass")


NON_MONOTONE_TREE = (
    '{"q":"0.5","left":1,"right":{"q":"0.6","left":{"q":"0.9","left":2,"right":3},"right":4}}'
)


def test_paths_floor_not_guaranteed(tmp_path, capsys):
    # neither monotonicity clause holds, so a failed floor is reported, not fatal
    tree_file = tmp_path / "t.json"
    tree_file.write_text(NON_MONOTONE_TREE)
    code, out, _ = run_cli(["paths", "--kind", "tree", "--model", f"league:{tree_file}"], capsys)
    assert code == 0
    record = _paths_record(out)
    assert record["floor-check"] == "not-guaranteed"
    assert (record["edge-count"], record["A"], record["max-path-length"]) == ("92", "9.875", "7")


def test_paths_broken_route_is_soundness_failure(capsys, monkeypatch):
    from permchains import paths

    route = paths.path_inv_to_nn

    def skip_a_swap(sigma, beta):
        path = route(sigma, beta)
        if len(path) > 1:
            del path.states[1], path.stages[1]
        return path

    monkeypatch.setattr(paths, "path_inv_to_nn", skip_a_swap)
    code, out, err = run_cli(
        ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8,0.9", "--n", "5"], capsys
    )
    assert code == 4
    assert "illegal canonical path" in err
    assert out == ""


def test_paths_broken_tree_route_is_soundness_failure(capsys, monkeypatch):
    from permchains import paths

    route = paths.transposition_path

    def skip_a_swap(sigma, beta):
        path = route(sigma, beta)
        if len(path) > 1:
            del path.states[1], path.stages[1]
        return path

    monkeypatch.setattr(paths, "transposition_path", skip_a_swap)
    league = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "league6.json"
    code, out, err = run_cli(["paths", "--kind", "tree", "--model", f"league:{league}"], capsys)
    assert code == 4
    assert "illegal canonical path" in err
    assert out == ""


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["exact", "--chain", "oned", "--model", "oned:0.75,6", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "n"
    assert len(doc["rows"]) == 1


def test_scan_emits_slopes(capsys):
    code, out, _ = run_cli(
        ["scan", "--chain", "nn", "--model", "constant:0.5", "--n-range", "3:4"],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0][-2:] == ["fit_slope", "fit_slope_per_element"]
    assert float(rows[1][-1]) > 0


def test_verify_fast(capsys):
    assert main(["verify", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "inversion-bijection-roundtrip" in out
    assert "FAIL" not in out


def test_verify_seed_flag(capsys):
    assert main(["verify", "--fast", "--seed", "7"]) == 0


def test_connectivity_check_rejects_a_kernel_that_cannot_sort():
    from fractions import Fraction

    from permchains.bias import BiasTable, constant_bias
    from permchains.chains import NearestNeighborChain
    from permchains.perms import identity
    from permchains.verify import unreachable_from_sorted

    assert unreachable_from_sorted(NearestNeighborChain(constant_bias(4, "0.7"))) == []
    # every adjacent pair is put out of order with probability 1
    backwards = NearestNeighborChain(BiasTable(4, lambda i, j: Fraction(0)))
    assert unreachable_from_sorted(backwards) == [s for s in backwards.space() if s != identity(4)]


def test_slowmix_row(capsys):
    code, out, _ = run_cli(["slowmix", "--n", "4", "--no-comparison"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    record = dict(zip(rows[0], rows[1]))
    assert 1 / 65 < float(record["delta"]) < 0.5
    assert abs(float(record["piS1"]) - float(record["piS3"])) <= 1e-8 * float(record["piS1"])


def test_slowmix_small_n_rejected(capsys):
    code, _, _ = run_cli(["slowmix", "--n", "3", "--no-comparison"], capsys)
    assert code == 2


def test_slowmix_cap_checked_without_enumerating(capsys, monkeypatch):
    from permchains import analysis, walks

    def enumerate_walks(n):
        raise AssertionError("the cap check enumerated the walk space")

    def report(n, compute_comparison=True):
        raise AssertionError(f"n={n} was computed before the range was checked")

    monkeypatch.setattr(walks, "all_walks", enumerate_walks)
    monkeypatch.setattr(analysis, "slowmix_cut_report", report)
    for sizes, first in ((["--n", "12"], 12), (["--n-range", "8:12"], 10)):
        code, out, err = run_cli(["slowmix", *sizes], capsys)
        assert code == 3
        assert f"walk space at n={first} exceeds the cap" in err
        assert out == ""
    # the first size that fails decides: n = 3 is a usage error before n = 10 breaks the cap
    code, out, err = run_cli(["slowmix", "--n-range", "3:12"], capsys)
    assert (code, out) == (2, "") and "n >= 4" in err


@pytest.mark.parametrize("command", [
    ["sample", "--chain", "walk", "--model", "slowmix:20", "--steps", "3"],
    ["sample", "--chain", "walk-transposition", "--model", "slowmix:13", "--steps", "3"],
    ["exact", "--chain", "walk", "--model", "slowmix:20"],
])
def test_slowmix_model_past_the_walk_cap_exits_3_without_enumerating(capsys, monkeypatch, command):
    from permchains import walks
    from permchains._common import WALK_CAP, check_walk_count

    def enumerate_walks(n, codes=None):
        raise AssertionError(f"the walks at n={n} were enumerated before the cap check")

    monkeypatch.setattr(walks, "walk_arrays", enumerate_walks)
    n = int(command[command.index("--model") + 1].partition(":")[2])
    code, out, err = run_cli(command, capsys)
    assert (code, out) == (3, "")
    assert f"{math.comb(2 * n, n)} walks at n={n} exceed the walk cap {WALK_CAP}" in err
    check_walk_count(12)  # the largest half size that still runs


@pytest.mark.parametrize("command", [["slowmix"], ["exact", "--chain", "nn", "--model", "constant:0.7"]])
def test_empty_n_range_is_usage_error(capsys, command):
    code, out, err = run_cli(command + ["--n-range", "6:5"], capsys)
    assert code == 2
    assert "empty" in err
    assert out == ""


@pytest.mark.parametrize("command", [
    ["exact", "--chain", "nn", "--model", "constant:0.7", "--n", "5", "--n-range", "3:4"],
    ["slowmix", "--n", "9", "--n-range", "4:4"],
])
def test_n_with_n_range_is_usage_error(capsys, command):
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert "not both" in err


@pytest.mark.parametrize("command", [
    ["sample", "--steps", "10"],
    ["exact"],
])
@pytest.mark.parametrize("p", ["0", "1"])
def test_degenerate_constant_walk_bias_is_usage_error(capsys, command, p):
    code, _, err = run_cli(command + ["--chain", "walk", "--model", f"constant:{p}", "--n", "4"], capsys)
    assert code == 2
    assert "degenerate" in err


@pytest.mark.parametrize("args", [
    ["--chain", "nn", "--model", "constant:0.7", "--n", "0"],
    ["--chain", "nn", "--model", "constant:0.7", "--n", "1"],
    ["--chain", "inv", "--model", "constant:0.7", "--n", "1"],
    ["--chain", "tree", "--model", "constant:0.7", "--n", "1"],
    ["--chain", "tree", "--model", "constant:0.7", "--n", "0"],
    ["--chain", "asep", "--model", "asep:0.5,1,0"],
    ["--chain", "nn", "--model", "constant:0.7", "--n", "3", "--steps", "-3"],
    ["--chain", "nn", "--model", "constant:0.7", "--n", "3", "--stride", "-1"],
])
def test_degenerate_sample_input_is_usage_error(capsys, args):
    try:
        code = main(["sample", *args])
    except SystemExit as exc:  # argparse rejected the value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["sample", "exact"])
@pytest.mark.parametrize("chain, model", [
    ("oned", "oned:0.5,0"),
    ("asep", "asep:0.5,0,3"),
    ("asep", "asep:0.5,3,0"),
])
def test_one_state_space_is_usage_error(capsys, command, chain, model):
    code, out, err = run_cli([command, "--chain", chain, "--model", model], capsys)
    assert code == 2
    assert out == ""
    assert "fewer than two states" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["exact", "--chain", "nn", "--model", "constant:1", "--n", "4"],
    ["scan", "--chain", "nn", "--model", "constant:1", "--n-range", "3:4"],
    ["exact", "--chain", "tree", "--model", "constant:1", "--n", "4"],
    ["exact", "--chain", "oned", "--model", "oned:1,4"],
    ["paths", "--kind", "tree", "--model", "constant:1", "--n", "4"],
    ["exact", "--chain", "inv", "--model", "constant:1", "--n", "4"],
    ["paths", "--kind", "inv", "--model", "constant:1", "--n", "4"],
])
def test_zero_mass_stationary_law_is_usage_error(capsys, recwarn, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    model = args[args.index("--model") + 1]
    assert f"{model} is a degenerate bias" in err and "zero stationary mass" in err
    assert not recwarn.list


@pytest.mark.parametrize("args", [
    ["exact", "--chain", "nn", "--model", "constant:0.3", "--n", "4"],
    ["exact", "--chain", "inv", "--model", "constant:0.3", "--n", "4"],
    ["exact", "--chain", "tree", "--model", "constant:0.3", "--n", "4"],
    ["paths", "--kind", "inv", "--model", "constant:0.3", "--n", "4"],
    ["paths", "--kind", "tree", "--model", "constant:0.3", "--n", "4"],
])
def test_constant_bias_below_half_is_refused_with_one_wording(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (2, "", "error: constant bias must be >= 1/2, got 3/10\n")


def test_walk_samples_a_constant_bias_below_half(capsys):
    code, out, err = run_cli(
        ["sample", "--chain", "walk", "--model", "constant:0.3", "--n", "4", "--steps", "10"], capsys
    )
    assert code == 0 and out and err == ""


def test_degenerate_model_is_refused_before_its_matrix(capsys, monkeypatch):
    from permchains import analysis

    def unbuilt(*args):
        raise AssertionError("the matrix of a degenerate model was built")

    # the CLI imports its analysis names when a command runs, so they are patched at their source
    monkeypatch.setattr(analysis, "transition_matrix", unbuilt)
    monkeypatch.setattr(analysis, "class_rows_matrix", unbuilt)
    code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:1", "--n", "8"], capsys)
    assert code == 2
    assert out == ""
    assert "constant:1 is a degenerate bias: 40319 of 40320 states have zero stationary mass at n=8" in err


@pytest.mark.parametrize("args", [
    ["exact", "--chain", "nn", "--model", "cyw:0.6,0.7", "--n", "5"],
    ["scan", "--chain", "inv", "--model", "cyw:0.6,0.7,0.8", "--n-range", "3:5"],
    ["exact", "--chain", "oned", "--model", "oned:0.6,5", "--n", "9"],
    ["sample", "--chain", "nn", "--model", "cyw:0.6,0.7", "--n", "6"],
])
def test_n_contradicting_a_sized_model_is_usage_error(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "requested n=" in err and "Traceback" not in err


def test_exact_cap_checked_without_enumerating(capsys, monkeypatch):
    from permchains import perms

    def enumerate_permutations(n):
        raise AssertionError("the cap check enumerated the permutations")

    monkeypatch.setattr(perms, "all_permutations", enumerate_permutations)
    for sizes in (["--n", "9"], ["--n-range", "3:9"]):
        code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:0.7", *sizes], capsys)
        assert code == 3
        assert "362880 states at n=9 exceed the cap" in err
        assert out == ""
    # zero stationary mass shows only once a size is enumerated, so the cap
    # breach at n = 9 wins over the degenerate constant:1 at n = 3
    code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:1", "--n-range", "3:9"], capsys)
    assert (code, out) == (3, "") and "362880 states at n=9 exceed the cap" in err
    # inv refuses constant:1 when it builds the kernel, before any size's cap is read
    code, out, err = run_cli(["exact", "--chain", "inv", "--model", "constant:1", "--n-range", "3:9"], capsys)
    assert (code, out) == (2, "") and "degenerate" in err


@pytest.mark.parametrize("chain", ["nn", "tree"])
def test_exact_range_stops_building_at_its_first_size_over_the_cap(capsys, monkeypatch, chain):
    # a range past the label cap: no kernel is built after n = 9, whose
    # counted space breaks the state cap, so n = 1001's label cap is not reached
    from permchains import bias, chains

    table, tree = bias.Model.bias_table, chains.complete_tree

    def guard(n):
        if n > 9:
            raise AssertionError(f"the kernel of n={n} was built past the first size over the cap")

    monkeypatch.setattr(bias.Model, "bias_table", lambda self, n=None: guard(n) or table(self, n))
    monkeypatch.setattr(chains, "complete_tree", lambda n, q: guard(n) or tree(n, q))
    code, out, err = run_cli(["exact", "--chain", chain, "--model", "constant:0.7", "--n-range", "3:1001"], capsys)
    assert (code, out) == (3, "") and "362880 states at n=9 exceed the cap" in err


@pytest.mark.parametrize("chain", ["nn", "inv", "tree"])
def test_sample_label_cap_checked_before_the_table(capsys, chain):
    code, out, err = run_cli(
        ["sample", "--chain", chain, "--model", "constant:0.7", "--n", "1001", "--steps", "0"], capsys
    )
    assert code == 3
    assert out == ""
    assert "1001 labels exceed the label cap 1000" in err and "Traceback" not in err


def _caterpillar_json(n: int) -> str:
    text = str(n)
    for k in range(n - 1, 0, -1):
        text = f'{{"q": 0.6, "left": {k}, "right": {text}}}'
    return text


def test_sample_reads_a_990_leaf_caterpillar_league(tmp_path, capsys):
    tree_file = tmp_path / "caterpillar.json"
    tree_file.write_text(_caterpillar_json(990))
    code, out, err = run_cli(
        ["sample", "--chain", "tree", "--model", f"league:{tree_file}", "--steps", "10"], capsys
    )
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "0,inversions,489555.0"  # the reversal, C(990, 2) inversions


def test_a_1001_leaf_caterpillar_league_exits_3(tmp_path, capsys):
    tree_file = tmp_path / "caterpillar.json"
    tree_file.write_text(_caterpillar_json(1001))
    code, out, err = run_cli(
        ["sample", "--chain", "tree", "--model", f"league:{tree_file}", "--steps", "10"], capsys
    )
    assert code == 3
    assert out == ""
    assert "1001 labels exceed the label cap 1000" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["exact", "--chain", "inv", "--model", "cyw:0.6,0.7,0.8,0.9:max"],
    ["scan", "--chain", "inv", "--model", "constant:0.75", "--n-range", "3:6"],
    ["scan", "--chain", "tree", "--model", "constant:0.75", "--n-range", "3:6"],
    ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8,0.9"],
    ["paths", "--kind", "tree", "--model", "league:{league}"],
])
def test_array_rows_print_the_oracle_bytes(capsys, monkeypatch, tmp_path, args):
    from permchains import analysis
    from permchains.analysis import distribution

    league = tmp_path / "league.json"
    league.write_text(truncate_tree_demo(5).to_json())
    args = [a.format(league=league) for a in args]
    code, fast, _ = run_cli(args, capsys)
    monkeypatch.setattr(analysis, "ARRAY_ROWS", {})
    monkeypatch.setattr(
        analysis, "stationary_exact", lambda kernel, states: distribution(kernel.stationary_weight(s) for s in states)
    )
    oracle_code, oracle, _ = run_cli(args, capsys)
    assert code == oracle_code == 0
    assert fast == oracle


@pytest.mark.parametrize("chain, n", [("walk", None), ("walk", "4"), ("walk-transposition", None)])
def test_walk_rows_report_the_half_size(capsys, chain, n):
    args = ["exact", "--chain", chain, "--model", "slowmix:4"] + (["--n", n] if n else [])
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[1][0] == "4"


@pytest.mark.parametrize("args", [
    ["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:3", "--eps", "0"],
    ["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "3", "--eps", "1.5"],
    ["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "3", "--eps", "nan"],
    ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7", "--eps", "0"],
    ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7", "--eps", "0.5"],
])
def test_eps_out_of_range_is_usage_error_before_any_work(capsys, monkeypatch, args):
    from permchains import cli

    def parse(text):
        raise AssertionError("the model was parsed before --eps was checked")

    monkeypatch.setattr(cli, "parse_model_spec", parse)
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "--eps must lie strictly between 0 and" in err


@pytest.mark.parametrize("n_range", ["3:3", "7:7", "4"])
def test_scan_over_one_size_is_usage_error_before_any_work(capsys, monkeypatch, n_range):
    from permchains import cli

    def parse(text):
        raise AssertionError("the model was parsed before the sizes were checked")

    monkeypatch.setattr(cli, "parse_model_spec", parse)
    code, out, err = run_cli(["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", n_range], capsys)
    assert code == 2
    assert out == ""
    assert "scan needs at least two sizes" in err and "Traceback" not in err


@pytest.mark.parametrize("args, n", [
    (["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:4"], 3),
    (["paths", "--kind", "inv", "--model", "cyw:0.6,0.7"], 3),
])
def test_a_tau_past_the_horizon_exits_3_where_it_is_needed(capsys, monkeypatch, args, n):
    # scan's fit and paths' bound need tau; exact prints None in its tau cell
    import functools

    from permchains import analysis

    monkeypatch.setattr(analysis, "mixing_time_exact", functools.partial(analysis.mixing_time_exact, horizon=2))
    code, out, err = run_cli(args, capsys)
    assert code == 3
    assert out == ""
    assert err == f"error: tau not reached at n={n} within the horizon of 2 steps\n"
    code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "3"], capsys)
    assert code == 0, err
    assert out.splitlines()[-1].split(",")[4] == "None"


EPSILON = sys.float_info.epsilon


@pytest.mark.parametrize("args", [
    ["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:4", "--eps", "1e-300"],
    ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7", "--eps", "1e-300"],
    ["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "3", "--eps", "1e-300"],
    ["exact", "--chain", "oned", "--model", "oned:0.5,3", "--eps", repr(math.nextafter(EPSILON, 0))],
])
def test_an_eps_below_the_machine_epsilon_is_usage_error_before_any_work(capsys, args):
    # the worst TV of nn and inv on 6 states stays above 1e-300 at every step,
    # so the scan and paths runs spent the 200,000-step horizon: 8 to 15 s
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert f"lies below the machine epsilon {EPSILON:.3g}" in err


@pytest.mark.parametrize("args, taus", [
    (["scan", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:4", "--eps", "1e-12"], ["84", "206"]),
    # 4 states: the worst TV first comes within EPSILON at step 102, and is 0 at step 109
    (["exact", "--chain", "oned", "--model", "oned:0.5,3", "--eps", repr(EPSILON)], ["102"]),
])
def test_an_eps_down_to_the_machine_epsilon_still_mixes(capsys, args, taus):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    rows = list(csv.reader(l for l in out.splitlines() if l and not l.startswith("#")))
    assert [row[4] for row in rows[1:]] == taus


def test_conductance_check_uses_the_given_eps(capsys):
    # tau(0.99) = 0 is sound: the cut bound (1/2 - eps)/phi - 1/2 is negative
    code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "3", "--eps", "0.99"], capsys)
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[1][3:5] == ["0.99", "0"]


def test_paths_refuses_a_league_with_a_q_1_node_before_routing(tmp_path, capsys, monkeypatch):
    from permchains import paths

    tree_file = tmp_path / "t.json"
    tree_file.write_text('{"q": 1, "left": {"q": 0.7, "left": 1, "right": 2}, "right": 3}')
    model = f"league:{tree_file}"
    monkeypatch.setattr(paths, "congestion_A", None)  # routing would raise TypeError
    code, out, err = run_cli(["paths", "--kind", "tree", "--model", model], capsys)
    assert code == 2
    assert out == ""
    assert f"{model} is a degenerate bias" in err and "zero stationary mass" in err and "Traceback" not in err


def test_paths_coerces_a_constant_model_like_the_other_commands(capsys):
    code, constant, err = run_cli(["paths", "--kind", "inv", "--model", "constant:0.7", "--n", "4"], capsys)
    assert code == 0 and "coerced to cyw" in err
    code, cyw, _ = run_cli(["paths", "--kind", "inv", "--model", "cyw:0.7,0.7,0.7"], capsys)
    assert code == 0
    assert dict(_paths_record(constant), model=None) == dict(_paths_record(cyw), model=None)


SAMPLE_MODELS = {
    "nn": ["--model", "constant:0.7", "--n", "5"],
    "inv": ["--model", "cyw:0.6,0.7,0.8"],
    "tree": ["--model", "constant:0.7", "--n", "5"],
    "oned": ["--model", "oned:0.6,8"],
    "asep": ["--model", "asep:0.6,3,3"],
    "walk": ["--model", "slowmix:5"],
    "walk-transposition": ["--model", "slowmix:5"],
}
EXACT_ARGS = ["exact", "--chain", "nn", "--model", "constant:0.75", "--n", "4"]

# Runs in a fresh interpreter: each step's exit code and the watched modules
# (those named in argv[2], and their submodules) loaded after it, in order,
# then the stdout of the last step.
_MODULE_PROBE = """
import contextlib, io, json, sys

WATCHED = json.loads(sys.argv[2])

def watched_modules():
    return sorted(k for k in sys.modules if any(k == w or k.startswith(w + ".") for w in WATCHED))

steps = []
from permchains import cli
steps.append(["import", 0, watched_modules()])

def step(name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append([name, code, watched_modules()])
    return out.getvalue()

for name, argv in json.loads(sys.argv[1]):
    stdout = step(name, argv)
print(json.dumps({"steps": steps, "stdout": stdout}))
"""


def _probe_light_steps(watched: list[str]) -> tuple[list, dict]:
    """Run every sample kernel, --help and two usage errors, then exact, in one
    fresh interpreter watching ``watched``; the plan and the probe's record."""
    from permchains.chains import KERNELS

    assert set(SAMPLE_MODELS) == set(KERNELS)
    plan = [
        *([f"sample {kind}", ["sample", "--chain", kind, *model, "--steps", "300"]] for kind, model in SAMPLE_MODELS.items()),
        ["--help", ["--help"]],
        ["argparse error", ["sample", "--chain", "nn"]],
        ["usage error", ["sample", "--chain", "nn", "--model", "constant:0.7", "--n", "3", "--steps", "-3"]],
        ["exact", EXACT_ARGS],  # last: it loads the matrix code
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(plan), json.dumps(watched)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    *before, _ = probe["steps"]
    codes = {"--help": 0, "argparse error": 2, "usage error": 2}
    assert [(step, code, modules) for step, code, modules in before] == [
        (step, codes.get(step, 0), []) for step in ["import", *(name for name, _ in plan[:-1])]
    ]
    return plan, probe


def test_only_commands_that_build_matrices_load_scipy(capsys):
    _, probe = _probe_light_steps(["scipy"])
    name, code, loaded = probe["steps"][-1]
    assert (name, code) == ("exact", 0) and "scipy.sparse" in loaded
    assert main(EXACT_ARGS) == 0
    assert probe["stdout"] == capsys.readouterr().out


def test_only_commands_that_use_them_load_analysis_paths_and_verify():
    _, probe = _probe_light_steps(["permchains.analysis", "permchains.paths", "permchains.verify"])
    name, code, loaded = probe["steps"][-1]
    assert (name, code) == ("exact", 0) and loaded == ["permchains.analysis"]
