"""
CLI behavior:

- outputs begin with '#' metadata lines and are byte-stable per (config, seed)
- model/chain pairings validate, with the documented constant-model coercions
- exit codes: 0 success, 1 invariant failure, 2 usage error (degenerate
  sizes, one-state spaces, zero-mass stationary laws, negative step counts
  and an --n that contradicts a sized model included), 3 cap exceeded
  (checked before the state space is enumerated), 4 soundness failure
- each row reports the kernel's own size; for walks, the half size
- n-range scans emit one row per size with monotone mixing times
"""
import json

import pytest

from permchains.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _paths_record(out: str) -> dict:
    import csv

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

    def skip_a_swap(sigma, beta, table=None):
        path = route(sigma, beta, table)
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
    from permchains import walks

    def enumerate_walks(n):
        raise AssertionError("the cap check enumerated the walk space")

    monkeypatch.setattr(walks, "all_walks", enumerate_walks)
    code, out, err = run_cli(["slowmix", "--n", "12"], capsys)
    assert code == 3
    assert "cap" in err
    assert out == ""


@pytest.mark.parametrize("command", [["slowmix"], ["exact", "--chain", "nn", "--model", "constant:0.7"]])
def test_empty_n_range_is_usage_error(capsys, command):
    code, out, err = run_cli(command + ["--n-range", "6:5"], capsys)
    assert code == 2
    assert "empty" in err
    assert out == ""


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
])
def test_zero_mass_stationary_law_is_usage_error(capsys, recwarn, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    model = args[args.index("--model") + 1]
    assert f"{model} is a degenerate bias" in err and "zero stationary mass" in err
    assert not recwarn.list


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
    code, out, err = run_cli(["exact", "--chain", "nn", "--model", "constant:0.7", "--n", "9"], capsys)
    assert code == 3
    assert "362880 states at n=9 exceed the cap" in err
    assert out == ""


@pytest.mark.parametrize("chain, n", [("walk", None), ("walk", "4"), ("walk-transposition", None)])
def test_walk_rows_report_the_half_size(capsys, chain, n):
    args = ["exact", "--chain", chain, "--model", "slowmix:4"] + (["--n", n] if n else [])
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[1][0] == "4"
