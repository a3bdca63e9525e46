"""Tests of the benchmark's own arithmetic and checks (not of permchains)."""
import json

import pytest

import checks
import run
import spans

SMALL_EXACT = run.Job("exact.small", ["exact", "--chain", "nn", "--model", "constant:0.75", "--n-range", "3:4"])


def _small_output():
    from permchains import cli

    result = run.run_job(cli.main, SMALL_EXACT)
    assert result.rc == 0
    return result.stdout


def test_self_times_on_synthetic_span_tree():
    #   root [0, 10]
    #     a [1, 4]      a1 [2, 3]
    #     b [5, 9]      b1 [6, 7], b2 [6.5, 8] overlaps b1, b3 [8.5, 12] overruns b
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5, 8.5]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 12.0]
    parents = [-1, 0, 1, 0, 3, 3, 3]
    selfs = spans.self_times(starts, ends, parents)
    # b's children cover [6, 8] and [8.5, 9] once each
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 3.5])


def test_self_times_of_nested_spans_add_up_to_the_root():
    starts = [0.0, 0.5, 0.75, 2.0, 2.25, 2.5]
    ends = [4.0, 1.5, 1.0, 3.5, 2.4, 3.0]
    parents = [-1, 0, 1, 0, 3, 3]
    assert sum(spans.self_times(starts, ends, parents)) == pytest.approx(4.0)


def test_inclusive_time_counts_a_recursive_call_once():
    names = ["root", "f", "f", "g"]
    starts = [0.0, 1.0, 1.5, 3.0]
    ends = [5.0, 2.0, 1.75, 4.0]
    parents = [-1, 0, 1, 0]
    total = spans.inclusive_times(names, starts, ends, parents)
    assert total == {"root": 5.0, "f": 1.0, "g": 1.0}


REFERENCE = "# config: x\nn,tau,gap,ratio,label\n3,5,0.25,3/4,all-starts\n"


def test_column_comparison_accepts_equal_outputs_and_float_noise():
    assert checks.compare_columns(REFERENCE, REFERENCE) == []
    assert checks.compare_columns(REFERENCE.replace("0.25", "0.25000000000001"), REFERENCE) == []


@pytest.mark.parametrize("old,new", [
    ("0.25", "0.2501"),        # float beyond the tolerance
    (",5,", ",5.0,"),          # integer written as a float
    ("3/4", "0.75"),           # Fraction written as a float
    ("all-starts", "all-start"),
    ("config: x", "config: y"),
    ("all-starts\n", "all-starts\n4,16,0.1,1/2,x\n"),
])
def test_column_comparison_rejects(old, new):
    assert checks.compare_columns(REFERENCE.replace(old, new), REFERENCE)


def test_corrupted_reference_counts_as_a_failed_job(monkeypatch):
    output = _small_output()
    good_refs = {SMALL_EXACT.name: output}
    bad_refs = {SMALL_EXACT.name: output.replace(",16,", ",17,")}
    assert bad_refs[SMALL_EXACT.name] != output

    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.5)
    for refs, failed in ((good_refs, 0), (bad_refs, 1)):
        monkeypatch.setattr(run, "build_inputs", lambda workload, seed, refs=refs: ([SMALL_EXACT], refs))
        metrics, report = run.measure("exact-perm", 0, seconds=0, trace=False)
        assert report["attempted"] == 1
        assert len(report["failures"]) == failed
        assert metrics["wall_s"] > 0


def test_failing_exit_code_counts_as_a_failed_job(monkeypatch):
    bad = run.Job("exact.bad", ["exact", "--chain", "nn", "--model", "constant:1.5", "--n", "3"])
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 0.5)
    monkeypatch.setattr(run, "build_inputs", lambda workload, seed: ([bad], {bad.name: ""}))
    _, report = run.measure("exact-perm", 0, seconds=0, trace=False)
    assert report["failures"] and report["failures"][0].startswith("exact.bad: exit ")


def test_sample_validity_at_any_seed():
    from permchains import cli

    job = run.Job("sample.nn", ["sample", "--chain", "nn", "--model", "constant:0.7", "--n", "5",
                                "--steps", "500", "--stride", "100", "--seed", "11"], "nn", 500, {"n": 5})
    result = run.run_job(cli.main, job)
    assert result.rc == 0
    assert checks.check_sample(result.stdout, "nn", 500, 100, 11, {"n": 5}) == []
    assert checks.check_sample(result.stdout, "nn", 500, 100, 12, {"n": 5})  # wrong seed echo
    final = next(line for line in result.stdout.splitlines() if line.startswith("# final-state"))
    broken = result.stdout.replace(final, "# final-state: 11345")
    assert any("final state" in p for p in checks.check_sample(broken, "nn", 500, 100, 11, {"n": 5}))
    moves = next(line for line in result.stdout.splitlines() if line.startswith("# moves-accepted"))
    broken = result.stdout.replace(moves, "# moves-accepted: 501")
    assert any("moves-accepted" in p for p in checks.check_sample(broken, "nn", 500, 100, 11, {"n": 5}))
    broken = result.stdout.replace("\n500,", "\n600,")
    assert checks.check_sample(broken, "nn", 500, 100, 11, {"n": 5})


@pytest.mark.parametrize("kind,text,size,ok", [
    ("walk", "-11-11", {"n": 2}, True),
    ("walk", "-1-1-11", {"n": 2}, False),
    ("asep", "0101", {"k1": 2, "k2": 2}, True),
    ("asep", "0111", {"k1": 2, "k2": 2}, False),
    ("oned", "20", {"k": 20}, True),
    ("oned", "21", {"k": 20}, False),
    ("tree", "3142", {"n": 4}, True),
    ("inv", "3144", {"n": 4}, False),
])
def test_final_state_spaces(kind, text, size, ok):
    assert (checks._final_state_problem(kind, text, size) is None) is ok


def test_traced_run_restores_bindings_and_self_times_add_up():
    from permchains import analysis, bias, chains, cli

    before = (cli.transition_matrix, analysis.transition_matrix, bias.weight_exact,
              chains.NearestNeighborChain.transition_distribution, bias.solve_delta)
    untraced = _small_output()
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        assert cli.transition_matrix is not before[0]
        assert cli.transition_matrix is analysis.transition_matrix
        _, (traced,) = run.run_rep(spans.timed(rec, "cli.main", cli.main), [SMALL_EXACT], rec)
    finally:
        patches.restore()
    after = (cli.transition_matrix, analysis.transition_matrix, bias.weight_exact,
             chains.NearestNeighborChain.transition_distribution, bias.solve_delta)
    assert all(a is b for a, b in zip(before, after))
    assert traced.stdout == untraced
    metrics, ((wall, self_sum),) = run.layer_metrics(rec)
    assert self_sum == pytest.approx(wall, abs=run.SELF_SUM_TOL_S)
    assert metrics["cli.main.self_s"] < wall
    assert metrics["chains.nn.transition_distribution.calls"] == 6 + 24
    assert metrics["perms.all_permutations.states"] == 6 + 24
    assert metrics["analysis.spectral_gap.dim"] == 6 + 24
    assert metrics["analysis.transition_matrix.self_s"] < metrics["analysis.transition_matrix.s"]


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
