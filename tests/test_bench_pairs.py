"""``tools/bench_pairs.summarize`` on synthetic pairs: medians, wins, ratios and
the bound flags read from BENCHMARK.json's end-to-end entries."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _pairs(parent: dict, change: dict, count: int = 10) -> list[dict]:
    """``count`` pairs whose sides read the given metrics, each jittered by the same amount."""
    jitter = [1 + 0.01 * (k - count // 2) for k in range(count)]
    return [
        {side: {"metrics": {name: value * j for name, value in values.items()}}
         for side, values in (("parent", parent), ("change", change))}
        for j in jitter
    ]


def test_a_setup_time_past_its_bound_is_flagged():
    # a sampler twice as fast, and a fresh-import timer 1.34x slower: only the latter breaches
    pairs = _pairs({"wall_s": 1.309, "setup_s": 0.191, "peak_rss_mb": 43.9},
                   {"wall_s": 0.661, "setup_s": 0.256, "peak_rss_mb": 45.6})
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert {name: s["bound"] for name, s in summary.items()} == {m["name"]: m["bound"] for m in END_TO_END}
    assert summary["setup_s"]["ratio_of_medians"] == pytest.approx(0.256 / 0.191)
    assert summary["setup_s"]["beyond_bound"] and summary["setup_s"]["change_wins"] == 0
    assert not summary["wall_s"]["beyond_bound"] and summary["wall_s"]["change_wins"] == 10
    assert summary["wall_s"]["ratio_of_medians"] == pytest.approx(0.661 / 1.309)
    assert not summary["peak_rss_mb"]["beyond_bound"]  # 1.039 against a 0.1 bound


@pytest.mark.parametrize("better, change, beyond", [
    ("lower", 1.26, True),
    ("lower", 1.24, False),
    ("lower", 0.5, False),
    ("higher", 0.74, True),
    ("higher", 0.76, False),
    ("higher", 2.0, False),
])
def test_the_bound_is_read_in_the_worse_direction(better, change, beyond):
    metric = {"name": "m", "unit": "1", "better": better, "bound": 0.25}
    summary = bench_pairs.summarize(_pairs({"m": 1.0}, {"m": change}), [metric])["m"]
    assert (summary["bound"], summary["beyond_bound"]) == (0.25, beyond)
