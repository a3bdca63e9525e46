"""``tools/bench_pairs.summarize`` on synthetic pairs: medians, wins, ratios,
the bound flags read from BENCHMARK.json's end-to-end entries, and whether a
gain lies beyond the parent's quartile spread."""
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


@pytest.mark.parametrize("better, parent, change, beyond", [
    # the parent's quartiles are 0.9 and 1.1: a change median of 0.95 lies
    # inside them, 0.85 below q1, and 1.25 on the worse side
    ("lower", [0.8, 0.9, 1.0, 1.1, 1.2], [0.95] * 5, False),
    ("lower", [0.8, 0.9, 1.0, 1.1, 1.2], [0.85] * 5, True),
    ("lower", [0.8, 0.9, 1.0, 1.1, 1.2], [1.25] * 5, False),
    ("higher", [0.8, 0.9, 1.0, 1.1, 1.2], [1.05] * 5, False),
    ("higher", [0.8, 0.9, 1.0, 1.1, 1.2], [1.15] * 5, True),
    ("higher", [0.8, 0.9, 1.0, 1.1, 1.2], [0.75] * 5, False),
])
def test_a_gain_must_lie_beyond_the_parent_spread(better, parent, change, beyond):
    metric = {"name": "m", "unit": "1", "better": better, "bound": 0.25}
    pairs = [{"parent": {"metrics": {"m": p}}, "change": {"metrics": {"m": c}}} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, [metric])["m"]
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == pytest.approx((0.9, 1.1))
    assert summary["beyond_parent_spread"] is beyond
