"""
Golden pins: sha256 fingerprints of seeded trajectories, exact one-step rows,
the slow-mixing bottleneck report and the canonical-path reports.

The sample configs are the seven ``sample`` jobs of the benchmark; the row
configs are small spaces of every kernel.  A change to the kernels that keeps
their laws and their draw order leaves every digest unchanged, and a change
to how a report is computed leaves its CSV bytes unchanged.
"""
import hashlib

import pytest

from permchains.bias import CywSpec, SlowMixSpec, choose_your_weapon, constant_bias, parse_model_spec, solve_delta
from permchains.chains import (
    AsepChain,
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    TreeChain,
    WalkChain,
    WalkTranspositionChain,
    build,
    run,
)
from permchains.cli import main
from permchains.trees import complete_tree, truncate_tree
from permchains.verify import _cyw, demo_tree

STEPS = 2_000
STRIDE = 100

# kind -> (model, --n)
SAMPLE_CONFIGS = {
    "nn": ("constant:0.7", 8),
    "inv": ("cyw:0.6,0.65,0.7,0.75,0.8,0.85,0.9", None),
    "tree": ("constant:0.7", 8),
    "oned": ("oned:0.6,20", None),
    "asep": ("asep:0.6,6,6", None),
    "walk": ("slowmix:8", None),
    "walk-transposition": ("slowmix:8", None),
}

SAMPLE_PINS = {
    ("nn", 0): "9cdd74c99f3782bb6601bbfe92c0225933c5397c3349c979f87757beddae16c1",
    ("nn", 1): "599f9207f17bdb1e41f87a3f0227b840961dbdea7a9f28b3029a8a8e172c5390",
    ("inv", 0): "c7b3e2ede8c22f9321515ce0f1023a32ef72ff3830146058d49d4d3e16b99700",
    ("inv", 1): "de25057695381b0672b03772f017e08df8788af56a472c852327069ec56f900a",
    ("tree", 0): "310bd546d2c3d47d1871045506f142f9dbf6f5992dd483d25d1a706c6cb0689d",
    ("tree", 1): "b760e7bc55cd97b9d7de28511626d53e06e9e73e7dcfe6430f49b13a352f6453",
    ("oned", 0): "cf3bc0fa82f7bebf7d8f3f4c4799bec107305132a6c048ac2814e881fc498af1",
    ("oned", 1): "8b829090cfadb95fe2cc9d5d4dd3b599c8b442cd07a5bb54d8a05ee96009c652",
    ("asep", 0): "f687ae820f9e0d0f1e6bf1ad44617a66dbc6c362c5aa615e53d62fa1bccbec6b",
    ("asep", 1): "b8a9231d9bccb5314072deacada33bf93dd0e768817730411758e2b29bb6bea9",
    ("walk", 0): "79c4101d38c6ed7b4ca793751cfe6516d582df108a997ff7bd169e331b3ed750",
    ("walk", 1): "6f368f3a20988d8313afa374542fbbc5b46bee1a18a075289f9a20bd335fac81",
    ("walk-transposition", 0): "32b1d4d44334e7345eae63212fc352053029e4382d84600be0cfccb90c3167d5",
    ("walk-transposition", 1): "c54b511ed56b610f57a591bdec86c1cc8755a3cd8e7c90d213ec2f3d04d750a8",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def sample_digest(kind: str, seed: int) -> str:
    model, n = SAMPLE_CONFIGS[kind]
    kernel = build(kind, parse_model_spec(model), n)
    traj = run(kernel, kernel.default_start(), STEPS, seed, stride=STRIDE)
    return _digest((traj.final_state, traj.moves, traj.records))


def _slowmix(n: int) -> SlowMixSpec:
    return SlowMixSpec(n=n, delta=solve_delta(n))


ROW_KERNELS = {
    "nn-constant": lambda: NearestNeighborChain(constant_bias(4, "0.7")),
    "nn-cyw": lambda: NearestNeighborChain(choose_your_weapon(_cyw(4))),
    "nn-deterministic": lambda: NearestNeighborChain(constant_bias(4, 1)),
    "inv-min": lambda: InversionChain(_cyw(5)),
    "inv-max": lambda: InversionChain(CywSpec(r=_cyw(5).r, variant="max")),
    "tree-demo": lambda: TreeChain(truncate_tree(demo_tree(), 5)),
    "tree-complete": lambda: TreeChain(complete_tree(5, "0.7")),
    "oned-interior": lambda: OnedChain("0.6", 6),
    "oned-deterministic": lambda: OnedChain(1, 4),
    "asep": lambda: AsepChain("0.7", 3, 3),
    "walk-fluctuating": lambda: WalkChain.fluctuating(_slowmix(5)),
    "walk-constant": lambda: WalkChain.constant(5, "0.75"),
    "walk-transposition": lambda: WalkTranspositionChain(_slowmix(5)),
}

ROW_PINS = {
    "nn-constant": "3c4d0e36015ed7be6289bf8da8ef52d80c78d2f98e59d96edd0f6b0570dd5a3e",
    "nn-cyw": "27543afe8f90230a0d668b0014d1da9fc69afdd7646791c4aa026f56a60fa771",
    "nn-deterministic": "cdf28fdd5a8edb10e14eb11f16e62a73e948c8e7d85856d55e19b96c7a5e2617",
    "inv-min": "33611da9768f70b1e1e9ab5965e47db4c99d647eadc3ef540e5254d1d6704fad",
    "inv-max": "67ba435d6b33cdbd12ba6f7e17f39c5863e22ffb4f1dc0946fcfaf9ab76176f3",
    "tree-demo": "e2b69dd6e68d693c1e0531f34be967da072a9eb98ba7509bd5838e36025b1cf7",
    "tree-complete": "292cd52719abebe9d4f2adcf2379c507192cf885b0165b742b7d1f61c441c8ec",
    "oned-interior": "32c5a805030692c532da29aadcc75416569255c867d0ffa28e5f0bc289d53ac2",
    "oned-deterministic": "da6cc125ecf7c04f894e85669d147a7df593d28f25f234ee2cdba65d7cd80e2c",
    "asep": "66a11c52f06c4e8139e47accc080a7728469d428a00d19d76a87f910063a0395",
    "walk-fluctuating": "b9e750366d1202b34ee2a757807bcd1885802728c7f6ddaf2df2e8de3f3c75f6",
    "walk-constant": "3828a9f1374b6fdaaa4764b9ae72215b6a37377a7949a8032949e53425d1e987",
    "walk-transposition": "23925e60e5268a932b81eb6acea090997d4ab6993f8a2cf1ac41be5d5ab658f8",
}


def rows_digest(name: str) -> str:
    kernel = ROW_KERNELS[name]()
    rows = [
        sorted((t, p) for t, p in kernel.transition_distribution(s).items() if p)
        for s in kernel.space()
    ]
    return _digest(rows)


@pytest.mark.parametrize("kind", sorted(SAMPLE_CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_sample_trajectory_pinned(kind, seed):
    assert sample_digest(kind, seed) == SAMPLE_PINS[(kind, seed)]


@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
def test_exact_rows_pinned(name):
    assert rows_digest(name) == ROW_PINS[name]


SLOWMIX_PIN = "cb7f06eacfbc99edbeaf8e5016f51822a66735d7f906637565140e321a285984"


def test_slowmix_report_pinned(capsys):
    assert main(["slowmix", "--n-range", "4:7"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SLOWMIX_PIN


PATHS_PINS = {
    "inv": "d26da0d0da940707867da2ed466b10958fab33864ed6ab78cafeb7ed439655b4",
    "tree": "1332a183c608966a64a413b464e951ffea593a5958661ccceddf079986fbd49b",
}


@pytest.mark.parametrize("kind", sorted(PATHS_PINS))
def test_paths_report_pinned(kind, tmp_path, capsys):
    if kind == "inv":
        args = ["paths", "--kind", "inv", "--model", "cyw:0.6,0.7,0.8,0.9", "--n", "5"]
        tree_file = None
    else:
        tree_file = tmp_path / "tree5.json"
        tree_file.write_text(truncate_tree(demo_tree(), 5).to_json())
        args = ["paths", "--kind", "tree", "--model", f"league:{tree_file}"]
    assert main(args) == 0
    # the config line and the model column echo the tree's file path
    body = "".join(
        line for line in capsys.readouterr().out.splitlines(keepends=True) if not line.startswith("#")
    )
    if tree_file is not None:
        body = body.replace(str(tree_file), "<tree>")
    assert hashlib.sha256(body.encode()).hexdigest() == PATHS_PINS[kind]
