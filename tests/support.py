"""Model builders shared by the test modules.

They live here, not in ``conftest.py``, because ``perfbench/tests`` has a
``conftest`` module of its own and only one module of that name can be
imported by name in a pytest run.
"""
from fractions import Fraction

from hypothesis import strategies as st

from permchains.bias import CywSpec
from permchains.chains import InversionChain, TreeChain, make_rng
from permchains.trees import LeagueTree, random_tree, truncate_tree
from permchains.verify import _cyw as cyw_spec  # noqa: F401
from permchains.verify import demo_tree


def truncate_tree_demo(n: int) -> LeagueTree:
    return truncate_tree(demo_tree(), n)


def mirrored_spec(spec: CywSpec) -> CywSpec:
    """The same model seen through the relabeling v -> n+1-v."""
    other = "max" if spec.variant == "min" else "min"
    return CywSpec(r=tuple(reversed(spec.r)), variant=other)


@st.composite
def cyw_kernels(draw, max_n: int):
    """Inversion chains of random rational cyw tables, min and max variants."""
    # CywSpec keeps every rank below 1, so 1/2 is the boundary drawn here
    n = draw(st.integers(min_value=2, max_value=max_n))
    ranks = st.fractions(min_value=Fraction(1, 2), max_value=Fraction(99, 100), max_denominator=100)
    r = tuple(draw(st.lists(ranks, min_size=n - 1, max_size=n - 1)))
    return InversionChain(CywSpec(r=r, variant=draw(st.sampled_from(["min", "max"]))))


@st.composite
def league_kernels(draw, max_n: int):
    """Tree chains of random leagues; q = 1 may be drawn, giving zero weights."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    qs = st.sampled_from([Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(9, 10), Fraction(1)])
    q_choices = tuple(draw(st.lists(qs, min_size=1, max_size=3)))
    return TreeChain(random_tree(n, make_rng(draw(st.integers(min_value=0, max_value=2**32))), q_choices))
