import pytest

from permchains.trees import LeagueTree, truncate_tree
from permchains.verify import _cyw as cyw_spec  # noqa: F401  (shared with the test modules)
from permchains.verify import demo_tree as _demo_tree


@pytest.fixture(scope="session")
def demo_tree() -> LeagueTree:
    """Nine-player league tree: two leagues with nested tiers."""
    return _demo_tree()


def truncate_tree_demo(n: int) -> LeagueTree:
    return truncate_tree(_demo_tree(), n)
