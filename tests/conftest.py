import pytest

from permchains.trees import LeagueTree
from permchains.verify import demo_tree as _demo_tree


@pytest.fixture(scope="session")
def demo_tree() -> LeagueTree:
    """Nine-player league tree: two leagues with nested tiers."""
    return _demo_tree()
