"""Model builders shared by the test modules.

They live here, not in ``conftest.py``, because ``perfbench/tests`` has a
``conftest`` module of its own and only one module of that name can be
imported by name in a pytest run.
"""
from permchains.trees import LeagueTree, truncate_tree
from permchains.verify import _cyw as cyw_spec  # noqa: F401
from permchains.verify import demo_tree


def truncate_tree_demo(n: int) -> LeagueTree:
    return truncate_tree(demo_tree(), n)
