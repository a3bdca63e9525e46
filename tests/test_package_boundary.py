"""
Package boundary: every module-level function and class in ``src/permchains``
is reached by package code, as a name or an attribute that some module reads
outside annotations and outside the definition's own body, or as a name the
``__init__`` re-exports.  Helpers that only the tests call live in
``tests/support.py``.

Names are matched bare, without resolving what they bind: an attribute
``x.space`` reaches a module-level ``space`` in any module.  The pin catches a
helper that nothing names, not one whose name is shared.
"""
import ast
from pathlib import Path

import permchains

PACKAGE = Path(permchains.__file__).parent
# perfbench/spans.py wraps paths.verify_path for its per-layer metrics, so it
# stays in the package until the benchmark reads stages the package records
ALLOWED = {"verify_path"}


def _reads(node: ast.AST, aliases: bool):
    """Every name and attribute below ``node`` outside annotations, and with
    ``aliases`` every imported name."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.Attribute):
                yield child.attr
            elif isinstance(child, ast.alias) and aliases:
                yield child.name
            if isinstance(child, ast.AST):
                yield from _reads(child, aliases)


def _unreferenced(package: Path) -> list[str]:
    """module.name of each module-level function or class that no package
    code reaches, in module order; a dunder such as a module ``__getattr__``
    is called by the interpreter."""
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.append((path.stem, node.name))
                own = node.name
            used.update(name for name in _reads(node, path.stem == "__init__") if name != own)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_package_function_and_class_is_reached_by_package_code():
    # the allowlisted names must also still be unreached, so the list shrinks when they move
    assert {name.rpartition(".")[2] for name in _unreferenced(PACKAGE)} == ALLOWED
