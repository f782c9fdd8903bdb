"""Layout of the package source and its tests, read with ``ast`` alone: no
module of the package or of the tests imports a name it does not use, and
every public top-level function or class is used by code somewhere in the
package, outside its own body and ``__init__``.  A name counts as used where
it is read in code (a bare name or an attribute); docstrings, comments and
re-exports do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(folder: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(folder.glob("*.py"))}


MODULES = _parse(ROOT / "src" / "fbmbt")
TESTS = _parse(ROOT / "tests")


def _names_read(node: ast.AST) -> set[str]:
    """Every bare name and attribute name read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _imported(tree: ast.Module) -> list[str]:
    """The names an import binds in the module, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{folder}/{module}.{name}"
        for folder, modules in (("src", MODULES), ("tests", TESTS))
        for module, tree in modules.items() if module != "__init__"
        for name in _imported(tree) if name not in _names_read(tree)
    ]
    assert unused == []


def test_every_public_definition_is_used_in_the_package():
    used = set()
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            names = _names_read(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    unused = [
        f"{module}.{stmt.name}"
        for module, tree in MODULES.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in used
    ]
    assert unused == []
