"""Layout of the package source and its tests, read with ``ast`` alone: no
module of the package or of the tests imports a name it does not use; every
public top-level function or class is used by code somewhere in the
package, outside its own body and ``__init__``; every public field, method
and property of a class in the package is read somewhere in the package;
every private top-level function, class or module constant is read by
code somewhere in the package, outside its own definition; every
parameter of a ``def`` in the package is read in that function's body; no
module but ``fgn`` reads the helpers that decide how its fGn draws are
padded and chunked; and no code but ``variations._fsum_rows`` calls
``math.fsum`` inside a loop or a comprehension.  A name counts as used
where it is read in code (a bare name or an attribute); docstrings,
comments and re-exports do not count.
Code reads a field, method or property through an attribute, so only
attribute loads count for those, and only loads of a bare name count for a
parameter.  The checks go by name: a member whose name some other read
member shares passes unread."""

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


def _private_names(stmt: ast.stmt) -> list[str]:
    """The private (one leading underscore) names a top-level statement
    defines: a function, a class or an assigned module constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_definition_is_read_in_the_package():
    defined = [(module, stmt, name) for module, tree in MODULES.items()
               for stmt in tree.body for name in _private_names(stmt)]
    unread = []
    for module, own, name in defined:
        read = any(
            (isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load))
            or (isinstance(sub, ast.Attribute) and sub.attr == name)
            for tree in MODULES.values() for stmt in tree.body if stmt is not own
            for sub in ast.walk(stmt)
        )
        if not read:
            unread.append(f"{module}.{name}")
    assert unread == []


def _unread_members(kind) -> list[str]:
    """``module.Class.member`` for every public ``kind`` statement of a class
    body in ``src/`` (``ast.AnnAssign``: a field; ``ast.FunctionDef``: a
    method or property) whose name ``src/`` never loads as an attribute,
    the only way its code reads a member."""
    read = {sub.attr for tree in MODULES.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    members = [
        (f"{module}.{cls.name}", node.target.id if kind is ast.AnnAssign else node.name)
        for module, tree in MODULES.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, kind)
    ]
    return [f"{cls}.{name}" for cls, name in members
            if not name.startswith("_") and name not in read]


def test_every_public_field_is_read_in_the_package():
    assert _unread_members(ast.AnnAssign) == []


def test_every_public_method_is_read_in_the_package():
    assert _unread_members(ast.FunctionDef) == []


def test_every_parameter_is_read_in_its_function():
    unread = []
    for module, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            loaded = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{module}.{fn.name}({name})" for name in params if name not in loaded]
    assert unread == []


# How a block of seeds is padded and cut into fGn chunks is decided in
# ``fgn._path_draws`` alone.
_CHUNK_HELPERS = ("_path_rows", "_padded_size")


def test_only_fgn_reads_its_chunk_helpers():
    readers = [f"{module}.{name}" for module, tree in MODULES.items() if module != "fgn"
               for name in _CHUNK_HELPERS
               if name in _names_read(tree) or name in _imported(tree)]
    assert readers == []


# Correctly rounded row sums have one kernel: only ``variations._fsum_rows``
# calls ``math.fsum`` in a loop, so a block of rows is never summed one
# Python call per row anywhere else.
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _fsum_calls_in_loops(node: ast.AST, where: str, looping: bool = False) -> list[str]:
    """``where`` of every ``fsum`` call under ``node`` made inside a loop or a
    comprehension, ``where`` being the dotted path of its enclosing
    definitions."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        elif isinstance(child, ast.Call) and looping and "fsum" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)):
            found.append(where)
        found += _fsum_calls_in_loops(child, inner, looping or isinstance(child, _LOOPS))
    return found


def test_only_fsum_rows_calls_fsum_in_a_loop():
    calls = [where for module, tree in MODULES.items()
             for where in _fsum_calls_in_loops(tree, module)]
    assert [where for where in calls if not where.startswith("variations._fsum_rows")] == []
    assert "variations._fsum_rows" in calls
