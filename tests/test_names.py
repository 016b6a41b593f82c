"""Every module-level name of the package has a use: one that nothing reads
is dead code, a table or global that no longer has a source of truth to
keep."""
import ast
from pathlib import Path

import iockit

_SRC = Path(iockit.__file__).resolve().parent
_PERFBENCH = _SRC.parents[1] / "perfbench"


def _defined(statement: ast.stmt) -> set[str]:
    """The module-level names a top-level statement binds by definition or
    assignment (imports excluded), including inside top-level if/try."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {
            node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)
        }
    if isinstance(statement, (ast.If, ast.Try)):
        nested = statement.body + statement.orelse + getattr(statement, "finalbody", [])
        nested += [s for handler in getattr(statement, "handlers", []) for s in handler.body]
        return set().union(*map(_defined, nested))
    return set()


def _referenced(node: ast.AST) -> set[str]:
    """The names ``node`` reads: loaded names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unread_names() -> list[str]:
    """``module.name`` for each module-level name of ``src/iockit/*.py`` that
    nothing in the package or the benchmark reads outside the statements
    defining it, that ``iockit.__all__`` does not export and that is not a
    dunder."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))}
    read = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        read |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    defined = []
    for path, tree in modules.items():
        for statement in tree.body:
            names = _defined(statement)
            # A statement's reads of the names it defines are not uses.
            read |= _referenced(statement) - names
            defined += [(path.stem, name) for name in names]
    return sorted(
        f"{module}.{name}" for module, name in defined
        if name not in read
        and name not in iockit.__all__
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_module_level_name_is_read():
    assert unread_names() == []
