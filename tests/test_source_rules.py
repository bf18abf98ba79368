"""Rules on the program's source text."""

import ast
import re
from pathlib import Path

SOURCE_DIR = Path(__file__).parent.parent / "src" / "floermini"


def _trees(directory=SOURCE_DIR):
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(directory.glob("*.py"))}
    assert trees, f"no sources under {directory}"
    return trees


def test_no_assert_statements():
    """Runtime invariants raise typed errors: an assert vanishes under
    `python -O`."""
    found = {}
    for path, tree in _trees().items():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert not found, f"assert statements (file: lines): {found}"


def _exported_names(trees):
    """Every name that some `__all__` lists, and both sides of `__init__`'s
    `_EXPORTS` table."""
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if targets & {"__all__", "_EXPORTS"}:
                names |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def _definitions(tree):
    """(name, enclosing class or None) of every function, method and class,
    nested ones included."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.name, owner))
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def test_every_unexported_definition_is_used_in_the_program():
    """A function, method or class that no `__all__` or `_EXPORTS` names is
    named by the program's own code or strings (a call, an attribute, a
    dispatch key, a message), not only by its `def` or `class` line: a
    helper that only tests call belongs in the tests.  Dunder methods are
    called by the language, and `Runner.task_*` by name from the config."""
    trees = _trees()
    exported = _exported_names(trees)
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"\w+", node.value))
    unused = sorted(
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name, owner in _definitions(tree)
        if name not in named | exported
        and not (name.startswith("__") and name.endswith("__"))
        and not (owner == "Runner" and name.startswith("task_"))
    )
    assert not unused, f"defined but named only outside the program: {unused}"


def _top_level_definitions(tree):
    """Names a module's own top-level statements define: functions,
    classes and assigned names (imports excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _literal(tree, name):
    """The literal value of a top-level `name = ...` assignment, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_export_names_a_definition():
    """Every string in a module's `__all__`, and every (module, attribute)
    target of `__init__._EXPORTS`, names a definition in that module: a
    deleted function must not leave its export entry behind.  `__init__`'s
    own `__all__` is its `_EXPORTS` keys, checked through the targets."""
    trees = {path.stem: tree for path, tree in _trees().items()}
    stale = []
    for module, tree in trees.items():
        exported = _literal(tree, "__all__") if module != "__init__" else None
        defined = _top_level_definitions(tree)
        stale += [f"{module}.__all__: {name}" for name in exported or () if name not in defined]
    targets = _literal(trees["__init__"], "_EXPORTS")
    assert targets
    for name, (module, attr) in targets.items():
        if module not in trees or attr not in _top_level_definitions(trees[module]):
            stale.append(f"__init__._EXPORTS[{name!r}]: {module}.{attr}")
    assert not stale, f"exports that name no definition: {stale}"


def test_every_error_class_is_raised():
    """Each `FloerminiError` subclass is raised somewhere in the program; an
    error class that nothing raises promises a failure mode that does not
    exist."""
    trees = _trees()
    bases = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    errors, grew = {"FloerminiError"}, True
    while grew:
        new = {name for name, parents in bases.items() if parents & errors} - errors
        errors |= new
        grew = bool(new)
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert errors - {"FloerminiError"} - raised == set()


def test_sources_parse_as_python_3_10():
    """pyproject promises Python >= 3.10: no file of the program or of its
    tests may use grammar from a later version."""
    for directory in (SOURCE_DIR, Path(__file__).parent):
        paths = sorted(directory.glob("*.py"))
        assert paths, f"no sources under {directory}"
        for path in paths:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
