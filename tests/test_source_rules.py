"""Source rules read with the standard library's ``ast``.

``python -O`` strips ``assert``, so control flow in the package never
relies on it; an import must be used (``__init__.py`` re-exports
excepted); and every top-level function and class of the package is
referenced somewhere in the package, so code with no caller outside the
tests goes.  Every ``np.unique`` asks for a ``return_*`` array: without
one, numpy checks for a masked array and so imports ``numpy.ma``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptrisk"


def parsed(*roots):
    return {
        path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
        for root in roots
        for path in sorted(root.rglob("*.py"))
    }


def test_no_assert_statements_in_package():
    hits = [
        f"{path}:{node.lineno}"
        for path, tree in parsed(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


def test_no_unused_imports():
    hits = []
    for path, tree in parsed(PACKAGE, ROOT / "tests").items():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                hits += [
                    f"{path}:{node.lineno} {bound}"
                    for alias in node.names
                    if (bound := (alias.asname or alias.name).split(".")[0]) not in used
                ]
    assert hits == []


def test_every_top_level_definition_is_referenced_in_package():
    trees = parsed(PACKAGE)
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    hits = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert hits == []


def test_every_np_unique_passes_a_return_keyword():
    hits = [
        f"{path}:{node.lineno}"
        for path, tree in parsed(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and not any(
            (k.arg or "").startswith("return_") and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords
        )
    ]
    assert hits == []
