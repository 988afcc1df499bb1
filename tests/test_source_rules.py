"""Source rules read with the standard library's ``ast``.

``python -O`` strips ``assert``, so control flow in the package never
relies on it; an import must be used (``__init__.py`` re-exports
excepted); and every top-level function and class of the package is
referenced somewhere in the package, so code with no caller outside the
tests goes.  Every ``np.unique`` asks for a ``return_*`` array: without
one, numpy checks for a masked array and so imports ``numpy.ma``.  Every
``raise`` re-raises or raises a ``PtriskError`` subclass, so no input
error reaches the CLI as an internal error (exit 3).  Only ``rng.py``
builds numpy generators, so every draw comes from an addressed substream,
and it seeds them through numpy's public API alone.  In ``report.py``
only ``_publish`` writes, moves or deletes a file, so every bundle file
goes out through one path.  The presorted tree grower sorts nothing: its
one stable argsort per fit is ``rank_codes``'.  No function of
``parsers.py``, ``curation.py`` or ``evaluation.py`` has a parameter
default, so a setting's one default is its config dataclass field.
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


RNG_CONSTRUCTORS = {"SeedSequence", "PCG64", "Generator", "default_rng", "RandomState", "seed"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _touches_bit_generator_module(node):
    if isinstance(node, ast.Attribute):
        return _dotted(node) in ("np.random.bit_generator", "numpy.random.bit_generator")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random.bit_generator") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random.bit_generator") or (
            module == "numpy.random" and any(alias.name == "bit_generator" for alias in node.names)
        )
    return False


def test_only_rng_module_builds_numpy_generators():
    # every draw comes from an addressed substream: no other module calls a
    # numpy.random constructor or imports one (annotations are not calls),
    # and no module, rng.py included, reaches into numpy.random.bit_generator,
    # whose internals numpy's public API does not cover
    hits = []
    for path, tree in parsed(PACKAGE).items():
        hits += [f"{path}:{node.lineno} bit_generator" for node in ast.walk(tree) if _touches_bit_generator_module(node)]
        if path.name == "rng.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                parts = _dotted(node.func).split(".")
                if parts[0] in ("np", "numpy") and "random" in parts[1:-1] and parts[-1] in RNG_CONSTRUCTORS:
                    hits.append(f"{path}:{node.lineno} {'.'.join(parts)}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
                hits += [f"{path}:{node.lineno} {alias.name}" for alias in node.names if alias.name in RNG_CONSTRUCTORS]
    assert hits == []


def _enclosed(node, kind, function=None):
    """(name of the enclosing function, node) for every ``kind`` node under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _enclosed(child, kind, inner)


def test_every_raise_names_a_package_error():
    # the one exception: the ValueError of config.py's INI value parsers,
    # which ``_overrides`` turns into a ConfigError naming the key
    trees = parsed(PACKAGE)
    classes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    package_errors = {"PtriskError"}
    while True:
        found = {
            node.name
            for node in classes
            if any(isinstance(base, ast.Name) and base.id in package_errors for base in node.bases)
        }
        if found <= package_errors:
            break
        package_errors |= found
    config = Path("src", "ptrisk", "config.py")
    value_parsers = {
        node.args[3].id
        for node in ast.walk(trees[config])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Setting"
    }
    hits = []
    for path, tree in trees.items():
        for function, node in _enclosed(tree, ast.Raise):
            if node.exc is None:
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(raised, "id", None) or getattr(raised, "attr", None)
            if name in package_errors:
                continue
            if path == config and function in value_parsers and name == "ValueError":
                continue
            hits.append(f"{path}:{node.lineno} {name}")
    assert hits == []


FILE_WRITES = {
    "mkdtemp", "write_text", "write_bytes", "open", "unlink", "rmtree", "mkdir", "touch", "rmdir", "remove", "rename", "move"
}


def test_report_writes_files_only_in_publish():
    # one publish path: in report.py only _publish makes the staging
    # directory and writes, moves or deletes a file
    report = Path("src", "ptrisk", "report.py")
    hits = []
    for function, node in _enclosed(parsed(PACKAGE)[report], ast.Call):
        name = _dotted(node.func)
        if function != "_publish" and (name == "os.replace" or name.split(".")[-1] in FILE_WRITES):
            hits.append(f"{report}:{node.lineno} {name} in {function}")
    assert hits == []


SORTS = {"sort", "sorted", "argsort", "lexsort", "partition", "argpartition"}


def test_presorted_grower_sorts_nothing():
    # each node reads its parent's presorted lists, compressed stably; a
    # per-node sort would undo the presort
    tree_py = Path("src", "ptrisk", "models", "tree.py")
    module = parsed(PACKAGE)[tree_py]
    assert "grow_presorted" in {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
    hits = [
        f"{tree_py}:{node.lineno} {name}"
        for function, node in _enclosed(module, ast.Call)
        if function == "grow_presorted" and (name := _dotted(node.func)).split(".")[-1] in SORTS
    ]
    assert hits == []


SETTING_MODULES = ("parsers.py", "curation.py", "evaluation.py")


def test_setting_modules_have_no_parameter_defaults():
    # the config dataclasses hold every default; a function default here
    # would be a second copy that a run could silently fall back to
    trees = parsed(PACKAGE)
    hits = []
    for name in SETTING_MODULES:
        path = Path("src", "ptrisk", name)
        for function, node in _enclosed(trees[path], ast.arguments):
            positional = node.posonlyargs + node.args
            defaulted = positional[len(positional) - len(node.defaults) :]
            defaulted += [arg for arg, default in zip(node.kwonlyargs, node.kw_defaults) if default is not None]
            hits += [f"{path}:{arg.lineno} {function}({arg.arg}=...)" for arg in defaulted]
    assert hits == []
