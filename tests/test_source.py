"""Properties of the package source itself, and of the README's code."""

import ast
from pathlib import Path

import ultrafraisse

PACKAGE = Path(ultrafraisse.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_no_assert_statements():
    """Self-checks raise explicitly, so `python -O` keeps them."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_imports(body):
    """The import statements a module runs on import: its top level and
    the `try`/`if` blocks there, not function or class bodies."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, field, ()))


def test_module_imports_are_used():
    """Every name a module-level import binds is read in its module;
    `__init__.py` binds its names to re-export them."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_imports_are_module_level():
    """No import runs inside a function or class body, so no call pays
    importlib's lookup."""
    nested = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []



_WRAPPED = "perfbench/layers.py wraps it by name, and a traced run fails when a name is gone"
# functions no command reaches, each with the reason it stays in the package
_UNCALLED = {
    ("balltree.py", "children"): _WRAPPED,
    ("balltree.py", "leafset"): _WRAPPED,
    ("cli.py", "lift_certificate_payload"): _WRAPPED,
    ("generic.py", "lift_through_generic"): _WRAPPED,
    ("sequences.py", "apply_sequence_arrow"): _WRAPPED,
    ("serial.py", "dumps"): _WRAPPED,
    ("serial.py", "loads"): _WRAPPED,
    ("serial.py", "sliced_from_json"): _WRAPPED,
    ("generic.py", "brute_force_lift_oracle"): "the exhaustive cross-check a `lift` command is to run",
}


def test_every_function_has_a_caller_in_the_package():
    """Every module-level function and method is read by name somewhere in
    the package outside its own body, so code that only tests reach lives
    under tests/.  A module-level function is read through its bare name or
    as `<package module>.<name>`, so `json.loads` does not call
    `serial.loads`; a method, through any read of its name.  Dunders and
    `main` are entry points.  The allowlist holds exactly the uncalled
    names: an entry that gains a caller must leave it."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    defs, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            body = node.body if is_class else [node]
            defs += [(path.name, d, is_class) for d in body if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                reads.append((path.name, node.id, node.lineno, True))
            elif isinstance(node, ast.Attribute):
                via_module = isinstance(node.value, ast.Name) and node.value.id in modules
                reads.append((path.name, node.attr, node.lineno, via_module))
    uncalled = {
        (file, d.name)
        for file, d, is_method in defs
        if d.name != "main" and not (d.name.startswith("__") and d.name.endswith("__"))
        and not any(
            n == d.name and (is_method or reaches) and not (f == file and d.lineno <= line <= d.end_lineno)
            for f, n, line, reaches in reads
        )
    }
    assert uncalled == set(_UNCALLED)


def test_readme_quick_start_runs():
    """The README's library quick start runs as written."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
