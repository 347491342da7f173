"""Static checks on the package source: no unused import, every name in a
module's __all__ defined by that module, no scipy import at module level,
and every function the benchmark's traced run wraps still present.

A small stand-in for pyflakes' F401 and F822, built on ast alone.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ncosc").glob("*.py"))


def _imports(tree: ast.Module, lines: list[str]):
    """(bound name, line) of every import outside __future__ not marked noqa: F401."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                # "import a.b" binds a
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: defs, classes, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_all_names(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree, text.splitlines()) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_names_are_defined(path):
    tree = ast.parse(path.read_text())
    missing = [name for name in _all_names(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name} lists undefined names in __all__: {', '.join(missing)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_scipy_is_imported_on_first_use(path):
    # `import ncosc` loads numpy alone; scipy costs about 0.3 s of import
    # and is needed only by the Bessel kernel, the lattice and the FD oracle
    tree = ast.parse(path.read_text())
    top = [node.lineno for node in tree.body
           if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
           or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")]
    assert not top, f"{path.name} imports scipy at module level (lines {top}); import it where it is used"


def test_traced_names_resolve():
    # perfbench/spans.py wraps these functions by name for the per-layer
    # metrics; a renamed one would fail only a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = set()
    for layer, funcs in spans.TRACED.items():
        module = importlib.import_module(f"ncosc.{layer}")
        for name in funcs:
            assert callable(getattr(module, name, None)), f"ncosc.{layer}.{name} is traced but not a function"
            traced.add(f"{layer}.{name}")
    assert set(spans.KEYED) <= traced
