"""Static checks on the package source: no unused import, every name in a
module's __all__ defined by that module, no scipy import at module level,
scipy's Bessel ive reached from specfun alone, sector admissibility and the
angular mode formula reached from model alone, propagator's sector box walked
once, in _sector_blocks, float overflow of the polynomial recurrences
silenced and reported by the two profiles alone, the CLI's 17-digit
float format written in _fmt and _MARKS alone, table row cells rendered
in _block_text alone, and every function the benchmark's traced run wraps
still present.

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


def test_only_specfun_reaches_scipy_ive():
    # the Bessel path is coded once: every other module takes ln I_nu from
    # specfun, which alone handles the float range around scipy's ive
    def reaches_ive(tree):
        return any((isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
                    and any(alias.name == "ive" for alias in node.names))
                   or (isinstance(node, ast.Attribute) and node.attr == "ive")
                   or (isinstance(node, ast.Constant) and node.value == "ive")
                   for node in ast.walk(tree))

    users = [path.name for path in SOURCES if reaches_ive(ast.parse(path.read_text()))]
    assert users == ["specfun.py"], f"scipy's ive is reached from {users}; take ln I_nu from specfun"


def test_only_model_reaches_sector_and_angular():
    # sector admissibility and the angular mode formula are coded once:
    # every other module reads a sector through model's public functions
    private = {"_sector", "_angular"}

    def reaches(tree):
        return any((isinstance(node, ast.Name) and node.id in private)
                   or (isinstance(node, ast.alias) and node.name in private)
                   or (isinstance(node, ast.Attribute) and node.attr in private)
                   or (isinstance(node, ast.Constant) and node.value in private)
                   for node in ast.walk(tree))

    users = [path.name for path in SOURCES if reaches(ast.parse(path.read_text()))]
    assert users == ["model.py"], f"model._sector or model._angular is reached from {users}; read sectors through model"


def test_propagator_walks_the_sector_box_once():
    # the kernel sums read every sector from one walk, _sector_blocks; a
    # second read (of the corner sector for the radial box, say) would code
    # again what the walk already knows
    tree = ast.parse((ROOT / "src" / "ncosc" / "propagator.py").read_text())
    walk = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_sector_blocks")

    def names(node, name):
        return sum((isinstance(sub, ast.Name) and sub.id == name)
                   or (isinstance(sub, ast.Attribute) and sub.attr == name)
                   or (isinstance(sub, ast.alias) and sub.name == name) for sub in ast.walk(node))

    # admissible_sectors: its import, and otherwise only inside the walk
    assert names(tree, "admissible_sectors") == names(walk, "admissible_sectors") + 1 >= 2, (
        "propagator reads admissible_sectors outside _sector_blocks")
    assert names(tree, "admissible_ell") == 0, "propagator names admissible_ell; take ell_tilde from _sector_blocks"


def test_only_the_profiles_silence_overflow():
    # the Laguerre and Jacobi overflow checks are coded once, each in the
    # profile that computes the polynomials; any other np.errstate(over=...)
    # would hide an overflow that nothing reports
    owners = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "errstate" and any(kw.arg == "over" for kw in node.keywords)]
    assert sorted(owners) == ["spectrum.angular_profiles", "spectrum.radial_factors"], (
        f"np.errstate(over=...) is called in {owners}; report overflow in the profile that computes it")


def test_only_enumerate_states_builds_unchecked_records():
    # tuple.__new__ makes a QuantumNumbers without its checks; only the
    # enumeration, whose quantum numbers come from range(), may skip them
    def uses(tree):
        return sum(isinstance(node, ast.Attribute) and node.attr == "__new__"
                   and isinstance(node.value, ast.Name) and node.value.id == "tuple" for node in ast.walk(tree))

    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    enum = next(node for node in trees["spectrum"].body
                if isinstance(node, ast.FunctionDef) and node.name == "enumerate_states")
    found = {name: n for name, tree in trees.items() if (n := uses(tree))}
    assert uses(enum) and found == {"spectrum": uses(enum)}, f"tuple.__new__ is used outside enumerate_states: {found}"


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


def test_the_one_global_statement_is_the_closed_kernel_memo():
    # module state is one reviewed memo: radial_kernel_closed keeps its last
    # call's invariants; any other memo needs a decision of its own
    found = []
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, func.name, tuple(node.names)) for node in ast.walk(func)
                          if isinstance(node, ast.Global)]
    assert found == [("propagator", "radial_kernel_closed", ("_closed_memo",))], (
        f"global statements under src/ncosc: {found}")


def test_cli_renders_floats_in_fmt_alone():
    # the 17-digit format is written in _fmt, for one value, and in _MARKS,
    # for the row templates; a _Rendered cell holds _fmt's own text
    tree = ast.parse((ROOT / "src" / "ncosc" / "cli.py").read_text())

    def owner(node):
        if isinstance(node, ast.Assign):
            return ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        return getattr(node, "name", "")

    owners = {owner(node) for node in tree.body for sub in ast.walk(node)
              if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "17g" in sub.value}
    assert owners == {"_fmt", "_MARKS"}, f"the 17-digit format is written in {sorted(owners)}"

    marks = next(node for node in tree.body if owner(node) == "_MARKS")
    allowed = {id(sub) for sub in ast.walk(marks)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            allowed |= {id(arg) for arg in node.args[1:]}
        if isinstance(node.func, ast.Name) and node.func.id == "_Rendered":
            (arg,) = node.args
            assert isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "_fmt", (
                f"cli.py line {node.lineno}: _Rendered wraps {ast.unparse(arg)}, not a _fmt call")
            allowed.add(id(node.func))
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_Rendered" and id(node) not in allowed]
    assert not stray, f"cli.py names _Rendered outside a _Rendered(_fmt(...)) call, _MARKS or isinstance: lines {stray}"


def test_only_the_block_writer_renders_row_cells():
    # the per-cell rules render a row cell only inside _block_text, for a
    # column that no % conversion prints; _json_value also renders the
    # table head in _table_text and its own nested values
    tree = ast.parse((ROOT / "src" / "ncosc" / "cli.py").read_text())
    owners = {rule: sorted({getattr(top, "name", f"line {top.lineno}") for top in tree.body for node in ast.walk(top)
                            if isinstance(node, ast.Name) and node.id == rule})
              for rule in ("_cell", "_json_value")}
    assert owners == {"_cell": ["_block_text"], "_json_value": ["_block_text", "_json_value", "_table_text"]}, (
        f"cli.py names the per-cell rules in {owners}; render row cells in _block_text")
