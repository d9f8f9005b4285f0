"""Every name a module in src/ or tests/ imports is used in that module;
package __init__.py files, which import to re-export, are exempt.  Every
absolute import in src/ names a standard-library module.  Every
module-level private name in src/ is read somewhere in src/.  Every function
the benchmark's span tracer patches still exists in the package.  verify.py
uses no Moebius transform."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in (*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"))
    if p.name != "__init__.py"
)
PACKAGE = ROOT / "src" / "imsetpoly"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # 'import a.b' binds 'a'
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm\n"
        "def f():\n    from random import choice\n    return lcm(1, 2) + len(os.sep)\n"
    )
    assert unused_imports(source) == ["j (line 3)", "gcd (line 4)", "choice (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def non_stdlib_imports(source: str) -> list[str]:
    """The absolute imports whose top-level module is not in the standard
    library; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{m} (line {node.lineno})"
            for m in modules
            if m.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_the_check_finds_non_stdlib_imports():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import setfam\nfrom .setfam import bits_of\n"
        "def f():\n    from scipy.optimize import linprog\n    import json\n"
    )
    assert non_stdlib_imports(source) == ["numpy (line 2)", "scipy.optimize (line 6)"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_the_core_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def _defined_names(stmt) -> list[str]:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (`_x`, not dunders) that nothing reads: not
    their own module outside their definition, and no other module through
    an import or an attribute.  sources maps module names to their text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imported, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                imported.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    orphans = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if not name.startswith("_") or name.endswith("__"):
                    continue
                read_here = any(
                    isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    for other in tree.body if other is not stmt
                    for node in ast.walk(other)
                )
                if not (read_here or (module, name) in imported or name in attributes):
                    orphans.append(f"{module}.{name} (line {stmt.lineno})")
    return orphans


def test_the_check_finds_orphaned_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n_TABLE: dict = {}\n__version__ = '1'\n"
            "def _leftover(x):\n    return _leftover(x - 1) if x else _LIMIT\n"
            "def _imported():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "class _Unused:\n    pass\n"
        ),
        "b": "from .a import _imported\nfrom pkg import a\na._by_attribute()\n",
    }
    assert orphaned_private_names(sources) == [
        "a._TABLE (line 2)", "a._leftover (line 4)", "a._Unused (line 10)",
    ]


def test_no_orphaned_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


TRANSFORMS = ("superset_moebius", "superset_zeta")


def transform_uses(source: str) -> list[str]:
    """The Moebius transforms (TRANSFORMS) a module imports or reads as an
    attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in TRANSFORMS]
    return found


def test_the_check_finds_transform_uses():
    source = (
        "from .encode import eta_of, superset_moebius as moebius\n"
        "from . import encode\n"
        "x = encode.superset_zeta([1], 0)\n"
        "y = encode.superset_butterfly\n"
    )
    assert transform_uses(source) == ["superset_moebius (line 1)", "superset_zeta (line 3)"]


def test_verify_uses_no_moebius_transform():
    # every row reaches the evaluator in c coordinates, a u family through
    # its c twin in constraint._C_TWINS; a transform in verify.py would be a
    # second route from u rows to lanes
    assert transform_uses((PACKAGE / "verify.py").read_text(encoding="utf-8")) == []


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the TRACED table in a tracer source,
    read without importing it; a dotted attribute is Class.method."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [tuple(ast.literal_eval(entry)[:2]) for entry in node.value.elts]
    raise AssertionError("no TRACED table")


def missing_traced_names(names, package: str = "imsetpoly") -> list[str]:
    missing = []
    for module, attribute in names:
        try:
            target = importlib.import_module(f"{package}.{module}")
        except ModuleNotFoundError:
            missing.append(module)
            continue
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attribute}")
    return missing


def test_the_check_finds_missing_traced_names():
    source = (
        "TRACED = (\n"
        '    ("cli", "main", "cli.main"),\n'
        '    ("constraint", "ConstraintSystem.to_json_dict", "x"),\n'
        '    ("constraint", "ConstraintSystem.gone", "y"),\n'
        '    ("nomodule", "f", "z"),\n'
        '    ("setfam", "gone", "w"),\n'
        ")\n"
    )
    assert missing_traced_names(traced_names(source)) == [
        "constraint.ConstraintSystem.gone", "nomodule", "setfam.gone",
    ]


def test_every_traced_name_exists():
    source = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    names = traced_names(source)
    assert names
    assert missing_traced_names(names) == []
