"""Source hygiene: no module of the package imports a name it never uses or
defines a private module-level name it never references."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qfisher"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Private (`_name`) module-level functions, classes and constants that
    the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom .perturb import fourier_bump, perturbed_density\n" \
             "sys.exit(perturbed_density)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: fourier_bump"]


def test_detects_unused_private_name():
    source = ("_USED = 1\n_UNUSED: int = 2\n__version__ = '0'\n"
              "def _parse(t):\n    return t\n"
              "class _Cache:\n    pass\n"
              "def public(x):\n    _parse = x\n    return _USED + x._Cache\n")
    assert unused_private_names(source) == ["line 2: _UNUSED", "line 4: _parse", "line 6: _Cache"]


def test_modules_found():
    assert {"perturb.py", "cli.py", "acceptance.py"} <= {p.name for p in MODULES}
