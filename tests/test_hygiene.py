"""Source hygiene: no module of the package imports a name it never uses or
defines a private module-level name it never references, and no command
loads scipy submodules its path does not use."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qfisher"
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


def import_time_imports(source: str) -> list[str]:
    """Modules imported when the module itself is imported: every import
    outside a function body (module level, under if/try, in class bodies)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy is imported inside the functions that use it
    assert [m for m in import_time_imports(path.read_text()) if m.split(".")[0] == "scipy"] == []


def test_detects_module_level_import():
    source = ("import numpy as np\nfrom scipy import special\n"
              "try:\n    import scipy.optimize\nexcept ImportError:\n    pass\n"
              "class K:\n    from scipy.integrate import quad\n"
              "def f():\n    from scipy import interpolate\n")
    assert import_time_imports(source) == ["numpy", "scipy", "scipy.optimize", "scipy.integrate"]


#: prints, as JSON, the scipy modules loaded by the command in argv[1:]
#: (an empty argv: by importing qfisher and qfisher.cli alone)
_PROBE = """
import contextlib, io, json, sys
import qfisher, qfisher.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qfisher.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_loaded(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def readme_command(name: str) -> list[str]:
    """The argv of the README's example line for subcommand `name`."""
    match = re.search(rf"^qfisher ({name} .*)$", (ROOT / "README.md").read_text(), re.M)
    return match.group(1).split()


def test_bare_import_loads_no_scipy():
    assert scipy_modules_loaded() == set()


@pytest.mark.parametrize("name", ["info", "qcr", "stam"])
def test_closed_form_commands_load_only_scipy_special(name):
    loaded = scipy_modules_loaded(*readme_command(name))
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}


def test_gaussian_location_crbound_loads_no_scipy():
    argv = readme_command("crbound")
    assert argv[argv.index("--model") + 1] == "gaussian-location"
    assert scipy_modules_loaded(*argv) == set()
