"""Source hygiene: no module of the package imports a name it never uses or
defines a private module-level name it never references, no cache can grow
without bound, and no command loads scipy submodules its path does not use."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfisher.core import Axis, GridDensity, integrate, simpson_weights, sphere_surface
from qfisher.qgaussian import QGaussianParams, grid_density

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


def unbounded_caches(source: str) -> list[str]:
    """functools caches without an explicit finite maxsize: functools.cache,
    a bare @lru_cache (maxsize 128 by default), and lru_cache(None) or with
    a maxsize that is not an integer literal."""
    tree = ast.parse(source)
    names = {}  # local name -> "cache" or "lru_cache"
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    names[alias.asname or alias.name] = alias.name

    def kind(expr):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id == "functools" and expr.attr in ("cache", "lru_cache"):
            return expr.attr
        return names.get(expr.id) if isinstance(expr, ast.Name) else None

    found, called = [], set()
    for node in ast.walk(tree):  # a call is visited before its callee
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
            called.add(id(node.func))
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
                found.append(f"line {node.lineno}: lru_cache without a finite maxsize")
        elif kind(node) == "cache":
            found.append(f"line {node.lineno}: functools.cache")
        elif kind(node) == "lru_cache" and id(node) not in called:
            found.append(f"line {node.lineno}: bare lru_cache")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_bounded(path):
    assert unbounded_caches(path.read_text()) == []


def test_detects_unbounded_cache():
    source = ("import functools\nfrom functools import lru_cache as lc, cache\n"
              "@functools.lru_cache(maxsize=4)\ndef a(x): pass\n"
              "@lc(2)\ndef b(x): pass\n"
              "@functools.lru_cache\ndef c(x): pass\n"
              "@lc(maxsize=None)\ndef d(x): pass\n"
              "@cache\ndef e(x): pass\n"
              "@functools.cache\ndef f(x): pass\n"
              "g = lc(maxsize=SIZE)(len)\n"
              "h = functools.lru_cache()(len)\n")
    assert unbounded_caches(source) == [
        "line 7: bare lru_cache", "line 9: lru_cache without a finite maxsize",
        "line 11: functools.cache", "line 13: functools.cache",
        "line 15: lru_cache without a finite maxsize",
        "line 16: lru_cache without a finite maxsize"]


def ref_simpson_weights(axis: Axis) -> np.ndarray:
    """Composite Simpson weights as computed before they were cached."""
    w = np.full(axis.count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (axis.step / 3.0)


def ref_integral(f: GridDensity, arr) -> float:
    w = ref_simpson_weights(f.axis)
    if f.dim > 1:  # the radial rule
        w = w * sphere_surface(f.dim) * f.axis.nodes() ** (f.dim - 1)
    return float(np.sum(w * arr))


def test_simpson_weights_cached_read_only():
    ax = Axis(-3.0, 3.0, 101)
    w = simpson_weights(ax)
    assert simpson_weights(Axis(-3.0, 3.0, 101)) is w
    assert w.tobytes() == ref_simpson_weights(ax).tobytes()
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert simpson_weights.cache_info().maxsize == 3


def test_integrate_bits_unchanged():
    ax = Axis(0.0, 5.0, 301)
    densities = [grid_density(QGaussianParams(q, 2.0, 1.0, n), count)
                 for q in (0.8, 1.0, 2.0) for n, count in ((1, 4001), (2, 101))]
    densities.append(GridDensity(ax, np.exp(-2 * ax.nodes() ** 2), 3))
    for f in densities * 2:  # the second round from the cache
        for arr in (f.values, f.values ** 2, np.sqrt(f.values)):
            assert integrate(f, arr) == ref_integral(f, arr)
        assert integrate(f) == ref_integral(f, f.values)


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


@pytest.mark.parametrize("argv", [("qcr", "--n", "3"), ("info", "--n", "2")], ids=" ".join)
def test_radial_commands_load_only_scipy_special(argv):
    loaded = scipy_modules_loaded(*argv)
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}


@pytest.mark.parametrize("model", ["qgaussian-location", "escort-pair"])
def test_qgaussian_sampler_loads_only_scipy_special(model):
    # the sampler's radii come from the inverse incomplete Beta/Gamma
    loaded = scipy_modules_loaded("crbound", "--model", model, "--q", "1.5",
                                  "--trials", "2000", "--seed", "1")
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}


def test_gaussian_location_crbound_loads_no_scipy():
    argv = readme_command("crbound")
    assert argv[argv.index("--model") + 1] == "gaussian-location"
    assert scipy_modules_loaded(*argv) == set()
