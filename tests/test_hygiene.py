"""Source hygiene: no module of the package imports a name it never uses or
defines a private module-level name it never references, no default is
left that no call overrides, no class field is left that nothing reads, no
cache can grow without bound, and no command loads scipy submodules its
path does not use (none loads scipy.integrate or scipy.optimize)."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfisher import _native
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


#: every file whose calls may set a package default: the program's own
#: calls, not a test's
CALLERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _field_kind(value) -> str:
    """"default", "required" or "fixed" (field(init=False), not settable)
    for the right-hand side of a dataclass field."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return "fixed"
        return "default" if "default" in kw or "default_factory" in kw else "required"
    return "required" if value is None else "default"


def defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None]]:
    """(label, callee name, parameter, position) for every defaulted
    parameter of a function or method, and every dataclass field with a
    default.  A method is called by its own name, __init__ and a dataclass
    by the class name; position is the index of the positional argument
    that sets the parameter (None when it is keyword-only)."""
    found = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [(s.target.id, _field_kind(s.value)) for s in child.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    fields = [(name, kind) for name, kind in fields if kind != "fixed"]
                    found.extend((f"{child.name}.{name}", child.name, name, pos)
                                 for pos, (name, kind) in enumerate(fields) if kind == "default")
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                callee = cls.name if method and child.name == "__init__" else child.name
                label = f"{cls.name}.{child.name}" if cls is not None else child.name
                first = len(positional) - len(args.defaults)
                found.extend((f"{label}({a.arg})", callee, a.arg, first + i - method)
                             for i, a in enumerate(positional[first:]))
                found.extend((f"{label}({a.arg})", callee, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(source))
    return found


def call_sites(source: str):
    """(callee name, positional count, keywords) for every call.  A *args
    spreads over every later position and a **kwargs over every keyword
    (count inf, keywords None).  The name is None for a subscript callee
    such as REGISTRY[key](...): its function is unknown, so only its named
    keywords are kept."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Subscript):
            name = None
        else:
            continue
        count = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            count = float("inf")
        keywords = {k.arg for k in node.keywords}
        if None in keywords:
            keywords = keywords - {None} if name is None else None
        sites.append((name, count, keywords))
    return sites


def unread_defaults(package_sources, caller_sources) -> list[str]:
    """Defaulted parameters that no call sets, by position or keyword.
    Calls match by simple name; a subscript callee matches by keyword only."""
    sites = [s for src in caller_sources for s in call_sites(src)]
    unset = []
    for src in package_sources:
        for label, callee, param, pos in defaulted_parameters(src):
            if not any((name == callee and pos is not None and count > pos)
                       or ((name == callee or name is None)
                           and (keywords is None or param in keywords))
                       for name, count, keywords in sites):
                unset.append(label)
    return unset


def test_no_unread_defaults():
    assert unread_defaults([p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
                           [p.read_text() for p in CALLERS]) == []


def test_detects_unread_default():
    package = ("from dataclasses import dataclass, field\n"
               "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
               "class K:\n"
               "    def __init__(self, x=0, y=1):\n        pass\n"
               "    def m(self, z=3):\n        pass\n"
               "    @staticmethod\n    def s(u=5):\n        pass\n"
               "@dataclass\nclass D:\n    u: int\n    v: int = 0\n"
               "    _x: int = field(init=False, default=0)\n"
               "    w: list = field(default_factory=list)\n")
    # f(c) is not set by a subscript callee's positional arguments
    calls = "f(0, 5)\nK(1)\nobj.m()\nK.s(2)\nREG['k'](d=3)\nREG['k'](9, 9, 9)\nD(1, 2)\n"
    assert unread_defaults([package], [package, calls]) == [
        "f(c)", "f(e)", "K.__init__(y)", "K.m(z)", "D.w"]
    spread = "f(**kw)\nK(1, 2)\nobj.m(z=0)\nK.s(*a)\nD(1, v=2, w=[])\nREG['k'](**kw)\n"
    assert unread_defaults([package], [spread]) == []
    assert unread_defaults([package], ["REG['k'](**kw)\n"]) == [
        "f(b)", "f(c)", "f(d)", "f(e)", "K.__init__(x)", "K.__init__(y)", "K.m(z)", "K.s(u)",
        "D.v", "D.w"]


def unread_fields(package_sources, reader_sources) -> list[str]:
    """Annotated class fields that no reader source loads as an attribute.
    Reads match by simple name, so a field shares the reads of every other
    attribute of its name: VerificationReport.name, say, would pass for as
    long as any other class's `.name` is read."""
    read = {node.attr for src in reader_sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{stmt.target.id}"
            for src in package_sources for cls in ast.walk(ast.parse(src))
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_no_unread_fields():
    assert unread_fields([p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
                         [p.read_text() for p in CALLERS]) == []


def test_detects_unread_field():
    package = ("from dataclasses import dataclass\n"
               "@dataclass\nclass D:\n    u: int\n    v: int = 0\n    w: str = 'x'\n"
               "class P:\n    z: float\n    def m(self):\n        return self.z\n")
    # a store is not a read, nor is getattr with the name as a string
    readers = "def f(d):\n    d.v = 3\n    return d.u + len(getattr(d, 'w'))\n"
    assert unread_fields([package], [package, readers]) == ["D.v", "D.w"]
    assert unread_fields([package], [readers]) == ["D.v", "D.w", "P.z"]


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


def run_probe(source, *argv, timeout=120):
    """The JSON that the Python `source`, run in a fresh interpreter on this
    checkout's package with `argv`, prints on its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_loaded(*argv):
    code, modules = run_probe(_PROBE, *argv)
    assert code == 0, f"qfisher {' '.join(argv)} exited {code}"
    return set(modules)


def readme_command(name: str) -> list[str]:
    """The argv of the README's example line for subcommand `name`."""
    match = re.search(rf"^qfisher ({name} .*)$", (ROOT / "README.md").read_text(), re.M)
    return match.group(1).split()


def test_bare_import_loads_no_scipy():
    assert scipy_modules_loaded() == set()


@pytest.mark.parametrize("name", ["info", "qcr", "stam", "minimize"])
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


def test_one_dimensional_diffuse_loads_no_scipy(tmp_path):
    # the Barenblatt constant runs on the in-repo quad and brentq, and the
    # 1-D sphere "surface" is 2 without scipy.special
    argv = readme_command("diffuse")
    argv[argv.index("-o") + 1] = str(tmp_path / "traj.csv")
    assert scipy_modules_loaded(*argv) == set()
    assert (tmp_path / "traj.csv").stat().st_size > 0


def test_entropy_power_minimize_loads_only_scipy_special():
    argv = readme_command("minimize")
    argv[argv.index("--constraint") + 1] = "entropy-power"
    loaded = scipy_modules_loaded(*argv)
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}


#: runs acceptance criteria 2-3 (the Barenblatt-started PDE runs) and
#: prints, as JSON, their verdicts and the scipy modules then loaded
_CRITERIA_PROBE = """
import json, sys
from qfisher.acceptance import AcceptanceSuite
suite = AcceptanceSuite()
passed = [suite.criterion_2().passed, suite.criterion_3().passed]
print(json.dumps([passed, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_barenblatt_criteria_load_no_scipy_root_finder():
    passed, modules = run_probe(_CRITERIA_PROBE, timeout=300)
    assert passed == [True, True]
    assert not set(modules) & {"scipy.integrate", "scipy.optimize"}


#: prints, as JSON, which of subprocess and hashlib are loaded after
#: importing qfisher.cli and building a DiffusionState, which of them drawing
#: a bump loads on top of what numpy.random loads itself (hashlib), and how
#: often the compiled kernels were requested
_LAZY_BUILD_PROBE = """
import json, sys
import numpy as np
import qfisher.cli
from qfisher import _native, diffusion, perturb
from qfisher.core import Axis, density_from_callable
from qfisher.qgaussian import DiffusionParams

def loaded():
    return {m for m in ("subprocess", "hashlib") if m in sys.modules}

f = density_from_callable(Axis(-5.0, 5.0, 101), lambda x: np.exp(-x * x))
diffusion.DiffusionState(DiffusionParams(2.0, 2.0, 1), 0.0, f)
at_state = loaded()
rng = np.random.default_rng(1)
with_rng = loaded()
perturb.fourier_bump(rng)
print(json.dumps([sorted(at_state), sorted(loaded() - with_rng),
                  _native.library.cache_info().misses, perturb._CHOICE]))
"""


def test_import_and_state_start_no_compiler():
    # the compiled kernels are built or loaded at the first evolve or
    # dilated-grid bump evaluation that uses them
    assert run_probe(_LAZY_BUILD_PROBE) == [[], [], 0, []]


def exported_c_functions(source: str) -> dict[str, tuple[str, int]]:
    """Each function C source defines at the top level without ``static``:
    its result type and its number of parameters."""
    pattern = r"^(?!static\b)([A-Za-z_][\w \t*]*?)\b([A-Za-z_]\w*)\s*\(([^)]*)\)\s*\{"
    return {m[2]: (m[1].strip(), len(m[3].split(",")))
            for m in re.finditer(pattern, source, re.M)}


def test_detects_exported_c_function():
    source = ("static int f(int a) {\n}\nint g(double *x,\n      long n)\n{\n}\n"
              "void h(void);\n")
    assert exported_c_functions(source) == {"g": ("int", 2)}


def test_signatures_declare_exactly_the_exported_kernels():
    exported = exported_c_functions(_native.SOURCE.read_text())
    assert set(_native.SIGNATURES) == set(exported)
    for name, (restype, argtypes) in _native.SIGNATURES.items():
        result, arity = exported[name]
        assert (restype is None) == (result == "void") and len(argtypes) == arity, name


def imported_modules(source: str) -> set[str]:
    """Top-level package of every import, at any depth of the module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_native_imports_ctypes():
    # the C interface is declared and bound in one module
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "ctypes" in imported_modules(p.read_text())]
    assert importers == ["_native.py"]


def test_kernels_compile_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    proc = subprocess.run(["cc", *_native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernels.so"), str(_native.SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
