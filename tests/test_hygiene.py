"""Source hygiene: no module of the package or of the tests imports a name
it never uses, no module of the package defines a private module-level name
it never references, no default is left that no call overrides or that
every call sets to its own literal (one known knob aside), no class field
or CLI option is left that nothing reads, and no cache can grow without
bound.  One table, LOADS, states what each command and each named run loads
in a fresh interpreter: exactly which qfisher modules, and numpy only with
a module past the package and the CLI; exactly which of the compiled scipy
modules (scipy.special's ufuncs, QUADPACK and Brent's method) and never
their packages, and so never scipy.special's array-API layer; whether it
builds or loads the compiled kernels; and the bump memos it makes."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfisher import _native
from qfisher.cli import SUBCOMMANDS
from qfisher.estimation import MODEL_REGISTRY
from qfisher.core import Axis, GridDensity, integrate, simpson_weights, sphere_surface
from qfisher.qgaussian import QGaussianParams, grid_density

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qfisher"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that their scope never reads.  An import's
    scope is the innermost function that holds it, else the module; a read
    anywhere in the scope, nested functions included, counts."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            scope = parent[node]
            while not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent[scope]
            for alias in node.names:
                bound[scope, alias.asname or alias.name.split(".")[0]] = node.lineno
    return [f"line {line}: {name}"
            for (scope, name), line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}]


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


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_detects_unused_import():
    source = "import os\nimport sys\nfrom .perturb import fourier_bump, perturbed_density\n" \
             "sys.exit(perturbed_density)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: fourier_bump"]
    # an import in a function is read in that function, a nested one included,
    # and not by a read of the same name in another function
    local = ("import math\n"
             "def f(x):\n    import numpy as np\n    from .core import Axis, integrate\n"
             "    def g():\n        import os\n        return integrate(x)\n"
             "    return g() + math.pi\n"
             "def h():\n    if True:\n        import json, sys\n    return np, sys\n")
    assert unused_imports(local) == ["line 3: np", "line 4: Axis", "line 6: os", "line 11: json"]


def test_detects_unused_private_name():
    source = ("_USED = 1\n_UNUSED: int = 2\n__version__ = '0'\n"
              "def _parse(t):\n    return t\n"
              "class _Cache:\n    pass\n"
              "def public(x):\n    _parse = x\n    return _USED + x._Cache\n")
    assert unused_private_names(source) == ["line 2: _UNUSED", "line 4: _parse", "line 6: _Cache"]


def test_modules_found():
    assert {"__init__.py", "perturb.py", "cli.py", "acceptance.py"} <= {p.name for p in MODULES}


#: every file whose calls may set a package default: the program's own
#: calls, not a test's
CALLERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _field_kind(value) -> tuple[str, ast.expr | None]:
    """("default", the default's node), ("required", None) or ("fixed",
    None) (field(init=False), not settable) for the right-hand side of a
    dataclass field; a default_factory's node is the call to field."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return "fixed", None
        if "default" in kw:
            return "default", kw["default"]
        return ("default", value) if "default_factory" in kw else ("required", None)
    return ("required", None) if value is None else ("default", value)


def defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None, ast.expr]]:
    """(label, callee name, parameter, position, default) for every
    defaulted parameter of a function or method, and every dataclass field
    with a default.  A method is called by its own name, __init__ and a
    dataclass by the class name; position is the index of the positional
    argument that sets the parameter (None when it is keyword-only), and
    default the default value's node."""
    found = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [(s.target.id, *_field_kind(s.value)) for s in child.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    fields = [field for field in fields if field[1] != "fixed"]
                    found.extend((f"{child.name}.{name}", child.name, name, pos, default)
                                 for pos, (name, kind, default) in enumerate(fields)
                                 if kind == "default")
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                callee = cls.name if method and child.name == "__init__" else child.name
                label = f"{cls.name}.{child.name}" if cls is not None else child.name
                first = len(positional) - len(args.defaults)
                found.extend((f"{label}({a.arg})", callee, a.arg, first + i - method, d)
                             for i, (a, d) in enumerate(zip(positional[first:], args.defaults)))
                found.extend((f"{label}({a.arg})", callee, a.arg, None, d)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(source))
    return found


def registries(source: str) -> dict[str, list[str]]:
    """name -> function names, for each module-level dict literal whose
    values are all plain names: a registry such as MODEL_REGISTRY."""
    found = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and node.value.values
                and all(isinstance(v, ast.Name) for v in node.value.values)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = [v.id for v in node.value.values]
    return found


def _simple_name(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _classmethod_self_calls(tree) -> dict:
    """id of each call of a classmethod's first parameter (cls(...)) -> the
    name of the class that the classmethod belongs to."""
    calls = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if (isinstance(fn, ast.FunctionDef) and fn.args.args
                    and any(getattr(d, "id", None) == "classmethod" for d in fn.decorator_list)):
                calls.update((id(node), cls.name) for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) == fn.args.args[0].arg)
    return calls


def call_sites(source: str, known_registries: dict | None = None):
    """(callee name, positional count, keywords, values) for every call.  A
    *args spreads over every later position and a **kwargs over every
    keyword (count inf, keywords None).  cls(...) in a classmethod is a
    call of its class.  A subscript callee REGISTRY[key](...) of a known
    registry is a call of each function it registers; otherwise the name
    is None: its function is unknown, so only its named keywords are kept.
    values maps each position (an int) and keyword (a str) that the call
    sets to its argument's node; a spread argument, and every argument of
    a call through a subscript callee, has none."""
    known_registries = known_registries or {}
    tree = ast.parse(source)
    own_class = _classmethod_self_calls(tree)
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if id(node) in own_class:
            names = [own_class[id(node)]]
        elif isinstance(func, (ast.Name, ast.Attribute)):
            names = [_simple_name(func)]
        elif isinstance(func, ast.Subscript):
            names = known_registries.get(_simple_name(func.value), [None])
        else:
            continue
        count = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            count = float("inf")
        values = {}
        if not isinstance(func, ast.Subscript):
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                values[pos] = arg
            values.update((k.arg, k.value) for k in node.keywords if k.arg is not None)
        for name in names:
            keywords = {k.arg for k in node.keywords}
            if None in keywords:
                keywords = keywords - {None} if name is None else None
            sites.append((name, count, keywords, values))
    return sites


def _sets(site, callee, param, pos) -> bool:
    """Whether call site `site` (of call_sites) sets parameter `param` of
    `callee` (at position `pos`)."""
    name, count, keywords, _ = site
    return ((name == callee and pos is not None and count > pos)
            or ((name == callee or name is None) and (keywords is None or param in keywords)))


def unread_defaults(package_sources, caller_sources) -> list[str]:
    """Defaulted parameters that no call sets, by position or keyword.
    Calls match by simple name, a call through a package registry as a call
    of each function it registers; any other subscript callee matches by
    keyword only."""
    known = {name: funcs for src in package_sources for name, funcs in registries(src).items()}
    sites = [s for src in caller_sources for s in call_sites(src, known)]
    unset = []
    for src in package_sources:
        for label, callee, param, pos, _ in defaulted_parameters(src):
            if not any(_sets(site, callee, param, pos) for site in sites):
                unset.append(label)
    return unset


def test_no_unread_defaults():
    assert unread_defaults([p.read_text() for p in MODULES],
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
    # a call through a declared registry is a call of each function it holds
    registry = package + "REG = {'f': f, 'k': K}\n"
    assert unread_defaults([registry], ["mod.REG['k'](**kw)\n"]) == [
        "K.m(z)", "K.s(u)", "D.v", "D.w"]
    assert unread_defaults([registry], ["REG[k](0, 0, c=1)\n"]) == [
        "f(d)", "f(e)", "K.m(z)", "K.s(u)", "D.v", "D.w"]
    # cls(...) in a classmethod calls its class, not a function named cls
    factory = ("class C:\n    def __init__(self, a=0, b=1):\n        pass\n"
               "    @classmethod\n    def make(cls):\n        return cls(b=2)\n"
               "def cls(c=3):\n    pass\n")
    assert unread_defaults([factory], [factory]) == ["C.__init__(a)", "cls(c)"]


def _literal(node):
    """(type, value) of a literal's node; None for any other node."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), value


def literal_default_knobs(package_sources, caller_sources) -> list[str]:
    """Defaulted parameters with a literal default that some call sets, and
    every call that sets one sets to the default's own literal: a knob that
    no path turns.  Calls match as in `unread_defaults`; a value spread by
    *args or **kwargs, or passed through a registry, counts as another."""
    known = {name: funcs for src in package_sources for name, funcs in registries(src).items()}
    sites = [s for src in caller_sources for s in call_sites(src, known)]
    knobs = []
    for src in package_sources:
        for label, callee, param, pos, default in defaulted_parameters(src):
            setting = [site for site in sites if _sets(site, callee, param, pos)]
            passed = [site[3].get(pos if site[0] == callee and pos in site[3] else param)
                      for site in setting]
            want = _literal(default)
            if want is not None and setting and all(
                    value is not None and _literal(value) == want for value in passed):
                knobs.append(label)
    return knobs


#: literal-default knobs left standing: `perfbench/workloads.py` passes
#: slack=1e-9, so folding the parameter away is a change to the benchmark
KNOWN_LITERAL_KNOBS = ["phi_monotonicity_check(slack)"]


def test_no_new_literal_default_knobs():
    assert literal_default_knobs([p.read_text() for p in MODULES],
                                 [p.read_text() for p in CALLERS]) == KNOWN_LITERAL_KNOBS


def test_detects_literal_default_knob():
    package = ("from dataclasses import dataclass, field\n"
               "def f(a, b=1, c=-2.5, *, d='x', e=None, g=(1, 2)):\n    pass\n"
               "class K:\n"
               "    def __init__(self, x=0, y=True):\n        pass\n"
               "@dataclass\nclass D:\n    u: int\n    v: float = 1e-9\n"
               "    w: list = field(default_factory=list)\n    z: int = field(default=3)\n"
               "REG = {'f': f}\n")
    calls = ("f(0, 1, -2.5, d='x', e=None, g=(1, 2))\nf(0, c=-2.5)\nK(0, True)\nK(x=0)\n"
             "D(1, 1e-9, [], 3)\nD(1, w=[1])\n")
    assert literal_default_knobs([package], [calls]) == [
        "f(b)", "f(c)", "f(d)", "f(e)", "f(g)", "K.__init__(x)", "K.__init__(y)", "D.v", "D.z"]
    # one call with another value, a name, a spread or a registry call turns the knob
    turned = calls + "f(0, 2)\nf(0, *a)\nf(0, d=name)\nf(0, **kw)\nK(0, 1)\nK(x=0.0)\n" \
                     "REG['f'](0, 1, 1.0)\nD(1, 1e-8)\nD(1, z=VALUE)\n"
    assert literal_default_knobs([package], [turned]) == []
    # a parameter that no call sets is unread_defaults' to report
    assert literal_default_knobs([package], ["f(0)\nK()\nD(1)\n"]) == []


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
    assert unread_fields([p.read_text() for p in MODULES],
                         [p.read_text() for p in CALLERS]) == []


def test_detects_unread_field():
    package = ("from dataclasses import dataclass\n"
               "@dataclass\nclass D:\n    u: int\n    v: int = 0\n    w: str = 'x'\n"
               "class P:\n    z: float\n    def m(self):\n        return self.z\n")
    # a store is not a read, nor is getattr with the name as a string
    readers = "def f(d):\n    d.v = 3\n    return d.u + len(getattr(d, 'w'))\n"
    assert unread_fields([package], [package, readers]) == ["D.v", "D.w"]
    assert unread_fields([package], [readers]) == ["D.v", "D.w", "P.z"]


def builder_options() -> set:
    """The registry builders' parameters, count (the grid count) aside."""
    return {key for build in MODEL_REGISTRY.values()
            for key in inspect.signature(build).parameters} - {"count"}


def cfg_reads(functions: dict, name: str) -> set:
    """The keys that module function `name` reads as cfg["key"], itself or in
    a module function it passes cfg to; a load of MODEL_REGISTRY reads the
    registry builders' parameters.  resolve_config, which only validates, is
    not passed cfg."""
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg"
                and isinstance(node.slice, ast.Constant)):
            reads.add(node.slice.value)
        elif isinstance(node, ast.Name) and node.id == "MODEL_REGISTRY":
            reads |= builder_options()
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
              and any(getattr(a, "id", None) == "cfg" for a in node.args)):
            reads |= cfg_reads(functions, node.func.id)
    return reads


def unread_options(source: str, tables: dict) -> list[str]:
    """"subcommand: key" for each key of an options table that its handler
    never reads for any value of its selector.  `tables` maps a subcommand
    to (handler name, options table)."""
    functions = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    unread = []
    for name, (handler, table) in tables.items():
        reads = cfg_reads(functions, handler)
        unread += [f"{name}: {key}" for key in table if key not in reads]
    return unread


def cli_tables() -> dict:
    return {name: (handler.__name__, table) for name, (handler, table, _) in SUBCOMMANDS.items()}


def test_every_option_is_read():
    assert unread_options((PACKAGE / "cli.py").read_text(), cli_tables()) == []


def test_detects_unread_option(monkeypatch):
    # an info --sigma that no code reads, as the gaussian family left behind
    monkeypatch.setitem(SUBCOMMANDS["info"][1], "sigma", 1.0)
    assert unread_options((PACKAGE / "cli.py").read_text(), cli_tables()) == ["info: sigma"]
    source = ("def resolve_config(args, defaults):\n    cfg = dict(defaults)\n    return cfg['y']\n"
              "def _check(cfg, key):\n    return cfg['n'] + cfg[key]\n"
              "def _other(value):\n    return MODEL_REGISTRY[value]\n"
              "def cmd_a(args):\n    cfg = resolve_config(args, A)\n    _check(cfg, 'z')\n"
              "    _other(cfg['x'])\n    return cfg['beta']\n")
    table = dict.fromkeys(["x", "alpha", "beta", "n", "y", "z", "sigma"], 0)
    assert unread_options(source, {"a": ("cmd_a", table)}) == [
        "a: alpha", "a: y", "a: z", "a: sigma"]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


#: numpy modules that scipy.special's package import loads through scipy's
#: array-API layer, and that nothing else qfisher runs loads
NUMPY_HEAVY = ("numpy.f2py", "numpy.testing")

#: the compiled scipy modules that qfisher loads through `core.scipy_module`:
#: scipy.special's ufuncs, QUADPACK and Brent's method
UFUNCS, QUADPACK, ZEROS = ("scipy.special._ufuncs", "scipy.integrate._quadpack",
                           "scipy.optimize._zeros")

#: the qfisher modules that a run loads: the two imports alone load the
#: package and the CLI, and no numpy; a command loads only the modules it
#: runs, and numpy with them
BARE = ("qfisher", "qfisher.cli")
INFO = (*BARE, "qfisher.core", "qfisher.info_measures", "qfisher.qgaussian")
CR = (*INFO, "qfisher.estimation", "qfisher.reports")
STAM = (*INFO, "qfisher._native", "qfisher.inequalities", "qfisher.perturb", "qfisher.reports")
DIFFUSE = (*INFO, "qfisher._native", "qfisher.diffusion", "qfisher.reports")
EVERY = tuple(f"qfisher.{p.stem}" if p.stem != "__init__" else "qfisher" for p in MODULES)

#: the named runs of LOADS: the source that the probe runs, and the
#: `result` it must set
IMPORT = "import qfisher, qfisher.cli"
EVERY_MODULE = "import every module of the package"
TRAJECTORIES = "workloads.trajectories_inputs(0)"
CRITERIA = "acceptance criteria 2-3"
DRAW = "DiffusionState, then a fourier_bump draw"
RUNS = {
    IMPORT: ("result = 0", 0),
    # no module loads scipy at import
    EVERY_MODULE: (f"for name in {EVERY!r}:\n    importlib.import_module(name)\nresult = 0", 0),
    TRAJECTORIES: (f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\nimport workloads\n"
                   "workloads.trajectories_inputs(0)\nresult = 0", 0),
    CRITERIA: ("from qfisher.acceptance import AcceptanceSuite\nsuite = AcceptanceSuite()\n"
               "result = [suite.criterion_2().passed, suite.criterion_3().passed]", [True, True]),
    # building a state loads neither subprocess nor hashlib, nor does a bump
    # draw beyond what numpy.random loads itself (hashlib); the compiled bump
    # kernel is chosen at the first evaluation off the peak probe, which the
    # draw makes none of.  No memo slot is open at import or after the draw:
    # test_loads checks the slots a run leaves, and a slot only ever
    # replaces another
    DRAW: ("""
import numpy as np
from qfisher import diffusion, perturb
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
result = [sorted(at_state), sorted(loaded() - with_rng), list(perturb._CHOICE)]
""", [[], [], []]),
}

#: command rows refused with a usage error (exit 2); every other command
#: row exits 0
REFUSED = ("qcr --q abc", "qcr --grid-count 4000", "info --grid-count 4003")

#: what each run loads in a fresh interpreter: exactly which qfisher
#: modules, which of UFUNCS, QUADPACK and ZEROS, whether it called
#: `_native.library()` (which builds or loads the compiled kernels), and the
#: node counts of the bump memos it made.  A run is a command line (the
#: argv after `qfisher`, run in an empty directory) or a named run of RUNS.
LOADS = {
    IMPORT: (BARE, (), False, []),
    EVERY_MODULE: (EVERY, (), False, []),
    TRAJECTORIES: (EVERY, (QUADPACK, ZEROS), False, []),
    CRITERIA: (EVERY, (QUADPACK, ZEROS), True, []),
    DRAW: ((*DIFFUSE, "qfisher.perturb"), (), False, []),
    # parsing, an argparse refusal and refusals of values load no numpy
    "--help": (BARE, (), False, []),
    "qcr --q abc": (BARE, (), False, []),
    "qcr --grid-count 4000": (BARE, (), False, []),
    "info --grid-count 4003": (BARE, (), False, []),
    "info --family qgaussian --q 2 --alpha 2 --gamma 1": (INFO, (UFUNCS,), False, []),
    "info --n 2": (INFO, (UFUNCS,), False, []),
    "info --family uniform": (INFO, (), False, []),
    "qcr --q 1.5 --alpha 2 --gamma 1": (CR, (UFUNCS,), False, []),
    "qcr --n 3": (CR, (UFUNCS,), False, []),  # radial, as is info --n 2
    "stam --q 2 --beta 2 --gamma 1 --perturbations 20 --seed 7":
        (STAM, (UFUNCS,), True, [4001]),
    "stam --q 2": (STAM, (UFUNCS,), False, []),
    "minimize --constraint moment --q 2 --alpha 2 --target 0.2 --seed 7":
        (STAM, (UFUNCS,), True, [4001]),
    "minimize --constraint entropy-power --q 2 --alpha 2 --target 0.2 --seed 7":
        (STAM, (UFUNCS, ZEROS), True, [4001]),
    "crbound --model gaussian-location --n 3 --trials 100000 --seed 7": (CR, (), False, []),
    # the q-Gaussian sampler's radii come from the inverse incomplete Beta/Gamma
    "crbound --model qgaussian-location --q 1.5 --trials 2000 --seed 1":
        (CR, (UFUNCS,), False, []),
    "crbound --model escort-pair --q 1.5 --trials 2000 --seed 1": (CR, (UFUNCS,), False, []),
    "crbound --model qgaussian-location --q 1.5": (CR, (UFUNCS,), False, []),
    "diffuse --m 2 --beta 2 --init barenblatt --t0 1 --t-end 2 -o traj.csv":
        (DIFFUSE, (QUADPACK, ZEROS), True, []),
    # the q = 1 constant is a closed form by math.lgamma, and the 1-D sphere
    # "surface" is 2 without scipy.special; the grid clears the heat
    # kernel's tail to t = 2
    "diffuse --m 1 --beta 2 --init barenblatt --t0 1 --t-end 2 -o traj.csv "
    "--grid-lo -16 --grid-hi 16": (DIFFUSE, (), True, []),
    "diffuse --m 2 --init gaussian --t0 0 --t-end 0.1 --grid-lo -10 --grid-hi 10 -o traj.csv":
        (DIFFUSE, (), True, []),
    "diffuse --m 1.5 --beta 2.5 --t-end 1.1 -o traj.csv": (DIFFUSE, (QUADPACK, ZEROS), False, []),
    # a new base grid drops the memo of the one before
    "reproduce -o summary.txt": (EVERY, (UFUNCS, QUADPACK, ZEROS), True, [4001] * 14),
}

#: runs the Python source argv[1] after importing qfisher and qfisher.cli,
#: with stdout silenced, and prints, as JSON, the `result` it sets, whether
#: numpy was loaded right after the two imports, the qfisher modules, numpy,
#: and the scipy and NUMPY_HEAVY modules then loaded, whether
#: `_native.library()` was called, the node counts of the bump memos made
#: (counted from the moment qfisher.perturb loads), whether the compiled
#: bump kernel was chosen, and the node counts of the memo slots left open
_PROBE = f"""
import contextlib, importlib.util, io, json, sys
import qfisher, qfisher.cli
numpy_at_import = "numpy" in sys.modules
made = []


class CountMemos:
    def find_spec(self, name, path, target=None):
        if name != "qfisher.perturb":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            memo = module._Memo
            module._Memo = lambda n: made.append(n) or memo(n)

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, CountMemos())
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
native, perturb = (sys.modules.get(name) for name in ("qfisher._native", "qfisher.perturb"))
print(json.dumps([result, numpy_at_import,
                  sorted(m for m in sys.modules if m.split(".")[0] == "qfisher"),
                  "numpy" in sys.modules,
                  sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m in {NUMPY_HEAVY!r}),
                  bool(native) and native.library.cache_info().misses > 0, made,
                  bool(perturb) and any(perturb._CHOICE), list(perturb._MEMO) if perturb else []]))
"""


def run_probe(source, *argv, cwd=None, timeout=300):
    """The JSON that the Python `source`, run in a fresh interpreter on this
    checkout's package with `argv` in directory `cwd`, prints on its last
    line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("row", LOADS)
def test_loads(row, tmp_path):
    # no run loads a scipy package (scipy.special's __init__ would also load
    # its array-API layer and NUMPY_HEAVY), and scipy itself only under an
    # entry module
    loaded, entry, library, memos = LOADS[row]
    source, want = RUNS.get(row, (f"result = qfisher.cli.main({row.split()!r})",
                                  2 if row in REFUSED else 0))
    (result, numpy_at_import, qfisher_modules, numpy, modules, called, made, bump_compiled,
     slots) = run_probe(_PROBE, source, cwd=tmp_path)
    assert result == want
    # the two imports load the standard library alone, and a run loads numpy
    # exactly when it loads a module past them
    assert not numpy_at_import
    assert qfisher_modules == sorted(loaded)
    assert numpy == (set(loaded) > set(BARE))
    assert sorted(set(modules) & {UFUNCS, QUADPACK, ZEROS}) == sorted(entry)
    assert not set(modules) & {"scipy.special", "scipy.integrate", "scipy.optimize",
                               "scipy.interpolate", "scipy._lib._array_api", *NUMPY_HEAVY}
    assert ("scipy" in modules) == bool(entry)
    # a memo is made only where the compiled bump runs: with `cc`, and where
    # libm's cos and sin give numpy's bits; its slot is opened by the base
    # grid on every host, and holds the last grid's
    assert (called, made) == (library, memos if bump_compiled else [])
    assert slots == memos[-1:]


def rowless(readme: str, rows) -> list[str]:
    """README `qfisher` lines (their argv) that are not rows, then the
    subcommands that no row runs."""
    lines = re.findall(r"^qfisher (.*)$", readme, re.M)
    return ([line for line in lines if line not in rows]
            + [name for name in SUBCOMMANDS if not any(row.split()[0] == name for row in rows)])


def test_every_command_has_a_row():
    assert rowless((ROOT / "README.md").read_text(), LOADS) == []


def test_detects_rowless_command():
    rows = [row for row in LOADS if not row.startswith("stam")]
    readme = "qfisher info --family gaussian\n  qfisher qcr --q 3\nqfisher stam --q 3\n"
    assert rowless(readme, rows) == ["info --family gaussian", "stam --q 3", "stam"]


#: the ufuncs qfisher calls through `special_functions`
SPECIAL_NAMES = ("beta", "gamma", "betaincinv", "gammaincinv")

#: calls `special_functions`, after `import scipy.special` when argv[1] is
#: "package-first", then imports scipy.special; prints, as JSON, whether
#: the package was in sys.modules or an attribute of scipy right after the
#: call, whether the later package ran its __init__, and whether each of
#: SPECIAL_NAMES is the package's object
_LOADER_PROBE = f"""
import json, sys
if sys.argv[1] == "package-first":
    import scipy.special
from qfisher.core import special_functions
sf = special_functions()
import scipy
left = ["scipy.special" in sys.modules, "special" in vars(scipy)]
import scipy.special
same = [getattr(sf, name) is getattr(scipy.special, name) for name in {SPECIAL_NAMES!r}]
print(json.dumps([left, hasattr(scipy.special, "erf"), same]))
"""


def test_special_functions_are_the_packages_ufuncs():
    # loaded alone: no package module is left behind, and a later import
    # of the package binds the very ufuncs the loader returned
    assert run_probe(_LOADER_PROBE, "loader-first") == [[False, False], True, [True] * 4]


def test_special_functions_reuse_a_loaded_package():
    assert run_probe(_LOADER_PROBE, "package-first") == [[True, True], True, [True] * 4]


#: arguments at which the fallback test evaluates each of SPECIAL_NAMES
SPECIAL_ARGS = {"beta": (0.5, 3.0), "gamma": (1.5,), "betaincinv": (0.5, 3.0, 0.25),
                "gammaincinv": (0.5, 0.25)}

#: calls `special_functions` in a fresh interpreter whose
#: `scipy.special._ufuncs` cannot be imported under an unexecuted package
#: module (ImportError); prints, as JSON, whether the package then in
#: sys.modules has run its __init__, whether the loader returned the
#: `_ufuncs` registered with it, and each of SPECIAL_NAMES' value at
#: SPECIAL_ARGS from the loader and from the real package
_FALLBACK_PROBE = f"""
import importlib, json, sys
import_module = importlib.import_module

def refuse_ufuncs(name, *args):
    if name == "scipy.special._ufuncs" and not hasattr(sys.modules["scipy.special"], "erf"):
        raise ImportError(name)
    return import_module(name, *args)

importlib.import_module = refuse_ufuncs
from qfisher.core import special_functions
sf = special_functions()
importlib.import_module = import_module
import scipy.special
args = {SPECIAL_ARGS!r}
print(json.dumps([hasattr(sys.modules.get("scipy.special"), "erf"),
                  sys.modules["scipy.special._ufuncs"] is sf,
                  [[getattr(sf, name)(*args[name]), getattr(scipy.special, name)(*args[name])]
                   for name in {SPECIAL_NAMES!r}]]))
"""


def test_special_functions_fall_back_to_the_package():
    # a scipy whose `_ufuncs` cannot be loaded on its own is imported whole,
    # and no unexecuted package module is left to shadow it
    executed, registered, values = run_probe(_FALLBACK_PROBE)
    assert executed and registered
    assert all(ours == theirs for ours, theirs in values)


def names_scipy(source: str) -> list[str]:
    """Lines that import scipy, a scipy module or a name from one, or spell
    a scipy module name ("scipy.<name>") in a string that is not a
    docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and node.module.split(".")[0] == "scipy"
        else:
            hit = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "scipy." in node.value and id(node) not in docstrings)
        if hit:
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_only_the_loader_names_scipy():
    # every scipy routine is reached through core.scipy_module, which alone
    # knows scipy's private layout
    names = [p.name for p in MODULES if names_scipy(p.read_text())]
    assert names == ["core.py"]


def test_detects_scipy_name():
    source = ('"""Uses scipy.special."""\nimport scipy.special\n'
              'def f():\n    """scipy.special, in a docstring."""\n'
              '    from scipy import special, stats\n    from scipy.special import beta\n'
              '    from scipy import optimize\n    return "scipy.special._ufuncs"\n'
              'import scipy\nfrom scipy.integrate import _quadpack\nfrom .core import quad\n'
              'NAME = "scipy.optimize._zeros"\nPACKAGE = "scipy"\nimport scipyx, numpy.scipy\n')
    assert names_scipy(source) == ["line 2", "line 5", "line 6", "line 7", "line 8", "line 9",
                                   "line 10", "line 12"]


def exported_c_functions(source: str) -> dict[str, tuple[str, int]]:
    """Each function C source defines at the top level without ``static``:
    its result type and its number of parameters (none for ``(void)``)."""
    pattern = r"^(?!static\b)([A-Za-z_][\w \t*]*?)\b([A-Za-z_]\w*)\s*\(([^)]*)\)\s*\{"
    return {m[2]: (m[1].strip(), 0 if m[3].strip() == "void" else len(m[3].split(",")))
            for m in re.finditer(pattern, source, re.M)}


def test_detects_exported_c_function():
    source = ("static int f(int a) {\n}\nint g(double *x,\n      long n)\n{\n}\n"
              "void h(void);\nint k(void)\n{\n}\n")
    assert exported_c_functions(source) == {"g": ("int", 2), "k": ("int", 0)}


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
    importers = [p.name for p in MODULES
                 if "ctypes" in imported_modules(p.read_text())]
    assert importers == ["_native.py"]
