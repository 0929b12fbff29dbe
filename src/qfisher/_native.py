"""The compiled kernels of ``_kernels.c``, built with ``cc`` and loaded with
ctypes; the one module that knows their C interface.  :func:`library`
returns the library with the types of SIGNATURES bound to its entry points,
or None when it cannot be built or loaded.

The library is built or loaded at the first call in a process, not at
import, and cached as ``__pycache__/_kernels.<key>.so`` next to the source,
where key is the sha256 of the source bytes and the compiler flags, so an
edited source never loads a stale build.  A cached file that does not load
(damaged, built on another machine, or missing an entry point) is built
again in its place.  The key needs no machine: one library holds every body
of the march, and each call picks the one the CPU runs
(``qfisher_march_body``).
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

#: the C source, and how it is built: no contraction into fused
#: multiply-adds, which round once where numpy rounds twice (the source's
#: only ones are explicit, where the result is the quotient's bits)
SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_PTR, _LONG, _INT, _DOUBLE = ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_double
#: each entry point of SOURCE: its result type and its argument types
SIGNATURES = {
    # v, d, fpad, n, m2, beta3, h, diffusivity, cfl_h2, clamp_rel, target, stop, budget, io, steps
    "qfisher_march": (_INT, (_PTR, _PTR, _PTR, _LONG, _INT, _INT) + (_DOUBLE,) * 6
                      + (ctypes.c_longlong, _PTR, _PTR)),
    # which body the next qfisher_march call takes, the widest the CPU runs:
    # 0 two-wide in plain C, 1 two-wide SSE2, 3 eight-wide AVX-512F (2 is not used)
    "qfisher_march_body": (_INT, ()),
    # u, n, coef, modes, out, then the memo: slots, keys, rows, cursor, counts
    "qfisher_bump": (None, (_PTR, _LONG, _PTR, _LONG, _PTR, _LONG, _PTR, _PTR, _PTR, _PTR)),
}


@functools.lru_cache(maxsize=1)
def library():
    """The library built from SOURCE, or None; built or loaded once per process."""
    import hashlib

    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
    path = SOURCE.parent / "__pycache__" / f"_kernels.{key}.so"
    try:
        return _load(path)
    except (OSError, AttributeError):  # not built yet, or not loadable here
        return _build(path)


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in SIGNATURES.items():
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def _build(path: Path):
    """Compiles SOURCE to path and loads it, or returns None when ``cc`` is
    missing or fails.  ``cc`` writes a temporary file beside path, which is
    then renamed onto it, so no process loads a partial build and a failed
    build leaves no file.  When path's directory cannot be written, the
    build goes to a private temporary directory, removed once loaded."""
    import os
    import shutil
    import subprocess
    import tempfile

    private = None
    try:
        try:
            path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_kernels.", suffix=".tmp", dir=path.parent)
        except OSError:  # the cache directory cannot be written
            private = Path(tempfile.mkdtemp(prefix="qfisher-kernels-"))
            path = private / path.name
            fd, tmp = tempfile.mkstemp(prefix="_kernels.", suffix=".tmp", dir=private)
        os.close(fd)
        try:
            subprocess.run(["cc", *CFLAGS, "-o", tmp, str(SOURCE)],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return _load(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
