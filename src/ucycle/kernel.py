"""The exact cover's search tree in C, compiled on first use.

`load()` runs the system C compiler, ``cc -O2 -shared -fPIC``, on
`kernel.c` into a private temporary directory, loads the library with
ctypes and deletes the directory at once.  Nothing is cached on disk, so
each process pays the compile, about 0.2 s, once, before
`search.decide_valid` starts its clock; a forked helper inherits the
loaded library.  Where no `cc` is on PATH, no temporary directory can be
made or the build fails, `load()` returns None and `search._cover_tree`
runs its Python body, which is also the reference the tests compare the
kernel against.  `bind`'s tree names a cube by its index, as
`search._cover_tree` does, hands back to the caller's `tick` every 1,024
nodes and maps `cover_run`'s return codes to outcome kinds; the cube
order, the clock and the budget's exception belong to `search`.
`search` imports this module only when it searches, so `import ucycle`
loads neither ctypes nor the compiler.
"""
from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile

# the outcome kinds of cover_run's return codes, in kernel.c's order:
# EXHAUSTED, FOUND, BRANCH, OVER and TICK
KINDS = ("exhausted", "found", "branch", "nodes", "tick")

_INTS = ctypes.POINTER(ctypes.c_int)


@functools.cache
def load():
    """kernel.c compiled and loaded, or None where that fails."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
    try:
        with tempfile.TemporaryDirectory(prefix="ucycle-kernel-",
                                         ignore_cleanup_errors=True) as tmp:
            path = os.path.join(tmp, "kernel.so")
            build = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o",
                                    path, src], stdin=subprocess.DEVNULL,
                                   capture_output=True)
            if build.returncode:
                return None
            lib = ctypes.CDLL(path)
    except OSError:     # no temporary directory, no compiler to run, or a
        return None     # library that will not load
    # without argtypes ctypes would pass the node limit as a C int
    lib.cover_new.argtypes = [ctypes.c_int, ctypes.c_int, _INTS]
    lib.cover_new.restype = ctypes.c_void_p
    lib.cover_free.argtypes = [ctypes.c_void_p]
    lib.cover_free.restype = None
    lib.cover_run.argtypes = [ctypes.c_void_p, ctypes.c_int,
                              ctypes.c_longlong,
                              ctypes.POINTER(ctypes.c_longlong), _INTS]
    lib.cover_run.restype = ctypes.c_int
    return lib


def bind(q, n, N, I):
    """The kernel bound to the exact cover of I over q**n = N words, called
    as `tree(cube, limit, tick)` and answering as `search._cover_tree`
    does; None where the kernel did not load."""
    lib = load()
    if lib is None:
        return None
    iset = (ctypes.c_int * n)(*I)
    out = (ctypes.c_int * N)()
    nodes = ctypes.c_longlong()

    def tree(cube, limit, tick):
        state = lib.cover_new(q, n, iset)
        if not state:
            raise MemoryError("exact-cover kernel: out of memory")
        try:
            # every 1,024 nodes the kernel returns here, so `tick`, an
            # exception it raises, or a signal, ends it as in Python.  A
            # limit below 0 stops at the first node, as in Python, where
            # the kernel would read it as none
            while (kind := KINDS[lib.cover_run(
                    state, -1 if cube is None else cube,
                    -1 if limit is None else max(limit, 0), nodes,
                    out)]) == "tick":
                if tick and (end := tick(nodes.value)):
                    return None if end == "abandon" else \
                        (end, nodes.value, None)
        finally:
            lib.cover_free(state)
        return kind, nodes.value, (out[:N] if kind == "found" else
                                   out[0] if kind == "branch" else None)

    return tree
