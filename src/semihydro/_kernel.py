"""Build and load the C explicit step, _step.c, through ctypes.

load() returns the kernel, or None when it is unavailable: no C compiler
(cc) on PATH, a failed build, a cache directory that cannot be written,
or a library that does not load. solver.run then takes numpy's step,
which gives the same bits. Nothing is printed either way.

The library is built once, by the system C compiler with the fixed flags
FLAGS (no -ffast-math, no -march), into a private per-user cache
directory: $XDG_CACHE_HOME/semihydro, or ~/.cache/semihydro, of mode
0700. Its name carries a hash of the source and the compile command. The
compiler writes a temporary file, which os.replace moves into place, so
processes that build at the same moment each load a whole library.

Importing this module neither builds nor loads the library, and does not
import subprocess; load() does, on the first run of a process.
"""

from __future__ import annotations

import ctypes
import functools
import os

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")


def _cache_dir() -> str:
    """The private cache directory, made if missing; OSError if unusable."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "semihydro")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        raise PermissionError(f"{path} belongs to another user")
    if st.st_mode & 0o077:
        os.chmod(path, 0o700)
    return path


def _compile(command: list) -> bool:
    """Run the compile command silently; True if it succeeded."""
    import subprocess

    try:
        done = subprocess.run(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return done.returncode == 0


def _library() -> str | None:
    """The path of the built library, building it if the cache lacks it."""
    import hashlib
    import platform
    import shutil
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return None
    command = [cc, *FLAGS]
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    for part in (*command, platform.machine()):
        key.update(b"\0" + os.fsencode(part))
    cache = _cache_dir()
    path = os.path.join(cache, f"_step-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    fd, tmp = tempfile.mkstemp(prefix="_step-", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        if not _compile([*command, "-o", tmp, SOURCE]):
            return None
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class Grid(ctypes.Structure):
    """struct step_grid of _step.c: the step's settings and buffers."""

    _fields_ = [("N", ctypes.c_long),
                *((name, ctypes.c_double) for name in ("eps", "dx", "floor", "n_lo", "n_hi")),
                *((name, ctypes.c_int) for name in ("rusanov", "float_walls")),
                *((name, ctypes.c_void_p)
                  for name in ("d", "p", "c", "fn", "fJ", "E", "f2", "h1", "h2", "terms")),
                ("count", ctypes.c_long)]


@functools.cache
def load():
    """The kernel's semihydro_step(grid, n, J, nn, JJ, dt), or None if the
    kernel is unavailable."""
    try:
        path = _library()
        if path is None:
            return None
        step = ctypes.CDLL(path).semihydro_step
    except (OSError, AttributeError):
        return None
    step.restype = ctypes.c_int
    step.argtypes = [ctypes.POINTER(Grid), *[ctypes.c_void_p] * 4, ctypes.c_double]
    return step
