"""Build and load the package's C library, _step.c, through ctypes.

The library holds the explicit step that solver.run takes, which also
evaluates the manufactured forcing when its Grid holds a Forcing. Numpy
takes the powers: the characteristic speeds, which the step reduces to
its dt and to the Rusanov flux's radius, p(n), and the forcing's e^-t
and, at gamma != 2, its power (1 + b_n e^-t)**(gamma - 1). The step
keeps the state in two buffer pairs of its Grid and keeps the run's
books there too: the clock t, the step count and the records of each
step's time, mass and clamp count, arrays the Grid points at. Its
status tells the caller when it must act (the STEP_* bits). The mass it
sums as np.sum does (semihydro_sum).
The library also holds the shooting trial and the banded Newton solve of
the stationary module.
load() returns it, or None when it is unavailable: no C compiler (cc) on
PATH, a failed build, a cache directory that cannot be written, or a
library that does not load. Each caller then runs its numpy or Python
counterpart, which gives the same bits. Nothing is printed either way.

The library is built once, by the system C compiler with the fixed flags
FLAGS: -O3 -ffp-contract=off, no -ffast-math and no -march. On x86-64
with glibc, the step's loops are built twice, for AVX2 and for the
baseline (target_clones), and the dynamic loader picks the copy the CPU
runs when it loads the library; both give the same bits. It goes into
a private per-user cache directory: $XDG_CACHE_HOME/semihydro, or
~/.cache/semihydro, of mode 0700. Its name carries a hash of the source,
the compiler and the flags. The source is the bytes _step.c held when
this module was imported, so the library matches the Grid and Forcing
layouts below even if the file changes later: load() writes those bytes
to a temporary file in the cache and compiles that. The compiler writes
a temporary library, which os.replace moves into place, so processes
that build at the same moment each load a whole library.

Importing this module reads _step.c but neither builds nor loads the
library, and does not import subprocess; load() does, on the first call
of a process.
"""

from __future__ import annotations

import ctypes
import functools
import os

# -O3 vectorizes the step's loops; -ffp-contract=off, and no -ffast-math,
# keep each operation IEEE's, so the vector loops give the scalar bits. No
# -march: the library runs on any CPU of the machine type, and the source
# itself asks for an AVX2 copy of the step's loops, which the loader picks
# on a CPU that has AVX2 (STEP_CLONES in _step.c). -lm for libm's pow.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-lm")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
# the source as imported, which load() builds, so that the library matches
# Grid and Forcing below even if the file changes later
with open(SOURCE, "rb") as _fh:
    _SOURCE_BYTES = _fh.read()


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
    key = hashlib.sha256(_SOURCE_BYTES)
    for part in (cc, *FLAGS, platform.machine()):
        key.update(b"\0" + os.fsencode(part))
    cache = _cache_dir()
    path = os.path.join(cache, f"_step-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    fd, source = tempfile.mkstemp(prefix="_step-", suffix=".c", dir=cache)
    tmp = source[:-len(".c")] + ".tmp"      # unique while the source exists
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_SOURCE_BYTES)
        # the flags after the source, so that the linker keeps -lm
        if not _compile([cc, "-o", tmp, source, *FLAGS]):
            return None
        os.replace(tmp, path)
    finally:
        for name in (source, tmp):
            if os.path.exists(name):
                os.unlink(name)
    return path


class Grid(ctypes.Structure):
    """struct step_grid of _step.c: the step's settings, buffers and books.

    The caller fills p = p(n) and the speeds lam1, lam2, numpy's powers;
    the Rusanov flux takes its radius from the speeds. forcing is the
    address of a Forcing, or None: with it set, the step evaluates
    manufactured_forcing's terms itself into the buffers fn and fJ, at
    e^-t = et, set by the caller, and with the power
    (1 + b_n et)**(gamma - 1): the caller's buffer pw, or None at
    gamma = 2. Without it, fn and fJ hold what the caller put there, or
    are None for an unforced step.

    semihydro_step advances k, t and steps itself and writes each step's
    time, mass and clamp count into the records times, masses (cap + 1
    each, the start at 0) and clamps (cap, int64), which the caller
    allocates and replaces with larger ones when the step reports
    STEP_FULL."""

    _fields_ = [("N", ctypes.c_long),
                *((name, ctypes.c_double)
                  for name in ("eps", "dx", "floor", "cfl", "n_lo", "n_hi")),
                *((name, ctypes.c_int) for name in ("rusanov", "float_walls")),
                *((name, ctypes.c_void_p)
                  for name in ("state", "d", "p", "lam1", "lam2", "fn", "fJ",
                               "forcing", "pw", "E", "f2", "r", "h1", "h2", "terms")),
                ("k", ctypes.c_int),
                *((name, ctypes.c_double) for name in ("t", "T", "et", "dt", "mass")),
                *((name, ctypes.c_long) for name in ("count", "stride", "steps", "cap")),
                *((name, ctypes.c_void_p) for name in ("times", "masses", "clamps"))]


# the status bits of semihydro_step, _step.c's enum: a blowup (NONFINITE or
# VACUUM, with the grid's clock unchanged), or the events of a step taken
NONFINITE, VACUUM, CLAMPED, SNAPSHOT, LAST, FULL = 1, 2, 4, 8, 16, 32


class Forcing(ctypes.Structure):
    """struct forcing_grid of _step.c: the x-only factors and constants of
    manufactured_forcing's pair, which solver._KernelStep builds."""

    _fields_ = [("size", ctypes.c_long),
                *((name, ctypes.c_double) for name in ("eps", "two_eps", "two_pi", "p0_gamma")),
                *((name, ctypes.c_void_p)
                  for name in ("a_t", "a_x", "a_xx", "b_n", "b_J", "b_nx", "b_Jx", "b_Jxx", "b_E"))]


# name: (restype, argtypes)
_SIGNATURES = {
    # (grid): its inputs and the run's books are fields of the grid
    "semihydro_step": (ctypes.c_int, [ctypes.POINTER(Grid)]),
    # (grid, dt)
    "semihydro_advance": (ctypes.c_int, [ctypes.POINTER(Grid), ctypes.c_double]),
    # (a, n)
    "semihydro_sum": (ctypes.c_double, [ctypes.c_void_p, ctypes.c_long]),
    # (N, N0, d2, c, ex, floor, cap, Nt, Et, at)
    "semihydro_shoot": (ctypes.c_int, [ctypes.c_long, ctypes.c_double, ctypes.c_void_p,
                                       *[ctypes.c_double] * 4, *[ctypes.c_void_p] * 2,
                                       ctypes.POINTER(ctypes.c_long)]),
    # (n, kl, ku, ab, b)
    "semihydro_band_solve": (ctypes.c_int, [*[ctypes.c_long] * 3, *[ctypes.c_void_p] * 2]),
}


@functools.cache
def load():
    """The library, its functions' signatures declared, or None if it is
    unavailable."""
    try:
        path = _library()
        if path is None:
            return None
        lib = ctypes.CDLL(path)
        functions = [getattr(lib, name) for name in _SIGNATURES]
    except (OSError, AttributeError):
        return None
    for function, (restype, argtypes) in zip(functions, _SIGNATURES.values()):
        function.restype = restype
        function.argtypes = argtypes
    return lib
