"""The C library's build, cache and fallback (semihydro._kernel)."""

import itertools
import os
import re
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import semihydro as sh
from semihydro import _kernel, io, solver, stationary

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh XDG_CACHE_HOME, and a loader that has not run in this process."""
    root = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    _kernel.load.cache_clear()
    yield root / "semihydro"
    _kernel.load.cache_clear()


@pytest.fixture
def compiles(monkeypatch):
    """The compile commands run through _kernel._compile."""
    calls = []
    compile_ = _kernel._compile

    def counted(command):
        calls.append(command)
        return compile_(command)

    monkeypatch.setattr(_kernel, "_compile", counted)
    return calls


def _python(code, **env):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC, **env})


def _scenario_run():
    """A short run of the shipped scenario's kind: the bytes of its arrays."""
    cfg = solver.SolverConfig(gamma=2.0, epsilon=2e-3, N=64, T_final=0.2,
                              boundary="float", output_stride=5)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 65)
    traj = solver.run(cfg, D, D(x), 0.1 * np.sin(np.pi * x), mollify=False)
    return [getattr(traj, f).tobytes()
            for f in ("times", "n", "J", "E", "step_times", "mass", "clamp_counts")]


def _require_linux():
    if not sys.platform.startswith("linux"):
        pytest.skip("the build is checked on Linux")


def test_first_run_compiles_once_and_a_fresh_process_loads_the_cache(cache, compiles):
    _require_linux()
    first = _scenario_run()
    assert _kernel.load() is not None
    _scenario_run()
    assert len(compiles) == 1
    command = compiles[0]
    # the source bytes read at import, compiled from a temporary file in the cache
    assert os.path.dirname(command[3]) == str(cache) and command[3].endswith(".c")
    assert command[4:] == ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-lm"]
    assert not any("fast-math" in a or a.startswith("-march") for a in command)
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    libraries = sorted(p.name for p in cache.iterdir())
    assert len(libraries) == 1 and libraries[0].endswith(".so")

    # a fresh process loads the cached library and never calls the compiler
    code = ("import semihydro._kernel as k\n"
            "def no_compiler(command): raise AssertionError(command)\n"
            "k._compile = no_compiler\n"
            "assert k.load() is not None\n")
    proc = _python(code, XDG_CACHE_HOME=str(cache.parent))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in cache.iterdir()) == libraries

    # the numpy step gives the kernel's bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        assert _scenario_run() == first


def _no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))


def _failing_compiler(tmp_path, monkeypatch):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: fatal error: no input' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


def _unwritable_cache(tmp_path, monkeypatch):
    # the cache root is a file, so its semihydro directory cannot be made
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))


@pytest.mark.parametrize("break_build", [_no_compiler, _failing_compiler, _unwritable_cache],
                         ids=["no-compiler", "compiler-fails", "cache-unwritable"])
def test_without_the_kernel_run_falls_back_silently_with_the_same_bytes(
        break_build, cache, tmp_path, monkeypatch, capfd):
    _require_linux()
    expected = _scenario_run()
    assert _kernel.load() is not None
    _kernel.load.cache_clear()
    capfd.readouterr()
    with monkeypatch.context() as mp:
        break_build(tmp_path, mp)
        assert _scenario_run() == expected
        assert _kernel.load() is None
    assert capfd.readouterr() == ("", "")
    # a failed build leaves no temporary file behind
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def _callers_of_the_library(root):
    """A run, the forced runs of mms (at gamma = 2, the forcing the C step
    evaluates, and at 1.5, whose closures it copies), a steady solve and
    the writer of its profile into directory root, each as its module
    calls it."""
    _scenario_run()
    for gamma in (2.0, 1.5):
        cfg = solver.SolverConfig(gamma=gamma, epsilon=0.02, N=16, T_final=0.01)
        solver.mms_convergence(cfg, [16, 32, 64])
    prof = stationary.solve_stationary(sh.DopingProfile.sine(1.0, 0.5, 1.0), sh.GasModel(2.0), 64)
    io.write_stationary(os.path.join(root, "stationary.csv"), prof)


def test_patching_load_alone_sends_every_caller_down_its_fallback(monkeypatch, tmp_path):
    _require_linux()
    lib = _kernel.load()
    assert lib is not None
    calls = []
    for name in _kernel._SIGNATURES:
        def counted(*args, name=name, function=getattr(lib, name)):
            calls.append(name)
            return function(*args)
        monkeypatch.setattr(lib, name, counted)
    fallbacks = []
    for module, name in ((solver, "_advance"), (stationary, "_integrate_python"),
                         (io, "_percent_text")):
        def recorded(*args, name=name, function=getattr(module, name)):
            fallbacks.append(name)
            return function(*args)
        monkeypatch.setattr(module, name, recorded)

    _callers_of_the_library(tmp_path)
    assert {"semihydro_step", "semihydro_shoot", "semihydro_format"} <= set(calls)
    assert fallbacks == []
    calls.clear()
    monkeypatch.setattr(_kernel, "load", lambda: None)
    _callers_of_the_library(tmp_path)
    assert calls == []
    assert set(fallbacks) == {"_advance", "_integrate_python", "_percent_text"}


def test_import_builds_and_loads_nothing(tmp_path):
    code = ("import sys, semihydro.cli, semihydro._kernel as k\n"
            "assert 'subprocess' not in sys.modules, 'subprocess'\n"
            "assert k.load.cache_info().currsize == 0\n"
            "maps = '/proc/self/maps'\n"
            "import os\n"
            "assert not os.path.exists(maps) or '_step-' not in open(maps).read()\n")
    proc = _python(code, XDG_CACHE_HOME=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_load_builds_the_source_as_imported(tmp_path):
    # a copy of the package whose _step.c is edited after import: load()
    # builds the bytes read at import, which match the Grid layout
    _require_linux()
    package = tmp_path / "src" / "semihydro"
    shutil.copytree(os.path.join(SRC, "semihydro"), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = ("import os, semihydro._kernel as k\n"
            "assert k.SOURCE.startswith(os.environ['PYTHONPATH'])\n"
            "with open(k.SOURCE, 'a') as fh: fh.write('#error edited after import\\n')\n"
            "assert k.load() is not None\n"
            "print(*os.listdir(os.path.join(os.environ['XDG_CACHE_HOME'], 'semihydro')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(tmp_path / "src"),
                                            "XDG_CACHE_HOME": str(tmp_path / "xdg")})
    assert proc.returncode == 0, proc.stderr
    # one library, named as this process names the unedited source's, and
    # no temporary file
    (built,) = proc.stdout.split()
    assert built == os.path.basename(_kernel._library())


def test_signatures_name_exactly_the_functions_the_source_exports():
    # the offline twin of CI's nm diff: _SIGNATURES declares each function
    # named semihydro_* that _step.c defines without static, and no other
    source = re.sub(rb"/\*.*?\*/", b"", _kernel._SOURCE_BYTES, flags=re.S)
    static = {}
    for match in re.finditer(rb"\b(semihydro_\w+)\s*\([^()]*\)\s*\{", source):
        # the declaration specifiers: back to the end of the last statement
        start = max(source.rfind(b";", 0, match.start()), source.rfind(b"}", 0, match.start()))
        static[match[1].decode()] = re.search(rb"\bstatic\b", source[start + 1:match.start()])
    assert {"semihydro_forcing_n", "semihydro_forcing_J"} <= {
        name for name, found in static.items() if found}
    exported = {name for name, found in static.items() if not found}
    assert exported == set(_kernel._SIGNATURES) == {
        "semihydro_step", "semihydro_sum", "semihydro_shoot", "semihydro_band_solve",
        "semihydro_format"}


CLONES = '#define STEP_CLONES __attribute__((target_clones("avx2", "default")))'


@pytest.fixture(scope="module")
def single_copy(tmp_path_factory):
    """The library built from a copy of _step.c whose STEP_CLONES is
    empty, with the shipped flags: one copy of each function, the build
    of a host without the loader's dispatch."""
    import ctypes

    _require_linux()
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc)")
    with open(_kernel.SOURCE) as fh:
        source = fh.read()
    assert source.count(CLONES) == 1
    root = tmp_path_factory.mktemp("single_copy")
    copy = root / "_step.c"
    copy.write_text(source.replace(CLONES, "#define STEP_CLONES"))
    path = root / "_step.so"
    assert _kernel._compile([cc, "-o", str(path), str(copy), *_kernel.FLAGS])
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _kernel._SIGNATURES.items():
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    return lib


def _kernel_steps(lib, cfg, forced, steps=25):
    """The bytes of each step's state, time t + dt, mass and clamp count,
    from a wavy state, by the first steps of the C step's march with
    library lib."""
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    m = cfg.model()
    n = 1.0 + 0.4 * np.cos(np.pi * x) + 0.05 * np.sin(7.0 * np.pi * x)
    J = 0.2 * np.sin(np.pi * x)
    forcing = solver.manufactured_forcing(m, cfg.epsilon, x[1:-1]) if forced else None
    stepper = solver._KernelStep(lib, m, cfg, sh.DopingProfile.sine(1.0, 0.5, 1.0)(x),
                                 1.0 / N, (n[0], n[-1]), forcing)
    with np.errstate(all="ignore"):
        # a snapshot is due on every step, so march yields each one
        states = [(n.tobytes(), J.tobytes(), count) for n, J, _, count, _ in
                  itertools.islice(stepper.march(n, J, 0.0, cfg.T_final, 1), steps)]
    times, masses, clamps = stepper.records()
    assert stepper.steps == steps and list(clamps) == [count for _, _, count in states]
    return [(*state, times[k + 1].tobytes(), masses[k + 1].tobytes())
            for k, state in enumerate(states)]


@pytest.mark.parametrize("N", [17, 34, 68, 400])
@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("n_floor", [0.0, 0.8], ids=["vacuum-check", "clamping"])
def test_both_copies_of_the_c_step_give_the_same_bits(
        single_copy, N, scheme, boundary, gamma, forced, n_floor):
    """The AVX2 and the baseline copy of the step give the same bytes. The
    forced-2.0 cases evaluate manufactured_forcing's pair inside the C
    step; the forced-1.5 and forced-3.0 cases take the closure route, the
    closures' values copied into the step's forcing buffers."""
    lib = _kernel.load()
    assert lib is not None
    cfg = solver.SolverConfig(gamma=gamma, epsilon=2e-3, N=N, T_final=10.0, n_floor=n_floor,
                              scheme=scheme, boundary=boundary)
    shipped = _kernel_steps(lib, cfg, forced)
    assert shipped == _kernel_steps(single_copy, cfg, forced)
    if n_floor > 0.0:
        assert shipped[0][2] > 0, "the first step clamps cells"
