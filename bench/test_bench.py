"""The benchmark's own tests, at tiny sizes (a few seconds in all).

Each workload's program call runs on a small grid and the benchmark's
checks must pass on its outputs and catch a corrupted one; the tracer
must put back every function it wrapped.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import workloads
import semihydro as sh
import semihydro.cli as cli
from semihydro.config import parse_config

BENCH = os.path.dirname(os.path.abspath(__file__))
TINY = """
[model]
gamma = {gamma}
[doping]
profile = sine:1:0.5:1
[initial]
n0 = doping-match
J0 = constant:0
[solver]
epsilon = {eps}
N = {N}
T_final = {T}
boundary = float
output_stride = 25
[diagnostics]
fit_window = 2, 18
[output]
dir = out
"""


def _config(tmp_path, gamma=2.0, eps=1e-3, N=64, T=20.0):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY.format(gamma=gamma, eps=eps, N=N, T=T))
    return str(path), parse_config(path.read_text())


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenario")
    path, cfg = _config(tmp, eps=1e-2)
    out = str(tmp / "out")
    with pytest.warns(UserWarning, match="mollifier"):
        code = cli.cmd_run(cfg, out, True, False)
    return path, out, code


def test_scenario_checks_pass(scenario):
    path, out, code = scenario
    setting = checks.Setting(path)
    attempted, failed, problems = checks.check_scenario(
        out, setting, checks.inviscid_profile(setting.doping, setting.gamma))
    assert problems == []
    assert attempted == 6
    assert set(failed) <= {"decay", "lyapunov"}
    assert code == (1 if failed else 0)


def test_scenario_check_catches_a_wrong_mass(scenario, tmp_path):
    path, out, _ = scenario
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("snapshots.ndjson", "reports.ndjson"):
        (bad / name).write_text(open(f"{out}/{name}").read())
    rows = open(f"{out}/series.csv").read().split("\n")
    cells = rows[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    rows[3] = ",".join(cells)
    (bad / "series.csv").write_text("\n".join(rows))
    setting = checks.Setting(path)
    _, _, problems = checks.check_scenario(
        str(bad), setting, checks.inviscid_profile(setting.doping, setting.gamma))
    assert any("mass column" in p for p in problems)


def test_sweep_checks_pass(tmp_path):
    # eps scaled up with the grid: at N = 64 the workload's eps are unresolved
    eps = [0.04, 0.02, 0.01, 0.005]
    _, cfg = _config(tmp_path, N=64, T=2.0)
    code = cli.cmd_sweep_eps(cfg, eps, str(tmp_path), True, False)
    assert checks.check_sweep(str(tmp_path), eps, code) == (1, [], [])


def test_mms_checks_pass(tmp_path):
    with open(os.path.join(BENCH, "..", "configs", "mms.ini")) as fh:
        cfg = parse_config(fh.read())
    resolutions = [32, 64, 128]
    code = cli.cmd_mms(cfg, resolutions, "standard", str(tmp_path), True, False)
    assert checks.check_mms(str(tmp_path), resolutions, code) == (1, [], [])
    assert checks.check_mms_solution(sh.manufactured_solution) == []


@pytest.mark.parametrize("gamma", workloads.VISCOUS_GAMMAS)
def test_steady_checks_pass(tmp_path, gamma):
    _, cfg = _config(tmp_path, gamma=gamma, N=64)
    setting = checks.Setting(str(tmp_path / "tiny.ini"))
    profile = checks.inviscid_profile(setting.doping, gamma)
    big = dataclasses.replace(cfg, N=1024)
    assert cli.cmd_stationary(big, str(tmp_path / "inv"), True, False) == 0
    assert checks.check_inviscid_csv(str(tmp_path / "inv" / "stationary.csv"), profile) == []

    scfg, D, mass = workloads.viscous_inputs(cfg, gamma)
    prof = sh.solve_viscous_stationary(scfg, D, mass)
    path = str(tmp_path / "viscous.npz")
    np.savez(path, N=prof.N_tilde, J=prof.J_tilde, E=prof.E_tilde,
             residual=prof.shoot_residual, iterations=prof.iterations,
             leak_rate=prof.leak_rate, mass=mass)
    assert checks.check_viscous(path, scfg, D, profile, sh.step, sh.cfl_dt, sh.State) == []


def test_tracer_counts_layers_and_restores_every_function(tmp_path):
    _, cfg = _config(tmp_path, N=32, T=2.0)
    cfg = dataclasses.replace(cfg, checks=("region", "density", "mass"))
    modules = (cli, sh.solver, sh.stationary, sh.diagnostics)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
              if callable(v)}
    with layers.Tracer() as tracer:
        wrapped = [(m.__name__, name) for m, name, _ in tracer._saved]
        assert all(getattr(sys.modules[m], name) is not before[(m, name)]
                   for m, name in wrapped)
        cli.cmd_run(cfg, str(tmp_path / "out"), True, False)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
             if callable(v)}
    assert after == before
    assert len(wrapped) >= 20
    got = tracer.metrics(1.0)
    assert set(got) | {"setup.import_s", "setup.parse_s", "trace.overhead_s"} \
        == set(layers.LAYER_UNITS)
    assert got["solver.steps"] > 0 and got["gas.calls"] >= 2 * got["solver.steps"]
    assert got["stationary.trials"] > 0 and got["io.snapshots_mb"] > 0.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "mms", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
