"""End-to-end command-line harness tests: exit codes, files, determinism."""

import dataclasses
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import interp1d

from semihydro import cli, io
from semihydro.config import ConfigError, parse_config
from semihydro.field import DopingProfile
from semihydro.gas import GasModel
from semihydro.solver import BlowupError, run
from semihydro.stationary import BracketError, NewtonError, solve_stationary

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

EQUILIBRIUM = """
[model]
gamma = 2.0
[doping]
profile = constant:1
[solver]
epsilon = 1e-3
N = 100
T_final = 1.5
"""

SINE_SMALL = """
[model]
gamma = 2.0
[doping]
profile = sine:1:0.5:1
[solver]
epsilon = 1e-3
N = 100
T_final = 2.0
boundary = float
[diagnostics]
checks = region, density, entropy, lyapunov, mass
"""

# the density of this run reaches vacuum near x = 0.09 by t = 0.55
VACUUM = """
[model]
gamma = 2.0
[doping]
profile = sine:1:0.5:1
[initial]
n0 = sine:1:0.99:1
[solver]
epsilon = 1e-4
N = 200
T_final = 2
boundary = float
n_floor = {floor}
"""


def _records(out) -> dict:
    """The reports.ndjson records in out, by name."""
    lines = (out / "reports.ndjson").read_text().splitlines()
    return {r["name"]: r for r in map(json.loads, lines)}


@pytest.fixture()
def eq_config(tmp_path):
    p = tmp_path / "eq.ini"
    p.write_text(EQUILIBRIUM)
    return p


def test_run_equilibrium_exits_zero(eq_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", str(eq_config), "--out-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "[pass]" in captured.out
    for name in ("snapshots.ndjson", "series.csv", "reports.ndjson"):
        assert (out / name).exists()
    # snapshot lines are valid JSON with the full node arrays
    first = json.loads((out / "snapshots.ndjson").read_text().splitlines()[0])
    assert first["t"] == 0
    assert len(first["n"]) == 101
    header = (out / "series.csv").read_text().splitlines()[0]
    assert header == "t,mass,Phi,L,max_wbar,min_zbar"
    names = [json.loads(line)["name"]
             for line in (out / "reports.ndjson").read_text().splitlines()]
    assert names == ["invariant_region", "density_bound", "entropy_residual",
                     "decay", "lyapunov", "mass"]
    # dirichlet walls: Phi and L are measured against the inviscid profile
    records = _records(out)
    for name in ("decay", "lyapunov"):
        assert records[name]["reference"] == "inviscid"
        assert "steady_gap" not in records[name]
    assert multiprocessing.active_children() == []


def test_run_is_byte_identical(eq_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", str(eq_config), "--out-dir", str(out_a), "--quiet"]) == 0
    assert cli.main(["run", str(eq_config), "--out-dir", str(out_b), "--quiet"]) == 0
    for name in ("snapshots.ndjson", "series.csv", "reports.ndjson"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_quiet_suppresses_output(eq_config, tmp_path, capsys):
    cli.main(["run", str(eq_config), "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert capsys.readouterr().out == ""


def test_run_small_scenario_checks_pass(tmp_path):
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "out"), "--quiet"])
    assert code == 0


def test_run_enabled_decay_with_short_horizon_refuses(tmp_path, capsys):
    # window (2, 18) holds a single sample of a T = 2 run; with the decay
    # check enabled that is a refusal, not a silent skip
    p = tmp_path / "short.ini"
    p.write_text(SINE_SMALL.replace("checks = region, density, entropy, "
                                    "lyapunov, mass", "checks = decay"))
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "at least 10 samples" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    # every snapshot is written, the last partial chunk's too, though the
    # diagnostics ran while the writer was still busy
    p.write_text(SINE_SMALL.replace("checks = region, density, entropy, "
                                    "lyapunov, mass", "checks = region"))
    assert cli.main(["run", str(p), "--out-dir", str(tmp_path / "ok"), "--quiet"]) == 0
    snapshots = (tmp_path / "o" / "snapshots.ndjson").read_bytes()
    assert snapshots == (tmp_path / "ok" / "snapshots.ndjson").read_bytes()
    assert len(snapshots.splitlines()) % io.SNAPSHOT_CHUNK != 0


def test_run_with_sparse_snapshots_is_a_diagnostic_refusal(tmp_path, capsys):
    # the entropy check needs several snapshots per bump; a refusal names
    # itself instead of posing as a config error, and keeps exit code 4
    p = tmp_path / "sparse.ini"
    p.write_text(SINE_SMALL.replace("boundary = float", "boundary = float\noutput_stride = 200")
                 .replace("region, density, entropy, lyapunov, mass", "entropy"))
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("diagnostic refused: snapshot spacing")
    assert "config error" not in err


def test_run_fails_when_an_enabled_check_fails(eq_config, monkeypatch, tmp_path, capsys):
    check = cli.diag.density_bound_check
    monkeypatch.setattr(cli.diag, "density_bound_check",
                        lambda *a: dataclasses.replace(check(*a), passed=False))
    code = cli.main(["run", str(eq_config), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL] density_bound" in capsys.readouterr().out
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("key, value", [("region_M", "0.5"), ("lambda_margin", "1.5"),
                                        ("entropy_tol_factor", "10")])
def test_retired_diagnostics_keys_exit_4_before_any_output(key, value, tmp_path, capsys):
    # the checks derive M, Lambda and the entropy tolerance from the data
    p = tmp_path / "retired.ini"
    p.write_text(EQUILIBRIUM + f"[diagnostics]\n{key} = {value}\n")
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert f"unknown key {key!r} in [diagnostics]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scenario_passes_against_the_viscous_steady_state(tmp_path):
    # float walls: the run settles on the scheme's viscous steady state,
    # about 9.5e-4 from the inviscid profile at eps = 1e-3
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="mollifier"):
        code = cli.main(["run", os.path.join(CONFIGS, "scenario_sine.ini"),
                         "--out-dir", str(out), "--quiet"])
    assert code == 0
    records = _records(out)
    assert records["decay"]["reference"] == records["lyapunov"]["reference"] == "viscous"
    assert 0.0 < records["decay"]["steady_gap"] <= 10 * 1e-3
    assert "steady_gap" not in records["lyapunov"]


def test_missing_config_exits_4(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.ini")])
    assert code == 4
    assert "cannot read" in capsys.readouterr().err


def test_invalid_config_exits_4_and_lists_errors(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[model]\ngamma = 9\n[doping]\nprofile = wedge\n"
                 "[solver]\nepsilon = 1e-3\nN = 100\nT_final = 1\n")
    code = cli.main(["run", str(p)])
    assert code == 4
    err = capsys.readouterr().err
    assert "gamma" in err and "doping" in err


def test_exp_relaxation_exits_4_before_any_output(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text(EQUILIBRIUM + "relaxation = exp\n")
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "relaxation must be explicit, got 'exp'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_blowup_maps_to_exit_2(eq_config, monkeypatch, tmp_path, capsys):
    def explode(*a, **kw):
        raise BlowupError("synthetic blowup", 3, 0.25)
    monkeypatch.setattr(cli, "run", explode)
    code = cli.main(["run", str(eq_config), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "blowup" in capsys.readouterr().err


@pytest.mark.parametrize("floor, message", [("0", "vacuum at cell"),
                                            ("1e-3", "clamping exceeded budget")])
def test_blowup_exits_2_and_writes_partial_snapshots(tmp_path, capsys, monkeypatch,
                                                     floor, message):
    p = tmp_path / "vacuum.ini"
    p.write_text(VACUUM.format(floor=floor))
    cfg = parse_config(p.read_text())
    D, _, n0, J0 = cli._initial_state(cfg)
    with pytest.warns(UserWarning, match="mollifier"), pytest.raises(BlowupError) as exc:
        run(cfg, D, n0, J0)
    traj = exc.value.trajectory
    assert traj.times.size > io.SNAPSHOT_CHUNK
    io.write_snapshots(str(tmp_path / "expected.ndjson"), traj)
    for cpus in ("pool", "one-cpu"):
        if cpus == "one-cpu":
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        out = tmp_path / cpus
        with pytest.warns(UserWarning, match="mollifier"):
            code = cli.main(["run", str(p), "--out-dir", str(out), "--quiet"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (out / "series.csv").exists()
        # the streamed file holds the snapshots of the blowup's partial trajectory
        assert ((out / "snapshots.ndjson").read_bytes()
                == (tmp_path / "expected.ndjson").read_bytes())


def _config_with_snapshots(K: int):
    """SINE_SMALL at N = 32 with T_final set so that run records K snapshots."""
    cfg = parse_config(SINE_SMALL.replace("N = 100", "N = 32").replace(
        "region, density, entropy, lyapunov, mass", "region, density, mass"))
    D, _, n0, J0 = cli._initial_state(cfg)
    with pytest.warns(UserWarning, match="mollifier"):
        probe = run(cfg, D, n0, J0)
    # the same steps up to the (K-1)th, which now ends the run
    return dataclasses.replace(cfg, T_final=float(probe.step_times[K - 1]))


@pytest.mark.parametrize("cpus", ["pool", "one-cpu"])
@pytest.mark.parametrize("K", [1, io.SNAPSHOT_CHUNK - 1, io.SNAPSHOT_CHUNK,
                               io.SNAPSHOT_CHUNK + 1])
def test_streamed_snapshots_are_those_write_snapshots_writes(K, cpus, tmp_path,
                                                             monkeypatch):
    # a writer process takes the full chunks and the caller writes the rest;
    # the file must not tell where a chunk ended
    if cpus == "one-cpu":
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    cfg = _config_with_snapshots(K)
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshots.ndjson").write_text("an earlier run's snapshots\n" * 100)
    with pytest.warns(UserWarning, match="mollifier"):
        assert cli.cmd_run(cfg, str(out), True, False) == 0
    assert multiprocessing.active_children() == []
    D, _, n0, J0 = cli._initial_state(cfg)
    with pytest.warns(UserWarning, match="mollifier"):
        traj = run(cfg, D, n0, J0)
    assert traj.times.size == K
    io.write_snapshots(str(tmp_path / "expected.ndjson"), traj)
    assert ((out / "snapshots.ndjson").read_bytes()
            == (tmp_path / "expected.ndjson").read_bytes())


@pytest.mark.parametrize("text, solve, error", [
    (EQUILIBRIUM, "solve_stationary", BracketError("no sign change", -1.0, -2.0)),
    (SINE_SMALL, "solve_viscous_stationary", NewtonError("viscous steady Newton stalled")),
], ids=["bracket", "newton"])
def test_steady_solve_failure_maps_to_exit_3(text, solve, error, monkeypatch, tmp_path,
                                             capsys):
    # dirichlet walls take the inviscid profile, float walls the viscous one
    p = tmp_path / "run.ini"
    p.write_text(text)

    def fail(*a, **kw):
        raise error
    monkeypatch.setattr(cli, solve, fail)
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert f"stationary solve failed: {error}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    # every snapshot is written, the last partial chunk's too
    monkeypatch.undo()
    assert cli.main(["run", str(p), "--out-dir", str(tmp_path / "ok"), "--quiet"]) == 0
    snapshots = (tmp_path / "o" / "snapshots.ndjson").read_bytes()
    assert snapshots == (tmp_path / "ok" / "snapshots.ndjson").read_bytes()
    assert len(snapshots.splitlines()) % io.SNAPSHOT_CHUNK != 0


# a doping so small that the steady trials' power 2 - gamma = -1 overflows
SUBNORMAL = """
[model]
gamma = 3.0
[doping]
profile = constant:1e-320
[solver]
epsilon = 1e-3
N = 100
T_final = 0
"""


@pytest.mark.parametrize("command", ["stationary", "run"])
def test_an_overflowing_shooting_power_exits_3(command, tmp_path):
    # every trial diverges, so the steady solve finds no bracket: exit 3, no
    # traceback; the run has written its one snapshot by then
    p = tmp_path / "subnormal.ini"
    p.write_text(SUBNORMAL)
    out = tmp_path / "out"
    proc = _command([command, str(p), "--out-dir", str(out), "--quiet"])
    assert proc.returncode == 3, proc.stderr
    assert "stationary solve failed: no sign change" in proc.stderr
    assert "Traceback" not in proc.stderr
    if command == "run":
        assert len((out / "snapshots.ndjson").read_text().splitlines()) == 1


def test_stationary_subcommand(eq_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["stationary", str(eq_config), "--out-dir", str(out),
                     "--quiet"]) == 0
    lines = (out / "stationary.csv").read_text().splitlines()
    head = json.loads(lines[0][2:])
    assert lines[0].startswith("# {")
    assert head["shoot_residual"] <= 1e-10
    assert lines[1] == "x,N_tilde,E_tilde"
    data = np.loadtxt(str(out / "stationary.csv"), delimiter=",", skiprows=2)
    assert data.shape == (101, 3)
    assert np.max(np.abs(data[:, 1] - 1.0)) < 1e-14
    # the rows are the profile's values as fmt renders each one
    cfg = parse_config(EQUILIBRIUM)
    prof = solve_stationary(DopingProfile.from_spec(cfg.doping_spec), GasModel(cfg.gamma),
                            cfg.N)
    rows = "".join(f"{io.fmt(prof.x[i])},{io.fmt(prof.N_tilde[i])},{io.fmt(prof.E_tilde[i])}\n"
                   for i in range(prof.x.size))
    assert "\n".join(lines[2:]) + "\n" == rows


def test_commands_use_the_profiles_parse_config_validated(tmp_path):
    # a table file changed after parsing must not reach a run: the commands,
    # and the copies dataclasses.replace makes, use the parsed profiles
    doping, n0 = tmp_path / "doping.csv", tmp_path / "n0.csv"
    doping.write_text("0.0,1.0\n0.5,1.5\n1.0,1.0\n")
    n0.write_text("0.0,1.2\n1.0,0.9\n")
    cfg = parse_config(EQUILIBRIUM.replace("constant:1", f"table:{doping}")
                       + f"[initial]\nn0 = table:{n0}\n")
    state = cli._initial_state(cfg)
    assert cli.cmd_stationary(cfg, str(tmp_path / "before"), True, False) == 0
    doping.write_text("0.0,-1.0\n1.0,-1.0\n")  # would fail validation
    n0.unlink()
    copy = dataclasses.replace(cfg, T_final=1.0)
    assert copy.doping is cfg.doping and copy.n0 is cfg.n0
    for c in (cfg, copy):
        D, dx, n, J = cli._initial_state(c)
        assert D is state[0] and dx == state[1]
        assert np.array_equal(n, state[2]) and np.array_equal(J, state[3])
    assert cli.cmd_stationary(copy, str(tmp_path / "after"), True, False) == 0
    assert ((tmp_path / "after" / "stationary.csv").read_bytes()
            == (tmp_path / "before" / "stationary.csv").read_bytes())


def test_relative_table_paths_resolve_against_the_config_directory(tmp_path, monkeypatch):
    # a config and its tables in one directory, run from another: the
    # relative table: paths are the config file's, absolute ones are kept
    configs, elsewhere = tmp_path / "configs", tmp_path / "elsewhere"
    (configs / "tables").mkdir(parents=True)
    elsewhere.mkdir()
    (configs / "tables" / "doping.csv").write_text("0.0,1.0\n0.5,1.5\n1.0,1.0\n")
    (configs / "tables" / "n0.csv").write_text("0.0,1.2\n1.0,0.9\n")
    # the short run's decay fit would refuse; the mass record is advisory here
    checks = "[diagnostics]\nchecks = mass\n"
    relative = EQUILIBRIUM.replace("constant:1", "table:tables/doping.csv")
    (configs / "relative.ini").write_text(
        relative + checks + "[initial]\nn0 = table:tables/n0.csv\n")
    absolute = EQUILIBRIUM.replace("constant:1", f"table:{configs / 'tables' / 'doping.csv'}")
    (elsewhere / "absolute.ini").write_text(
        absolute + checks + f"[initial]\nn0 = table:{configs / 'tables' / 'n0.csv'}\n")
    monkeypatch.chdir(elsewhere)
    for config, out in ((str(configs / "relative.ini"), "a"), ("../configs/relative.ini", "b"),
                        ("absolute.ini", "c")):
        assert cli.main(["run", config, "--out-dir", out, "--quiet"]) == 0
    for name in ("snapshots.ndjson", "series.csv", "reports.ndjson"):
        expected = (elsewhere / "c" / name).read_bytes()
        assert (elsewhere / "a" / name).read_bytes() == expected
        assert (elsewhere / "b" / name).read_bytes() == expected
    # the config's text alone knows no directory: the working directory's
    with pytest.raises(ConfigError, match="cannot read profile table"):
        parse_config((configs / "relative.ini").read_text())
    assert parse_config((configs / "relative.ini").read_text(), str(configs)).doping(0.5) == 1.5


def test_doping_match_initial_current_is_the_doping(tmp_path):
    # doping-match means D(x) for J0 as for n0
    p = tmp_path / "j0.ini"
    p.write_text(EQUILIBRIUM.replace("constant:1", "sine:1:0.5:1")
                 + "[initial]\nJ0 = doping-match\n"
                 + "[diagnostics]\nchecks = region, density, mass\n")
    D, dx, n0, J0 = cli._initial_state(parse_config(p.read_text()))
    assert np.array_equal(J0, D(np.linspace(0.0, 1.0, 101)))
    assert cli.main(["run", str(p), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0


def test_sweep_eps_validation(eq_config, tmp_path, capsys):
    code = cli.main(["sweep-eps", str(eq_config), "--eps", "1e-3,2e-3,4e-3",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "decreasing" in capsys.readouterr().err
    code = cli.main(["sweep-eps", str(eq_config), "--eps", "1e-3",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 4


def test_sweep_eps_small_case(tmp_path):
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    out = tmp_path / "out"
    code = cli.main(["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3",
                     "--out-dir", str(out), "--quiet"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "eps_coarse,eps_fine,l1_distance"
    assert len(rows) == 3
    d = [float(r.split(",")[2]) for r in rows[1:]]
    assert d[0] > d[1]
    assert multiprocessing.active_children() == []


def test_sweep_eps_ends_at_T_final(tmp_path):
    # at N = 100 the eps = 0.04 run's last regular step stops 3.7e-14 short
    # of T_final; run must land on T_final or the resampling onto [0, T]
    # refuses the grid point T
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="mollifier"):
        code = cli.main(["sweep-eps", str(p), "--eps", "0.04,0.02,0.01,0.005",
                         "--out-dir", str(out), "--quiet"])
    assert code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this semihydro."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# semihydro's command line in a process that may run on one CPU only
_ONE_CPU = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from semihydro import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _command(args, one_cpu=False, flags=()):
    code = _ONE_CPU if one_cpu else "import sys; from semihydro import cli; sys.exit(cli.main())"
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=_src_env(), timeout=120)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and at least two usable CPUs")


@needs_two_cpus
def test_sweep_eps_on_one_cpu_matches_the_worker_processes(tmp_path):
    # with two CPUs a worker process runs the largest eps; pinned to one CPU
    # every run is the caller's, and the outputs must not tell the two apart
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    args = ["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3", "--verbose"]
    pool = _command([*args, "--out-dir", str(tmp_path / "pool")])
    one = _command([*args, "--out-dir", str(tmp_path / "one")], one_cpu=True)
    assert pool.returncode == one.returncode == 0, pool.stderr + one.stderr
    assert ((tmp_path / "pool" / "sweep.csv").read_bytes()
            == (tmp_path / "one" / "sweep.csv").read_bytes())
    # step lines and the warnings come in eps order
    assert pool.stdout == one.stdout
    assert [line.split(":")[0] for line in pool.stdout.splitlines()[:3]] == \
        ["eps = 0.004", "eps = 0.002", "eps = 0.001"]
    assert pool.stderr == one.stderr
    assert [line.split(" = ")[1] for line in pool.stderr.splitlines()
            if "mollifier" in line] == [f"{w} cells clamped to 3" for w in ("0.40", "0.20", "0.10")]


@needs_two_cpus
@pytest.mark.parametrize("eps", ["1e-4,5e-5,2.5e-5", "4e-2,2e-2,1e-4"],
                         ids=["every-run-fails", "last-run-fails"])
def test_sweep_eps_blowup_exits_2_as_on_one_cpu(eps, tmp_path, capsys):
    # eps 1e-4 reaches vacuum at t = 0.49 and the smaller two sooner, each
    # with its own message; the first failure in eps order is the one
    # reported, wherever it ran, after the warnings of every run: each start
    # is mollified before the first run
    p = tmp_path / "vacuum.ini"
    p.write_text(VACUUM.format(floor="0").replace("T_final = 2", "T_final = 1"))
    args = ["sweep-eps", str(p), "--eps", eps, "--out-dir", str(tmp_path / "o")]
    with pytest.warns(UserWarning, match="mollifier width epsilon/dx = 0.02 "):
        code = cli.main(args)
    assert code == 2
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err.startswith("solver blowup: vacuum at cell 2 (x = 0.0100), t = 0.491521")
    one = _command(args, one_cpu=True)
    assert one.returncode == 2
    assert one.stderr.endswith(err)
    # the blowup line ends stderr, after the warning of every eps whose
    # width is clamped; a message is shown once per process, and 5e-5 and
    # 2.5e-5 both read 0.01
    widths = [line.split(" = ")[1] for line in one.stderr.splitlines()
              if "UserWarning: mollifier" in line]
    assert widths == list(dict.fromkeys(
        f"{float(e) / (1.0 / 200):.2f} cells clamped to 3"
        for e in eps.split(",") if round(float(e) / (1.0 / 200)) < 3))


@needs_two_cpus
@pytest.mark.parametrize("one_cpu", [False, True], ids=["pool", "one-cpu"])
def test_sweep_eps_warnings_obey_the_module_filter(one_cpu, tmp_path):
    # the caller mollifies every start, so the warnings come from
    # semihydro.solver in the calling process, wherever the runs ran
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    args = ["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3", "--out-dir", str(tmp_path / "o")]
    shown = _command(args, one_cpu)
    quiet = _command(args, one_cpu, flags=["-W", "ignore::UserWarning:semihydro.solver"])
    assert shown.returncode == quiet.returncode == 0, shown.stderr + quiet.stderr
    assert shown.stderr.count("UserWarning: mollifier") == 3
    assert quiet.stderr == ""


# two sweeps in one interpreter, which may run on one CPU only
_TWO_SWEEPS = """
import os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from semihydro import cli
for out in ("first", "second"):
    assert cli.main([*sys.argv[3:], "--out-dir", os.path.join(sys.argv[2], out)]) == 0
"""


@needs_two_cpus
@pytest.mark.parametrize("where", ["pool", "one-cpu"])
def test_two_sweeps_in_one_process_warn_once(where, tmp_path):
    # a warning is shown once per location and message in a process, so
    # the second sweep, with the same widths, shows none
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL.replace("T_final = 2.0", "T_final = 0.5"))
    args = ["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3", "--quiet"]
    proc = subprocess.run([sys.executable, "-c", _TWO_SWEEPS, where, str(tmp_path), *args],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [line.split(" = ")[1] for line in proc.stderr.splitlines()
            if "UserWarning: mollifier" in line] == \
        [f"{w} cells clamped to 3" for w in ("0.40", "0.20", "0.10")]


# |J0| = 1e160 overflows J * J on the first step
NON_FINITE = SINE_SMALL + """
[initial]
J0 = sine:0:1e160:1
"""


@needs_two_cpus
def test_non_finite_blowup_prints_no_numpy_warning(tmp_path):
    # the run stops on its non-finite state with a BlowupError that names
    # the cell; numpy's warnings on the way there are not shown, wherever
    # the run ran
    p = tmp_path / "nonfinite.ini"
    p.write_text(NON_FINITE)
    args = ["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3", "--out-dir", str(tmp_path / "o")]
    pool = _command(args)
    one = _command(args, one_cpu=True)
    assert pool.returncode == one.returncode == 2
    assert pool.stderr == one.stderr
    assert "RuntimeWarning" not in pool.stderr
    assert "solver blowup: non-finite state at cell" in pool.stderr
    cfg = parse_config(NON_FINITE)
    D, _, n0, J0 = cli._initial_state(cfg)
    with pytest.warns(UserWarning, match="mollifier"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowupError, match="non-finite"):
            run(cfg, D, n0, J0)


# the calling script of a worker process that starts by spawning: the worker
# imports it as __mp_main__, so its top level must be guarded
_SPAWN = """
import multiprocessing, sys
from semihydro import cli

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.exit(cli.main(sys.argv[1:]))
"""


@needs_two_cpus
@pytest.mark.parametrize("command, files", [
    (["run", "{eq}"], ["snapshots.ndjson", "series.csv", "reports.ndjson"]),
    (["sweep-eps", "{sine}", "--eps", "4e-3,2e-3,1e-3"], ["sweep.csv"]),
], ids=["run", "sweep-eps"])
def test_spawned_workers_write_the_same_bytes(command, files, tmp_path):
    script = tmp_path / "guarded.py"
    script.write_text(_SPAWN)
    (tmp_path / "eq.ini").write_text(EQUILIBRIUM)
    (tmp_path / "sine.ini").write_text(SINE_SMALL)
    args = [a.format(eq=tmp_path / "eq.ini", sine=tmp_path / "sine.ini") for a in command]
    spawned = subprocess.run([sys.executable, str(script), *args, "--out-dir",
                              str(tmp_path / "spawn")], capture_output=True, text=True,
                             env=_src_env(), timeout=120)
    default = _command([*args, "--out-dir", str(tmp_path / "default")])
    assert spawned.returncode == default.returncode == 0, spawned.stderr
    assert spawned.stderr == default.stderr
    for name in files:
        assert ((tmp_path / "spawn" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes())


@pytest.mark.filterwarnings("ignore:mollifier width")
@pytest.mark.parametrize("command", [
    ["run", "{eq}"], ["stationary", "{eq}"],
    ["sweep-eps", "{sine}", "--eps", "4e-3,2e-3,1e-3"],
    ["mms", "{eq}", "--resolutions", "32,64,128", "--solution", "constant"],
], ids=["run", "stationary", "sweep-eps", "mms"])
def test_an_unwritable_out_dir_is_an_io_error(command, tmp_path, capsys):
    # exit 1 means a check failed; an output that cannot be written is not that
    (tmp_path / "eq.ini").write_text(EQUILIBRIUM)
    (tmp_path / "sine.ini").write_text(SINE_SMALL.replace("T_final = 2.0", "T_final = 0.2"))
    (tmp_path / "file").write_text("")
    args = [a.format(eq=tmp_path / "eq.ini", sine=tmp_path / "sine.ini") for a in command]
    code = cli.main([*args, "--out-dir", str(tmp_path / "file" / "sub")])
    assert code == 4
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore:mollifier width")
@pytest.mark.parametrize("command, integrator", [
    (["sweep-eps", "{sine}", "--eps", "4e-3,2e-3,1e-3,5e-4"], "run"),
    (["mms", "{eq}", "--resolutions", "100,200,400"], "mms_convergence"),
], ids=["sweep-eps", "mms"])
def test_an_unwritable_out_dir_is_reported_before_any_run(command, integrator, tmp_path,
                                                          capsys, monkeypatch):
    (tmp_path / "eq.ini").write_text(EQUILIBRIUM)
    (tmp_path / "sine.ini").write_text(SINE_SMALL)
    (tmp_path / "file").write_text("")
    calls = []
    real = getattr(cli, integrator)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, integrator, counted)
    args = [a.format(eq=tmp_path / "eq.ini", sine=tmp_path / "sine.ini") for a in command]
    code = cli.main([*args, "--out-dir", str(tmp_path / "file" / "sub")])
    assert code == 4
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert calls == []
    assert multiprocessing.active_children() == []


def test_sweep_eps_zero_horizon_is_a_config_error(tmp_path, capsys):
    # one snapshot per run leaves no time interval to measure a distance on
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL.replace("T_final = 2.0", "T_final = 0"))
    out = tmp_path / "out"
    code = cli.main(["sweep-eps", str(p), "--eps", "4e-3,2e-3,1e-3",
                     "--out-dir", str(out)])
    assert code == 4
    assert "T_final > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["4e-2,2e-2,0", "4e-2,2e-2,-1", "4e-2,nan,1e-2",
                                 "inf,2e-2,1e-2"])
def test_sweep_eps_rejects_a_bad_viscosity_before_any_run(eps, tmp_path, capsys,
                                                          monkeypatch):
    # NaN passes the decreasing check (every comparison with it is false);
    # the epsilon check must still come before the valid leading runs
    def no_run(*args, **kwargs):
        raise AssertionError("run called before every epsilon was checked")
    monkeypatch.setattr(cli, "run", no_run)
    p = tmp_path / "sine.ini"
    p.write_text(SINE_SMALL)
    out = tmp_path / "out"
    code = cli.main(["sweep-eps", str(p), "--eps", eps, "--out-dir", str(out)])
    assert code == 4
    assert "epsilon must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_mms_zero_horizon_is_a_config_error(tmp_path, capsys):
    # without a step the errors are zero and would read as an exact solution
    p = tmp_path / "mms.ini"
    p.write_text(EQUILIBRIUM.replace("T_final = 1.5", "T_final = 0"))
    out = tmp_path / "out"
    code = cli.main(["mms", str(p), "--resolutions", "32,64,128", "--out-dir", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert "T_final > 0" in captured.err
    assert "exact" not in captured.out
    assert not out.exists()


_IMPORTS = """
import sys
import semihydro.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
# 0 or 1: the command ran to its verdict
assert cli.main(["mms", sys.argv[1], "--resolutions", "16,32,64",
                 "--out-dir", sys.argv[3], "--quiet"]) in (0, 1)
assert cli.main(["sweep-eps", sys.argv[2], "--eps", "4e-3,2e-3,1e-3",
                 "--out-dir", sys.argv[3], "--quiet"]) in (0, 1)
print(scipy_modules())
assert cli.main(["stationary", sys.argv[2], "--out-dir", sys.argv[3], "--quiet"]) == 0
print(scipy_modules())
assert cli.main(["run", sys.argv[4], "--out-dir", sys.argv[3], "--quiet"]) == 0
print(scipy_modules())
"""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded by other tests. The
    # steady solve's root finder is a port of scipy's brentq, so no
    # command pays the scipy import.
    mms = tmp_path / "mms.ini"
    mms.write_text(EQUILIBRIUM.replace("T_final = 1.5", "T_final = 0.01"))
    sine = tmp_path / "sine.ini"
    sine.write_text(SINE_SMALL.replace("N = 100", "N = 32").replace("T_final = 2.0",
                                                                    "T_final = 0.1"))
    run = tmp_path / "run.ini"
    run.write_text(SINE_SMALL)
    proc = subprocess.run([sys.executable, "-c", _IMPORTS, str(mms), str(sine),
                           str(tmp_path / "out"), str(run)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 4


_VISCOUS_IMPORTS = """
import dataclasses, sys
import numpy as np
from semihydro import _kernel
from semihydro.config import parse_config
from semihydro.stationary import solve_viscous_stationary

with open(sys.argv[1]) as fh:
    cfg = parse_config(fh.read())
x = np.linspace(0.0, 1.0, cfg.N + 1)
mass = float(np.trapezoid(cfg.doping(x), dx=1.0 / cfg.N))
for gamma in (1.5, 2.0, 3.0):
    prof = solve_viscous_stationary(dataclasses.replace(cfg, gamma=gamma), cfg.doping, mass)
    assert prof.shoot_residual <= 1e-10, prof.shoot_residual
print(_kernel.load() is not None)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
def test_viscous_solve_imports_no_scipy(kernel, tmp_path):
    # the scenario's viscous steady states in a fresh interpreter: the band
    # LU is the C library's, or numpy's when the library cannot be built
    # (the cache path is a regular file)
    env = _src_env()
    if not kernel:
        (tmp_path / "no_cache").write_text("")
        env["XDG_CACHE_HOME"] = str(tmp_path / "no_cache")
    elif not sys.platform.startswith("linux"):
        pytest.skip("the build is checked on Linux")
    proc = subprocess.run([sys.executable, "-c", _VISCOUS_IMPORTS,
                           os.path.join(CONFIGS, "scenario_sine.ini")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(kernel), "[]"]


def test_import_loads_no_process_pool():
    # sweep-eps imports concurrent.futures only when it starts worker processes
    code = ("import sys, semihydro.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_KNOTS = hnp.arrays(np.float64, st.integers(2, 50), unique=True,
                    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(_KNOTS, st.integers(1, 5), st.data())
def test_interp1d_is_scipy_interp1d(knots, M, data):
    x = np.sort(knots)
    y = data.draw(hnp.arrays(np.float64, (x.size, M),
                             elements=st.floats(-1e6, 1e6, allow_nan=False)))
    inside = data.draw(hnp.arrays(np.float64, st.integers(0, 20),
                                  elements=st.floats(x[0], x[-1])))
    x_new = np.concatenate((inside, x[[0, -1]], x))
    with np.errstate(over="ignore", invalid="ignore"):  # knots a few ulps apart
        expected = interp1d(x, y, axis=0, copy=False, assume_sorted=True)(x_new)
        got = cli.interp1d(x, y)(x_new)
    assert got.shape == expected.shape == (x_new.size, M)
    assert got.tobytes() == expected.tobytes()

    outside = data.draw(st.sampled_from([np.nextafter(x[0], -np.inf),
                                         np.nextafter(x[-1], np.inf)]))
    for interp in (cli.interp1d(x, y), interp1d(x, y, axis=0, assume_sorted=True)):
        with pytest.raises(ValueError, match="interpolation range"):
            interp(np.append(inside, outside))


def test_mms_constant_subcommand(eq_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["mms", str(eq_config), "--resolutions", "32,64,128",
                     "--solution", "constant", "--out-dir", str(out)])
    assert code == 0
    assert "exact" in capsys.readouterr().out
    body = (out / "mms.csv").read_text()
    assert body.splitlines()[0] == "N,L2_error,observed_order"
    assert "exact" in body


@pytest.mark.parametrize("gamma", ["2.0", "1.5"])
def test_mms_writes_the_same_bytes_with_a_wrapped_forcing(gamma, tmp_path, monkeypatch):
    # a tracer hands run a plain tuple of its timers around the forcing's
    # closures, which the C step calls instead of evaluating the library's
    # forcing itself: mms.csv keeps its bytes
    from semihydro import solver

    with open(os.path.join(CONFIGS, "mms.ini")) as fh:
        text = fh.read()
    assert "gamma = 2.0\n" in text
    config = tmp_path / "mms.ini"
    config.write_text(text.replace("gamma = 2.0\n", f"gamma = {gamma}\n"))
    argv = ["mms", str(config), "--resolutions", "17,34,68", "--quiet"]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0

    calls = []
    factory = solver.manufactured_forcing

    def wrapped(*args, **kwargs):
        def timer(f):
            def timed(t):
                calls.append(t)
                return f(t)
            return timed
        return tuple(timer(f) for f in factory(*args, **kwargs))

    monkeypatch.setattr(solver, "manufactured_forcing", wrapped)
    assert cli.main(argv + ["--out-dir", str(tmp_path / "wrapped")]) == 0
    assert calls
    assert (tmp_path / "wrapped" / "mms.csv").read_bytes() == \
        (tmp_path / "plain" / "mms.csv").read_bytes()


def test_mms_rejects_bad_resolutions(eq_config, tmp_path, capsys):
    code = cli.main(["mms", str(eq_config), "--resolutions", "32,60,128",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "double" in capsys.readouterr().err


def test_mms_rejects_a_coarse_resolution_before_making_out_dir(eq_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["mms", str(eq_config), "--resolutions", "8,16,32",
                     "--out-dir", str(out)])
    assert code == 4
    assert "N must be at least 16, got 8" in capsys.readouterr().err
    assert not out.exists()


def test_fmt_round_trips_floats():
    rng = np.random.default_rng(59)
    for v in rng.standard_normal(200) * 10.0**rng.integers(-20, 20, 200):
        assert float(io.fmt(v)) == v
    assert io.fmt(True) == "true"
    assert io.fmt(None) == "null"
    assert io.fmt(7) == "7"


def test_record_json_shapes():
    line = io.record_json({"a": 1.5, "b": 7, "c": "s", "d": None, "e": True})
    obj = json.loads(line)
    assert obj == {"a": 1.5, "b": 7, "c": "s", "d": None, "e": True}


def _bits(v) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7976931348623157e308)
def test_fmt_round_trips_every_finite_float(v):
    assert _bits(float(io.fmt(v))) == _bits(v)
    assert _bits(float(io.fmt(np.float64(v)))) == _bits(v)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _snapshot_arrays(draw):
    K = draw(st.integers(1, 4))
    nodes = draw(st.integers(1, 6))
    rows = hnp.arrays(np.float64, (K, nodes), elements=_FINITE)
    return SimpleNamespace(times=draw(hnp.arrays(np.float64, K, elements=_FINITE)),
                           n=draw(rows), J=draw(rows), E=draw(rows))


@settings(max_examples=200, deadline=None)
@given(_snapshot_arrays())
def test_snapshot_lines_load_back_to_the_arrays(traj):
    # integral text such as "-0" or "3" must read back as a float, so json
    # parses integers with float; then every value returns bit for bit
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshots.ndjson")
        io.write_snapshots(path, traj)
        with open(path) as fh:
            lines = [json.loads(line, parse_int=float) for line in fh]
    assert [list(rec) for rec in lines] == [["t", "n", "J", "E"]] * traj.times.size
    for name in ("n", "J", "E"):
        back = np.array([rec[name] for rec in lines], dtype=float)
        assert back.tobytes() == getattr(traj, name).tobytes()
    assert np.array([rec["t"] for rec in lines]).tobytes() == traj.times.tobytes()


# the whole float64 range, with signed zeros, subnormals, infinities and NaN mixed in
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]),
)


def _line_by_fmt(t, n, J, E) -> str:
    def floats(row):
        return "[" + ",".join(map(io.fmt, row)) + "]"
    return ('{"t":' + io.fmt(t) + ',"n":' + floats(n) + ',"J":' + floats(J)
            + ',"E":' + floats(E) + "}\n")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(401), st.integers(1, 450)), min_size=2, max_size=2,
                unique=True), st.data())
def test_snapshot_line_has_the_bytes_of_fmt(sizes, data):
    # two node counts in one example (often the scenario's 401), so a line
    # cannot reuse another's format
    for size in sizes:
        t = data.draw(_ANY_FLOAT)
        n, J, E = (data.draw(hnp.arrays(np.float64, size, elements=_ANY_FLOAT))
                   for _ in range(3))
        assert io._snapshot_lines(np.array([t]), n[None], J[None], E[None]) == [
            _line_by_fmt(t, n, J, E)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 20), st.booleans(), st.data())
def test_series_csv_has_the_bytes_of_fmt(width, rows, as_lists, data):
    columns = [data.draw(hnp.arrays(np.float64, rows, elements=_ANY_FLOAT))
               for _ in range(width)]
    if as_lists:
        # as cmd_sweep_eps passes them
        columns = [c.tolist() for c in columns]
    header = [f"c{j}" for j in range(width)]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(io.fmt(c[i]) for c in columns) + "\n" for i in range(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        io.write_series_csv(path, header, columns)
        with open(path) as fh:
            assert fh.read() == expected


def test_percent_in_a_config_value_is_literal(tmp_path):
    # configparser interpolation would read "50%" as a broken reference
    out = tmp_path / "out" / "50%"
    p = tmp_path / "pct.ini"
    p.write_text(EQUILIBRIUM + f"[output]\ndir = {out}\n")
    assert cli.main(["run", str(p), "--quiet"]) == 0
    assert (out / "reports.ndjson").exists()


def test_series_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        io.write_series_csv(str(tmp_path / "x.csv"), ["a", "b"],
                            [[1.0, 2.0], [1.0]])
