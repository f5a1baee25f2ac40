"""End-to-end command-line harness tests: exit codes, files, determinism."""

import json
import os
import struct
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import interp1d

from semihydro import cli, io
from semihydro.config import parse_config
from semihydro.field import DopingProfile
from semihydro.gas import GasModel
from semihydro.solver import BlowupError
from semihydro.stationary import BracketError, solve_stationary

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


def test_run_fails_with_tiny_region_m(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(EQUILIBRIUM + "\n[diagnostics]\nregion_M = 0.5\n")
    code = cli.main(["run", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


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


def test_blowup_maps_to_exit_2(eq_config, monkeypatch, tmp_path, capsys):
    def explode(*a, **kw):
        raise BlowupError("synthetic blowup", 3, 0.25)
    monkeypatch.setattr(cli, "run", explode)
    code = cli.main(["run", str(eq_config), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "blowup" in capsys.readouterr().err


@pytest.mark.parametrize("floor, message", [("0", "vacuum at cell"),
                                            ("1e-3", "clamping exceeded budget")])
def test_blowup_exits_2_and_writes_partial_snapshots(tmp_path, capsys, floor, message):
    p = tmp_path / "vacuum.ini"
    p.write_text(VACUUM.format(floor=floor))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="mollifier"):
        code = cli.main(["run", str(p), "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err
    lines = (out / "snapshots.ndjson").read_text().splitlines()
    assert json.loads(lines[0])["t"] == 0
    assert not (out / "series.csv").exists()


def test_bracket_failure_maps_to_exit_3(eq_config, monkeypatch, tmp_path, capsys):
    def fail(*a, **kw):
        raise BracketError("no sign change", -1.0, -2.0)
    monkeypatch.setattr(cli, "solve_stationary", fail)
    code = cli.main(["run", str(eq_config), "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "stationary" in capsys.readouterr().err


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
print("scipy.optimize" in sys.modules)
"""


def test_only_the_steady_solve_imports_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded by other tests
    mms = tmp_path / "mms.ini"
    mms.write_text(EQUILIBRIUM.replace("T_final = 1.5", "T_final = 0.01"))
    sine = tmp_path / "sine.ini"
    sine.write_text(SINE_SMALL.replace("N = 100", "N = 32").replace("T_final = 2.0",
                                                                    "T_final = 0.1"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORTS, str(mms), str(sine),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True"]


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


def test_mms_rejects_bad_resolutions(eq_config, tmp_path, capsys):
    code = cli.main(["mms", str(eq_config), "--resolutions", "32,60,128",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert "double" in capsys.readouterr().err


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
