"""Config parsing: full-field round trip, error accumulation, a property
test that any text parses or raises ConfigError, and one that the parser
and SolverConfig accept the same solver settings."""

import dataclasses
import math
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semihydro.config import _KNOWN_KEYS, CHECK_NAMES, ConfigError, ExperimentConfig, parse_config
from semihydro.field import DopingProfile
from semihydro.solver import SolverConfig, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

FULL = """
[model]
gamma = 2.0

[doping]
profile = sine:1:0.5:1

[initial]
n0 = doping-match
J0 = constant:0

[solver]
epsilon = 1e-3
N = 400
T_final = 20
cfl_safety = 0.5
scheme = central
boundary = float
relaxation = explicit
output_stride = 25

[diagnostics]
checks = region, decay, mass
fit_window = 2, 18

[output]
dir = results
"""

MINIMAL = """
[model]
gamma = 2.0
[doping]
profile = constant:1
[solver]
epsilon = 1e-3
N = 200
T_final = 5
"""


def test_full_round_trip():
    cfg = parse_config(FULL)
    assert cfg.gamma == 2.0
    assert cfg.doping_spec == "sine:1:0.5:1"
    assert cfg.epsilon == 1e-3
    assert cfg.N == 400
    assert cfg.T_final == 20.0
    assert cfg.boundary == "float"
    assert cfg.output_stride == 25
    assert cfg.checks == ("region", "decay", "mass")
    assert cfg.fit_window == (2.0, 18.0)
    assert cfg.out_dir == "results"


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n0_spec == "doping-match"
    assert cfg.J0_spec == "constant:0"
    assert cfg.cfl_safety == 0.5
    assert cfg.scheme == "central"
    assert cfg.boundary == "dirichlet"
    assert cfg.checks == CHECK_NAMES
    assert cfg.out_dir == "out"


def test_exp_relaxation_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "relaxation = exp\n")
    assert exc.value.errors == ["[solver] relaxation must be explicit, got 'exp'"]


def test_doping_match_initial_density_is_the_doping_profile():
    for text in (MINIMAL, MINIMAL + "[initial]\nn0 = doping-match\n"):
        cfg = parse_config(text)
        assert cfg.n0_spec == "doping-match" and cfg.n0 is cfg.doping
    cfg = parse_config(MINIMAL + "[initial]\nJ0 = doping-match\n")
    assert cfg.J0_spec == "doping-match" and cfg.J0 is cfg.doping
    cfg = parse_config(MINIMAL + "[initial]\nn0 = sine:1:0.5:1\n")
    assert cfg.n0_spec == "sine:1:0.5:1" and cfg.n0(0.25) == pytest.approx(1.5)


def test_all_errors_are_accumulated():
    bad = """
[model]
gamma = 5.0
[doping]
profile = wedge:1
[solver]
epsilon = -1
N = 4
T_final = 5
scheme = upwind
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    assert "1 < gamma <= 3" in msg
    assert "doping spec" in msg
    assert "epsilon must be positive" in msg
    assert "N must be at least 16" in msg
    assert "scheme must be central or rusanov" in msg
    assert len(exc.value.errors) == 5


def test_missing_required_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("[model]\ngamma = 2.0\n")
    msg = str(exc.value)
    assert "'profile'" in msg
    assert "'epsilon'" in msg
    assert "'N'" in msg
    assert "'T_final'" in msg


def test_unknown_sections_and_keys():
    text = MINIMAL + "\n[extras]\nfoo = 1\n"
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(text)
    text = MINIMAL.replace("T_final = 5", "T_final = 5\nwidth = 3")
    with pytest.raises(ConfigError, match="unknown key 'width'"):
        parse_config(text)


def test_type_errors_reported():
    text = MINIMAL.replace("N = 200", "N = many")
    with pytest.raises(ConfigError, match="not a valid int"):
        parse_config(text)


def test_diagnostics_validation():
    text = MINIMAL + "\n[diagnostics]\nchecks = region, sparkle\n"
    with pytest.raises(ConfigError, match="unknown check 'sparkle'"):
        parse_config(text)
    text = MINIMAL + "\n[diagnostics]\nfit_window = 8, 3\n"
    with pytest.raises(ConfigError, match="lo < hi"):
        parse_config(text)


def test_syntax_error_is_wrapped():
    with pytest.raises(ConfigError, match="config syntax"):
        parse_config("not an ini file at all\n")


def test_inline_comments_allowed():
    cfg = parse_config(MINIMAL.replace("N = 200", "N = 200  # grid"))
    assert cfg.N == 200


def test_parse_initial_spec_shapes():
    with pytest.raises(ValueError, match="malformed initial spec"):
        DopingProfile.from_spec("doping-match", "initial")  # parse_config resolves it
    f = DopingProfile.from_spec("constant:0", "initial")
    assert np.all(f(np.linspace(0, 1, 5)) == 0.0)
    f = DopingProfile.from_spec("constant:-0.3", "initial")  # currents may be negative
    assert f(0.5) == pytest.approx(-0.3)
    f = DopingProfile.from_spec("sine:1:0.5:1", "initial")
    assert f(0.25) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="initial spec"):
        DopingProfile.from_spec("nope:1", "initial")
    with pytest.raises(ValueError, match="non-numeric"):
        DopingProfile.from_spec("constant:x", "initial")


def test_parse_initial_spec_table(tmp_path):
    p = tmp_path / "n0.csv"
    p.write_text("0.0,1.0\n1.0,2.0\n")
    f = DopingProfile.from_spec(f"table:{p}", "initial")
    assert f(0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="cannot read"):
        DopingProfile.from_spec(f"table:{tmp_path / 'nope.csv'}", "initial")


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.ini"))
    assert len(paths) == 3
    for p in paths:
        cfg = parse_config(p.read_text())
        assert cfg.gamma == 2.0
        assert cfg.epsilon > 0.0
        assert cfg.T_final > 0.0


def _with_key(section: str, key: str, value: str, text: str = MINIMAL) -> str:
    """The config text with `key = value` set in [section]."""
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} =")]
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("section, key, value", [
    ("solver", "epsilon", "nan"),
    ("solver", "T_final", "nan"),
    ("solver", "T_final", "inf"),
    ("solver", "n_floor", "inf"),
    ("diagnostics", "fit_window", "2, inf"),
    ("doping", "profile", "constant:nan"),
    ("doping", "profile", "sine:1:nan:1"),
    ("doping", "profile", "constant:inf"),
    ("initial", "n0", "sine:1:0.5:-inf"),
])
def test_non_finite_numbers_are_rejected(section, key, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(_with_key(section, key, value))
    assert len(exc.value.errors) == 1
    assert key in exc.value.errors[0] and "finite" in exc.value.errors[0]


_PAIRS = sorted((s, k) for s, keys in _KNOWN_KEYS.items() for k in keys)
_KEYS = sorted(k for _, k in _PAIRS)
_NUMBER = st.one_of(st.floats().map(repr), st.integers().map(str))
_VALUE = st.one_of(
    st.text(max_size=20), _NUMBER,
    st.builds(":".join, st.lists(st.one_of(st.sampled_from(["constant", "sine"]), _NUMBER),
                                 min_size=1, max_size=4)),
    st.builds("{}, {}".format, _NUMBER, _NUMBER))
_LINE = st.one_of(
    st.sampled_from([f"[{s}]" for s in sorted(_KNOWN_KEYS)]),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUE),
    st.text(max_size=30))


def _edited_minimal(edits) -> str:
    """MINIMAL with a few keys set to drawn values."""
    text = MINIMAL
    for (section, key), value in edits:
        text = _with_key(section, key, value, text)
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINE, max_size=30).map("\n".join),
                 st.lists(st.tuples(st.sampled_from(_PAIRS), _VALUE), max_size=4)
                 .map(_edited_minimal)))
def test_parse_config_returns_or_raises_config_error(text):
    assume("table" not in text)  # a table spec would read a file
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    for v in (cfg.gamma, cfg.epsilon, cfg.T_final, cfg.cfl_safety, *cfg.fit_window):
        assert math.isfinite(v)


def test_solver_keys_are_the_solver_config_fields():
    names = {f.name for f in dataclasses.fields(SolverConfig)}
    assert _KNOWN_KEYS["model"] | _KNOWN_KEYS["solver"] == names
    assert issubclass(ExperimentConfig, SolverConfig)


_REQUIRED = ("gamma", "epsilon", "N", "T_final")
_WRONG = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-10**9, 10**9),
                   st.text(string.ascii_letters, max_size=8))
# in range, and around each range's ends
_GOOD = {
    "gamma": st.floats(1.0, 3.0, exclude_min=True),
    "epsilon": st.floats(0.0, 1.0, exclude_min=True),
    "N": st.integers(16, 4000),
    "T_final": st.floats(0.0, 50.0),
    "cfl_safety": st.floats(0.0, 0.9, exclude_min=True),
    "n_floor": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "output_stride": st.integers(1, 50),
    "scheme": st.sampled_from(["central", "rusanov"]),
    "boundary": st.sampled_from(["dirichlet", "float"]),
    "relaxation": st.just("explicit"),
}
_EDGE = {
    "gamma": st.floats(0.5, 3.5),
    "epsilon": st.floats(-1.0, 1.0),
    "N": st.integers(-5, 40),
    "T_final": st.floats(-1.0, 1.0),
    "cfl_safety": st.floats(-0.5, 1.5),
    "n_floor": st.floats(-1.0, 1.0),
    "output_stride": st.integers(-3, 3),
    "scheme": st.sampled_from(["central", "rusanov", "upwind", "Central", ""]),
    "boundary": st.sampled_from(["dirichlet", "float", "periodic"]),
    "relaxation": st.sampled_from(["explicit", "exp", "implicit"]),
}


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_and_solver_config_agree(data):
    # up to three settings take a value near the ends of their range or of
    # any type; None leaves a key out of the text, and a required setting is
    # then passed as None while an optional one takes its default on both sides
    wild = data.draw(st.sets(st.sampled_from(sorted(_GOOD)), max_size=3))
    values = {k: data.draw(st.one_of(_EDGE[k], _WRONG) if k in wild else v)
              for k, v in _GOOD.items()}
    lines = ["[doping]", "profile = constant:1", "[model]"]
    for name, value in values.items():
        if name == "epsilon":
            lines.append("[solver]")
        if value is not None:
            lines.append(f"{name} = {_text(value)}")
    kwargs = {k: v for k, v in values.items() if v is not None or k in _REQUIRED}
    try:
        cfg = parse_config("\n".join(lines) + "\n")
    except ConfigError:
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
        return
    scfg = SolverConfig(**kwargs)
    for f in dataclasses.fields(SolverConfig):
        assert getattr(cfg, f.name) == getattr(scfg, f.name)


def test_parsed_config_goes_into_run_and_replace():
    cfg = parse_config(MINIMAL.replace("epsilon = 1e-3", "epsilon = 0.1")
                       .replace("N = 200", "N = 32").replace("T_final = 5", "T_final = 0.05"))
    D = DopingProfile.from_spec(cfg.doping_spec)
    n0 = D(np.linspace(0.0, 1.0, cfg.N + 1))
    traj = run(cfg, D, n0, np.zeros_like(n0))
    plain = SolverConfig(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(SolverConfig)})
    assert np.array_equal(traj.n, run(plain, D, n0, np.zeros_like(n0)).n)
    finer = dataclasses.replace(cfg, gamma=1.5, N=64)
    assert isinstance(finer, ExperimentConfig) and finer.doping_spec == cfg.doping_spec
    assert (finer.gamma, finer.N, finer.model().gamma) == (1.5, 64, 1.5)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        dataclasses.replace(cfg, epsilon=0)
    with pytest.raises(ValueError, match="N must be an integer"):
        dataclasses.replace(cfg, N=64.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.N = 64
