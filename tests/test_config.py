"""Config parsing: full-field round trip, error accumulation, and a
property test that any text parses or raises ConfigError."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semihydro.config import (_KNOWN_KEYS, CHECK_NAMES, ConfigError,
                              ExperimentConfig, parse_config, parse_initial_spec)

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
lambda_margin = 1.5
region_M = auto
entropy_tol_factor = 10

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
    assert cfg.region_M is None
    assert cfg.out_dir == "results"


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n0_spec == "doping-match"
    assert cfg.J0_spec == "constant:0"
    assert cfg.cfl_safety == 0.5
    assert cfg.scheme == "central"
    assert cfg.boundary == "dirichlet"
    assert cfg.checks == CHECK_NAMES
    assert cfg.lambda_margin == 1.5
    assert cfg.out_dir == "out"


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
    text = MINIMAL + "\n[diagnostics]\nlambda_margin = 0.5\n"
    with pytest.raises(ConfigError, match="must exceed 1"):
        parse_config(text)
    text = MINIMAL + "\n[diagnostics]\nregion_M = big\n"
    with pytest.raises(ConfigError, match="auto or a number"):
        parse_config(text)
    cfg = parse_config(MINIMAL + "\n[diagnostics]\nregion_M = 12\n")
    assert cfg.region_M == 12.0


def test_syntax_error_is_wrapped():
    with pytest.raises(ConfigError, match="config syntax"):
        parse_config("not an ini file at all\n")


def test_inline_comments_allowed():
    cfg = parse_config(MINIMAL.replace("N = 200", "N = 200  # grid"))
    assert cfg.N == 200


def test_parse_initial_spec_shapes():
    assert parse_initial_spec("doping-match") == "doping-match"
    f = parse_initial_spec("constant:0")
    assert np.all(f(np.linspace(0, 1, 5)) == 0.0)
    f = parse_initial_spec("constant:-0.3")  # currents may be negative
    assert f(0.5) == pytest.approx(-0.3)
    f = parse_initial_spec("sine:1:0.5:1")
    assert f(0.25) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="initial spec"):
        parse_initial_spec("nope:1")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_initial_spec("constant:x")


def test_parse_initial_spec_table(tmp_path):
    p = tmp_path / "n0.csv"
    p.write_text("0.0,1.0\n1.0,2.0\n")
    f = parse_initial_spec(f"table:{p}")
    assert f(0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError, match="cannot read"):
        parse_initial_spec(f"table:{tmp_path / 'nope.csv'}")


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
    ("diagnostics", "lambda_margin", "nan"),
    ("diagnostics", "entropy_tol_factor", "inf"),
    ("diagnostics", "region_M", "nan"),
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
    for v in (cfg.gamma, cfg.epsilon, cfg.T_final, cfg.cfl_safety, cfg.lambda_margin,
              cfg.entropy_tol_factor, *cfg.fit_window):
        assert math.isfinite(v)
