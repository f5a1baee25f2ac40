"""Experiment configuration: flat INI-style sections with full validation.

parse_config validates every field before anything executes and reports
every error it finds, not just the first.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import DopingProfile

CHECK_NAMES = ("region", "density", "entropy", "decay", "lyapunov", "mass")

_KNOWN_KEYS = {
    "model": {"gamma"},
    "doping": {"profile"},
    "initial": {"n0", "J0"},
    "solver": {"epsilon", "N", "T_final", "cfl_safety", "scheme", "boundary",
               "relaxation", "n_floor", "output_stride"},
    "diagnostics": {"checks", "fit_window", "lambda_margin", "region_M",
                    "entropy_tol_factor"},
    "output": {"dir"},
}


class ConfigError(Exception):
    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    gamma: float
    doping_spec: str
    epsilon: float
    N: int
    T_final: float
    n0_spec: str = "doping-match"
    J0_spec: str = "constant:0"
    cfl_safety: float = 0.5
    scheme: str = "central"
    boundary: str = "dirichlet"
    relaxation: str = "explicit"
    n_floor: Optional[float] = None
    output_stride: int = 1
    checks: tuple = CHECK_NAMES
    fit_window: tuple = (2.0, 18.0)
    lambda_margin: float = 1.5
    region_M: Optional[float] = None
    entropy_tol_factor: float = 10.0
    out_dir: str = "out"


def parse_initial_spec(text: str):
    """Initial-data grammar: doping-match, constant:<v>,
    sine:<mean>:<amp>:<freq>, or table:<path>.

    Same shapes as the doping grammar but without the positivity
    requirement (currents may be zero or negative). Returns the sentinel
    string "doping-match" or a callable of x.
    """
    text = text.strip()
    if text == "doping-match":
        return text
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind in ("constant", "sine") and not all(math.isfinite(float(p)) for p in parts[1:]):
            raise ValueError(f"non-finite parameter in initial spec {text!r}")
        if kind == "constant" and len(parts) == 2:
            v = float(parts[1])
            return lambda x: np.full_like(np.asarray(x, dtype=float), v)
        if kind == "sine" and len(parts) == 4:
            mean, amp, freq = (float(p) for p in parts[1:])
            return lambda x: mean + amp * np.sin(2.0 * np.pi * freq * np.asarray(x, dtype=float))
        if kind == "table" and len(parts) == 2:
            try:
                data = np.loadtxt(parts[1], delimiter=",", ndmin=2)
            except OSError as exc:
                raise ValueError(f"cannot read table {parts[1]!r}: {exc}") from exc
            if data.shape[1] != 2 or data.shape[0] < 2:
                raise ValueError(f"table {parts[1]!r} must have two columns and >= 2 rows")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"table {parts[1]!r} holds a non-finite number")
            xs, vs = data[:, 0], data[:, 1]
            if np.any(np.diff(xs) <= 0.0) or xs[0] > 0.0 or xs[-1] < 1.0:
                raise ValueError(f"table {parts[1]!r} x column must increase and cover [0, 1]")
            return lambda x: np.interp(np.asarray(x, dtype=float), xs, vs)
    except ValueError as exc:
        if "could not convert" in str(exc):
            raise ValueError(f"non-numeric parameter in initial spec {text!r}") from exc
        raise
    raise ValueError(
        f"malformed initial spec {text!r}: expected doping-match, constant:<v>, "
        "sine:<mean>:<amp>:<freq>, or table:<path>"
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the INI-style config text.

    Raises ConfigError carrying the full list of problems when anything
    is unknown, malformed, missing, or out of range.
    """
    errors: list[str] = []
    # no interpolation: a '%' in a value (say a directory name) is literal
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # keep key case: N and T_final are spelled as written
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key).strip()
        return default

    def number(section, key, conv, default=None, required=False):
        raw = get(section, key)
        if raw is None:
            if required:
                errors.append(f"missing required key {key!r} in [{section}]")
            return default
        try:
            value = conv(raw)
        except ValueError:
            errors.append(f"[{section}] {key} = {raw!r} is not a valid {conv.__name__}")
            return default
        if not math.isfinite(value):
            errors.append(f"[{section}] {key} = {raw!r} is not finite")
            return default
        return value

    gamma = number("model", "gamma", float, required=True)
    if gamma is not None and not 1.0 < gamma <= 3.0:
        errors.append(f"[model] gamma must satisfy 1 < gamma <= 3, got {gamma}")

    doping_spec = get("doping", "profile")
    if doping_spec is None:
        errors.append("missing required key 'profile' in [doping]")
    else:
        try:
            DopingProfile.from_spec(doping_spec)
        except ValueError as exc:
            errors.append(f"[doping] profile: {exc}")

    n0_spec = get("initial", "n0", "doping-match")
    J0_spec = get("initial", "J0", "constant:0")
    for label, spec in (("n0", n0_spec), ("J0", J0_spec)):
        try:
            parse_initial_spec(spec)
        except ValueError as exc:
            errors.append(f"[initial] {label}: {exc}")

    epsilon = number("solver", "epsilon", float, required=True)
    if epsilon is not None and epsilon <= 0.0:
        errors.append(f"[solver] epsilon must be positive, got {epsilon}")
    N = number("solver", "N", int, required=True)
    if N is not None and N < 16:
        errors.append(f"[solver] N must be at least 16, got {N}")
    T_final = number("solver", "T_final", float, required=True)
    if T_final is not None and T_final < 0.0:
        errors.append(f"[solver] T_final must be nonnegative, got {T_final}")
    cfl = number("solver", "cfl_safety", float, 0.5)
    if cfl is not None and not 0.0 < cfl <= 0.9:
        errors.append(f"[solver] cfl_safety must lie in (0, 0.9], got {cfl}")
    scheme = get("solver", "scheme", "central")
    if scheme not in ("central", "rusanov"):
        errors.append(f"[solver] scheme must be central or rusanov, got {scheme!r}")
    boundary = get("solver", "boundary", "dirichlet")
    if boundary not in ("dirichlet", "float"):
        errors.append(f"[solver] boundary must be dirichlet or float, got {boundary!r}")
    relaxation = get("solver", "relaxation", "explicit")
    if relaxation not in ("explicit", "exp"):
        errors.append(f"[solver] relaxation must be explicit or exp, got {relaxation!r}")
    n_floor = number("solver", "n_floor", float)
    if n_floor is not None and n_floor < 0.0:
        errors.append(f"[solver] n_floor must be nonnegative, got {n_floor}")
    stride = number("solver", "output_stride", int, 1)
    if stride is not None and stride < 1:
        errors.append(f"[solver] output_stride must be >= 1, got {stride}")

    checks_raw = get("diagnostics", "checks", ",".join(CHECK_NAMES))
    checks = tuple(c.strip() for c in checks_raw.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_NAMES:
            errors.append(f"[diagnostics] unknown check {c!r} (known: {', '.join(CHECK_NAMES)})")

    window_raw = get("diagnostics", "fit_window", "2,18")
    fit_window = (2.0, 18.0)
    try:
        lo, hi = (float(v) for v in window_raw.split(","))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            errors.append(f"[diagnostics] fit_window must be finite lo,hi with lo < hi, "
                          f"got {window_raw!r}")
        else:
            fit_window = (lo, hi)
    except ValueError:
        errors.append(f"[diagnostics] fit_window must be two comma-separated numbers, got {window_raw!r}")

    margin = number("diagnostics", "lambda_margin", float, 1.5)
    if margin is not None and margin <= 1.0:
        errors.append(f"[diagnostics] lambda_margin must exceed 1, got {margin}")

    region_M_raw = get("diagnostics", "region_M", "auto")
    region_M = None
    if region_M_raw != "auto":
        try:
            region_M = float(region_M_raw)
        except ValueError:
            errors.append(f"[diagnostics] region_M must be auto or a number, got {region_M_raw!r}")
        else:
            if not math.isfinite(region_M):
                errors.append(f"[diagnostics] region_M = {region_M_raw!r} is not finite")

    tol_factor = number("diagnostics", "entropy_tol_factor", float, 10.0)
    if tol_factor is not None and tol_factor <= 0.0:
        errors.append(f"[diagnostics] entropy_tol_factor must be positive, got {tol_factor}")

    out_dir = get("output", "dir", "out")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        gamma=gamma, doping_spec=doping_spec, epsilon=epsilon, N=N,
        T_final=T_final, n0_spec=n0_spec, J0_spec=J0_spec, cfl_safety=cfl,
        scheme=scheme, boundary=boundary, relaxation=relaxation,
        n_floor=n_floor, output_stride=stride, checks=checks,
        fit_window=fit_window, lambda_margin=margin, region_M=region_M,
        entropy_tol_factor=tol_factor, out_dir=out_dir,
    )
