"""Experiment configuration: INI text read into an ExperimentConfig.

parse_config only reads the text and converts each value (int, float,
finite). The rules live with their owners: the solver settings' names,
defaults and ranges with SolverConfig (solver.setting_problems), the
profile grammar with field.DopingProfile.from_spec. parse_config checks
everything before anything executes and reports every problem it finds,
not just the first.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

from .field import DopingProfile
from .solver import SolverConfig, setting_problems

CHECK_NAMES = ("region", "density", "entropy", "decay", "lyapunov", "mass")

_KNOWN_KEYS = {
    "model": {"gamma"},
    "doping": {"profile"},
    "initial": {"n0", "J0"},
    "solver": {f.name for f in fields(SolverConfig)} - {"gamma"},
    "diagnostics": {"checks", "fit_window"},
    "output": {"dir"},
}

# text conversion of a SolverConfig field, by its annotation
_CONVERT = {"float": float, "Optional[float]": float, "int": int, "str": str}


class ConfigError(Exception):
    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SolverConfig):
    """The solver settings (checked by SolverConfig) plus the doping, the
    initial data, the diagnostics and the output directory.

    Each profile sits next to the spec text it was parsed from. parse_config
    parses every spec once, so no command reads a spec or its table file
    again, and dataclasses.replace copies the profiles as they are. n0 or
    J0 is the doping profile itself when its spec is doping-match.
    """

    doping_spec: str
    doping: DopingProfile
    n0_spec: str = "doping-match"
    n0: DopingProfile
    J0_spec: str = "constant:0"
    J0: DopingProfile = DopingProfile.from_spec("constant:0", "initial")
    checks: tuple = CHECK_NAMES
    fit_window: tuple = (2.0, 18.0)
    out_dir: str = "out"


def parse_config(text: str, directory: str = "") -> ExperimentConfig:
    """Parse and validate the INI-style config text.

    directory is the config file's: a relative `table:` path is taken from
    it (from the working directory when it is empty). Raises ConfigError
    carrying the full list of problems when anything is unknown,
    malformed, missing, or out of range.
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

    def get(section, key):
        if cp.has_option(section, key):
            return cp.get(section, key).strip()
        return None

    def number(section, key, conv, required=False):
        raw = get(section, key)
        if raw is None:
            if required:
                errors.append(f"missing required key {key!r} in [{section}]")
            return None
        try:
            value = conv(raw)
        except ValueError:
            errors.append(f"[{section}] {key} = {raw!r} is not a valid {conv.__name__}")
            return None
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"[{section}] {key} = {raw!r} is not finite")
            return None
        return value

    # the fields the text gives; the others keep ExperimentConfig's defaults
    values = {}

    def section_of(name):
        return "model" if name == "gamma" else "solver"

    for f in fields(SolverConfig):
        value = number(section_of(f.name), f.name, _CONVERT[f.type],
                       required=f.default is MISSING)
        if value is not None:
            values[f.name] = value
    for name, problem in setting_problems(values).items():
        errors.append(f"[{section_of(name)}] {problem}")

    values["doping_spec"] = get("doping", "profile")
    if values["doping_spec"] is None:
        errors.append("missing required key 'profile' in [doping]")
    else:
        try:
            values["doping"] = DopingProfile.from_spec(values["doping_spec"], "doping",
                                                       directory)
        except ValueError as exc:
            errors.append(f"[doping] profile: {exc}")

    # doping-match, for either key and for an absent n0, is the doping profile;
    # any other spec is initial data, which need not be positive
    for key in ("n0", "J0"):
        spec = get("initial", key)
        if spec is None and key == "n0":
            spec = "doping-match"
        if spec is None:
            continue
        values[f"{key}_spec"] = spec
        try:
            values[key] = (values.get("doping") if spec == "doping-match"
                           else DopingProfile.from_spec(spec, "initial", directory))
        except ValueError as exc:
            errors.append(f"[initial] {key}: {exc}")

    checks_raw = get("diagnostics", "checks")
    if checks_raw is not None:
        values["checks"] = tuple(c.strip() for c in checks_raw.split(",") if c.strip())
        for c in values["checks"]:
            if c not in CHECK_NAMES:
                errors.append(f"[diagnostics] unknown check {c!r} "
                              f"(known: {', '.join(CHECK_NAMES)})")

    window_raw = get("diagnostics", "fit_window")
    if window_raw is not None:
        try:
            lo, hi = (float(v) for v in window_raw.split(","))
        except ValueError:
            errors.append(f"[diagnostics] fit_window must be two comma-separated numbers, "
                          f"got {window_raw!r}")
        else:
            if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
                values["fit_window"] = (lo, hi)
            else:
                errors.append(f"[diagnostics] fit_window must be finite lo,hi with lo < hi, "
                              f"got {window_raw!r}")

    out_dir = get("output", "dir")
    if out_dir is not None:
        values["out_dir"] = out_dir

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**values)
