"""Electric field, charge neutrality, and doping profiles.

The field is the running integral of the space charge,

    E(x) = integral_0^x (n - D) dxi,   E(0) = 0,

so E(1) equals the total neutrality defect integral(n - D). Doping
profiles D(x) are positive continuous functions on [0, 1] given as one of
constant, sinusoidal, or a linearly interpolated two-column table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SAMPLES = 2001  # dense sampling used to certify the positivity bounds


@dataclass(frozen=True)
class DopingProfile:
    """A doping profile with certified bounds 0 < d_lo <= D(x) <= d_hi.

    Construct through the classmethods (constant, sine, table, from_spec);
    the bounds are measured by dense sampling at construction time.
    """

    kind: str
    params: tuple
    d_lo: float
    d_hi: float

    @staticmethod
    def _certify(kind: str, params: tuple, values: np.ndarray) -> "DopingProfile":
        if not np.all(np.isfinite(values)):
            raise ValueError(f"doping profile must be finite on [0,1], params = {params}")
        lo = float(np.min(values))
        hi = float(np.max(values))
        if lo <= 0.0:
            raise ValueError(f"doping profile must stay positive on [0,1], min = {lo}")
        return DopingProfile(kind, params, lo, hi)

    @classmethod
    def constant(cls, value: float) -> "DopingProfile":
        v = float(value)
        return cls._certify("constant", (v,), np.array([v]))

    @classmethod
    def sine(cls, mean: float, amplitude: float, frequency: float) -> "DopingProfile":
        p = (float(mean), float(amplitude), float(frequency))
        x = np.linspace(0.0, 1.0, _SAMPLES)
        return cls._certify("sine", p, p[0] + p[1] * np.sin(2.0 * np.pi * p[2] * x))

    @classmethod
    def table(cls, xs, ds) -> "DopingProfile":
        xs = np.asarray(xs, dtype=float)
        ds = np.asarray(ds, dtype=float)
        if xs.ndim != 1 or xs.shape != ds.shape or xs.size < 2:
            raise ValueError("doping table needs two equal-length columns with >= 2 rows")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("doping table x column must be strictly increasing")
        if xs[0] > 0.0 or xs[-1] < 1.0:
            raise ValueError("doping table must cover [0, 1]")
        p = (tuple(xs.tolist()), tuple(ds.tolist()))
        x = np.linspace(0.0, 1.0, _SAMPLES)
        return cls._certify("table", p, np.interp(x, xs, ds))

    @classmethod
    def from_table_file(cls, path: str) -> "DopingProfile":
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read doping table {path!r}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"malformed doping table {path!r}: {exc}") from exc
        if data.shape[1] != 2:
            raise ValueError(f"doping table {path!r} must have exactly two columns (x, D)")
        return cls.table(data[:, 0], data[:, 1])

    @classmethod
    def from_spec(cls, text: str) -> "DopingProfile":
        """Parse `constant:<v>`, `sine:<mean>:<amp>:<freq>`, or `table:<path>`."""
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "constant" and len(parts) == 2:
                return cls.constant(float(parts[1]))
            if kind == "sine" and len(parts) == 4:
                return cls.sine(float(parts[1]), float(parts[2]), float(parts[3]))
            if kind == "table" and len(parts) == 2:
                return cls.from_table_file(parts[1])
        except ValueError as exc:
            if "could not convert" in str(exc):
                raise ValueError(f"non-numeric parameter in doping spec {text!r}") from exc
            raise
        raise ValueError(
            f"malformed doping spec {text!r}: expected constant:<v>, "
            "sine:<mean>:<amp>:<freq>, or table:<path>"
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.params[0])
        if self.kind == "sine":
            mean, amp, freq = self.params
            return mean + amp * np.sin(2.0 * np.pi * freq * x)
        xs, ds = self.params
        return np.interp(x, xs, ds)


def _doping_on_grid(n: np.ndarray, D) -> np.ndarray:
    """Sample D on the grid implied by n, or validate a pre-sampled array."""
    if callable(D):
        return D(np.linspace(0.0, 1.0, n.size))
    d = np.asarray(D, dtype=float)
    if d.shape != n.shape:
        raise ValueError(f"doping grid shape {d.shape} does not match density {n.shape}")
    return d


def _efield(y, dx: float):
    """E(x_i) = trapezoid integral of y from x = 0, with E(0) = 0, along
    the last axis (one row per snapshot for a 2-D y).

    This is scipy's cumulative_trapezoid(y, dx=dx, initial=0.0, axis=-1)
    written out: the same formula, so the same bits, at half the call cost.
    """
    out = np.empty_like(y)
    out[..., 0] = 0.0
    s = out[..., 1:]
    np.add(y[..., 1:], y[..., :-1], out=s)
    s *= dx
    s /= 2.0                                            # dx * (y[1:] + y[:-1]) / 2.0
    np.cumsum(s, axis=-1, out=s)
    return out


def field_from_density(n, D, dx: float) -> np.ndarray:
    """E(x_i) as the cumulative trapezoid integral of (n - D); E(0) = 0."""
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)):
        raise ValueError("density contains non-finite values")
    d = _doping_on_grid(n, D)
    return _efield(n - d, dx)


def neutrality_defect(n, D, dx: float) -> float:
    """integral(n - D) over [0, 1]; by construction the last entry of E."""
    return float(field_from_density(n, D, dx)[-1])


def project_neutral(n0, D, dx: float) -> np.ndarray:
    """Shift or rescale n0 so that integral(n0 - D) vanishes.

    Prefers the additive shift n0 - defect; if that would destroy
    positivity, falls back to the multiplicative rescale
    n0 * integral(D) / integral(n0). Either way the output defect is
    below 1e-13.
    """
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 < 0.0):
        raise ValueError("initial density must be nonnegative")
    d = _doping_on_grid(n0, D)
    defect = neutrality_defect(n0, d, dx)
    shifted = n0 - defect
    if np.min(shifted) > 0.0:
        return shifted
    # reaching here needs defect >= min n0 >= 0, so integral(n0) >= integral(D) > 0
    return n0 * (np.trapezoid(d, dx=dx) / np.trapezoid(n0, dx=dx))
