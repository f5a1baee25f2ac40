"""Electric field, charge neutrality, and doping profiles.

The field is the running integral of the space charge,

    E(x) = integral_0^x (n - D) dxi,   E(0) = 0,

so E(1) equals the total neutrality defect integral(n - D). Doping
profiles D(x) are positive continuous functions on [0, 1] given as one of
constant, sinusoidal, or a linearly interpolated two-column table; initial
data use the same grammar without the positivity requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DopingProfile:
    """A profile on [0, 1] with exact bounds d_lo <= D(x) <= d_hi.

    Construct through the classmethods (constant, sine, table, from_spec).
    A doping profile must stay positive (0 < d_lo); initial data
    (positive=False, or from_spec(text, "initial")) may take any finite value.
    """

    kind: str
    params: tuple
    d_lo: float
    d_hi: float

    @staticmethod
    def _certify(kind: str, params: tuple, extremes, positive: bool) -> "DopingProfile":
        """The profile whose bounds are the min and max of `extremes`, a set
        of values that contains D's extremes on [0, 1]."""
        lo = float(np.min(extremes))
        hi = float(np.max(extremes))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"profile must be finite on [0,1], params = {params}")
        if positive and lo <= 0.0:
            raise ValueError(f"doping profile must stay positive on [0,1], min = {lo}")
        return DopingProfile(kind, params, lo, hi)

    @classmethod
    def constant(cls, value: float, positive: bool = True) -> "DopingProfile":
        v = float(value)
        return cls._certify("constant", (v,), [v], positive)

    @classmethod
    def sine(cls, mean: float, amplitude: float, frequency: float,
             positive: bool = True) -> "DopingProfile":
        p = mean, amp, freq = (float(mean), float(amplitude), float(frequency))
        if not np.all(np.isfinite(p)):
            raise ValueError(f"profile must be finite on [0,1], params = {p}")
        if abs(freq) >= 1.0:
            # a full period fits in [0, 1]
            extremes = [mean - abs(amp), mean + abs(amp)]
        else:
            # the ends, and the critical points 2 pi freq x = pi/2 + k pi inside
            theta = 2.0 * np.pi * freq
            extremes = [mean, mean + amp * np.sin(theta)]
            extremes += [mean + amp * (-1.0) ** k for k in range(-2, 2)
                         if min(0.0, theta) < np.pi / 2.0 + k * np.pi < max(0.0, theta)]
        return cls._certify("sine", p, extremes, positive)

    @classmethod
    def table(cls, xs, ds, positive: bool = True) -> "DopingProfile":
        xs = np.asarray(xs, dtype=float)
        ds = np.asarray(ds, dtype=float)
        if xs.ndim != 1 or xs.shape != ds.shape or xs.size < 2:
            raise ValueError("profile table needs two equal-length columns with >= 2 rows")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ds))):
            raise ValueError("profile table holds a non-finite number")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("profile table x column must be strictly increasing")
        if xs[0] > 0.0 or xs[-1] < 1.0:
            raise ValueError("profile table must cover [0, 1]")
        p = (tuple(xs.tolist()), tuple(ds.tolist()))
        # D is linear between knots, so its extremes on [0, 1] are knots or ends
        inside = ds[(xs >= 0.0) & (xs <= 1.0)]
        return cls._certify("table", p, [*inside, *np.interp([0.0, 1.0], xs, ds)], positive)

    @classmethod
    def from_table_file(cls, path: str, positive: bool = True) -> "DopingProfile":
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read profile table {path!r}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"malformed profile table {path!r}: {exc}") from exc
        if data.shape[1] != 2:
            raise ValueError(f"profile table {path!r} must have exactly two columns (x, D)")
        return cls.table(data[:, 0], data[:, 1], positive)

    @classmethod
    def from_spec(cls, text: str, what: str = "doping") -> "DopingProfile":
        """Parse `constant:<v>`, `sine:<mean>:<amp>:<freq>`, or `table:<path>`.

        `what` names the spec in error messages; only a doping profile must
        stay positive, initial data may take any finite value."""
        positive = what == "doping"
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "constant" and len(parts) == 2:
                return cls.constant(float(parts[1]), positive)
            if kind == "sine" and len(parts) == 4:
                return cls.sine(float(parts[1]), float(parts[2]), float(parts[3]), positive)
            if kind == "table" and len(parts) == 2:
                return cls.from_table_file(parts[1], positive)
        except ValueError as exc:
            # float()'s message; a table file's own error is passed on as it is
            if str(exc).startswith("could not convert"):
                raise ValueError(f"non-numeric parameter in {what} spec {text!r}") from exc
            raise
        raise ValueError(
            f"malformed {what} spec {text!r}: expected constant:<v>, "
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
    np.add.accumulate(s, axis=-1, out=s)                # np.cumsum without its wrapper
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
