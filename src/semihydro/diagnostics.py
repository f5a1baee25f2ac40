"""Trajectory diagnostics: region bounds, entropy residuals, decay fits.

Every function here is read-only over a computed Trajectory (and, where
relevant, a StationaryProfile on the same grid) and returns a small report
object with a `to_record()` dict for serialization. The snapshots are
(K, N+1) arrays, so each check is an array expression over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gas import (GasModel, mechanical_energy, pressure, pressure_derivative,
                  relative_entropy, to_invariants, weak_entropy_pair)


class DiagnosticRefusal(ValueError):
    """A diagnostic declined a trajectory it cannot judge: too short, too
    sparsely sampled, or too few samples in the fit window."""


def choose_M(n0, J0, D, m: GasModel, dx: float) -> float:
    """Size the invariant-region parameter from the initial data.

        M0 = integral(n0) + integral(D) + 1
        M  = max( sup(w0 - x), sup(x - z0), (M0 + 2)/theta ) + 1

    This guarantees nonpositive initial margins for w - (M + x) and
    nonnegative ones for z + (M - x), and makes the region's boundary
    source signs come out right. Pass mollified data when the raw initial
    density touches vacuum; vacuum cells are rejected here.
    """
    n0 = np.asarray(n0, dtype=float)
    J0 = np.asarray(J0, dtype=float)
    x = np.linspace(0.0, 1.0, n0.size)
    d = D(x) if callable(D) else np.asarray(D, dtype=float)
    M0 = float(np.trapezoid(n0, dx=dx) + np.trapezoid(d, dx=dx)) + 1.0
    w0, z0 = to_invariants(m, n0, J0)
    return float(max(np.max(w0 - x), np.max(x - z0), (M0 + 2.0) / m.theta)) + 1.0


@dataclass
class InvariantRegionReport:
    M: float
    tol: float
    max_wbar: float
    min_zbar: float
    per_snapshot_wbar: np.ndarray
    per_snapshot_zbar: np.ndarray
    first_violation_time: float | None
    indeterminate_cells: int
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": "invariant_region",
            "passed": bool(self.passed),
            "M": self.M,
            "tol": self.tol,
            "max_wbar": self.max_wbar,
            "min_zbar": self.min_zbar,
            "first_violation_time": self.first_violation_time,
            "indeterminate_cells": self.indeterminate_cells,
        }


def invariant_region_check(traj, m: GasModel, M: float,
                           tol: float | None = None) -> InvariantRegionReport:
    """Verify w <= M + x and z >= -(M - x) on every recorded snapshot.

    Default tolerance is 1e-6 + 10*dx**2, the scheme truncation allowance.
    Cells at or below vacuum are counted as indeterminate, not violations.
    """
    dx = traj.dx
    if tol is None:
        tol = 1e-6 + 10.0 * dx * dx
    x = np.linspace(0.0, 1.0, traj.config.N + 1)
    ok = traj.n > 0.0
    indeterminate = int(np.count_nonzero(~ok))
    # indeterminate cells get a stand-in density and drop out of the
    # margins; a snapshot with no determinate cell has NaN margins
    w, z = to_invariants(m, np.where(ok, traj.n, 1.0), traj.J)
    wbars = np.max(np.where(ok, w - (M + x), -np.inf), axis=-1)
    zbars = np.min(np.where(ok, z + (M - x), np.inf), axis=-1)
    empty = ~ok.any(axis=-1)
    wbars[empty] = np.nan
    zbars[empty] = np.nan
    violations = np.flatnonzero((wbars > tol) | (zbars < -tol))
    first_violation = float(traj.times[violations[0]]) if violations.size else None
    max_wbar = float(np.nanmax(wbars))
    min_zbar = float(np.nanmin(zbars))
    passed = max_wbar <= tol and min_zbar >= -tol
    return InvariantRegionReport(M, tol, max_wbar, min_zbar, wbars, zbars,
                                 first_violation, indeterminate, passed)


@dataclass
class DensityBoundReport:
    max_density: float
    density_bound: float
    speed_constant: float
    current_ok: bool
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": "density_bound",
            "passed": bool(self.passed),
            "max_density": self.max_density,
            "density_bound": self.density_bound,
            "speed_constant": self.speed_constant,
            "current_ok": bool(self.current_ok),
        }


def density_bound_check(traj, m: GasModel, M: float,
                        tol: float = 1e-9) -> DensityBoundReport:
    """max n <= ((3/2) M)**(1/theta) and |J| <= C n with C the largest
    observed invariant magnitude."""
    bound = (1.5 * M) ** (1.0 / m.theta)
    max_n = float(np.max(traj.n))
    w, z = to_invariants(m, traj.n, traj.J)
    C = max(0.0, float(np.max(np.abs(w))), float(np.max(np.abs(z))))
    current_ok = bool(np.all(np.abs(traj.J) <= C * traj.n + 1e-12))
    passed = max_n <= bound + tol and current_ok
    return DensityBoundReport(max_n, bound, C, current_ok, passed)


def _bump(s):
    """C2 bump (1 - s^2)^3 on [-1, 1], zero outside."""
    inside = np.abs(s) < 1.0
    return np.where(inside, (1.0 - s * s) ** 3, 0.0)


def _bump_prime(s):
    inside = np.abs(s) < 1.0
    return np.where(inside, -6.0 * s * (1.0 - s * s) ** 2, 0.0)


@dataclass
class EntropyResidualReport:
    residuals: np.ndarray
    min_residual: float
    worst_center: tuple
    tol: float
    worst_violation: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": "entropy_residual",
            "passed": bool(self.passed),
            "min_residual": self.min_residual,
            "worst_center_x": self.worst_center[0],
            "worst_center_t": self.worst_center[1],
            "tol": self.tol,
            "worst_violation": self.worst_violation,
        }


def entropy_residual(traj, m: GasModel, pair="mechanical",
                     centers: tuple = (5, 5),
                     tol_factor: float = 10.0) -> EntropyResidualReport:
    """Weak entropy residuals against a grid of space-time bump tests.

    For each nonnegative tensor-product bump psi the residual is

        r(psi) = integral( eta psi_t + q psi_x + eta_J (nE - J) psi )

    which the entropy inequality requires to be >= 0 up to discretization,
    so the check accepts r >= -tol with tol = tol_factor * (dx + dt_mean).
    On a run at viscosity eps, r(psi) also carries the viscous part

        eps integral( psi U_x . eta''(U) U_x + eta_x psi_x + 2 eta_J n_x psi )

    with U = (n, J). The first term is the nonnegative dissipation; the
    other two are sign-indefinite, so r can be negative by O(eps). That
    part does not shrink as dx does, only as eps does.
    `pair` is "mechanical" or a (g, dg) profile pair for a kernel entropy.
    Snapshots must sample each bump's time support densely enough;
    otherwise the call refuses and names the required output stride.
    """
    times = traj.times
    if len(times) < 3 or times[-1] <= 0.0:
        raise DiagnosticRefusal("trajectory too short for the entropy residual")
    T = float(times[-1])
    nx_c, nt_c = centers
    rx = 1.0 / (nx_c + 1)
    rt = T / (nt_c + 1)
    spacing = float(np.max(np.diff(times)))
    if spacing > rt / 4.0:
        needed = max(1, int(traj.config.output_stride * (rt / 4.0) / spacing))
        raise DiagnosticRefusal(
            f"snapshot spacing {spacing:.3g} too coarse for bump half-width "
            f"{rt:.3g}; reduce output_stride to about {needed}"
        )

    dx = traj.dx
    x = np.linspace(0.0, 1.0, traj.config.N + 1)
    if pair == "mechanical":
        eta, q, eta_J = mechanical_energy(m, traj.n, traj.J)
    else:
        # row by row: the quadrature's temporaries carry a node axis, which
        # over all snapshots at once would take hundreds of MB
        g, dg = pair
        eta, q, eta_J = (np.empty_like(traj.n) for _ in range(3))
        for k, (n, J) in enumerate(zip(traj.n, traj.J)):
            eta[k], q[k], eta_J[k] = weak_entropy_pair(m, n, J, g, dg)
    src = eta_J * (traj.n * traj.E - traj.J)

    residuals = np.empty((nx_c, nt_c))
    for i in range(nx_c):
        xc = (i + 1) * rx
        bx = _bump((x - xc) / rx)
        bxp = _bump_prime((x - xc) / rx) / rx
        for j in range(nt_c):
            tc = (j + 1) * rt
            bt = _bump((times - tc) / rt)
            btp = _bump_prime((times - tc) / rt) / rt
            integrand = (eta * np.outer(btp, bx) + q * np.outer(bt, bxp)
                         + src * np.outer(bt, bx))
            per_t = np.trapezoid(integrand, dx=dx, axis=1)
            residuals[i, j] = np.trapezoid(per_t, x=times)

    tol = tol_factor * (dx + traj.dt_mean)
    min_res = float(np.min(residuals))
    i, j = np.unravel_index(np.argmin(residuals), residuals.shape)
    worst_center = ((i + 1) * rx, (j + 1) * rt)
    return EntropyResidualReport(
        residuals=residuals.ravel(),
        min_residual=min_res,
        worst_center=worst_center,
        tol=tol,
        worst_violation=max(0.0, -min_res),
        passed=min_res >= -tol,
    )


def coercivity_constants(n_range: tuple, nt_range: tuple, m: GasModel) -> tuple:
    """Sharp constants for the pressure-difference sandwich

        C1 (n - nt)**2 <= (p(n) - p(nt)) (n - nt) <= C2 (n - nt)**2

    over the hull of the two intervals: by the mean value theorem these
    are the extremes of p' on the hull, and p' is increasing, so they sit
    at the hull endpoints. Intervals touching zero are rejected since
    p'(0) = 0 collapses the lower constant.
    """
    lo = min(n_range[0], nt_range[0])
    hi = max(n_range[1], nt_range[1])
    if lo <= 0.0:
        raise ValueError("density intervals must be strictly positive: p'(0) = 0")
    if n_range[1] < n_range[0] or nt_range[1] < nt_range[0]:
        raise ValueError("malformed interval")
    return (float(pressure_derivative(m, lo)), float(pressure_derivative(m, hi)))


def sandwich_violations(m: GasModel, n_vals, nt_vals, C1: float, C2: float,
                        rtol: float = 1e-12) -> int:
    """Count sample pairs violating the coercivity sandwich."""
    n = np.asarray(n_vals, dtype=float)[:, None]
    nt = np.asarray(nt_vals, dtype=float)[None, :]
    diff = n - nt
    mid = (pressure(m, n) - pressure(m, nt)) * diff
    lhs = C1 * diff * diff
    rhs = C2 * diff * diff
    slack = rtol * (1.0 + np.abs(mid))
    return int(np.sum(mid < lhs - slack) + np.sum(mid > rhs + slack))


@dataclass
class LyapunovReport:
    times: np.ndarray
    L: np.ndarray
    Lambda: float
    increase_tol: float
    increases: int
    max_increase: float

    def to_record(self) -> dict:
        return {
            "name": "lyapunov",
            "passed": bool(self.increases == 0),
            "Lambda": self.Lambda,
            "L0": float(self.L[0]),
            "L_final": float(self.L[-1]),
            "increase_tol": self.increase_tol,
            "increases": self.increases,
            "max_increase": self.max_increase,
        }


def lyapunov(traj, stat, m: GasModel, Lambda: float,
             increase_tol: float | None = None) -> LyapunovReport:
    """Series of L(t) = integral(Lambda eta* + Lambda y^2/2 + y y_t + y^2/2)
    with eta* the relative entropy about (N_tilde, J_tilde),
    y = -(E - E_tilde) and y_t = J - J_tilde.

    J_tilde is zero for the inviscid profile. Centre L on the steady state
    the run converges to: about any other state the cross term y y_t is
    linear in the offset and lets L rise once the run is that close.

    Requires Lambda > (doping upper bound) + (max observed density) + 1,
    which makes L comparable to the squared distance from the steady state.
    Increases beyond `increase_tol` are counted per recorded step; the
    default tolerance is 1e-8 * L(0) plus a tiny absolute guard so the
    count is meaningful when the run starts at the steady state.
    """
    max_n = float(np.max(traj.n))
    required = traj.doping.d_hi + max_n + 1.0
    if Lambda <= required:
        raise ValueError(
            f"Lambda = {Lambda} too small: the combined functional needs "
            f"Lambda > doping upper bound + max density + 1 = {required}"
        )
    if stat.N_tilde.size != traj.config.N + 1:
        raise ValueError("stationary profile grid does not match the trajectory")
    eta_s = relative_entropy(m, traj.n, traj.J, stat.N_tilde, stat.J_tilde)
    y = -(traj.E - stat.E_tilde)
    y_t = traj.J - stat.J_tilde
    integrand = Lambda * eta_s + Lambda * y * y / 2.0 + y * y_t + y * y / 2.0
    L = np.trapezoid(integrand, dx=traj.dx, axis=-1)
    if increase_tol is None:
        increase_tol = 1e-8 * float(L[0]) + 1e-24
    dL = np.diff(L)
    increases = int(np.sum(dL > increase_tol))
    max_inc = float(np.max(dL)) if dL.size else 0.0
    return LyapunovReport(traj.times, L, Lambda, increase_tol, increases, max_inc)


def decay_functional(state, stat):
    """Phi = integral((n - N_tilde)^2 + (E - E_tilde)^2 + (J - J_tilde)^2).

    A float for a State; for a Trajectory, one Phi per snapshot.
    """
    if stat.N_tilde.size != state.n.shape[-1]:
        raise ValueError("stationary profile grid does not match the state")
    dx = stat.x[1] - stat.x[0]
    integrand = ((state.n - stat.N_tilde) ** 2
                 + (state.E - stat.E_tilde) ** 2 + (state.J - stat.J_tilde) ** 2)
    return np.trapezoid(integrand, dx=dx, axis=-1)


def phi_series(traj, stat) -> np.ndarray:
    return decay_functional(traj, stat)


@dataclass
class DecayReport:
    times: np.ndarray
    phi: np.ndarray
    window: tuple
    c: float
    C: float
    r_squared: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": "decay",
            "passed": bool(self.passed),
            "c": self.c,
            "C": self.C,
            "r_squared": self.r_squared,
            "window_lo": self.window[0],
            "window_hi": self.window[1],
            "samples": int(len(self.times)),
        }


def fit_decay_rate(times, phi, window: tuple) -> DecayReport:
    """Least-squares line on (t, log Phi) inside the window.

    Returns c = -slope and C = exp(intercept); passes when c > 0 and
    R^2 >= 0.98. Samples at or below the floor 1e-14 * Phi(first sample)
    end the usable series. Fewer than 10 samples is a refusal.
    """
    times = np.asarray(times, dtype=float)
    phi = np.asarray(phi, dtype=float)
    floor = 1e-14 * phi[0]
    mask = (times >= window[0]) & (times <= window[1])
    t_w = times[mask]
    p_w = phi[mask]
    cut = np.nonzero(p_w <= floor)[0]
    if cut.size:
        t_w = t_w[: cut[0]]
        p_w = p_w[: cut[0]]
    if len(t_w) < 10:
        raise DiagnosticRefusal(f"decay fit needs at least 10 samples, got {len(t_w)}")
    logp = np.log(p_w)
    slope, intercept = np.polyfit(t_w, logp, 1)
    fitted = slope * t_w + intercept
    ss_res = float(np.sum((logp - fitted) ** 2))
    ss_tot = float(np.sum((logp - logp.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    c = float(-slope)
    return DecayReport(t_w, p_w, window, c, float(np.exp(intercept)), r2,
                       passed=(c > 0.0 and r2 >= 0.98))


@dataclass
class MassReport:
    times: np.ndarray
    mass: np.ndarray
    drift: float
    scale: float

    def to_record(self) -> dict:
        return {
            "name": "mass",
            "passed": True,
            "initial_mass": float(self.mass[0]),
            "drift": self.drift,
            "scale": self.scale,
        }


def mass_series(traj) -> MassReport:
    """Per-step trapezoid mass and the worst drift from the initial mass.

    The reported scale is drift / (0.05 * epsilon * T), the constant in
    the advisory bound drift <= 0.05 * epsilon * T * scale.
    """
    drift = float(np.max(np.abs(traj.mass - traj.mass[0])))
    T = float(traj.step_times[-1])
    eps = traj.config.epsilon
    scale = drift / (0.05 * eps * T) if T > 0.0 else 0.0
    return MassReport(traj.step_times, traj.mass, drift, scale)

