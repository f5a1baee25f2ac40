"""Explicit finite-difference integrator for the viscous carrier-fluid system.

The integrated system on x in [0, 1] is

    n_t + J_x               = eps * n_xx
    J_t + (J**2/n + p(n))_x = eps * J_xx + n*E - J - 2*eps*n_x

with E recomputed from the current density every step (see field module)
and boundary data J = 0 at both walls. The extra -2*eps*n_x source is what
makes the two Riemann-invariant equations decouple at the continuum level,
so it is discretized with the same central stencil as the viscosity to
keep that cancellation at truncation order.

Spatial discretization is second-order central by default, with a
first-order local Lax-Friedrichs (Rusanov) hyperbolic flux as a variant.
Time integration is explicit Euler under a three-way CFL bound
(hyperbolic, parabolic, relaxation).

The step is written for speed but keeps a bit-identity contract: every
array it produces equals, to the last bit, what the plain expressions
give (E by scipy's cumulative_trapezoid, the mass by np.trapezoid, the
max speed as max|lambda| over both families, and the stencils exactly as
the comments in _rhs spell them). In-place updates keep each operation's
operands and their order, and divisions by 2 dx and dx**2 stay divisions.
tests/test_solver.py checks the contract against a plain copy of the step.

The module imports numpy alone: E comes from field._efield, which is
scipy's cumulative_trapezoid formula in numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import inf
from typing import Optional

import numpy as np

from .field import DopingProfile, _efield, project_neutral
from .gas import GasModel, eigenvalues, pressure

# _advance takes E through this module-level name, so a wrapper bound to it
# (the benchmark's per-layer tracer times the E integral that way) sees
# every step. It is field._efield, scipy's cumulative_trapezoid formula in
# numpy, and takes _efield's arguments (y, dx).
cumulative_trapezoid = _efield


class BlowupError(Exception):
    """Solution left the finite range; carries the first bad cell and time."""

    def __init__(self, message: str, cell: int, time: float, trajectory=None):
        super().__init__(message)
        self.cell = cell
        self.time = time
        self.trajectory = trajectory


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    epsilon: float
    N: int
    T_final: float
    cfl_safety: float = 0.5
    n_floor: Optional[float] = None
    output_stride: int = 1
    scheme: str = "central"
    boundary: str = "dirichlet"
    relaxation: str = "explicit"

    def __post_init__(self) -> None:
        GasModel(self.gamma)  # range check
        if not 0.0 < self.epsilon < inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.N < 16:
            raise ValueError(f"N must be at least 16, got {self.N}")
        if not 0.0 <= self.T_final < inf:
            raise ValueError(f"T_final must be nonnegative and finite, got {self.T_final}")
        if not 0.0 < self.cfl_safety <= 0.9:
            raise ValueError(f"cfl_safety must lie in (0, 0.9], got {self.cfl_safety}")
        if self.n_floor is not None and not 0.0 <= self.n_floor < inf:
            raise ValueError(f"n_floor must be nonnegative and finite, got {self.n_floor}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.scheme not in ("central", "rusanov"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.boundary not in ("dirichlet", "float"):
            raise ValueError(f"unknown boundary treatment {self.boundary!r}")
        if self.relaxation not in ("explicit", "exp"):
            raise ValueError(f"unknown relaxation treatment {self.relaxation!r}")

    def model(self) -> GasModel:
        return GasModel(self.gamma)

    @property
    def floor(self) -> float:
        return 0.5 * self.epsilon if self.n_floor is None else self.n_floor


@dataclass
class State:
    t: float
    n: np.ndarray
    J: np.ndarray
    E: np.ndarray

    def __repr__(self) -> str:
        # the default repr prints every array element; pytest renders it in
        # tracebacks
        return f"State(t={self.t:.6g}, nodes={self.n.size})"


@dataclass
class Trajectory:
    """A run's snapshots as arrays, one row per snapshot: times has shape
    (K,), and n, J and E each have shape (K, N+1)."""

    times: np.ndarray
    n: np.ndarray
    J: np.ndarray
    E: np.ndarray
    step_times: np.ndarray      # time after every step, length n_steps + 1
    mass: np.ndarray            # trapezoid mass after every step
    clamp_counts: np.ndarray    # cells clamped to the floor, per step
    config: SolverConfig
    doping: DopingProfile
    boundary_values: tuple

    def __repr__(self) -> str:
        c = self.config
        return (f"Trajectory(N={c.N}, gamma={c.gamma}, epsilon={c.epsilon}, "
                f"snapshots={self.times.size}, steps={self.n_steps}, "
                f"t_final={self.step_times[-1]:.6g})")

    @property
    def dx(self) -> float:
        return 1.0 / self.config.N

    @property
    def n_steps(self) -> int:
        return len(self.step_times) - 1

    @property
    def dt_mean(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return float(self.step_times[-1] - self.step_times[0]) / self.n_steps


def mollify_initial(n0, J0, epsilon: float, dx: float):
    """Lift the density by epsilon and smooth both fields.

    The kernel is a normalized triangular hat of half-width
    max(3, round(epsilon/dx)) cells, applied with edge replication so
    constants pass through exactly. Warns when the nominal width
    epsilon/dx falls below the 3-cell minimum.
    """
    n0 = np.asarray(n0, dtype=float)
    J0 = np.asarray(J0, dtype=float)
    if np.any(n0 < 0.0):
        raise ValueError("initial density must be nonnegative")
    if np.any((n0 == 0.0) & (J0 != 0.0)):
        raise ValueError("initial current must vanish on vacuum cells")
    nominal = int(round(epsilon / dx))
    half = max(3, nominal)
    if nominal < 3:
        warnings.warn(
            f"mollifier width epsilon/dx = {epsilon / dx:.2f} cells clamped to 3",
            stacklevel=2,
        )
    kernel = (half + 1.0) - np.abs(np.arange(-half, half + 1, dtype=float))
    kernel /= kernel.sum()

    def smooth(f):
        padded = np.concatenate([np.full(half, f[0]), f, np.full(half, f[-1])])
        return np.convolve(padded, kernel, mode="valid")

    return smooth(n0 + epsilon), smooth(J0)


def _mass(n, dx: float) -> float:
    """np.trapezoid(n, dx=dx) written out: the same formula and bits."""
    s = n[1:] + n[:-1]
    s *= dx
    s /= 2.0                                            # dx * (n[1:] + n[:-1]) / 2.0
    return float(s.sum())


def _dt(m: GasModel, n, J, cfg: SolverConfig, dx: float) -> float:
    """dt = cfl_safety * min(dx/max|lambda|, dx**2/(2 eps), 1).

    max|lambda| is max(lam2.max(), -lam1.min()): exact, since lam1 <= lam2.
    """
    lam1, lam2 = eigenvalues(m, n, J)
    speed = float(max(lam2.max(), -lam1.min()))
    return cfg.cfl_safety * min(dx / speed, dx * dx / (2.0 * cfg.epsilon), 1.0)


def cfl_dt(state: State, cfg: SolverConfig, dx: float, model: GasModel | None = None) -> float:
    """dt = cfl_safety * min(dx/max|lambda|, dx**2/(2 eps), 1)."""
    return _dt(model or cfg.model(), state.n, state.J, cfg, dx)


def _rhs(n, J, E, t, m, cfg, x, dx, forcing):
    """Interior right-hand sides (rhs_n, rhs_J) of the semi-discrete system.

    rhs_J leaves out the -J relaxation, which the step treats separately.
    The steady solver in the stationary module evaluates the same stencil.
    Every array is fresh and updated in place; each sum keeps the operand
    order of the plain expressions in the comments, so the bits match.
    """
    eps = cfg.epsilon
    f2 = J * J
    f2 /= n
    f2 += pressure(m, n)                                # J*J/n + p(n)
    if cfg.scheme == "central":
        div_n = J[2:] - J[:-2]
        div_n /= 2.0 * dx                               # (J[2:] - J[:-2]) / (2 dx)
        div_J = f2[2:] - f2[:-2]
        div_J /= 2.0 * dx
    else:
        # Rusanov interface fluxes with the local spectral radius
        radius = np.abs(J / n) + m.theta * n**m.theta
        a = np.maximum(radius[:-1], radius[1:])
        hat1 = 0.5 * (J[:-1] + J[1:]) - 0.5 * a * (n[1:] - n[:-1])
        hat2 = 0.5 * (f2[:-1] + f2[1:]) - 0.5 * a * (J[1:] - J[:-1])
        div_n = (hat1[1:] - hat1[:-1]) / dx
        div_J = (hat2[1:] - hat2[:-1]) / dx

    # rhs_n = -div_n + eps * lap_n,  lap_n = (n[2:] - 2 n[1:-1] + n[:-2]) / dx^2
    rhs_n = n[1:-1] * 2.0
    np.subtract(n[2:], rhs_n, out=rhs_n)
    rhs_n += n[:-2]
    rhs_n /= dx * dx
    rhs_n *= eps
    rhs_n -= div_n
    # rhs_J = -div_J + eps * lap_J + n E - 2 eps grad_n,  grad_n = (n[2:] - n[:-2]) / (2 dx)
    rhs_J = J[1:-1] * 2.0
    np.subtract(J[2:], rhs_J, out=rhs_J)
    rhs_J += J[:-2]
    rhs_J /= dx * dx
    rhs_J *= eps
    rhs_J -= div_J
    rhs_J += n[1:-1] * E[1:-1]
    grad_n = n[2:] - n[:-2]
    grad_n /= 2.0 * dx
    grad_n *= 2.0 * eps
    rhs_J -= grad_n
    if forcing is not None:
        f_n, f_J = forcing
        xi = x[1:-1]
        rhs_n += f_n(xi, t)
        rhs_J += f_J(xi, t)
    return rhs_n, rhs_J


def _advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, forcing):
    """One explicit step on raw arrays; returns (n, J, clamped_cells)."""
    E = cumulative_trapezoid(n - d_grid, dx)
    rhs_n, rhs_J = _rhs(n, J, E, t, m, cfg, x, dx, forcing)

    nn = np.empty_like(n)
    JJ = np.empty_like(J)
    rhs_n *= dt
    np.add(n[1:-1], rhs_n, out=nn[1:-1])                # n + dt * rhs_n
    if cfg.relaxation == "explicit":
        rhs_J -= J[1:-1]
        rhs_J *= dt
        np.add(J[1:-1], rhs_J, out=JJ[1:-1])            # J + dt * (rhs_J - J)
    else:
        # exact integrating factor for the -J relaxation substep
        rhs_J *= dt
        rhs_J += J[1:-1]
        np.multiply(np.exp(-dt), rhs_J, out=JJ[1:-1])   # e^-dt (J + dt * rhs_J)

    if cfg.boundary == "dirichlet":
        nn[0], nn[-1] = bvals
    else:
        nn[0], nn[-1] = nn[1], nn[-2]
    JJ[0] = 0.0
    JJ[-1] = 0.0

    if not (np.isfinite(nn).all() and np.isfinite(JJ).all()):
        cell = int(np.argmax(~np.isfinite(nn) | ~np.isfinite(JJ)))
        raise BlowupError(
            f"non-finite state at cell {cell} (x = {cell * dx:.4f}), t = {t + dt:.6f}",
            cell, t + dt,
        )
    floor = cfg.floor
    if floor <= 0.0 and not (nn > 0.0).all():
        # without a floor the gas relations are undefined from here on
        cell = int(np.argmin(nn))
        raise BlowupError(
            f"vacuum at cell {cell} (x = {cell * dx:.4f}), t = {t + dt:.6f}: "
            f"density {nn[cell]:.3e} with n_floor = 0", cell, t + dt,
        )
    clamped = int(np.count_nonzero(nn < floor))
    if clamped:
        np.maximum(nn, floor, out=nn)
    return nn, JJ, clamped


def step(state: State, cfg: SolverConfig, D: DopingProfile, dt: float,
         model: GasModel | None = None, boundary_values: tuple | None = None,
         forcing=None) -> State:
    """Advance a single explicit step and return the new State.

    The caller is responsible for dt <= cfl_dt. Endpoint densities come
    from boundary_values (defaults to the state's own endpoints) under the
    dirichlet treatment; J is zeroed at both walls either way.
    """
    m = model or cfg.model()
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    dx = 1.0 / cfg.N
    d_grid = D(x)
    bvals = boundary_values or (float(state.n[0]), float(state.n[-1]))
    n, J, _ = _advance(state.n, state.J, state.t, dt, m, cfg, d_grid, x, dx,
                          bvals, forcing)
    return State(state.t + dt, n, J, _efield(n - d_grid, dx))


def run(cfg: SolverConfig, D: DopingProfile, n0, J0, forcing=None,
        mollify: bool = True) -> Trajectory:
    """Integrate from t = 0 to T_final, recording snapshots every
    output_stride steps plus the final state.

    Initial data are expected charge neutral. Mollification lifts the
    density by epsilon, which alone would leave a neutrality defect of
    exactly epsilon, so the mollified data are projected neutral again
    before the run; the field diagnostics assume E(1) = 0 at t = 0.
    Pass mollify=False to integrate the given data verbatim (used by the
    manufactured-solution checks).
    """
    m = cfg.model()
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    dx = 1.0 / N
    d_grid = D(x)
    n = np.asarray(n0, dtype=float).copy()
    J = np.asarray(J0, dtype=float).copy()
    if n.shape != x.shape or J.shape != x.shape:
        raise ValueError(f"initial data must have {N + 1} nodes")

    if mollify:
        n, J = mollify_initial(n, J, cfg.epsilon, dx)
        n = project_neutral(n, d_grid, dx)
    bvals = (float(n[0]), float(n[-1]))
    J[0] = 0.0
    J[-1] = 0.0

    # n and J are never changed in place: each step returns fresh arrays,
    # so the snapshot rows (t, n, J) can hold them as they are
    rows = [(0.0, n, J)]
    step_times = [0.0]
    mass = [_mass(n, dx)]
    clamps = []

    T = cfg.T_final
    t = 0.0
    k = 0
    total_clamped = 0
    while t < T - 1e-13:
        dt = _dt(m, n, J, cfg, dx)
        # a step that would stop within 1e-13 of T_final ends on it exactly
        last = t + dt >= T - 1e-13
        if last:
            dt = T - t
        try:
            n, J, clamped = _advance(n, J, t, dt, m, cfg, d_grid, x, dx,
                                     bvals, forcing)
        except BlowupError as exc:
            exc.trajectory = _package(rows, step_times, mass, clamps, cfg, D, bvals)
            raise
        t = T if last else t + dt
        k += 1
        total_clamped += clamped
        step_times.append(t)
        mass.append(_mass(n, dx))
        clamps.append(clamped)
        # clamping is a safety net, not a solution mode; a budget of
        # 1e-3 * N * steps distinguishes stray cells from a broken run
        if total_clamped > 1e-3 * N * k:
            err = BlowupError(
                f"positivity clamping exceeded budget ({total_clamped} cells "
                f"over {k} steps)", int(np.argmin(n)), t,
            )
            err.trajectory = _package(rows, step_times, mass, clamps, cfg, D, bvals)
            raise err
        if last or k % cfg.output_stride == 0:
            rows.append((t, n, J))

    return _package(rows, step_times, mass, clamps, cfg, D, bvals)


def _package(rows, step_times, mass, clamps, cfg, D, bvals) -> Trajectory:
    """Stack the snapshot rows and compute E for all of them in one call.

    The rows are released as each field is stacked, so no snapshot is
    held twice.
    """
    times, n, J = zip(*rows)
    rows.clear()
    n = np.array(n)
    J = np.array(J)
    return Trajectory(
        times=np.array(times),
        n=n,
        J=J,
        E=_efield(n - D(np.linspace(0.0, 1.0, cfg.N + 1)), 1.0 / cfg.N),
        step_times=np.array(step_times),
        mass=np.array(mass),
        clamp_counts=np.array(clamps, dtype=int),
        config=cfg,
        doping=D,
        boundary_values=bvals,
    )


# ---------------------------------------------------------------------------
# Manufactured-solution machinery for scheme verification.

def manufactured_solution():
    """Closed-form fields used by mms_convergence.

    n* = 1 + 0.25 sin(2 pi x) e^{-t}
    J* = 0.1 sin(pi x) x (1 - x) (1 - e^{-t})

    J* vanishes at both walls for all t and n* is 1 there, so the fields
    are compatible with the solver's boundary handling; the matching field
    E* = 0.25 e^{-t} (1 - cos(2 pi x)) / (2 pi) vanishes at both walls,
    so the pair stays charge neutral against D = 1.
    """
    pi = np.pi

    def n_star(x, t):
        return 1.0 + 0.25 * np.sin(2.0 * pi * x) * np.exp(-t)

    def J_star(x, t):
        return 0.1 * np.sin(pi * x) * x * (1.0 - x) * (1.0 - np.exp(-t))

    return n_star, J_star


def manufactured_forcing(m: GasModel, eps: float):
    """Source terms that make the manufactured fields exact solutions."""
    pi = np.pi

    def f_n(x, t):
        et = np.exp(-t)
        # n_t + J_x - eps n_xx
        n_t = -0.25 * np.sin(2.0 * pi * x) * et
        J_x = 0.1 * (1.0 - et) * (pi * np.cos(pi * x) * x * (1.0 - x)
                                  + np.sin(pi * x) * (1.0 - 2.0 * x))
        n_xx = -pi * pi * np.sin(2.0 * pi * x) * et
        return n_t + J_x - eps * n_xx

    def f_J(x, t):
        et = np.exp(-t)
        s2, c2 = np.sin(2.0 * pi * x), np.cos(2.0 * pi * x)
        sp, cp = np.sin(pi * x), np.cos(pi * x)
        poly = x * (1.0 - x)
        n = 1.0 + 0.25 * s2 * et
        J = 0.1 * sp * poly * (1.0 - et)
        n_x = 0.5 * pi * c2 * et
        J_x = 0.1 * (1.0 - et) * (pi * cp * poly + sp * (1.0 - 2.0 * x))
        J_t = 0.1 * sp * poly * et
        J_xx = 0.1 * (1.0 - et) * (-pi * pi * sp * poly
                                   + 2.0 * pi * cp * (1.0 - 2.0 * x) - 2.0 * sp)
        E = 0.25 * et * (1.0 - c2) / (2.0 * pi)
        conv_x = (2.0 * J * J_x * n - J * J * n_x) / (n * n)
        p_x = m.p0 * m.gamma * n ** (m.gamma - 1.0) * n_x
        # J_t + (J^2/n + p)_x - eps J_xx - nE + J + 2 eps n_x
        return J_t + conv_x + p_x - eps * J_xx - n * E + J + 2.0 * eps * n_x

    return f_n, f_J


@dataclass
class MMSReport:
    resolutions: list
    errors: list
    order: float
    pair_orders: list
    monotone: bool
    exact: bool


def mms_convergence(cfg: SolverConfig, resolutions, solution: str = "standard") -> MMSReport:
    """Measure the observed convergence order against a manufactured solution.

    Needs at least 3 resolutions, each double the last. The template
    config supplies epsilon, T_final, cfl_safety and the scheme variant;
    its own N is ignored, and T_final must be positive. With
    solution="constant" the exact solution is the flat equilibrium and
    every error must be zero.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ValueError(f"resolutions must double: {b} != 2 * {a}")
    if solution not in ("standard", "constant"):
        raise ValueError(f"unknown manufactured solution {solution!r}")
    if not cfg.T_final > 0.0:
        # no step would be taken, and the initial data match exactly
        raise ValueError(f"mms needs T_final > 0, got {cfg.T_final}")

    m = GasModel(cfg.gamma)
    D = DopingProfile.constant(1.0)
    if solution == "standard":
        n_star, J_star = manufactured_solution()
        forcing = manufactured_forcing(m, cfg.epsilon)
    else:
        n_star = lambda x, t: np.ones_like(x)
        J_star = lambda x, t: np.zeros_like(x)
        forcing = None

    errors = []
    for N in resolutions:
        sub = replace(cfg, N=N, output_stride=10**9, boundary="dirichlet")
        x = np.linspace(0.0, 1.0, N + 1)
        traj = run(sub, D, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing,
                   mollify=False)
        t = traj.times[-1]
        err2 = (traj.n[-1] - n_star(x, t)) ** 2 + (traj.J[-1] - J_star(x, t)) ** 2
        errors.append(float(np.sqrt(np.trapezoid(err2, dx=1.0 / N))))

    exact = all(e < 1e-13 for e in errors)
    if exact:
        return MMSReport(resolutions, errors, float("inf"), [], True, True)
    log_dx = np.log([1.0 / N for N in resolutions])
    log_e = np.log(errors)
    order = float(np.polyfit(log_dx, log_e, 1)[0])
    pair_orders = [float(np.log2(errors[i] / errors[i + 1]))
                   for i in range(len(errors) - 1)]
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    return MMSReport(resolutions, errors, order, pair_orders, monotone, False)
