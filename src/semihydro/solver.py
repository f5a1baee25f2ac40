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
(hyperbolic, parabolic, relaxation). Wall densities are held (dirichlet)
or advanced as zero-flux half cells (float), which keeps the trapezoid
mass to rounding.

The run loop takes each step in C when it can: _step.c, built by the
system C compiler on the first run and loaded through ctypes (see the
_kernel module). Each step is then one call of semihydro_step, after
numpy has computed the step's powers in its two gas calls: the
characteristic speeds by eigenvalues and p(n) by pressure. The C call
reduces the speeds to max|lambda|, takes dt from the CFL bound and the
Rusanov flux's radius from the speeds, applies the last-step rule,
advances the state and sums its trapezoid mass. It also keeps the run's
books in its grid: the buffer pair that holds the state, the clock t,
the step count, and the records of each step's time, mass and clamp
count, from which the Trajectory takes step_times, mass and
clamp_counts. Its status tells Python when to act: a blowup, a step that
clamped (the clamp budget is checked then), a snapshot due, or full
records, which Python doubles. Otherwise a step in Python is the two gas
calls, their copies into the grid's buffers and the C call. The loop
itself stays in Python, one call per step: a loop over a whole stride
between snapshots would have to take the powers in C as well, and the
benchmark counts two gas calls, eigenvalues and pressure, per step
(bench/test_bench.py asserts it), which only a change of the benchmark
may drop. On x86-64 with glibc the library holds two copies of the
step's loops, for AVX2 and for the baseline, and the loader picks one by
the CPU, with the same bits. Without a compiler, or if the build or its
cache fails, the step is _dt and _advance, in numpy, at a few times the
cost per step, and the same loop writes the same records. The public
single step, step, is _advance in numpy on every host, with or without
the library: run is the one caller of the C step.

The manufactured forcing of the mms checks is evaluated inside that C
call at gamma = 2, the gamma of every mms config, where its power
(1 + b_n e^-t)**(gamma - 1) is its base. Given manufactured_forcing's
pair on its N - 1 interior nodes, a step takes e^-t in numpy into the
grid, and semihydro_step runs the forcing's loops into its buffers before
its interior loop. Any other forcing (the same pair at another gamma,
closures of the caller's, or the pair wrapped in a plain tuple of
functions), and every forcing without the library, is called from Python
on each step, and the C step copies its values.

Both paths keep one bit-identity contract, on one host: every array a run
produces equals, to the last bit, what the plain expressions give (E by
scipy's cumulative_trapezoid, the mass by np.trapezoid, the max speed as
max|lambda| over both families, and the stencils exactly as the comments
in _rhs spell them). The numpy step writes each stencil as one expression
in the order of the lines of _step.c's advance, and divisions stay
divisions. The C step does that arithmetic on doubles, built at -O3 with
-ffp-contract=off and without -ffast-math, so that the compiler neither
reassociates nor fuses into a multiply-add, and its vector loops give the
scalar bits. It takes no power itself: the speeds, p(n) and exp(-t)
come from numpy. Its clock t + dt is Python's addition of two doubles.
It sums the mass's trapezoid terms in np.sum's pairwise order (8
accumulators over blocks of at most 128 terms, longer ranges split in
two at a multiple of 8), so the mass keeps np.trapezoid's bits.
tests/test_solver.py checks both paths, and step, against a plain copy of
the step, of dt and of the forcing, and against each other.
Between hosts the bits may differ for gamma != 2: numpy's SIMD power
routine may round n**gamma differently on another CPU. At gamma = 2 the
powers (n**2.0, n**0.5) are exact, and CI's byte comparisons between runs
use gamma = 2, except those that compare the two paths on one host: mms
at gamma = 1.5, central and Rusanov, and the scenario at gamma = 3.

The module imports numpy alone: E comes from field._efield, which is
scipy's cumulative_trapezoid formula in numpy, and the kernel is built
and loaded on the first run, not on import.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, fields, replace
from math import inf
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .field import DopingProfile, _efield, project_neutral
from .gas import GasModel, eigenvalues, pressure
from . import _kernel

# _advance takes E through this module-level name, so a wrapper bound to it
# (the benchmark's per-layer tracer times the E integral that way) sees
# every numpy step; the C step integrates E itself. It is field._efield,
# scipy's cumulative_trapezoid formula in numpy, and takes _efield's
# arguments (y, dx).
cumulative_trapezoid = _efield


class BlowupError(Exception):
    """Solution left the finite range; carries the first bad cell and time."""

    def __init__(self, message: str, cell: int, time: float, trajectory=None):
        super().__init__(message)
        self.cell = cell
        self.time = time
        self.trajectory = trajectory

    def __reduce__(self):
        # pickle rebuilds an exception from its args, the message alone here
        return type(self), (str(self), self.cell, self.time, self.trajectory)


def _real(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


# (setting, test, rule) in the order SolverConfig checks them; a setting's
# first failed test is its problem
_RULES = (
    ("epsilon", lambda v: _real(v) and 0.0 < v < inf, "must be positive and finite"),
    ("N", _integer, "must be an integer"),
    ("N", lambda v: v >= 16, "must be at least 16"),
    ("T_final", lambda v: _real(v) and 0.0 <= v < inf, "must be nonnegative and finite"),
    ("cfl_safety", lambda v: _real(v) and 0.0 < v <= 0.9, "must lie in (0, 0.9]"),
    ("n_floor", lambda v: v is None or _real(v) and 0.0 <= v < inf,
     "must be nonnegative and finite"),
    ("output_stride", _integer, "must be an integer"),
    ("output_stride", lambda v: v >= 1, "must be >= 1"),
    ("scheme", lambda v: v in ("central", "rusanov"), "must be central or rusanov"),
    ("boundary", lambda v: v in ("dirichlet", "float"), "must be dirichlet or float"),
    ("relaxation", lambda v: v == "explicit", "must be explicit"),
)


def setting_problems(settings: dict) -> dict:
    """{name: message} for each SolverConfig setting in `settings` that has
    the wrong type or lies out of range; absent settings are not checked.

    SolverConfig raises the first message; parse_config reports them all.
    """
    problems = {}
    if "gamma" in settings:
        gamma = settings["gamma"]
        try:
            if not _real(gamma):
                raise ValueError(f"gamma must be a number, got {gamma!r}")
            GasModel(gamma)  # the gas model owns the range of gamma
        except ValueError as exc:
            problems["gamma"] = str(exc)
    for name, test, rule in _RULES:
        if name in settings and name not in problems and not test(settings[name]):
            problems[name] = f"{name} {rule}, got {settings[name]!r}"
    return problems


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
        problems = setting_problems({f.name: getattr(self, f.name)
                                     for f in fields(SolverConfig)})
        if problems:
            raise ValueError(next(iter(problems.values())))

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


def initial_data(cfg: SolverConfig, D: DopingProfile, n0, J0):
    """The arrays (n, J) that run(cfg, D, n0, J0) starts from: (n0, J0)
    mollified, then projected charge neutral again, since the lift by
    epsilon alone would leave a neutrality defect of epsilon (the field
    diagnostics assume E(1) = 0 at t = 0). Warns as mollify_initial does."""
    dx = 1.0 / cfg.N
    n, J = mollify_initial(n0, J0, cfg.epsilon, dx)
    return project_neutral(n, D(np.linspace(0.0, 1.0, cfg.N + 1)), dx), J


def _dt(m: GasModel, n, J, cfg: SolverConfig, dx: float) -> float:
    """dt = cfl_safety * min(dx/max|lambda|, dx**2/(2 eps), 1).

    max|lambda| is max(lam2.max(), -lam1.min()): exact, since lam1 <= lam2.
    """
    lam1, lam2 = eigenvalues(m, n, J)
    speed = float(max(lam2.max(), -lam1.min()))
    return cfg.cfl_safety * min(dx / speed, dx * dx / (2.0 * cfg.epsilon), 1.0)


def cfl_dt(state: State, cfg: SolverConfig, dx: float) -> float:
    """dt = cfl_safety * min(dx/max|lambda|, dx**2/(2 eps), 1)."""
    return _dt(cfg.model(), state.n, state.J, cfg, dx)


def _rhs(n, J, E, t, m, cfg, dx, forcing):
    """Interior right-hand sides (rhs_n, rhs_J) of the semi-discrete system,
    and the density fluxes h - eps (n[i+1] - n[i]) / dx through the faces
    next to the walls, the ones rhs_n differences at nodes 1 and N-1.

    forcing, if given, is a pair (f_n, f_J) of functions of t that return
    the N-1 interior values; the -J relaxation is the last term of rhs_J.
    The steady solver in the stationary module evaluates the same stencil.
    Each expression is that of _step.c's advance, operand for operand: the
    same bits.
    """
    eps = cfg.epsilon
    f2 = J * J / n + pressure(m, n)
    if cfg.scheme == "central":
        div_n = (J[2:] - J[:-2]) / (2.0 * dx)
        div_J = (f2[2:] - f2[:-2]) / (2.0 * dx)
        h_lo = (J.item(0) + J.item(1)) / 2.0
        h_hi = (J.item(-2) + J.item(-1)) / 2.0
    else:
        # Rusanov interface fluxes with the local spectral radius
        radius = np.abs(J / n) + m.theta * n**m.theta
        a = np.maximum(radius[:-1], radius[1:])
        hat1 = 0.5 * (J[:-1] + J[1:]) - 0.5 * a * (n[1:] - n[:-1])
        hat2 = 0.5 * (f2[:-1] + f2[1:]) - 0.5 * a * (J[1:] - J[:-1])
        div_n = (hat1[1:] - hat1[:-1]) / dx
        div_J = (hat2[1:] - hat2[:-1]) / dx
        h_lo, h_hi = hat1.item(0), hat1.item(-1)
    wall_flux = (h_lo - eps * (n.item(1) - n.item(0)) / dx,
                 h_hi - eps * (n.item(-1) - n.item(-2)) / dx)

    # rhs_n = -div_n + eps * lap_n,  lap_n = (n[2:] - 2 n[1:-1] + n[:-2]) / dx^2
    rhs_n = (n[2:] - n[1:-1] * 2.0 + n[:-2]) / (dx * dx) * eps - div_n
    # rhs_J = -div_J + eps * lap_J + n E - 2 eps grad_n,  grad_n = (n[2:] - n[:-2]) / (2 dx)
    grad_n = (n[2:] - n[:-2]) / (2.0 * dx)
    rhs_J = ((J[2:] - J[1:-1] * 2.0 + J[:-2]) / (dx * dx) * eps - div_J
             + n[1:-1] * E[1:-1] - grad_n * (2.0 * eps))
    if forcing is not None:
        f_n, f_J = forcing
        rhs_n = rhs_n + f_n(t)
        rhs_J = rhs_J + f_J(t)
    return rhs_n, rhs_J - J[1:-1], wall_flux


def _advance(n, J, t, dt, m, cfg, d_grid, dx, bvals, forcing):
    """One explicit step on raw arrays; returns (n, J, clamped_cells)."""
    E = cumulative_trapezoid(n - d_grid, dx)
    rhs_n, rhs_J, (flux_lo, flux_hi) = _rhs(n, J, E, t, m, cfg, dx, forcing)

    nn = np.empty_like(n)
    JJ = np.empty_like(J)
    nn[1:-1] = n[1:-1] + rhs_n * dt                     # n + dt * rhs_n
    JJ[1:-1] = J[1:-1] + rhs_J * dt                     # J + dt * rhs_J
    if cfg.boundary == "dirichlet":
        nn[0], nn[-1] = bvals
    else:
        # zero-flux half cells of width dx/2: the trapezoid mass telescopes
        nn[0] = n.item(0) - dt * flux_lo / (dx / 2.0)
        nn[-1] = n.item(-1) + dt * flux_hi / (dx / 2.0)
    JJ[0] = 0.0
    JJ[-1] = 0.0

    if not (np.isfinite(nn).all() and np.isfinite(JJ).all()):
        cell = int(np.argmax(~np.isfinite(nn) | ~np.isfinite(JJ)))
        raise _nonfinite(cell, dx, t + dt)
    floor = cfg.floor
    if floor <= 0.0 and not (nn > 0.0).all():
        # without a floor the gas relations are undefined from here on
        cell = int(np.argmin(nn))
        raise _vacuum(cell, nn[cell], dx, t + dt)
    clamped = int(np.count_nonzero(nn < floor))
    if clamped:
        nn = np.maximum(nn, floor)
    return nn, JJ, clamped


def _nonfinite(cell: int, dx: float, t: float) -> BlowupError:
    return BlowupError(f"non-finite state at cell {cell} (x = {cell * dx:.4f}), t = {t:.6f}",
                       cell, t)


def _vacuum(cell: int, density: float, dx: float, t: float) -> BlowupError:
    return BlowupError(f"vacuum at cell {cell} (x = {cell * dx:.4f}), t = {t:.6f}: "
                       f"density {density:.3e} with n_floor = 0", cell, t)


# the step records' first capacity, in steps; they double when full
_RECORDS = 256


class _Records:
    """The step records of a stepper's run: the time and the mass after
    each step, with the start's at index 0, and each step's clamp count.
    They start at _RECORDS steps and double when full (_grow)."""

    def __init__(self, dx):
        self._dx = dx
        self._times = np.empty(_RECORDS + 1)
        self._masses = np.empty(_RECORDS + 1)
        self._clamps = np.empty(_RECORDS, dtype=np.int64)

    def _first(self, n, t):
        """Record the start (t, the mass of n) before the first step."""
        if self.steps == 0:
            self._times[0] = t
            self._masses[0] = np.trapezoid(n, dx=self._dx)

    def _grow(self):
        cap = self._clamps.size
        self._times = np.concatenate((self._times, np.empty(cap)))
        self._masses = np.concatenate((self._masses, np.empty(cap)))
        self._clamps = np.concatenate((self._clamps, np.empty(cap, dtype=np.int64)))

    def records(self):
        """(step_times, mass, clamp_counts) of the steps taken so far, as
        Trajectory holds them."""
        k = self.steps
        return self._times[:k + 1].copy(), self._masses[:k + 1].copy(), self._clamps[:k].astype(int)


class _KernelStep(_Records):
    """The explicit step by the C kernel: _stepper's stepper when the
    library loads.

    The state alternates between two pairs of preallocated buffers, and
    the arrays march yields are overwritten by the step after next. Numpy's
    powers are the two gas calls, the speeds from eigenvalues and p(n),
    copied into buffers of their own; the Rusanov flux takes its radius
    from the speeds. semihydro_step also keeps the run's books in the
    grid: the pair that holds the state, t, the step count and the
    records, so Python acts only on the events its status reports.
    manufactured_forcing's pair at gamma = 2 on N - 1 points of doubles
    the kernel evaluates itself, from e^-t, which numpy takes into the
    grid. Any other forcing's closures, the same pair's at another gamma
    among them, are called and their values copied into the forcing
    buffers.
    """

    def __init__(self, lib, m, cfg, d_grid, dx, bvals, forcing):
        N = cfg.N
        self._lib = lib
        self._m = m
        self._forcing = forcing
        super().__init__(dx)
        # every array the kernel reads or writes, kept alive here
        self._state = np.empty((4, N + 1))
        self._d = np.array(d_grid, dtype=float)
        # p, lam1, lam2, then the kernel's scratch E, f2, r, h1, h2
        self._p, self._lam1, self._lam2, *scratch = np.empty((8, N + 1))
        self._f = np.empty((2, N - 1))
        self._terms = np.empty(N)
        fn, fJ = (a.ctypes.data for a in self._f) if forcing is not None else (None, None)
        # a forcing the kernel evaluates: the struct of its constants and of
        # its factors' addresses (self._forcing keeps the arrays alive). Only
        # at gamma = 2, where the power (1 + b_n e^-t)**(gamma - 1) is n**1.0,
        # which numpy gives as n bit for bit, so the kernel takes no power;
        # at any other gamma the closures run, with numpy's power.
        self._forcing_grid = library_forcing = None
        self._fill = None if forcing is None else self._fill_closures
        if isinstance(forcing, _ManufacturedForcing) and forcing.m.gamma - 1.0 == 1.0 and all(
                f.shape == (N - 1,) and f.dtype == np.float64 and f.flags.c_contiguous
                for f in forcing.factors):
            self._forcing_grid = _kernel.Forcing(N - 1, forcing.eps, 2.0 * forcing.eps, 2.0 * np.pi,
                                                 forcing.m.p0 * forcing.m.gamma,
                                                 *(f.ctypes.data for f in forcing.factors))
            library_forcing = ctypes.addressof(self._forcing_grid)
            self._fill = self._fill_library
        self._grid = _kernel.Grid(N, cfg.epsilon, dx, cfg.floor, cfg.cfl_safety, *bvals,
                                  cfg.scheme == "rusanov", cfg.boundary == "float",
                                  *(a.ctypes.data for a in (self._state, self._d, self._p,
                                                            self._lam1, self._lam2)),
                                  fn, fJ, library_forcing, *(a.ctypes.data for a in scratch),
                                  self._terms.ctypes.data)
        self._point_records()
        # (n, J) of buffer pair 0 and of pair 1
        self._pairs = (tuple(self._state[:2]), tuple(self._state[2:]))

    @property
    def steps(self):
        return self._grid.steps

    def _point_records(self):
        grid = self._grid
        grid.cap = self._clamps.size
        grid.times, grid.masses, grid.clamps = (
            a.ctypes.data for a in (self._times, self._masses, self._clamps))

    def _grow(self):
        super()._grow()
        self._point_records()

    def _fill_library(self, t):
        """The numpy input of the library's forcing at time t: e^-t, as the
        closures take it."""
        self._grid.et = np.exp(-t)

    def _fill_closures(self, t):
        """The closures' values at time t, in the forcing buffers."""
        f_n, f_J = self._forcing
        self._f[0] = f_n(t)
        self._f[1] = f_J(t)

    def _outcome(self, status, t_new):
        """Raise the BlowupError of a step that ended with a blowup status:
        its state is in the pair that grid.k does not name."""
        cell = self._grid.count
        if status == _kernel.NONFINITE:
            raise _nonfinite(cell, self._dx, t_new)
        raise _vacuum(cell, self._pairs[1 - self._grid.k][0][cell], self._dx, t_new)

    def march(self, n, J, t, T, stride):
        grid = self._grid
        self._first(n, t)
        if not t < T - 1e-13:
            return
        self._state[0] = n
        self._state[1] = J
        grid.k = 0
        grid.t, grid.T, grid.stride = t, T, stride
        m, pairs, fill = self._m, self._pairs, self._fill
        lam1, lam2, p = self._lam1, self._lam2, self._p
        step = self._lib.semihydro_step
        while True:
            n, J = pairs[grid.k]
            # eigenvalues and pressure as this module's globals, so that a
            # wrapper bound to either sees each call; the speeds first, in
            # the order of _dt and _advance, so that a bad density raises
            # the same error on both paths
            lam1[...], lam2[...] = eigenvalues(m, n, J)
            p[...] = pressure(m, n)
            if fill is not None:
                fill(grid.t)
            status = step(grid)
            if status:
                if status & (_kernel.NONFINITE | _kernel.VACUUM):
                    self._outcome(status, grid.t + grid.dt)
                if status & _kernel.FULL:
                    self._grow()
                if status & (_kernel.CLAMPED | _kernel.SNAPSHOT):
                    yield (*pairs[grid.k], grid.t, grid.count,
                           bool(status & _kernel.SNAPSHOT))
                if status & _kernel.LAST:
                    return


class _NumpyStep(_Records):
    """The explicit step by _dt and _advance: _stepper's stepper when the C
    library does not load."""

    def __init__(self, m, cfg, d_grid, dx, bvals, forcing):
        super().__init__(dx)
        self._args = (m, cfg, d_grid, dx, bvals, forcing)
        self.steps = 0

    def march(self, n, J, t, T, stride):
        m, cfg, _, dx, _, _ = self._args
        self._first(n, t)
        while t < T - 1e-13:
            dt = _dt(m, n, J, cfg, dx)
            # a step that would stop within 1e-13 of T ends on it exactly
            last = t + dt >= T - 1e-13
            if last:
                dt = T - t
            n, J, clamped = _advance(n, J, t, dt, *self._args)
            t = T if last else t + dt
            self.steps = k = self.steps + 1
            self._times[k], self._masses[k], self._clamps[k - 1] = (
                t, np.trapezoid(n, dx=dx), clamped)
            if k == self._clamps.size:
                self._grow()
            due = last or k % stride == 0
            if clamped or due:
                yield n, J, t, clamped, due


def _stepper(m, cfg, d_grid, dx, bvals, forcing):
    """The explicit step, by the C kernel if it loads, else by numpy's
    _dt and _advance. Both give the same bits and raise the same
    BlowupError. The stepper has:

    - march(n, J, t, T, stride), run's loop: a generator that steps from
      (n, J) at time t toward T_final = T, each step by _dt's dt, or by
      T - t on the last, when t + dt would stop within 1e-13 of T. It
      yields (n, J, t, clamped_cells, snapshot_due) after each step that
      clamped or after which a snapshot is due (every stride steps, and
      the last), and raises a step's BlowupError;
    - steps and records(), the steps march has taken, and their records:
      (step_times, mass, clamp_counts) as Trajectory holds them, the start
      first.

    The C step's arrays are its own buffers, overwritten by the step after
    next; copy a state that must outlive that.
    """
    lib = _kernel.load()
    if lib is not None:
        return _KernelStep(lib, m, cfg, d_grid, dx, bvals, forcing)
    return _NumpyStep(m, cfg, d_grid, dx, bvals, forcing)


def step(state: State, cfg: SolverConfig, D: DopingProfile, dt: float) -> State:
    """Advance a single explicit step and return the new State.

    The step is numpy's _advance on every host, the bits of a step of
    run. The caller is responsible for dt <= cfl_dt. Dirichlet walls hold
    the state's own endpoint densities; J is zeroed at both walls either
    way. Raises ValueError unless n and J each have N + 1 nodes. Like run,
    the step ignores numpy's floating-point warnings: a state that turns
    non-finite raises a BlowupError that names the cell.
    """
    if np.shape(state.n) != (cfg.N + 1,) or np.shape(state.J) != (cfg.N + 1,):
        raise ValueError(f"the state must have {cfg.N + 1} nodes")
    dx = 1.0 / cfg.N
    d_grid = D(np.linspace(0.0, 1.0, cfg.N + 1))
    n = np.asarray(state.n, dtype=float)
    J = np.asarray(state.J, dtype=float)
    with np.errstate(all="ignore"):
        n, J, _ = _advance(n, J, state.t, dt, cfg.model(), cfg, d_grid, dx,
                           (n.item(0), n.item(-1)), None)
        return State(state.t + dt, n, J, _efield(n - d_grid, dx))


def run(cfg: SolverConfig, D: DopingProfile, n0, J0, forcing=None,
        mollify: bool = True, on_snapshot=None) -> Trajectory:
    """Integrate from t = 0 to T_final, recording snapshots every
    output_stride steps plus the final state.

    forcing, if given, is a pair (f_n, f_J) of functions of t that return
    the source terms on the N-1 interior nodes, as manufactured_forcing
    builds them for a grid; the C step evaluates manufactured_forcing's
    own pair itself, with the same bits.

    on_snapshot, if given, is called as on_snapshot(t, n, J) with each
    snapshot as it is recorded, before the next step. So the calls made
    before a BlowupError are exactly the rows of its trajectory. The
    arrays are never changed afterwards, and may be kept without a copy.

    Initial data are expected charge neutral. The run starts from
    initial_data(cfg, D, n0, J0); pass mollify=False to integrate the
    given data verbatim instead (the manufactured-solution checks, or a
    caller that prepared initial_data itself).

    The steps ignore numpy's floating-point warnings: a state that turns
    non-finite raises a BlowupError that names the cell.
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
        n, J = initial_data(cfg, D, n, J)
    bvals = (float(n[0]), float(n[-1]))
    J[0] = 0.0
    J[-1] = 0.0

    # the C step reuses its buffers, so each snapshot row is a copy
    rows = []

    def record(t, n, J):
        row = (t, n.copy(), J.copy())
        rows.append(row)
        if on_snapshot is not None:
            on_snapshot(*row)

    stepper = _stepper(m, cfg, d_grid, dx, bvals, forcing)
    record(0.0, n, J)
    total_clamped = 0
    with np.errstate(all="ignore"):
        try:
            for n, J, t, clamped, due in stepper.march(n, J, 0.0, cfg.T_final,
                                                        cfg.output_stride):
                # clamping is a safety net, not a solution mode; a budget of
                # 1e-3 * N * steps distinguishes stray cells from a broken
                # run. Only a step that clamps can newly exceed it.
                total_clamped += clamped
                if total_clamped > 1e-3 * N * stepper.steps:
                    raise BlowupError(
                        f"positivity clamping exceeded budget ({total_clamped} cells "
                        f"over {stepper.steps} steps)", int(np.argmin(n)), t,
                    )
                if due:
                    record(t, n, J)
        except BlowupError as exc:
            exc.trajectory = _package(rows, stepper.records(), cfg, D)
            raise

    return _package(rows, stepper.records(), cfg, D)


def _package(rows, records, cfg, D) -> Trajectory:
    """Stack the snapshot rows and compute E for all of them in one call;
    records are the stepper's (step_times, mass, clamp_counts).

    The rows are released as each field is stacked, so no snapshot is
    held twice.
    """
    times, n, J = zip(*rows)
    rows.clear()
    n = np.array(n)
    J = np.array(J)
    step_times, mass, clamp_counts = records
    return Trajectory(
        times=np.array(times),
        n=n,
        J=J,
        E=_efield(n - D(np.linspace(0.0, 1.0, cfg.N + 1)), 1.0 / cfg.N),
        step_times=step_times,
        mass=mass,
        clamp_counts=clamp_counts,
        config=cfg,
        doping=D,
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


class _ManufacturedForcing(tuple):
    """The pair (f_n, f_J) of manufactured_forcing, which also carries the
    nine x-only factors on its points (in _kernel.Forcing's order), eps
    and the gas model m: what the C step needs to evaluate the forcing
    itself at gamma = 2."""

    def __new__(cls, f_n, f_J, factors, eps, m):
        pair = super().__new__(cls, (f_n, f_J))
        pair.factors, pair.eps, pair.m = factors, eps, m
        return pair


def manufactured_forcing(m: GasModel, eps: float, x):
    """Source terms on the points x that make the manufactured fields exact
    solutions.

    Returns (f_n, f_J), each f(t) an array on x (run takes them built on
    the interior nodes). The factors that depend on x alone (the sines and
    cosines of pi x and 2 pi x, x (1 - x) and the brackets of J_x and
    J_xx) are computed once, here. Each is the left-most sub-expression
    that the plain formulas in the comments evaluate first, and the
    per-call arithmetic keeps every operand and its order, so the forcing
    has the bits of those formulas for any x and t (tests/test_solver.py
    checks this against a plain copy).

    The pair is a _ManufacturedForcing, which also carries the factors,
    eps and m: the C step, given it on its N - 1 interior nodes at
    gamma = 2, evaluates the forcing with _step.c's loops, which do the
    closures' arithmetic in the same order, and never calls the closures.
    """
    pi = np.pi
    # In the comments s2, c2, sp, cp are sin(2 pi x), cos(2 pi x),
    # sin(pi x), cos(pi x), and poly = x (1 - x).
    s2, c2 = np.sin(2.0 * pi * x), np.cos(2.0 * pi * x)
    sp, cp = np.sin(pi * x), np.cos(pi * x)
    poly = x * (1.0 - x)
    # f_n
    a_t, a_xx = -0.25 * s2, -pi * pi * s2
    a_x = pi * cp * x * (1.0 - x) + sp * (1.0 - 2.0 * x)
    # f_J
    b_n, b_J, b_nx = 0.25 * s2, 0.1 * sp * poly, 0.5 * pi * c2
    b_Jx = pi * cp * poly + sp * (1.0 - 2.0 * x)
    b_Jxx = -pi * pi * sp * poly + 2.0 * pi * cp * (1.0 - 2.0 * x) - 2.0 * sp
    b_E = 1.0 - c2

    def f_n(t):
        et = np.exp(-t)
        # n_t + J_x - eps n_xx with the plain formulas
        #   n_t  = -0.25 s2 et
        #   J_x  = 0.1 (1 - et) (pi cp x (1 - x) + sp (1 - 2 x))
        #   n_xx = -pi pi s2 et
        return a_t * et + 0.1 * (1.0 - et) * a_x - eps * (a_xx * et)

    def f_J(t):
        et = np.exp(-t)
        # the plain formulas
        #   n    = 1 + 0.25 s2 et
        #   J    = 0.1 sp poly (1 - et)
        #   n_x  = 0.5 pi c2 et
        #   J_x  = 0.1 (1 - et) (pi cp poly + sp (1 - 2 x))
        #   J_t  = 0.1 sp poly et
        #   J_xx = 0.1 (1 - et) (-pi pi sp poly + 2 pi cp (1 - 2 x) - 2 sp)
        #   E    = 0.25 et (1 - c2) / (2 pi)
        n = 1.0 + b_n * et
        J = b_J * (1.0 - et)
        n_x = b_nx * et
        J_x = 0.1 * (1.0 - et) * b_Jx
        J_t = b_J * et
        J_xx = 0.1 * (1.0 - et) * b_Jxx
        E = 0.25 * et * b_E / (2.0 * pi)
        conv_x = (2.0 * J * J_x * n - J * J * n_x) / (n * n)
        p_x = m.p0 * m.gamma * n ** (m.gamma - 1.0) * n_x
        # J_t + (J^2/n + p)_x - eps J_xx - nE + J + 2 eps n_x
        return J_t + conv_x + p_x - eps * J_xx - n * E + J + 2.0 * eps * n_x

    return _ManufacturedForcing(f_n, f_J, (a_t, a_x, a_xx, b_n, b_J, b_nx, b_Jx, b_Jxx, b_E),
                                eps, m)


@dataclass
class MMSReport:
    resolutions: list
    errors: list
    order: float
    pair_orders: list
    monotone: bool
    exact: bool


def mms_resolutions(cfg: SolverConfig, resolutions, solution: str = "standard") -> list:
    """Check mms_convergence's arguments and return the resolutions as ints.

    Raises ValueError unless there are at least 3 resolutions, each double
    the last and each a valid N, the solution is known and T_final is
    positive.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    for N in resolutions:
        problems = setting_problems({"N": N})
        if problems:
            raise ValueError(problems["N"])
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ValueError(f"resolutions must double: {b} != 2 * {a}")
    if solution not in ("standard", "constant"):
        raise ValueError(f"unknown manufactured solution {solution!r}")
    if not cfg.T_final > 0.0:
        # no step would be taken, and the initial data match exactly
        raise ValueError(f"mms needs T_final > 0, got {cfg.T_final}")
    return resolutions


def mms_convergence(cfg: SolverConfig, resolutions, solution: str = "standard") -> MMSReport:
    """Measure the observed convergence order against a manufactured solution.

    Needs at least 3 resolutions, each double the last (mms_resolutions
    checks the arguments). The template config supplies epsilon, T_final,
    cfl_safety and the scheme variant; its own N is ignored, and T_final
    must be positive. With solution="constant" the exact solution is the
    flat equilibrium and every error must be zero.
    """
    resolutions = mms_resolutions(cfg, resolutions, solution)
    m = GasModel(cfg.gamma)
    D = DopingProfile.constant(1.0)
    if solution == "standard":
        n_star, J_star = manufactured_solution()
    else:
        n_star = lambda x, t: np.ones_like(x)
        J_star = lambda x, t: np.zeros_like(x)

    errors = []
    for N in resolutions:
        sub = replace(cfg, N=N, output_stride=10**9, boundary="dirichlet")
        x = np.linspace(0.0, 1.0, N + 1)
        forcing = (manufactured_forcing(m, cfg.epsilon, x[1:-1])
                   if solution == "standard" else None)
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
