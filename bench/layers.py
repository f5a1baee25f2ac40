"""Per-layer tracing from outside the program.

Tracer replaces public functions of the semihydro modules with wrappers
that time each call and count the work it did, and puts the originals
back in restore(). Nothing inside the package changes: a function the
CLI imported by name (``from .solver import run``) is patched in the
CLI's namespace as well as in its home module.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

import semihydro.cli as cli
import semihydro.diagnostics as diagnostics
import semihydro.solver as solver
import semihydro.stationary as stationary

# (metric, [(module, attribute), ...]) for wrappers that only time
_TIMED = [
    ("diagnostics.region_s", [(diagnostics, "choose_M"),
                              (diagnostics, "invariant_region_check")]),
    ("diagnostics.density_s", [(diagnostics, "density_bound_check")]),
    ("diagnostics.entropy_s", [(diagnostics, "entropy_residual")]),
    ("diagnostics.phi_s", [(diagnostics, "phi_series")]),
    ("diagnostics.lyapunov_s", [(diagnostics, "lyapunov")]),
    ("diagnostics.fit_s", [(diagnostics, "fit_decay_rate")]),
    ("io.series_s", [(cli, "write_series_csv")]),
    ("io.stationary_s", [(cli, "write_stationary")]),
    # the field integral E is taken with scipy's cumulative_trapezoid
    ("solver.efield_s", [(solver, "cumulative_trapezoid")]),
    # gas functions as the step calls them (solver's namespace)
    ("gas.eigenvalues_s", [(solver, "eigenvalues")]),
    ("gas.pressure_s", [(solver, "pressure")]),
]

# every per-layer metric a traced round reports, with its unit
LAYER_UNITS = {
    "setup.import_s": "s", "setup.parse_s": "s",
    "solver.run_s": "s", "solver.step_us": "us", "solver.steps": "count",
    "solver.parabolic_steps": "count", "solver.clamped_cells": "count",
    "solver.efield_s": "s", "solver.forcing_s": "s",
    "gas.eigenvalues_s": "s", "gas.pressure_s": "s", "gas.calls": "count",
    "stationary.solve_s": "s", "stationary.trials": "count",
    "stationary.trial_ms": "ms", "stationary.viscous_s": "s",
    "stationary.viscous_guess_s": "s", "stationary.newton_steps": "count",
    "diagnostics.region_s": "s", "diagnostics.density_s": "s",
    "diagnostics.entropy_s": "s", "diagnostics.phi_s": "s",
    "diagnostics.lyapunov_s": "s", "diagnostics.fit_s": "s",
    "io.snapshots_s": "s", "io.snapshots_mb": "MB",
    "io.snapshots_mb_per_s": "MB/s", "io.series_s": "s", "io.stationary_s": "s",
    "cli.resample_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def parabolic_steps(traj) -> int:
    """Steps whose dt the parabolic bound cfl_safety * dx**2 / (2 eps) set."""
    cfg = traj.config
    dx = 1.0 / cfg.N
    par = cfg.cfl_safety * dx * dx / (2.0 * cfg.epsilon)
    dt = np.diff(traj.step_times)
    return int(np.sum(np.abs(dt - par) <= 1e-9 * par))


class Tracer:
    """Timers and counters around the program's layer boundaries.

    ``top_s`` is the time covered by wrapped calls made while no other
    wrapped call was open, so the caller's self time is its wall minus
    ``top_s``. Use as a context manager, or call install() and restore().
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.top_s = 0.0
        self._open = []          # metric names of the wrapped calls now running
        self._saved = []         # (module, attribute, original)

    # -- patching -----------------------------------------------------------

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _timed(self, metric, fn, after=None):
        def wrapper(*args, **kwargs):
            self._open.append(metric)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                self.totals[metric] += dt
                if not self._open:
                    self.top_s += dt
            if after is not None:
                after(dt, args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        for metric, sites in _TIMED:
            for module, name in sites:
                after = self._count_gas if metric.startswith("gas.") else None
                self._patch(module, name, self._timed(metric, getattr(module, name), after))

        run = self._timed("solver.run_s", solver.run, self._after_run)
        self._patch(solver, "run", run)
        self._patch(cli, "run", run)

        self._patch(solver, "manufactured_forcing",
                    self._forcing_factory(solver.manufactured_forcing))

        solve = self._timed("stationary.solve_s", stationary.solve_stationary,
                            self._after_solve)
        self._patch(stationary, "solve_stationary", solve)
        self._patch(cli, "solve_stationary", solve)
        self._patch(stationary, "solve_viscous_stationary",
                    self._timed("stationary.viscous_s",
                                stationary.solve_viscous_stationary,
                                self._after_viscous))

        self._patch(cli, "write_snapshots",
                    self._timed("io.snapshots_s", cli.write_snapshots,
                                self._after_snapshots))
        self._patch(cli, "interp1d", self._interp_factory(cli.interp1d))
        return self

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- counters taken from what the wrapped call returned -------------------

    def _count_gas(self, dt, args, out):
        self.totals["gas.calls"] += 1

    def _after_run(self, dt, args, traj):
        self.totals["solver.steps"] += traj.n_steps
        self.totals["solver.parabolic_steps"] += parabolic_steps(traj)
        self.totals["solver.clamped_cells"] += int(np.sum(traj.clamp_counts))

    def _after_solve(self, dt, args, prof):
        self.totals["stationary.trials"] += prof.iterations
        if "stationary.viscous_s" in self._open:
            self.totals["stationary.viscous_guess_s"] += dt

    def _after_viscous(self, dt, args, prof):
        self.totals["stationary.newton_steps"] += prof.iterations

    def _after_snapshots(self, dt, args, out):
        self.totals["io.snapshots_mb"] += os.path.getsize(args[0]) / 1e6

    def _forcing_factory(self, factory):
        def wrapper(*args, **kwargs):
            return tuple(self._timed("solver.forcing_s", f)
                         for f in factory(*args, **kwargs))
        wrapper.__wrapped__ = factory
        return wrapper

    def _interp_factory(self, interp1d):
        # the resampling cost is building the interpolant plus evaluating it
        build = self._timed("cli.resample_s", interp1d)

        def wrapper(*args, **kwargs):
            return self._timed("cli.resample_s", build(*args, **kwargs))
        wrapper.__wrapped__ = interp1d
        return wrapper

    # -- report ---------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Derived per-layer numbers for one traced round of wall ``wall_s``."""
        t = dict(self.totals)
        out = {name: float(t.get(name, 0.0)) for name in LAYER_UNITS
               if not name.startswith(("setup.", "trace."))}
        steps = out["solver.steps"]
        out["solver.step_us"] = 1e6 * out["solver.run_s"] / steps if steps else 0.0
        trials = out["stationary.trials"]
        out["stationary.trial_ms"] = 1e3 * out["stationary.solve_s"] / trials if trials else 0.0
        snap_s = out["io.snapshots_s"]
        out["io.snapshots_mb_per_s"] = out["io.snapshots_mb"] / snap_s if snap_s else 0.0
        out["cli.self_s"] = wall_s - self.top_s
        return out
