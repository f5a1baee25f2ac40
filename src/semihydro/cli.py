"""Command-line harness: single runs, steady profiles, sweeps, and scheme
verification.

Subcommands: run, stationary, sweep-eps, mms. Exit codes: 0 all enabled
checks passed, 1 a check failed, 2 solver blowup, 3 steady-state solve
failure (no bracket, or a stalled Newton solve), 4 configuration error,
diagnostic refusal or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import diagnostics as diag
from .config import CHECK_NAMES, ConfigError, ExperimentConfig, parse_config
from .field import project_neutral
from .io import (SnapshotStream, ensure_dir, fmt, write_reports, write_series_csv,
                 write_snapshots, write_stationary)
from .solver import BlowupError, initial_data, mms_convergence, mms_resolutions, run
from .stationary import (BracketError, NewtonError, solve_stationary,
                         solve_viscous_stationary)

# Phi below this is rounding noise around the fixed point; a decay fit
# would regress on noise, so the check passes trivially instead.
_PHI_FLOOR = 1e-20


def interp1d(x, y):
    """Piecewise-linear interpolant of the rows of y (K, M) at the strictly
    increasing knots x (K,), K >= 2: a function that maps points x_new (P,)
    to a (P, M) array and raises ValueError for a point outside
    [x[0], x[-1]]. All three are float arrays.

    This is scipy.interpolate.interp1d(x, y, axis=0, assume_sorted=True)
    in numpy: the formula of its linear evaluation, so the same bits, and
    the same out-of-range errors.
    """
    def evaluate(x_new):
        below = x_new < x[0]
        if below.any():
            raise ValueError(f"A value ({x_new[np.argmax(below)]}) in x_new is below "
                             f"the interpolation range's minimum value ({x[0]}).")
        above = x_new > x[-1]
        if above.any():
            raise ValueError(f"A value ({x_new[np.argmax(above)]}) in x_new is above "
                             f"the interpolation range's maximum value ({x[-1]}).")
        hi = np.searchsorted(x, x_new).clip(1, len(x) - 1)
        lo = hi - 1
        x_lo = x[lo]
        y_lo = y[lo]
        slope = (y[hi] - y_lo) / (x[hi] - x_lo)[:, None]
        return slope * (x_new - x_lo)[:, None] + y_lo

    return evaluate


def _initial_state(cfg: ExperimentConfig):
    """The doping, the grid spacing and the neutral initial arrays (n0, J0)."""
    D = cfg.doping
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    dx = 1.0 / cfg.N
    n0, J0 = (np.asarray(s(x), dtype=float) for s in (cfg.n0, cfg.J0))
    return D, dx, project_neutral(n0, D, dx), J0


def _record_or_skip(check, name: str, enabled: bool) -> dict:
    """check()'s record; a refusal (ValueError) aborts the run only when the
    check is enabled, and is recorded as skipped otherwise."""
    try:
        return check().to_record()
    except ValueError as exc:
        if enabled:
            raise
        return {"name": name, "passed": True, "skipped": True, "note": str(exc)}


def _checks(cfg: ExperimentConfig, traj, D, m, dx: float):
    """The six check records, in CHECK_NAMES order, and the series.csv
    columns of a finished run.

    Phi and L are measured against the steady state the run settles on,
    which their records name: on float walls the scheme's viscous one,
    whose max-norm gap to the inviscid profile the decay record gives, and
    the inviscid profile otherwise.
    """
    if cfg.boundary == "float":
        inviscid = solve_stationary(D, m, cfg.N)
        stat = solve_viscous_stationary(cfg, D, float(traj.mass[0]))
        reference = "viscous"
        gap = {"steady_gap": float(np.max(np.abs(stat.N_tilde - inviscid.N_tilde)))}
    else:
        stat = solve_stationary(D, m, cfg.N)
        reference, gap = "inviscid", {}

    M = diag.choose_M(traj.n[0], traj.J[0], D, m, dx)
    region = diag.invariant_region_check(traj, m, M)
    density = diag.density_bound_check(traj, m, M)

    # refusals: too-sparse snapshots, too-short fit windows
    entropy_rec = _record_or_skip(lambda: diag.entropy_residual(traj, m),
                                  "entropy_residual", "entropy" in cfg.checks)

    phi = diag.phi_series(traj, stat)
    times = traj.times

    if float(np.max(phi)) <= _PHI_FLOOR:
        decay_rec = {"name": "decay", "passed": True, "c": 0.0, "C": 0.0,
                     "r_squared": 1.0, "note": "already at steady state"}
    else:
        decay_rec = _record_or_skip(lambda: diag.fit_decay_rate(times, phi, cfg.fit_window),
                                    "decay", "decay" in cfg.checks)

    lyap = diag.lyapunov(traj, stat, m)
    mass = diag.mass_series(traj)

    snap_idx = np.searchsorted(traj.step_times, times)
    columns = [times, traj.mass[snap_idx], phi, lyap.L,
               region.per_snapshot_wbar, region.per_snapshot_zbar]
    records = [region.to_record(), density.to_record(), entropy_rec,
               {**decay_rec, "reference": reference, **gap},
               {**lyap.to_record(), "reference": reference},
               mass.to_record()]
    return records, columns


def cmd_run(cfg: ExperimentConfig, out_dir: str, quiet: bool, verbose: bool) -> int:
    m = cfg.model()
    D, dx, n0, J0 = _initial_state(cfg)

    # A writer process formats the snapshots, chunk by chunk, while the
    # caller integrates and then runs the steady solve and the checks; the
    # caller then writes the rows of the last, partial chunk, however the
    # checks end. After a blowup the file holds the snapshots taken before
    # it, the partial output.
    ensure_dir(out_dir)
    path = f"{out_dir}/snapshots.ndjson"
    with _worker_pool(min(1, _usable_cpus() - 1)) as pool:
        stream = SnapshotStream(path, D(np.linspace(0.0, 1.0, cfg.N + 1)), dx, pool)
        try:
            traj = run(cfg, D, n0, J0, on_snapshot=stream)
        except BlowupError as exc:
            if exc.trajectory is not None:
                write_snapshots(path, exc.trajectory, start=stream.wait())
                print(f"partial snapshots in {path}", file=sys.stderr)
            raise
        try:
            records, columns = _checks(cfg, traj, D, m, dx)
        finally:
            write_snapshots(path, traj, start=stream.wait())

    write_series_csv(f"{out_dir}/series.csv",
                     ["t", "mass", "Phi", "L", "max_wbar", "min_zbar"], columns)
    write_reports(f"{out_dir}/reports.ndjson", records)

    passed = {name: rec["passed"] for name, rec in zip(CHECK_NAMES, records)}
    failures = [name for name in cfg.checks if not passed[name]]
    if not quiet:
        for rec in records:
            tag = "pass" if rec["passed"] else "FAIL"
            line = f"[{tag}] {rec['name']}"
            if verbose:
                detail = {k: v for k, v in rec.items() if k not in ("name", "passed")}
                line += " " + " ".join(f"{k}={fmt(v) if not isinstance(v, str) else v}"
                                       for k, v in detail.items())
            print(line)
        print(f"outputs in {out_dir}; enabled checks failing: {failures or 'none'}")
    return 1 if failures else 0


def cmd_stationary(cfg: ExperimentConfig, out_dir: str, quiet: bool, verbose: bool) -> int:
    prof = solve_stationary(cfg.doping, cfg.model(), cfg.N)
    ensure_dir(out_dir)
    write_stationary(f"{out_dir}/stationary.csv", prof)
    if not quiet:
        print(f"steady profile in {out_dir}/stationary.csv "
              f"(residual {prof.shoot_residual:.3e}, {prof.iterations} trials)")
    return 0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A ProcessPoolExecutor of `workers` processes, or None if workers < 1.

    On leaving, the pool is shut down and the jobs it has not started are
    cancelled, so no worker process outlives the caller's block.
    """
    if workers < 1:
        yield None
        return
    # imported here, so that import semihydro.cli stays numpy-only
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _sweep_job(cfg: ExperimentConfig, D, n, J, tgrid):
    """One run of a sweep from its prepared start (n, J), resampled onto
    tgrid: (n, J, n_steps), the fields each (len(tgrid), N+1). A
    module-level function, so that a worker process can run it.
    """
    traj = run(cfg, D, n, J, mollify=False)
    return (*(interp1d(traj.times, f)(tgrid) for f in (traj.n, traj.J)), traj.n_steps)


def cmd_sweep_eps(cfg: ExperimentConfig, eps_values: list, out_dir: str,
                  quiet: bool, verbose: bool) -> int:
    if len(eps_values) < 3:
        raise ConfigError(["sweep-eps needs at least 3 epsilon values"])
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ConfigError(["sweep-eps epsilon values must be strictly decreasing"])
    if not cfg.T_final > 0.0:
        # one snapshot per run leaves nothing to integrate in time
        raise ConfigError([f"sweep-eps needs T_final > 0, got {cfg.T_final}"])
    # every run's config is built (and its epsilon checked) before the first run
    scfgs = [dataclasses.replace(cfg, epsilon=eps) for eps in eps_values]

    D, dx, n0, J0 = _initial_state(cfg)
    tgrid = np.linspace(0.0, cfg.T_final, 401)
    # every run's start is mollified here, so that its warnings come in eps
    # order, from this process, before the first run
    jobs = [(scfg, D, *initial_data(scfg, D, n0, J0), tgrid) for scfg in scfgs]
    # an unusable out_dir is reported before any run, a config error leaves none
    ensure_dir(out_dir)

    # Worker processes take the first jobs (the largest eps, the most steps)
    # and the caller runs the rest meanwhile. So the caller computes too, and
    # the workers' results reach it after its largest run instead of adding
    # to that run's peak memory. The results are taken, and the first failure
    # raised, in eps order, as if the jobs had run one by one: a worker's by
    # f.result(), the caller's own after the workers' results.
    workers = min(len(jobs) - 1, _usable_cpus() - 1)
    with _worker_pool(workers) as pool:
        futures = [pool.submit(_sweep_job, *job) for job in jobs[:workers]]
        own, failure = [], None
        try:
            for job in jobs[workers:]:
                own.append(_sweep_job(*job))
        except (BlowupError, ValueError) as exc:
            failure = exc  # the runs after a failure are never reported
        resampled = []
        results = itertools.chain((f.result() for f in futures), own)
        for scfg, (n_res, J_res, n_steps) in zip(scfgs, results):
            resampled.append((n_res, J_res))
            if verbose and not quiet:
                print(f"eps = {scfg.epsilon:g}: {n_steps} steps")
        if failure is not None:
            raise failure

    dists = []
    for (na, Ja), (nb, Jb) in zip(resampled, resampled[1:]):
        space = np.trapezoid(np.abs(na - nb) + np.abs(Ja - Jb), dx=dx, axis=1)
        dists.append(float(np.trapezoid(space, x=tgrid)))

    write_series_csv(f"{out_dir}/sweep.csv",
                     ["eps_coarse", "eps_fine", "l1_distance"],
                     [eps_values[:-1], eps_values[1:], dists])
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    if not quiet:
        print("L1 distances: " + ", ".join(fmt(d) for d in dists))
        print("strictly decreasing" if decreasing else "NOT decreasing")
    return 0 if decreasing else 1


def cmd_mms(cfg: ExperimentConfig, resolutions: list, solution: str,
            out_dir: str, quiet: bool, verbose: bool) -> int:
    # the arguments are checked before out_dir is made, and out_dir before any run
    resolutions = mms_resolutions(cfg, resolutions, solution)
    ensure_dir(out_dir)
    report = mms_convergence(cfg, resolutions, solution=solution)
    with open(f"{out_dir}/mms.csv", "w") as fh:
        fh.write("N,L2_error,observed_order\n")
        for k, (N, err) in enumerate(zip(report.resolutions, report.errors)):
            if report.exact:
                order = "exact"
            elif k == 0:
                order = ""
            else:
                order = fmt(report.pair_orders[k - 1])
            fh.write(f"{N},{fmt(err)},{order}\n")
    threshold = 1.8 if cfg.scheme == "central" else 0.9
    ok = report.exact or (report.monotone and report.order >= threshold)
    if not quiet:
        if report.exact:
            print("errors are zero: exact solution reproduced")
        else:
            print(f"observed order {report.order:.3f} "
                  f"(threshold {threshold}, monotone={report.monotone})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the INI config file")
    common.add_argument("--out-dir", default=None, help="override the [output] dir")
    common.add_argument("--quiet", action="store_true")
    common.add_argument("--verbose", action="store_true")

    p = argparse.ArgumentParser(prog="semihydro",
                                description="viscous carrier-fluid simulation harness")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="integrate and run diagnostics")
    sub.add_parser("stationary", parents=[common], help="solve the steady profile")
    sw = sub.add_parser("sweep-eps", parents=[common], help="viscosity sweep")
    sw.add_argument("--eps", required=True, help="comma-separated, strictly decreasing")
    mm = sub.add_parser("mms", parents=[common], help="manufactured-solution orders")
    mm.add_argument("--resolutions", required=True, help="comma-separated, each doubling")
    mm.add_argument("--solution", choices=("standard", "constant"), default="standard")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), os.path.dirname(args.config))
    except OSError as exc:
        print(f"config error: cannot read {args.config!r}: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 4

    out_dir = args.out_dir or cfg.out_dir
    try:
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.quiet, args.verbose)
        if args.command == "stationary":
            return cmd_stationary(cfg, out_dir, args.quiet, args.verbose)
        if args.command == "sweep-eps":
            eps_values = [float(v) for v in args.eps.split(",") if v.strip()]
            return cmd_sweep_eps(cfg, eps_values, out_dir, args.quiet, args.verbose)
        if args.command == "mms":
            res = [int(v) for v in args.resolutions.split(",") if v.strip()]
            return cmd_mms(cfg, res, args.solution, out_dir, args.quiet, args.verbose)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 4
    except diag.DiagnosticRefusal as exc:
        print(f"diagnostic refused: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except BlowupError as exc:
        print(f"solver blowup: {exc}", file=sys.stderr)
        return 2
    except (BracketError, NewtonError) as exc:
        print(f"stationary solve failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
