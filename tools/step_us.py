"""CPU time per explicit step of the scenario's settings, by grid size.

    python3 tools/step_us.py [--N 200,400,800,1600,3200] [--steps 1000] [--repeats 10]

For each N, takes configs/scenario_sine.ini with that N and its initial
data (mollified and made neutral, as `semihydro run` does, outside the
timing), cuts T_final to about --steps steps of the first step's dt, and
runs solver.run from that data --repeats times in this process. It prints
one line per N: the steps of a run and the best run's CPU time
(time.process_time) per step, in microseconds (step_us). forced_us is the
same number for a forced step: configs/mms.ini's settings at that N, from
the manufactured solution at t = 0 with manufactured_forcing on the
interior nodes, as `semihydro mms` runs each resolution.

The package is imported from the src directory of the checkout that holds
this script, so a copy of the script in another checkout measures that
checkout. The C library is built, if needed, before anything is timed.
"""

import argparse
import dataclasses
import os
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from semihydro import _kernel, solver  # noqa: E402
from semihydro.config import parse_config  # noqa: E402
from semihydro.field import DopingProfile, project_neutral  # noqa: E402

SCENARIO = os.path.join(ROOT, "configs", "scenario_sine.ini")
MMS = os.path.join(ROOT, "configs", "mms.ini")


def _best_us(cfg, D, n, J, steps: int, repeats: int, forcing=None):
    """(steps of a run, best CPU microseconds per step) of solver.run from
    (n, J), unmollified, with T_final cut to about `steps` steps."""
    dt = solver.cfl_dt(solver.State(0.0, n, J, None), cfg, 1.0 / cfg.N)
    cfg = dataclasses.replace(cfg, T_final=steps * dt)
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        traj = solver.run(cfg, D, n, J, forcing=forcing, mollify=False)
        best = min(best, time.process_time() - start)
    return traj.n_steps, 1e6 * best / traj.n_steps


def step_us(cfg, steps: int, repeats: int):
    """(steps of a run, best CPU microseconds per step) for config cfg."""
    D = cfg.doping
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    n0 = project_neutral(cfg.n0(x), D, 1.0 / cfg.N)
    with warnings.catch_warnings():
        # the mollifier width warning of the coarse grids
        warnings.simplefilter("ignore")
        n, J = solver.initial_data(cfg, D, n0, cfg.J0(x))
    return _best_us(cfg, D, n, J, steps, repeats)


def forced_us(cfg, steps: int, repeats: int):
    """step_us of one resolution of mms_convergence at cfg.N: the
    manufactured solution, its forcing, dirichlet walls and D = 1."""
    cfg = dataclasses.replace(cfg, output_stride=10**9, boundary="dirichlet")
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    n_star, J_star = solver.manufactured_solution()
    forcing = solver.manufactured_forcing(cfg.model(), cfg.epsilon, x[1:-1])
    return _best_us(cfg, DopingProfile.constant(1.0), n_star(x, 0.0), J_star(x, 0.0),
                    steps, repeats, forcing)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--N", default="200,400,800,1600,3200",
                    help="comma-separated grid sizes")
    ap.add_argument("--steps", type=int, default=1000, help="about this many steps a run")
    ap.add_argument("--repeats", type=int, default=10, help="runs per N; the best counts")
    args = ap.parse_args(argv)
    sizes = [int(v) for v in args.N.split(",")]
    with open(SCENARIO) as fh:
        base = parse_config(fh.read())
    with open(MMS) as fh:
        mms = parse_config(fh.read())
    library = "C" if _kernel.load() is not None else "numpy (no C library)"
    print(f"# {os.path.relpath(SCENARIO, ROOT)}: CPU us per step, best of {args.repeats} runs, "
          f"{library} step; forced_us: {os.path.relpath(MMS, ROOT)} with its forcing")
    for N in sizes:
        steps, us = step_us(dataclasses.replace(base, N=N), args.steps, args.repeats)
        _, forced = forced_us(dataclasses.replace(mms, N=N), args.steps, args.repeats)
        print(f"N = {N:5d}  steps = {steps:5d}  step_us = {us:.2f}  forced_us = {forced:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
