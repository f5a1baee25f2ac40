"""CPU time of the steady solves on the scenario's settings, by grid size.

    python3 tools/steady_ms.py [--N 400] [--repeats 10]

For each N, takes configs/scenario_sine.ini with that N and runs both
steady solves --repeats times in this process: the inviscid profile
(solve_stationary, the shooting) and the scheme's viscous steady state
(solve_viscous_stationary, Newton on the step's residual) at the neutral
mass, the integral of the doping, which the scenario's initial data carry.
It prints one line per N: the shooting trials and the best inviscid
solve's CPU time (time.process_time) in milliseconds (inviscid_ms), then
the Newton steps, the best viscous solve's CPU time (viscous_ms, its own
inviscid guess included) and the least CPU time a viscous solve spent
building its Newton Jacobians (jacobian_ms, stationary._banded_jacobian,
all of a solve's calls).

The viscous solve's bound of 1e-10 on the residual does not grow with N,
so a large enough grid ends the tool with its NewtonError.

The package is imported from the src directory of the checkout that holds
this script, so a copy of the script in another checkout measures that
checkout. The C library is built, if needed, before anything is timed.
"""

import argparse
import dataclasses
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from semihydro import _kernel, stationary  # noqa: E402
from semihydro.config import parse_config  # noqa: E402

SCENARIO = os.path.join(ROOT, "configs", "scenario_sine.ini")


def _best_ms(solve, repeats: int):
    """(the last result of solve(), its best CPU milliseconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        result = solve()
        best = min(best, time.process_time() - start)
    return result, 1e3 * best


def steady_ms(cfg, repeats: int):
    """(trials, inviscid_ms, newton, viscous_ms, jacobian_ms) for config cfg."""
    D = cfg.doping
    mass = float(np.trapezoid(D(np.linspace(0.0, 1.0, cfg.N + 1)), dx=1.0 / cfg.N))
    inviscid, inviscid_ms = _best_ms(lambda: stationary.solve_stationary(D, cfg.model(), cfg.N),
                                     repeats)
    banded_jacobian = stationary._banded_jacobian
    spent = []

    def timed(*args):
        start = time.process_time()
        ab = banded_jacobian(*args)
        spent[-1] += time.process_time() - start
        return ab

    def viscous():
        spent.append(0.0)
        return stationary.solve_viscous_stationary(cfg, D, mass)

    stationary._banded_jacobian = timed
    try:
        prof, viscous_ms = _best_ms(viscous, repeats)
    finally:
        stationary._banded_jacobian = banded_jacobian
    return inviscid.iterations, inviscid_ms, prof.iterations, viscous_ms, 1e3 * min(spent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--N", default="400", help="comma-separated grid sizes")
    ap.add_argument("--repeats", type=int, default=10, help="solves per N; the best counts")
    args = ap.parse_args(argv)
    sizes = [int(v) for v in args.N.split(",")]
    with open(SCENARIO) as fh:
        base = parse_config(fh.read())
    library = "C" if _kernel.load() is not None else "numpy (no C library)"
    print(f"# {os.path.relpath(SCENARIO, ROOT)}: CPU ms per steady solve, best of "
          f"{args.repeats}, {library} shooting and band solve; viscous_ms: Newton from the "
          f"inviscid guess; jacobian_ms: its Jacobians")
    for N in sizes:
        trials, inviscid_ms, newton, viscous_ms, jacobian_ms = steady_ms(
            dataclasses.replace(base, N=N), args.repeats)
        print(f"N = {N:5d}  trials = {trials}  inviscid_ms = {inviscid_ms:.3f}  "
              f"newton = {newton}  viscous_ms = {viscous_ms:.3f}  "
              f"jacobian_ms = {jacobian_ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
