"""The four workloads: their inputs, built from the shipped configs, and
the program calls one round of each makes.

No workload takes a random input. Importing this module imports
semihydro.cli, which is the import a user of the command pays.
"""

import dataclasses
import time

import numpy as np

import semihydro.cli as cli
import semihydro.stationary as stationary
from semihydro.field import DopingProfile
from semihydro.solver import SolverConfig

CONFIGS = {
    "scenario": "configs/scenario_sine.ini",
    "sweep": "configs/scenario_sine.ini",
    "steady": "configs/scenario_sine.ini",
    "mms": "configs/mms.ini",
}
SWEEP_EPS = [4e-3, 2e-3, 1e-3, 5e-4]
MMS_RESOLUTIONS = [100, 200, 400]
STEADY_N = 16384                   # the size acceptance criterion 6 uses
STEADY_GAMMAS = (2.0,)             # inviscid solves at STEADY_N
VISCOUS_GAMMAS = (1.5, 2.0, 3.0)   # viscous steady states on the scenario grid
# speed-probe kernel that resembles each workload's code (see speed.py)
PROBE_KERNEL = {"scenario": "mixed", "sweep": "numpy", "steady": "mixed", "mms": "numpy"}


def viscous_inputs(cfg, gamma):
    """SolverConfig, doping and mass for one viscous steady solve."""
    scfg = SolverConfig(
        gamma=gamma, epsilon=cfg.epsilon, N=cfg.N, T_final=cfg.T_final,
        cfl_safety=cfg.cfl_safety, n_floor=cfg.n_floor,
        output_stride=cfg.output_stride, scheme=cfg.scheme,
        boundary=cfg.boundary, relaxation=cfg.relaxation,
    )
    D = DopingProfile.from_spec(cfg.doping_spec)
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    # the neutral mass: the state the doping-matched initial data carry
    return scfg, D, float(np.trapezoid(D(x), dx=1.0 / cfg.N))


def prepare(workload, cfg):
    """Build the workload's round function from the parsed config.

    A round function takes an output directory, makes the program calls,
    and returns (seconds spent in program calls, list of return codes).
    """
    if workload == "scenario":
        def round_fn(out):
            t0 = time.perf_counter()
            rc = cli.cmd_run(cfg, out, True, False)
            return time.perf_counter() - t0, [rc]
    elif workload == "sweep":
        def round_fn(out):
            t0 = time.perf_counter()
            rc = cli.cmd_sweep_eps(cfg, list(SWEEP_EPS), out, True, False)
            return time.perf_counter() - t0, [rc]
    elif workload == "mms":
        def round_fn(out):
            t0 = time.perf_counter()
            rc = cli.cmd_mms(cfg, list(MMS_RESOLUTIONS), "standard", out, True, False)
            return time.perf_counter() - t0, [rc]
    elif workload == "steady":
        inviscid = [(g, dataclasses.replace(cfg, gamma=g, N=STEADY_N))
                    for g in STEADY_GAMMAS]
        viscous = [(g, *viscous_inputs(cfg, g)) for g in VISCOUS_GAMMAS]

        def round_fn(out):
            wall, codes = 0.0, []
            for g, c in inviscid:
                t0 = time.perf_counter()
                codes.append(cli.cmd_stationary(c, f"{out}/inviscid_g{g}", True, False))
                wall += time.perf_counter() - t0
            for g, scfg, D, mass in viscous:
                t0 = time.perf_counter()
                prof = stationary.solve_viscous_stationary(scfg, D, mass)
                wall += time.perf_counter() - t0
                # hand the in-memory result to the parent's checks (untimed)
                np.savez(f"{out}/viscous_g{g}.npz", N=prof.N_tilde, J=prof.J_tilde,
                         E=prof.E_tilde, residual=prof.shoot_residual,
                         iterations=prof.iterations, leak_rate=prof.leak_rate,
                         mass=mass)
                codes.append(0)
            return wall, codes
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return round_fn
