"""Checks of the workloads' outputs, made apart from the program.

Each check reads what a program call wrote and compares it with a
computation of the benchmark's own (scipy's solve_bvp for the inviscid
steady profile, plain numpy for fields, mass and Riemann invariants) or
with a property the method must have (second order against a closed-form
solution, L1 distances that shrink along the vanishing-viscosity path,
a steady state the time step leaves in place). Nothing is compared with a
stored copy of an earlier output.

Every check function returns (attempted, failed_names, problems): the
operations it counted, the names of those that failed, and a list of
messages for outputs that are wrong. A failed operation is the program
reporting a check it ran as failing; a problem is an output the benchmark
found wrong.
"""

from __future__ import annotations

import configparser
import json

import numpy as np
from scipy.integrate import solve_bvp

BVP_TOL = 1e-9          # solve_bvp residual tolerance
PROFILE_TOL = 1e-9      # program's inviscid profile vs the solve_bvp one
EPS_ORDER = 10.0        # "of order eps": a gap of at most EPS_ORDER * eps
ROUNDING = 1e-12        # quantities the benchmark recomputes from the same data
MMS_ORDER = 1.8
SCENARIO_REPORTS = ("invariant_region", "density_bound", "entropy_residual",
                    "decay", "lyapunov", "mass")


class Setting:
    """The few config values the checks need, read with configparser."""

    def __init__(self, path: str):
        ini = configparser.ConfigParser()
        ini.read(path)
        self.gamma = ini.getfloat("model", "gamma")
        self.epsilon = ini.getfloat("solver", "epsilon")
        self.N = ini.getint("solver", "N")
        kind, *params = ini.get("doping", "profile").split(":")
        if kind == "sine":
            base, amp, freq = (float(p) for p in params)
            self.doping = lambda x: base + amp * np.sin(2.0 * np.pi * freq * x)
        elif kind == "constant":
            value = float(params[0])
            self.doping = lambda x: np.full_like(x, value)
        else:
            raise ValueError(f"doping {kind!r} not supported by the checks")


def inviscid_profile(doping, gamma: float):
    """The eps = 0 steady profile as a callable x -> (N, E).

    Solves N' = E N**(2 - gamma) / (p0 gamma), E' = N - D, E(0) = E(1) = 0
    with scipy's collocation solver from the guess N = D, E = 0.
    """
    theta = (gamma - 1.0) / 2.0
    p0 = theta * theta / gamma

    def rhs(x, y):
        return np.vstack((y[1] * y[0] ** (2.0 - gamma) / (p0 * gamma), y[0] - doping(x)))

    mesh = np.linspace(0.0, 1.0, 401)
    sol = solve_bvp(rhs, lambda a, b: np.array([a[1], b[1]]), mesh,
                    np.vstack((doping(mesh), np.zeros_like(mesh))),
                    tol=BVP_TOL, max_nodes=100000)
    if sol.status != 0:
        raise RuntimeError(f"solve_bvp failed for gamma = {gamma}: {sol.message}")
    return sol.sol


def _trapezoid_field(n, d, dx):
    """E(x_i) = trapezoid integral of n - D from 0, E(0) = 0."""
    y = n - d
    return np.concatenate(([0.0], np.cumsum(0.5 * dx * (y[1:] + y[:-1]))))


def _invariants(n, J, gamma):
    theta = (gamma - 1.0) / 2.0
    u, s = J / n, n ** theta
    return u + s, u - s


def check_scenario(out: str, setting: Setting, profile) -> tuple:
    """snapshots.ndjson, series.csv and reports.ndjson of one `run`."""
    problems = []
    with open(f"{out}/reports.ndjson") as fh:
        reports = [json.loads(line) for line in fh]
    names = tuple(r["name"] for r in reports)
    if names != SCENARIO_REPORTS:
        problems.append(f"reports {names} != {SCENARIO_REPORTS}")
    failed = [r["name"] for r in reports if not r["passed"]]

    with open(f"{out}/snapshots.ndjson") as fh:
        snaps = [json.loads(line) for line in fh]
    x = np.linspace(0.0, 1.0, len(snaps[0]["n"]))
    dx = 1.0 / (x.size - 1)
    d = setting.doping(x)
    t = np.array([s["t"] for s in snaps])
    n = np.array([s["n"] for s in snaps])
    J = np.array([s["J"] for s in snaps])
    E = np.array([s["E"] for s in snaps])

    if not np.all(n > 0.0):
        problems.append(f"density not positive: min {n.min():.3e}")
    if np.any(J[:, 0] != 0.0) or np.any(J[:, -1] != 0.0):
        problems.append("current nonzero at a wall")
    e_err = max(float(np.max(np.abs(E[k] - _trapezoid_field(n[k], d, dx))))
                for k in range(len(snaps)))
    if not e_err <= ROUNDING:
        problems.append(f"E differs from the trapezoid integral of n - D by {e_err:.3e}")

    series = np.loadtxt(f"{out}/series.csv", delimiter=",", skiprows=1, ndmin=2)
    if series.shape != (len(snaps), 6) or np.any(series[:, 0] != t):
        problems.append(f"series.csv rows/times do not match the {len(snaps)} snapshots")
    else:
        mass = np.trapezoid(n, dx=dx, axis=1)
        m_err = float(np.max(np.abs(series[:, 1] - mass)))
        if not m_err <= ROUNDING:
            problems.append(f"mass column off the trapezoid mass by {m_err:.3e}")

        # invariant region w <= M + x, z >= -(M - x), M sized from the
        # first snapshot as the region theorem prescribes
        theta = (setting.gamma - 1.0) / 2.0
        w, z = _invariants(n, J, setting.gamma)
        M0 = float(np.trapezoid(n[0], dx=dx) + np.trapezoid(d, dx=dx)) + 1.0
        M = max(float(np.max(w[0] - x)), float(np.max(x - z[0])), (M0 + 2.0) / theta) + 1.0
        wbar = np.max(w - (M + x), axis=1)
        zbar = np.min(z + (M - x), axis=1)
        r_err = max(float(np.max(np.abs(series[:, 4] - wbar))),
                    float(np.max(np.abs(series[:, 5] - zbar))))
        if not r_err <= ROUNDING:
            problems.append(f"Riemann-invariant margins off by {r_err:.3e}")
        if np.max(wbar) > 0.0 or np.min(zbar) < 0.0:
            problems.append(f"invariant region left: max wbar {np.max(wbar):.3e}, "
                            f"min zbar {np.min(zbar):.3e}")

    gap = float(np.max(np.abs(n[-1] - profile(x)[0])))
    if not gap <= EPS_ORDER * setting.epsilon:
        problems.append(f"final state {gap:.3e} from the inviscid profile, "
                        f"more than {EPS_ORDER} eps")
    return len(reports), failed, problems


def check_sweep(out: str, eps_values, code: int) -> tuple:
    """sweep.csv: consecutive L1 distances strictly decrease."""
    problems = []
    rows = np.loadtxt(f"{out}/sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (len(eps_values) - 1, 3) \
            or np.any(rows[:, 0] != eps_values[:-1]) or np.any(rows[:, 1] != eps_values[1:]):
        problems.append(f"sweep.csv rows do not match eps {eps_values}")
        return 1, [], problems
    dist = rows[:, 2]
    if not (np.all(np.isfinite(dist)) and np.all(dist > 0.0)
            and np.all(np.diff(dist) < 0.0)):
        problems.append(f"L1 distances not positive and strictly decreasing: {dist.tolist()}")
    failed = [] if code == 0 else ["sweep-eps"]
    return 1, failed, problems


def check_mms_solution(manufactured_solution) -> list:
    """The program's closed-form fields equal the ones its docstring states."""
    n_star, J_star = manufactured_solution()
    x = np.linspace(0.0, 1.0, 97)
    problems = []
    for t in (0.0, 0.3, 1.0):
        n_ref = 1.0 + 0.25 * np.sin(2.0 * np.pi * x) * np.exp(-t)
        J_ref = 0.1 * np.sin(np.pi * x) * x * (1.0 - x) * (1.0 - np.exp(-t))
        if not (np.allclose(n_star(x, t), n_ref, rtol=0, atol=ROUNDING)
                and np.allclose(J_star(x, t), J_ref, rtol=0, atol=ROUNDING)):
            problems.append(f"manufactured solution differs from the closed form at t = {t}")
    return problems


def check_mms(out: str, resolutions, code: int) -> tuple:
    """mms.csv: errors shrink and the fitted order is at least 1.8."""
    problems = []
    with open(f"{out}/mms.csv") as fh:
        lines = fh.read().split("\n")[1:]
    rows = [ln.split(",") for ln in lines if ln]
    if [int(r[0]) for r in rows] != list(resolutions):
        problems.append(f"mms.csv resolutions {[r[0] for r in rows]} != {resolutions}")
        return 1, [], problems
    err = np.array([float(r[1]) for r in rows])
    h = 1.0 / np.array(resolutions, dtype=float)
    order = float(np.polyfit(np.log(h), np.log(err), 1)[0])
    if not (np.all(err > 0.0) and np.all(np.diff(err) < 0.0)):
        problems.append(f"errors not positive and decreasing: {err.tolist()}")
    if not order >= MMS_ORDER:
        problems.append(f"observed order {order:.3f} < {MMS_ORDER}")
    pair = np.log2(err[:-1] / err[1:])
    listed = np.array([float(r[2]) for r in rows[1:]])
    if not np.allclose(listed, pair, rtol=1e-12, atol=0.0):
        problems.append(f"pair orders {listed.tolist()} != log2 error ratios {pair.tolist()}")
    failed = [] if code == 0 else ["mms"]
    return 1, failed, problems


def check_inviscid_csv(path: str, profile) -> list:
    """stationary.csv against the solve_bvp profile, and its header."""
    problems = []
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# "))
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    x = np.linspace(0.0, 1.0, data.shape[0])
    if np.any(data[:, 0] != x):
        problems.append(f"{path}: x column is not the uniform grid")
    ref = profile(x)
    gap = max(float(np.max(np.abs(data[:, 1] - ref[0]))),
              float(np.max(np.abs(data[:, 2] - ref[1]))))
    if not gap <= PROFILE_TOL:
        problems.append(f"{path}: {gap:.3e} from the solve_bvp profile")
    if not header["shoot_residual"] <= 1e-10:
        problems.append(f"{path}: shooting residual {header['shoot_residual']:.3e}")
    return problems


def check_viscous(path: str, scfg, D, profile, step, cfl_dt, State) -> list:
    """A viscous steady state: one public step moves n by leak * dt only
    and J by at most 1e-12; it sits O(eps) from the inviscid profile."""
    problems = []
    v = np.load(path)
    n, J, E, leak = v["N"], v["J"], v["E"], float(v["leak_rate"])
    x = np.linspace(0.0, 1.0, n.size)
    if not float(v["residual"]) <= 1e-10:
        problems.append(f"{path}: Newton residual {float(v['residual']):.3e}")
    if not (np.all(n > 0.0) and J[0] == 0.0 and J[-1] == 0.0):
        problems.append(f"{path}: density not positive or wall current nonzero")
    mass = float(np.trapezoid(n, dx=1.0 / (n.size - 1)))
    if not abs(mass - float(v["mass"])) <= ROUNDING:
        problems.append(f"{path}: mass {mass!r} != requested {float(v['mass'])!r}")
    state = State(0.0, n, J, E)
    dt = cfl_dt(state, scfg, 1.0 / scfg.N)
    nxt = step(state, scfg, D, dt)
    dn = float(np.max(np.abs(nxt.n - n - leak * dt)))
    dJ = float(np.max(np.abs(nxt.J - J)))
    if not (dn <= ROUNDING and dJ <= ROUNDING):
        problems.append(f"{path}: one step moves n by {dn:.3e} beyond leak * dt "
                        f"and J by {dJ:.3e}")
    gap = float(np.max(np.abs(n - profile(x)[0])))
    if not 0.0 < gap <= EPS_ORDER * scfg.epsilon:
        problems.append(f"{path}: gap {gap:.3e} to the inviscid profile is not O(eps)")
    return problems
