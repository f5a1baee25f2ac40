"""Trajectory arrays against plain copies of the list-of-States design they
replace: the run loop that kept one State per snapshot, the five
diagnostics that looped over those States, and the recursive JSON writer.
Every comparison is bit for bit."""

import json
from dataclasses import replace

import numpy as np
import pytest

import semihydro as sh
from semihydro import diagnostics as diag
from semihydro import io, solver
from semihydro.field import _efield, project_neutral
from semihydro.gas import (mechanical_energy, relative_entropy, to_invariants,
                           weak_entropy_pair)
from semihydro.solver import BlowupError, SolverConfig, State

DSINE = sh.DopingProfile.sine(1.0, 0.5, 1.0)
M2 = sh.GasModel(2.0)
KERNEL = (lambda s: s**4 / 12.0, lambda s: s**3 / 3.0)

# eps / dx is below the mollifier's 3-cell minimum on these small grids
pytestmark = pytest.mark.filterwarnings("ignore:mollifier width")


# ---------------------------------------------------------------------------
# Plain copies

def _plain_run(cfg, D, n0, J0):
    """The run loop with one State per snapshot and E taken per snapshot."""
    m = cfg.model()
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    dx = 1.0 / N
    d_grid = D(x)
    n, J = solver.mollify_initial(n0, J0, cfg.epsilon, dx)
    n = project_neutral(n, d_grid, dx)
    bvals = (float(n[0]), float(n[-1]))
    J[0] = 0.0
    J[-1] = 0.0
    states = [State(0.0, n, J, _efield(n - d_grid, dx))]
    T = cfg.T_final
    t = 0.0
    k = 0
    total_clamped = 0
    while t < T - 1e-13:
        dt = solver._dt(m, n, J, cfg, dx)
        last = t + dt >= T - 1e-13
        if last:
            dt = T - t
        n, J, clamped = solver._advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, None)
        t = T if last else t + dt
        k += 1
        total_clamped += clamped
        if total_clamped > 1e-3 * N * k:
            raise BlowupError("budget", int(np.argmin(n)), t, states)
        if last or k % cfg.output_stride == 0:
            states.append(State(t, n, J, _efield(n - d_grid, dx)))
    return states


def _plain_region(states, m, M, tol):
    x = np.linspace(0.0, 1.0, states[0].n.size)
    wbars, zbars = [], []
    indeterminate = 0
    first_violation = None
    for s in states:
        ok = s.n > 0.0
        indeterminate += int(np.sum(~ok))
        if not np.any(ok):
            wbars.append(np.nan)
            zbars.append(np.nan)
            continue
        w, z = to_invariants(m, s.n[ok], s.J[ok])
        wb = float(np.max(w - (M + x[ok])))
        zb = float(np.min(z + (M - x[ok])))
        wbars.append(wb)
        zbars.append(zb)
        if first_violation is None and (wb > tol or zb < -tol):
            first_violation = float(s.t)
    wbars = np.array(wbars)
    zbars = np.array(zbars)
    return (wbars, zbars, float(np.nanmax(wbars)), float(np.nanmin(zbars)),
            first_violation, indeterminate)


def _plain_density(states, m, M, tol=1e-9):
    bound = (1.5 * M) ** (1.0 / m.theta)
    max_n = max(float(np.max(s.n)) for s in states)
    C = 0.0
    for s in states:
        w, z = to_invariants(m, s.n, s.J)
        C = max(C, float(np.max(np.abs(w))), float(np.max(np.abs(z))))
    current_ok = all(bool(np.all(np.abs(s.J) <= C * s.n + 1e-12)) for s in states)
    return max_n, bound, C, current_ok, max_n <= bound + tol and current_ok


def _plain_entropy_residuals(states, m, pair, centers=(5, 5)):
    times = np.array([s.t for s in states])
    T = float(times[-1])
    nx_c, nt_c = centers
    rx = 1.0 / (nx_c + 1)
    rt = T / (nt_c + 1)
    x = np.linspace(0.0, 1.0, states[0].n.size)
    dx = 1.0 / (x.size - 1)
    eta_rows, q_rows, src_rows = [], [], []
    for s in states:
        if pair == "mechanical":
            eta, q, eta_J = mechanical_energy(m, s.n, s.J)
        else:
            eta, q, eta_J = weak_entropy_pair(m, s.n, s.J, *pair)
        eta_rows.append(eta)
        q_rows.append(q)
        src_rows.append(eta_J * (s.n * s.E - s.J))
    eta = np.array(eta_rows)
    q = np.array(q_rows)
    src = np.array(src_rows)
    residuals = np.empty((nx_c, nt_c))
    for i in range(nx_c):
        xc = (i + 1) * rx
        bx = diag._bump((x - xc) / rx)
        bxp = diag._bump_prime((x - xc) / rx) / rx
        for j in range(nt_c):
            tc = (j + 1) * rt
            bt = diag._bump((times - tc) / rt)
            btp = diag._bump_prime((times - tc) / rt) / rt
            integrand = (eta * np.outer(btp, bx) + q * np.outer(bt, bxp)
                         + src * np.outer(bt, bx))
            per_t = np.trapezoid(integrand, dx=dx, axis=1)
            residuals[i, j] = np.trapezoid(per_t, x=times)
    return residuals.ravel()


def _plain_lyapunov(states, stat, m, Lambda, dx):
    L = np.empty(len(states))
    for k, s in enumerate(states):
        eta_s = relative_entropy(m, s.n, s.J, stat.N_tilde, stat.J_tilde)
        y = -(s.E - stat.E_tilde)
        y_t = s.J - stat.J_tilde
        integrand = Lambda * eta_s + Lambda * y * y / 2.0 + y * y_t + y * y / 2.0
        L[k] = np.trapezoid(integrand, dx=dx)
    return L


def _plain_phi(states, stat):
    dx = stat.x[1] - stat.x[0]
    return np.array([float(np.trapezoid((s.n - stat.N_tilde) ** 2
                                        + (s.E - stat.E_tilde) ** 2
                                        + (s.J - stat.J_tilde) ** 2, dx=dx))
                     for s in states])


def _plain_json_value(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_plain_json_value(x) for x in v) + "]"
    return io.fmt(v)


def _plain_snapshot_text(states) -> str:
    return "".join(
        "{" + ",".join(f"{json.dumps(k)}:{_plain_json_value(v)}"
                       for k, v in {"t": s.t, "n": s.n, "J": s.J, "E": s.E}.items())
        + "}\n" for s in states)


# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _config(**kw):
    base = dict(gamma=2.0, epsilon=2e-3, N=64, T_final=1.0, output_stride=1)
    base.update(kw)
    return SolverConfig(**base)


def _initial(N, sign=1.0):
    x = np.linspace(0.0, 1.0, N + 1)
    return (DSINE(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x)),
            sign * 0.3 * np.sin(np.pi * x) ** 2)


def _both(cfg, sign=1.0):
    """The run and the plain run from the same data; sign sets the
    direction of the initial current, and with it which invariant is
    largest in magnitude."""
    n0, J0 = _initial(cfg.N, sign)
    return sh.run(cfg, DSINE, n0, J0), _plain_run(cfg, DSINE, n0, J0)


def _assert_trajectory_matches(traj, states):
    assert _same(traj.times, np.array([s.t for s in states]))
    for name in ("n", "J", "E"):
        assert _same(getattr(traj, name), np.array([getattr(s, name) for s in states])), name


def _assert_diagnostics_match(traj, states, m):
    M = diag.choose_M(traj.n[0], traj.J[0], DSINE, m, traj.dx)
    region = diag.invariant_region_check(traj, m, M)
    wbars, zbars, max_w, min_z, first, indeterminate = _plain_region(states, m, M, region.tol)
    assert _same(region.per_snapshot_wbar, wbars) and _same(region.per_snapshot_zbar, zbars)
    assert (region.max_wbar, region.min_zbar, region.first_violation_time,
            region.indeterminate_cells) == (max_w, min_z, first, indeterminate)

    density = diag.density_bound_check(traj, m, M)
    assert (density.max_density, density.density_bound, density.speed_constant,
            density.current_ok, density.passed) == _plain_density(states, m, M)

    stat = sh.solve_stationary(DSINE, m, traj.config.N)
    assert _same(diag.phi_series(traj, stat), _plain_phi(states, stat))
    Lambda = DSINE.d_hi + float(np.max(traj.n)) + 1.5
    assert _same(diag.lyapunov(traj, stat, m, Lambda).L,
                 _plain_lyapunov(states, stat, m, Lambda, traj.dx))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_trajectory_and_diagnostics_match_plain_loops(scheme, boundary, sign, tmp_path):
    traj, states = _both(_config(scheme=scheme, boundary=boundary), sign)
    assert len(states) > 20
    _assert_trajectory_matches(traj, states)
    _assert_diagnostics_match(traj, states, M2)

    rep = diag.entropy_residual(traj, M2)
    assert _same(rep.residuals, _plain_entropy_residuals(states, M2, "mechanical"))
    assert rep.min_residual == float(np.min(rep.residuals))

    io.write_snapshots(str(tmp_path / "s.ndjson"), traj)
    assert (tmp_path / "s.ndjson").read_text() == _plain_snapshot_text(states)


@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_entropy_residual_pairs_match_plain_loop(gamma):
    m = sh.GasModel(gamma)
    traj, states = _both(_config(gamma=gamma, boundary="float"))
    for pair, centers in (("mechanical", (5, 5)), (KERNEL, (3, 4))):
        rep = diag.entropy_residual(traj, m, pair=pair, centers=centers)
        assert _same(rep.residuals, _plain_entropy_residuals(states, m, pair, centers))


def test_single_snapshot_trajectory_matches_plain_loops(tmp_path):
    traj, states = _both(_config(T_final=0.0))
    assert len(states) == 1 and traj.n_steps == 0
    _assert_trajectory_matches(traj, states)
    _assert_diagnostics_match(traj, states, M2)
    with pytest.raises(diag.DiagnosticRefusal, match="too short"):
        diag.entropy_residual(traj, M2)
    io.write_snapshots(str(tmp_path / "s.ndjson"), traj)
    assert (tmp_path / "s.ndjson").read_text() == _plain_snapshot_text(states)


def test_partial_trajectory_of_a_blowup_matches_plain_loop():
    # sub-floor initial data clamp every interior cell on the first step
    cfg = _config(n_floor=0.9, output_stride=1)
    n0 = np.full(65, 0.5)
    with pytest.raises(BlowupError, match="budget") as got:
        sh.run(cfg, sh.DopingProfile.constant(0.5), n0, np.zeros(65))
    with pytest.raises(BlowupError) as plain:
        _plain_run(cfg, sh.DopingProfile.constant(0.5), n0, np.zeros(65))
    _assert_trajectory_matches(got.value.trajectory, plain.value.trajectory)


def test_region_check_with_indeterminate_cells_matches_plain_loop():
    traj, _ = _both(_config(T_final=0.2))
    n = traj.n.copy()
    n[1, 5:9] = 0.0             # a few vacuum cells
    n[2, 20] = -1e-3
    n[3] = 0.0                  # a snapshot with no determinate cell at all
    traj = replace(traj, n=n)
    states = [State(t, a, b, c) for t, a, b, c in zip(traj.times, traj.n, traj.J, traj.E)]
    for M in (11.0, 0.2):       # the second one is violated from t = 0 on
        rep = diag.invariant_region_check(traj, M2, M)
        wbars, zbars, max_w, min_z, first, indeterminate = _plain_region(states, M2, M, rep.tol)
        assert _same(rep.per_snapshot_wbar, wbars) and _same(rep.per_snapshot_zbar, zbars)
        assert (rep.max_wbar, rep.min_zbar, rep.first_violation_time,
                rep.indeterminate_cells) == (max_w, min_z, first, indeterminate)
        assert indeterminate == 4 + 1 + 65
