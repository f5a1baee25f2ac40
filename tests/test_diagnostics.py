"""Diagnostics: region margins, entropy residuals, Lyapunov and decay fits."""

import numpy as np
import pytest

import semihydro as sh
from semihydro import diagnostics as diag
from semihydro.solver import SolverConfig, State
from semihydro.stationary import StationaryProfile

D1 = sh.DopingProfile.constant(1.0)
DSINE = sh.DopingProfile.sine(1.0, 0.5, 1.0)
M2 = sh.GasModel(2.0)


@pytest.fixture(scope="module")
def eq_traj():
    cfg = SolverConfig(gamma=2.0, epsilon=1e-3, N=100, T_final=1.5)
    return sh.run(cfg, D1, np.ones(101), np.zeros(101))


@pytest.fixture(scope="module")
def eq_stat():
    return sh.solve_stationary(D1, M2, 100)


@pytest.fixture(scope="module")
def sine_traj():
    cfg = SolverConfig(gamma=2.0, epsilon=1e-3, N=100, T_final=2.0,
                       boundary="float")
    x = np.linspace(0.0, 1.0, 101)
    return sh.run(cfg, DSINE, DSINE(x), np.zeros(101))


@pytest.fixture(scope="module")
def sine_stat():
    return sh.solve_stationary(DSINE, M2, 100)


def test_choose_m_equilibrium_value():
    # sup(w0 - x) = 1, sup(x - z0) = 2, (M0 + 2)/theta = 10; plus 1
    M = diag.choose_M(np.ones(101), np.zeros(101), D1, M2, 0.01)
    assert M == pytest.approx(11.0)
    with pytest.raises(ValueError, match="vacuum"):
        diag.choose_M(np.zeros(101), np.zeros(101), D1, M2, 0.01)


def test_invariant_region_margins(eq_traj):
    rep = diag.invariant_region_check(eq_traj, M2, 11.0)
    assert rep.tol == pytest.approx(1e-6 + 10.0 / 100**2)
    assert rep.max_wbar == pytest.approx(-10.0, abs=0.01)
    assert rep.min_zbar == pytest.approx(9.0, abs=0.01)
    assert rep.passed
    assert rep.first_violation_time is None
    assert rep.indeterminate_cells == 0
    assert rep.per_snapshot_wbar.size == eq_traj.times.size
    rec = rep.to_record()
    assert rec["name"] == "invariant_region" and rec["passed"] is True


def test_invariant_region_flags_m_zero(eq_traj):
    rep = diag.invariant_region_check(eq_traj, M2, 0.0)
    assert not rep.passed
    assert rep.max_wbar > rep.tol
    assert rep.first_violation_time == 0.0


def test_density_bound(eq_traj):
    rep = diag.density_bound_check(eq_traj, M2, 11.0)
    assert rep.density_bound == pytest.approx(272.25)
    assert rep.max_density == pytest.approx(1.0, abs=0.01)
    assert rep.speed_constant == pytest.approx(1.0, abs=0.01)
    assert rep.current_ok and rep.passed
    assert not diag.density_bound_check(eq_traj, M2, 1e-4).passed


def test_entropy_residual_near_zero_at_equilibrium(eq_traj):
    rep = diag.entropy_residual(eq_traj, M2)
    assert rep.residuals.size == 25
    assert abs(rep.min_residual) < 1e-8
    assert rep.worst_violation <= 1e-8
    assert rep.passed
    assert rep.tol == pytest.approx(10.0 * (eq_traj.dx + eq_traj.dt_mean))


def test_entropy_residual_with_kernel_pair(eq_traj):
    rep = diag.entropy_residual(eq_traj, M2,
                                pair=(lambda xi: 0.5 * xi**2, lambda xi: xi),
                                centers=(3, 3))
    assert rep.residuals.size == 9
    assert abs(rep.min_residual) < 1e-8


def test_entropy_residual_refuses_sparse_snapshots():
    # several snapshots, but spaced wider than a quarter bump half-width
    cfg = SolverConfig(gamma=2.0, epsilon=1e-3, N=100, T_final=1.5,
                       output_stride=40)
    traj = sh.run(cfg, D1, np.ones(101), np.zeros(101))
    with pytest.raises(ValueError, match="output_stride"):
        diag.entropy_residual(traj, M2)


def test_entropy_residual_refuses_degenerate_trajectory():
    cfg = SolverConfig(gamma=2.0, epsilon=1e-3, N=100, T_final=0.0)
    traj = sh.run(cfg, D1, np.ones(101), np.zeros(101))
    with pytest.raises(ValueError, match="too short"):
        diag.entropy_residual(traj, M2)


def test_coercivity_constants():
    assert diag.coercivity_constants((0.5, 1.5), (0.5, 1.5), M2) == \
        pytest.approx((0.125, 0.375))
    c1, c2 = diag.coercivity_constants((1.0, 2.0), (1.0, 2.0), sh.GasModel(3.0))
    assert (c1, c2) == pytest.approx((1.0, 4.0))
    with pytest.raises(ValueError, match="positive"):
        diag.coercivity_constants((0.0, 1.0), (0.5, 1.5), M2)
    with pytest.raises(ValueError, match="interval"):
        diag.coercivity_constants((1.0, 0.5), (0.5, 1.5), M2)


def test_sandwich_violation_counting():
    grid = np.linspace(0.5, 1.5, 60)
    c1, c2 = diag.coercivity_constants((0.5, 1.5), (0.5, 1.5), M2)
    assert diag.sandwich_violations(M2, grid, grid, c1, c2) == 0
    # tightening either constant past the sharp value must show up
    assert diag.sandwich_violations(M2, grid, grid, c1 * 1.2, c2) > 0
    assert diag.sandwich_violations(M2, grid, grid, c1, c2 / 1.2) > 0


def test_lyapunov_equilibrium_monotone(eq_traj, eq_stat):
    rep = diag.lyapunov(eq_traj, eq_stat, M2, 3.5)
    assert rep.increases == 0
    assert rep.L[0] < 1e-12
    rec = rep.to_record()
    assert rec["passed"] is True and rec["Lambda"] == 3.5


def test_lyapunov_rejects_small_lambda(eq_traj, eq_stat):
    with pytest.raises(ValueError, match="Lambda"):
        diag.lyapunov(eq_traj, eq_stat, M2, 2.0)


def test_lyapunov_rejects_grid_mismatch(eq_traj):
    stat = sh.solve_stationary(D1, M2, 50)
    with pytest.raises(ValueError, match="grid"):
        diag.lyapunov(eq_traj, stat, M2, 3.5)


def test_lyapunov_decreases_off_equilibrium(sine_traj, sine_stat):
    max_n = float(np.max(sine_traj.n))
    rep = diag.lyapunov(sine_traj, sine_stat, M2, DSINE.d_hi + max_n + 1.5)
    assert rep.L[0] > 0.0
    assert rep.L[-1] < rep.L[0]


def test_decay_functional_synthetic_value():
    N = 1000
    x = np.linspace(0.0, 1.0, N + 1)
    stat = StationaryProfile(x, np.ones(N + 1), np.zeros(N + 1), 0.0, 1)
    st = State(0.0, 1.0 + 0.1 * np.ones(N + 1), np.zeros(N + 1), 0.1 * x)
    # 0.1^2 * (1 + integral x^2) = 0.01 * 4/3
    assert diag.decay_functional(st, stat) == pytest.approx(0.04 / 3.0, rel=1e-5)
    with pytest.raises(ValueError, match="grid"):
        diag.decay_functional(State(0.0, np.ones(11), np.zeros(11), np.zeros(11)),
                              stat)


def test_phi_series_decreases(sine_traj, sine_stat):
    phi = diag.phi_series(sine_traj, sine_stat)
    assert phi.size == sine_traj.times.size
    assert phi[-1] < phi[0]


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 20.0, 201)
    phi = 5.0 * np.exp(-0.7 * t)
    rep = diag.fit_decay_rate(t, phi, (2.0, 18.0))
    assert rep.c == pytest.approx(0.7, rel=1e-10)
    assert rep.C == pytest.approx(5.0, rel=1e-8)
    assert rep.r_squared == pytest.approx(1.0)
    assert rep.passed


def test_fit_decay_rate_rejects_noise():
    rng = np.random.default_rng(101)
    t = np.linspace(0.0, 20.0, 201)
    phi = 5.0 * np.exp(-0.7 * t + rng.standard_normal(201))
    rep = diag.fit_decay_rate(t, phi, (2.0, 18.0))
    assert rep.r_squared < 0.98
    assert not rep.passed


def test_fit_decay_rate_needs_samples():
    t = np.linspace(0.0, 20.0, 6)
    with pytest.raises(ValueError, match="at least 10"):
        diag.fit_decay_rate(t, np.exp(-t), (2.0, 18.0))


def test_fit_decay_rate_stops_at_floor():
    t = np.linspace(0.0, 20.0, 201)
    phi = np.exp(-0.7 * t)
    phi[t > 10.0] = 1e-30  # dead flat tail below the floor
    rep = diag.fit_decay_rate(t, phi, (2.0, 18.0))
    assert rep.c == pytest.approx(0.7, rel=1e-6)
    assert rep.times[-1] <= 10.0


def test_mass_series(eq_traj):
    rep = diag.mass_series(eq_traj)
    assert rep.drift < 1e-14
    assert rep.scale < 1e-9
    assert rep.mass.size == eq_traj.n_steps + 1
    assert rep.to_record()["name"] == "mass"

