"""Time integrator: config validation, mollifier, stepping, blowup, MMS."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid, quad

import semihydro as sh
from semihydro import gas, solver
from semihydro.solver import BlowupError, SolverConfig, State

D1 = sh.DopingProfile.constant(1.0)


def _cfg(**kw):
    base = dict(gamma=2.0, epsilon=1e-3, N=100, T_final=1.0)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        _cfg(epsilon=0.0)
    with pytest.raises(ValueError, match="N must"):
        _cfg(N=8)
    with pytest.raises(ValueError, match="T_final"):
        _cfg(T_final=-1.0)
    with pytest.raises(ValueError, match="cfl_safety"):
        _cfg(cfl_safety=1.2)
    with pytest.raises(ValueError, match="gamma"):
        _cfg(gamma=1.0)
    with pytest.raises(ValueError, match="scheme"):
        _cfg(scheme="upwind")
    with pytest.raises(ValueError, match="boundary"):
        _cfg(boundary="periodic")
    with pytest.raises(ValueError, match="relaxation"):
        _cfg(relaxation="implicit")
    with pytest.raises(ValueError, match="output_stride"):
        _cfg(output_stride=0)
    for key in ("epsilon", "T_final", "n_floor"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{key} must be .* finite"):
                _cfg(**{key: bad})
    cfg = _cfg()
    assert cfg.floor == 5e-4
    assert _cfg(n_floor=1e-6).floor == 1e-6
    assert cfg.model().gamma == 2.0


def test_mollifier_passes_constants_and_warns_when_narrow():
    dx = 1.0 / 100
    n0 = np.ones(101)
    J0 = np.zeros(101)
    with pytest.warns(UserWarning, match="clamped to 3"):
        n, J = solver.mollify_initial(n0, J0, 1e-3, dx)
    assert np.allclose(n, 1.0 + 1e-3, rtol=1e-14)
    assert np.all(J == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n, _ = solver.mollify_initial(n0, J0, 0.05, dx)  # 5 cells, no warning
    assert np.allclose(n, 1.05, rtol=1e-14)


def test_mollifier_smooths_and_validates():
    rng = np.random.default_rng(3)
    n0 = 1.0 + 0.5 * rng.random(201)
    J0 = rng.standard_normal(201) * 0.1
    n, J = solver.mollify_initial(n0, J0, 0.05, 1.0 / 200)
    tv = lambda f: np.sum(np.abs(np.diff(f)))
    assert tv(n) < tv(n0)
    assert tv(J) < tv(J0)
    assert np.min(n) > np.min(n0)  # the epsilon lift
    with pytest.raises(ValueError, match="nonnegative"):
        solver.mollify_initial(-n0, J0, 0.05, 1.0 / 200)
    bad_n = n0.copy()
    bad_n[7] = 0.0
    bad_J = np.ones(201)
    with pytest.raises(ValueError, match="vacuum"):
        solver.mollify_initial(bad_n, bad_J, 0.05, 1.0 / 200)


def test_cfl_dt_equilibrium_value():
    cfg = _cfg(N=200, T_final=5.0)
    st = State(0.0, np.ones(201), np.zeros(201), np.zeros(201))
    # hyperbolic bound dx / 0.5 wins over the parabolic dx^2 / (2 eps)
    assert solver.cfl_dt(st, cfg, 1.0 / 200) == pytest.approx(0.005)


def test_single_step_preserves_equilibrium():
    cfg = _cfg()
    st = State(0.0, np.ones(101), np.zeros(101), np.zeros(101))
    out = solver.step(st, cfg, D1, 1e-3)
    assert out.t == 1e-3
    assert np.all(out.n == 1.0)
    assert np.all(out.J == 0.0)
    assert np.all(out.E == 0.0)


@pytest.mark.parametrize("relaxation", ["explicit", "exp"])
def test_run_holds_equilibrium(relaxation):
    cfg = _cfg(T_final=0.5, output_stride=20, relaxation=relaxation)
    traj = solver.run(cfg, D1, np.ones(101), np.zeros(101))
    assert np.max(np.abs(traj.n[-1] - 1.0)) < 1e-14
    assert np.max(np.abs(traj.J[-1])) < 1e-14
    assert np.max(np.abs(traj.mass - traj.mass[0])) < 1e-14


def test_run_bookkeeping():
    cfg = _cfg(T_final=0.25, output_stride=7)
    traj = solver.run(cfg, D1, np.ones(101), np.zeros(101))
    assert traj.mass.size == traj.n_steps + 1
    assert traj.clamp_counts.size == traj.n_steps
    assert abs(traj.step_times[-1] - 0.25) < 1e-12
    assert traj.times[-1] == traj.step_times[-1]
    assert traj.n.shape == traj.J.shape == traj.E.shape == (traj.times.size, 101)
    assert traj.dx == 1.0 / 100
    assert traj.dt_mean > 0.0
    assert np.all(np.diff(traj.step_times) > 0.0)
    # snapshot times are a subset of the step times
    assert np.all(np.isin(np.round(traj.times, 12), np.round(traj.step_times, 12)))
    with pytest.raises(ValueError, match="nodes"):
        solver.run(cfg, D1, np.ones(50), np.zeros(50))


def test_zero_horizon_run():
    cfg = _cfg(T_final=0.0)
    traj = solver.run(cfg, D1, np.ones(101), np.zeros(101))
    assert traj.n_steps == 0
    assert traj.dt_mean == 0.0
    assert traj.times.tolist() == [0.0]
    assert traj.n.shape == traj.J.shape == traj.E.shape == (1, 101)


def test_run_is_deterministic():
    cfg = _cfg(T_final=0.5, output_stride=50)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 101)
    a = solver.run(cfg, D, D(x), np.zeros(101))
    b = solver.run(cfg, D, D(x), np.zeros(101))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.J, b.J)
    assert np.array_equal(a.E, b.E)


def test_float_boundary_copies_neighbors():
    cfg = _cfg(T_final=0.3, boundary="float")
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 101)
    traj = solver.run(cfg, D, D(x), np.zeros(101))
    n, J = traj.n[-1], traj.J[-1]
    assert n[0] == n[1]
    assert n[-1] == n[-2]
    assert J[0] == 0.0 and J[-1] == 0.0


def test_dirichlet_boundary_pins_mollified_values():
    cfg = _cfg(T_final=0.3)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 101)
    traj = solver.run(cfg, D, D(x), np.zeros(101))
    assert traj.n[-1, 0] == traj.boundary_values[0]
    assert traj.n[-1, -1] == traj.boundary_values[1]


def test_clamp_budget_blowup_carries_partial_trajectory():
    # sub-floor initial data clamps every interior cell on the first step
    cfg = _cfg(T_final=1.0)
    with pytest.raises(BlowupError, match="budget") as exc:
        solver.run(cfg, D1, np.full(101, 1e-6), np.zeros(101), mollify=False)
    traj = exc.value.trajectory
    assert traj is not None
    assert traj.times.size >= 1 and traj.n.shape == (traj.times.size, 101)
    assert exc.value.time > 0.0


def test_vacuum_without_floor_raises_blowup():
    # with n_floor = 0 nothing keeps the density positive; reaching n <= 0
    # is a blowup that names the cell, not a ValueError from the gas relations
    cfg = _cfg(epsilon=1e-4, N=200, T_final=2.0, boundary="float", n_floor=0.0)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 201)
    n0 = sh.project_neutral(1.0 + 0.99 * np.sin(2.0 * np.pi * x), D, 1.0 / 200)
    with pytest.warns(UserWarning, match="mollifier"), \
            pytest.raises(BlowupError, match="vacuum at cell") as exc:
        solver.run(cfg, D, n0, np.zeros(201))
    assert exc.value.trajectory is not None
    assert exc.value.time > 0.0


def test_run_ends_exactly_at_T_final():
    # a plain CFL step would end this run 8.4e-14 short of T_final
    cfg = _cfg(N=200, T_final=5.0, output_stride=10**9)
    traj = solver.run(cfg, D1, np.ones(201), np.zeros(201))
    assert traj.step_times[-1] == 5.0
    assert traj.times[-1] == 5.0
    assert np.all(np.diff(traj.step_times) > 0.0)


def test_nan_forcing_raises_blowup():
    cfg = _cfg(T_final=1.0)
    bad = (lambda x, t: np.full_like(x, np.nan), lambda x, t: np.zeros_like(x))
    with pytest.raises(BlowupError, match="non-finite"):
        solver.run(cfg, D1, np.ones(101), np.zeros(101), forcing=bad,
                   mollify=False)


def test_rusanov_scheme_runs_and_dissipates():
    cfg = _cfg(T_final=0.5, scheme="rusanov", boundary="float")
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 101)
    traj = solver.run(cfg, D, D(x), np.zeros(101))
    assert np.all(np.isfinite(traj.n[-1]))
    assert np.min(traj.n[-1]) > 0.0


# ---------------------------------------------------------------------------
# Manufactured solution

def test_manufactured_fields_respect_boundaries():
    n_star, J_star = solver.manufactured_solution()
    for t in (0.0, 0.3, 1.0):
        assert J_star(0.0, t) == 0.0
        assert abs(J_star(1.0, t)) < 1e-16
        assert n_star(0.0, t) == 1.0
        assert n_star(1.0, t) == pytest.approx(1.0)


def test_manufactured_forcing_matches_pde_residual():
    # finite differences of the closed-form fields reconstruct each
    # equation's residual; the shipped forcing must cancel it
    m = sh.GasModel(2.0)
    eps = 0.02
    n_star, J_star = solver.manufactured_solution()
    f_n, f_J = solver.manufactured_forcing(m, eps)

    def d_dx(f, x, t, h=1e-3):
        return (-f(x + 2 * h, t) + 8 * f(x + h, t)
                - 8 * f(x - h, t) + f(x - 2 * h, t)) / (12 * h)

    def d_dt(f, x, t, h=1e-3):
        return (-f(x, t + 2 * h) + 8 * f(x, t + h)
                - 8 * f(x, t - h) + f(x, t - 2 * h)) / (12 * h)

    def d2_dx2(f, x, t, h=1e-3):
        return (-f(x + 2 * h, t) + 16 * f(x + h, t) - 30 * f(x, t)
                + 16 * f(x - h, t) - f(x - 2 * h, t)) / (12 * h * h)

    def flux(x, t):
        n = n_star(x, t)
        J = J_star(x, t)
        return J * J / n + m.p0 * n**m.gamma

    rng = np.random.default_rng(29)
    for x in rng.uniform(0.05, 0.95, size=12):
        for t in (0.1, 0.6):
            E = quad(lambda xi: n_star(xi, t) - 1.0, 0.0, x, epsabs=1e-13)[0]
            r_n = (d_dt(n_star, x, t) + d_dx(J_star, x, t)
                   - eps * d2_dx2(n_star, x, t))
            assert f_n(x, t) == pytest.approx(r_n, abs=1e-8)
            r_J = (d_dt(J_star, x, t) + d_dx(flux, x, t)
                   - eps * d2_dx2(J_star, x, t)
                   - n_star(x, t) * E + J_star(x, t)
                   + 2.0 * eps * d_dx(n_star, x, t))
            assert f_J(x, t) == pytest.approx(r_J, abs=1e-8)


def test_mms_constant_solution_is_exact():
    cfg = _cfg(epsilon=0.02, T_final=0.2)
    rep = solver.mms_convergence(cfg, [32, 64, 128], solution="constant")
    assert rep.exact
    assert all(e == 0.0 for e in rep.errors)


def test_mms_input_validation():
    cfg = _cfg(epsilon=0.02, T_final=0.2)
    with pytest.raises(ValueError, match="at least 3"):
        solver.mms_convergence(cfg, [100, 200])
    with pytest.raises(ValueError, match="double"):
        solver.mms_convergence(cfg, [100, 150, 200])
    with pytest.raises(ValueError, match="manufactured solution"):
        solver.mms_convergence(cfg, [50, 100, 200], solution="weird")


def test_mms_rusanov_first_order():
    cfg = _cfg(epsilon=0.02, T_final=0.25, scheme="rusanov")
    rep = solver.mms_convergence(cfg, [50, 100, 200])
    assert rep.monotone
    assert 0.8 <= rep.order <= 1.6


# ---------------------------------------------------------------------------
# Bit identity of the step against a plain reference copy of it: E by
# scipy's cumulative_trapezoid, the mass by np.trapezoid, the max speed over
# |lam1| and |lam2|, and each stencil as one expression.

def _plain_rhs(n, J, E, t, m, cfg, x, dx, forcing):
    eps = cfg.epsilon
    if cfg.scheme == "central":
        f2 = J * J / n + gas.pressure(m, n)
        div_n = (J[2:] - J[:-2]) / (2.0 * dx)
        div_J = (f2[2:] - f2[:-2]) / (2.0 * dx)
    else:
        radius = np.abs(J / n) + m.theta * n**m.theta
        a = np.maximum(radius[:-1], radius[1:])
        f2 = J * J / n + gas.pressure(m, n)
        hat1 = 0.5 * (J[:-1] + J[1:]) - 0.5 * a * (n[1:] - n[:-1])
        hat2 = 0.5 * (f2[:-1] + f2[1:]) - 0.5 * a * (J[1:] - J[:-1])
        div_n = (hat1[1:] - hat1[:-1]) / dx
        div_J = (hat2[1:] - hat2[:-1]) / dx
    lap_n = (n[2:] - 2.0 * n[1:-1] + n[:-2]) / (dx * dx)
    lap_J = (J[2:] - 2.0 * J[1:-1] + J[:-2]) / (dx * dx)
    grad_n = (n[2:] - n[:-2]) / (2.0 * dx)
    rhs_n = -div_n + eps * lap_n
    rhs_J = (-div_J + eps * lap_J + n[1:-1] * E[1:-1] - 2.0 * eps * grad_n)
    if forcing is not None:
        f_n, f_J = forcing
        rhs_n = rhs_n + f_n(x[1:-1], t)
        rhs_J = rhs_J + f_J(x[1:-1], t)
    return rhs_n, rhs_J


def _plain_advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, forcing):
    E = cumulative_trapezoid(n - d_grid, dx=dx, initial=0.0)
    rhs_n, rhs_J = _plain_rhs(n, J, E, t, m, cfg, x, dx, forcing)
    nn = n.copy()
    JJ = J.copy()
    nn[1:-1] = n[1:-1] + dt * rhs_n
    if cfg.relaxation == "explicit":
        JJ[1:-1] = J[1:-1] + dt * (rhs_J - J[1:-1])
    else:
        JJ[1:-1] = np.exp(-dt) * (J[1:-1] + dt * rhs_J)
    if cfg.boundary == "dirichlet":
        nn[0], nn[-1] = bvals
    else:
        nn[0], nn[-1] = nn[1], nn[-2]
    JJ[0] = 0.0
    JJ[-1] = 0.0
    clamped = int(np.sum(nn < cfg.floor))
    if clamped:
        nn = np.maximum(nn, cfg.floor)
    return nn, JJ, clamped


def _plain_dt(m, n, J, cfg, dx):
    lam1, lam2 = gas.eigenvalues(m, n, J)
    speed = float(max(np.max(np.abs(lam1)), np.max(np.abs(lam2))))
    return cfg.cfl_safety * min(dx / speed, dx * dx / (2.0 * cfg.epsilon), 1.0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _march_both(cfg, D, n, J, forcing=None, steps=40):
    """Step the lean and the plain step side by side from the same state."""
    m = cfg.model()
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    dx = 1.0 / cfg.N
    d_grid = D(x)
    bvals = (float(n[0]), float(n[-1]))
    t = 0.0
    total_clamped = 0
    for _ in range(steps):
        dt = solver._dt(m, n, J, cfg, dx)
        assert _same_bits(dt, _plain_dt(m, n, J, cfg, dx))
        lean = solver._advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, forcing)
        plain = _plain_advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, forcing)
        assert _same_bits(lean[0], plain[0]) and _same_bits(lean[1], plain[1])
        assert lean[2] == plain[2]
        assert _same_bits(solver._mass(lean[0], dx), float(np.trapezoid(plain[0], dx=dx)))
        n, J = lean[:2]
        t += dt
        total_clamped += lean[2]
    return total_clamped


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("relaxation", ["explicit", "exp"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_step_matches_plain_step_bit_for_bit(scheme, relaxation, boundary):
    cfg = _cfg(N=64, epsilon=2e-3, scheme=scheme, relaxation=relaxation,
               boundary=boundary)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 65)
    n = D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x))
    J = 0.3 * np.sin(np.pi * x) ** 2
    _march_both(cfg, D, n, J)


def test_step_matches_plain_step_while_clamping():
    # a floor above part of the density clamps cells on every step
    cfg = _cfg(N=64, n_floor=0.6, boundary="float")
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 65)
    assert _march_both(cfg, D, D(x), np.zeros(65), steps=10) > 0


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
def test_step_matches_plain_step_with_mms_forcing(scheme):
    cfg = _cfg(N=64, epsilon=0.02, scheme=scheme)
    n_star, J_star = solver.manufactured_solution()
    x = np.linspace(0.0, 1.0, 65)
    forcing = solver.manufactured_forcing(cfg.model(), cfg.epsilon)
    _march_both(cfg, D1, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing)


@settings(max_examples=200, deadline=None)
@given(y=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=300),
                    elements=st.floats(-1e6, 1e6, allow_nan=False)),
       dx=st.floats(1e-6, 1.0))
def test_efield_helper_is_cumulative_trapezoid(y, dx):
    # a 2-D y holds one row per snapshot; E runs along the last axis
    expected = cumulative_trapezoid(y, dx=dx, initial=0.0, axis=-1)
    assert _same_bits(solver._efield(y, dx), expected)
    for row, e in zip(np.atleast_2d(y), np.atleast_2d(expected)):
        assert _same_bits(solver._efield(row, dx), e)
