"""Time integrator: config validation, mollifier, stepping, blowup, MMS."""

import pickle
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
    # integer settings take integers: a float N fails later in linspace, and
    # a stride of 2.5 would record every fifth step (k % 2.5 == 0)
    for key, bad in (("N", 100.0), ("N", True), ("N", "100"),
                     ("output_stride", 2.5), ("output_stride", True)):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            _cfg(**{key: bad})
    assert _cfg(N=np.int64(100), output_stride=np.int32(2)).N == 100
    for key in ("gamma", "epsilon", "T_final", "cfl_safety", "n_floor"):
        with pytest.raises(ValueError, match=f"{key} must"):
            _cfg(**{key: "0.5"})
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


@pytest.mark.parametrize("eps, clamped", [(1e-3, True), (0.05, False)],
                         ids=["clamped", "not-clamped"])
@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_run_from_initial_data_is_the_mollified_run(boundary, scheme, eps, clamped):
    # a caller that prepares the start itself runs the same bits
    cfg = _cfg(N=64, epsilon=eps, T_final=0.1, scheme=scheme, boundary=boundary,
               output_stride=5)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 65)
    n0 = sh.project_neutral(D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x)), D, 1.0 / 64)
    J0 = 0.3 * np.sin(np.pi * x) ** 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a = solver.run(cfg, D, n0, J0)
        b = solver.run(cfg, D, *solver.initial_data(cfg, D, n0, J0), mollify=False)
    assert [str(w.message)[:15] for w in caught] == ["mollifier width"] * (2 * clamped)
    assert a.n_steps > 10
    for name in ("times", "n", "J", "E", "step_times", "mass"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_float_boundary_is_a_zero_flux_half_cell():
    cfg = _cfg(T_final=0.3, boundary="float")
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 101)
    traj = solver.run(cfg, D, D(x), np.zeros(101))
    n, J = traj.n[-1], traj.J[-1]
    assert J[0] == 0.0 and J[-1] == 0.0
    # the wall densities move, and the trapezoid mass stays
    assert n[0] != traj.n[0, 0] and n[-1] != traj.n[0, -1]
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
       current=st.floats(-0.3, 0.3),
       scheme=st.sampled_from(["central", "rusanov"]),
       relaxation=st.sampled_from(["explicit", "exp"]))
def test_float_walls_conserve_mass(coeffs, current, scheme, relaxation):
    # smooth positive data (each |coefficient| <= 0.3 keeps n >= 0.1):
    # the float-wall trapezoid mass changes by rounding only
    cfg = _cfg(N=64, epsilon=2e-3, T_final=0.2, scheme=scheme,
               relaxation=relaxation, boundary="float", output_stride=10**9)
    x = np.linspace(0.0, 1.0, 65)
    n0 = 1.0 + sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
    J0 = current * np.sin(np.pi * x)
    traj = solver.run(cfg, D1, n0, J0, mollify=False)
    assert traj.clamp_counts.sum() == 0
    drift = np.max(np.abs(traj.mass - traj.mass[0]))
    assert drift <= 1e-13 * traj.n_steps * traj.mass[0]


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


def test_blowup_error_survives_pickle():
    # a sweep's worker process sends its blowup back to the caller pickled
    cfg = _cfg(T_final=1.0)
    with pytest.raises(BlowupError) as exc:
        solver.run(cfg, D1, np.full(101, 1e-6), np.zeros(101), mollify=False)
    back = pickle.loads(pickle.dumps(exc.value))
    assert type(back) is BlowupError and str(back) == str(exc.value)
    assert (back.cell, back.time) == (exc.value.cell, exc.value.time)
    sent, got = exc.value.trajectory, back.trajectory
    assert (got.config, got.doping, got.boundary_values) == \
        (sent.config, sent.doping, sent.boundary_values)
    for name in ("times", "n", "J", "E", "step_times", "mass", "clamp_counts"):
        assert np.array_equal(getattr(got, name), getattr(sent, name))
    bare = pickle.loads(pickle.dumps(BlowupError("synthetic", 3, 0.25)))
    assert (str(bare), bare.cell, bare.time, bare.trajectory) == ("synthetic", 3, 0.25, None)


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


def _recorder():
    """An on_snapshot hook and the rows it was called with."""
    rows = []
    return rows, lambda t, n, J: rows.append((t, n.copy(), J.copy()))


def _assert_rows_are_the_snapshots(rows, traj):
    assert [t for t, _, _ in rows] == traj.times.tolist()
    for k, name in ((1, "n"), (2, "J")):
        assert np.array([row[k] for row in rows]).tobytes() == getattr(traj, name).tobytes()


@pytest.mark.parametrize("floor, message", [(None, None), (0.0, "vacuum"),
                                            (1e-3, "budget")])
def test_on_snapshot_sees_every_recorded_row(floor, message):
    # the hook's rows are the trajectory's, and after a blowup those of the
    # partial trajectory it carries: no row is passed that it lacks. This
    # density reaches vacuum near x = 0.09 by t = 0.55.
    cfg = _cfg(epsilon=1e-4, N=200, T_final=2.0 if message else 0.2, boundary="float",
               n_floor=floor, output_stride=3)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 201)
    n0 = sh.project_neutral(1.0 + 0.99 * np.sin(2.0 * np.pi * x), D, 1.0 / 200)
    rows, hook = _recorder()
    with pytest.warns(UserWarning, match="mollifier"):
        if message is None:
            traj = solver.run(cfg, D, n0, np.zeros(201), on_snapshot=hook)
            assert traj.times[-1] == cfg.T_final
        else:
            with pytest.raises(BlowupError, match=message) as exc:
                solver.run(cfg, D, n0, np.zeros(201), on_snapshot=hook)
            traj = exc.value.trajectory
    assert traj.times.size > 10
    _assert_rows_are_the_snapshots(rows, traj)


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


# The forcing as plain formulas, every factor evaluated on each call: the
# reference for the bit contract of solver.manufactured_forcing, which
# computes the x-only factors once per grid.
def _plain_forcing(m, eps):
    pi = np.pi

    def f_n(x, t):
        et = np.exp(-t)
        n_t = -0.25 * np.sin(2.0 * pi * x) * et
        J_x = 0.1 * (1.0 - et) * (pi * np.cos(pi * x) * x * (1.0 - x)
                                  + np.sin(pi * x) * (1.0 - 2.0 * x))
        n_xx = -pi * pi * np.sin(2.0 * pi * x) * et
        return n_t + J_x - eps * n_xx

    def f_J(x, t):
        et = np.exp(-t)
        s2, c2 = np.sin(2.0 * pi * x), np.cos(2.0 * pi * x)
        sp, cp = np.sin(pi * x), np.cos(pi * x)
        poly = x * (1.0 - x)
        n = 1.0 + 0.25 * s2 * et
        J = 0.1 * sp * poly * (1.0 - et)
        n_x = 0.5 * pi * c2 * et
        J_x = 0.1 * (1.0 - et) * (pi * cp * poly + sp * (1.0 - 2.0 * x))
        J_t = 0.1 * sp * poly * et
        J_xx = 0.1 * (1.0 - et) * (-pi * pi * sp * poly
                                   + 2.0 * pi * cp * (1.0 - 2.0 * x) - 2.0 * sp)
        E = 0.25 * et * (1.0 - c2) / (2.0 * pi)
        conv_x = (2.0 * J * J_x * n - J * J * n_x) / (n * n)
        p_x = m.p0 * m.gamma * n ** (m.gamma - 1.0) * n_x
        return J_t + conv_x + p_x - eps * J_xx - n * E + J + 2.0 * eps * n_x

    return f_n, f_J


def _forcing_same_bits(forcing, plain, x, t):
    return all(_same_bits(f(x, t), p(x, t)) for f, p in zip(forcing, plain))


_interior_grids = st.integers(16, 800).map(lambda N: np.linspace(0.0, 1.0, N + 1)[1:-1])
_sorted_points = hnp.arrays(np.float64, st.integers(1, 300),
                            elements=st.floats(-2.0, 2.0)).map(np.sort)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(_interior_grids, _sorted_points),
       ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
       gamma=st.floats(1.0, 3.0, exclude_min=True),
       eps=st.floats(1e-6, 1.0))
def test_forcing_has_the_bits_of_the_plain_formulas(x, ts, gamma, eps):
    m = sh.GasModel(gamma)
    forcing = solver.manufactured_forcing(m, eps)
    plain = _plain_forcing(m, eps)
    for t in ts:
        assert _forcing_same_bits(forcing, plain, x, t)
        # a fresh view of the same grid, as _rhs passes it every step
        assert _forcing_same_bits(forcing, plain, x[:], t)


def test_forcing_follows_the_grid_it_is_given():
    m = sh.GasModel(2.0)
    forcing = solver.manufactured_forcing(m, 0.02)
    plain = _plain_forcing(m, 0.02)
    a = np.linspace(0.0, 1.0, 101)[1:-1]
    b = np.linspace(0.0, 1.0, 201)[1:-1]
    c = a**2                                # same shape as a, other values
    # the same closures alternate between grids
    for x in (a, b, a, c, a, b):
        for t in (0.0, 0.7):
            assert _forcing_same_bits(forcing, plain, x, t)
    # one buffer changed in place between calls
    x = a.copy()
    assert _forcing_same_bits(forcing, plain, x, 0.3)
    x *= 0.5
    assert _forcing_same_bits(forcing, plain, x, 0.3)
    x[7] = 0.123
    assert _forcing_same_bits(forcing, plain, x, 0.3)
    x[:] = c
    assert _forcing_same_bits(forcing, plain, x, 0.3)
    # points equal as numbers but not as bits
    for x in (np.array([0.0, 0.5]), np.array([-0.0, 0.5]), np.array([0.0, 0.5])):
        assert _forcing_same_bits(forcing, plain, x, 0.3)
    # a scalar point
    assert _forcing_same_bits(forcing, plain, np.float64(0.3), 0.3)


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
    # density fluxes through the faces next to the walls
    if cfg.scheme == "central":
        h_lo, h_hi = (J[0] + J[1]) / 2.0, (J[-2] + J[-1]) / 2.0
    else:
        h_lo, h_hi = hat1[0], hat1[-1]
    flux_lo = h_lo - eps * (n[1] - n[0]) / dx
    flux_hi = h_hi - eps * (n[-1] - n[-2]) / dx
    return rhs_n, rhs_J, flux_lo, flux_hi


def _plain_advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, forcing):
    E = cumulative_trapezoid(n - d_grid, dx=dx, initial=0.0)
    rhs_n, rhs_J, flux_lo, flux_hi = _plain_rhs(n, J, E, t, m, cfg, x, dx, forcing)
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
        nn[0] = n[0] - dt * flux_lo / (dx / 2.0)
        nn[-1] = n[-1] + dt * flux_hi / (dx / 2.0)
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


def _march_both(cfg, D, n, J, forcing=None, steps=40, plain_forcing=None):
    """Step the lean and the plain step side by side from the same state."""
    plain_forcing = plain_forcing or forcing
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
        plain = _plain_advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, plain_forcing)
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
    _march_both(cfg, D1, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing,
                plain_forcing=_plain_forcing(cfg.model(), cfg.epsilon))


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
