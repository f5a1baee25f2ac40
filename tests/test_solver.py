"""Time integrator: config validation, mollifier, stepping, blowup, MMS."""

import itertools
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid, quad

import semihydro as sh
from semihydro import _kernel, gas, solver
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
    for bad in ("implicit", "exp"):
        with pytest.raises(ValueError, match=f"relaxation must be explicit, got '{bad}'"):
            _cfg(relaxation=bad)
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


def test_single_step_preserves_equilibrium(monkeypatch):
    # step is numpy's _advance on every host: it never loads the C library
    monkeypatch.setattr(_kernel, "load", lambda: pytest.fail("step loaded the C library"))
    cfg = _cfg()
    st = State(0.0, np.ones(101), np.zeros(101), np.zeros(101))
    out = solver.step(st, cfg, D1, 1e-3)
    assert out.t == 1e-3
    assert np.all(out.n == 1.0)
    assert np.all(out.J == 0.0)
    assert np.all(out.E == 0.0)


def test_single_step_rejects_a_state_of_the_wrong_size():
    # the same message for a bad n and for a bad J
    cfg = _cfg()
    for n, J in ((np.ones(100), np.zeros(101)), (np.ones(101), np.zeros(102))):
        with pytest.raises(ValueError, match=r"^the state must have 101 nodes$"):
            solver.step(State(0.0, n, J, np.zeros(101)), cfg, D1, 1e-3)


@pytest.mark.parametrize("relaxation", ["explicit"])
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
       scheme=st.sampled_from(["central", "rusanov"]))
def test_float_walls_conserve_mass(coeffs, current, scheme):
    # smooth positive data (each |coefficient| <= 0.3 keeps n >= 0.1):
    # the float-wall trapezoid mass changes by rounding only
    cfg = _cfg(N=64, epsilon=2e-3, T_final=0.2, scheme=scheme, boundary="float",
               output_stride=10**9)
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
    assert traj.n[-1, 0] == traj.n[0, 0]
    assert traj.n[-1, -1] == traj.n[0, -1]


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
    assert (got.config, got.doping) == (sent.config, sent.doping)
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
    bad = (lambda t: np.full(99, np.nan), lambda t: np.zeros(99))
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
        f_n, f_J = solver.manufactured_forcing(m, eps, x)
        for t in (0.1, 0.6):
            E = quad(lambda xi: n_star(xi, t) - 1.0, 0.0, x, epsabs=1e-13)[0]
            r_n = (d_dt(n_star, x, t) + d_dx(J_star, x, t)
                   - eps * d2_dx2(n_star, x, t))
            assert f_n(t) == pytest.approx(r_n, abs=1e-8)
            r_J = (d_dt(J_star, x, t) + d_dx(flux, x, t)
                   - eps * d2_dx2(J_star, x, t)
                   - n_star(x, t) * E + J_star(x, t)
                   + 2.0 * eps * d_dx(n_star, x, t))
            assert f_J(t) == pytest.approx(r_J, abs=1e-8)


# The forcing as plain formulas, every factor evaluated on each call: the
# reference for the bit contract of solver.manufactured_forcing, which
# computes the x-only factors once, on the points it is built on.
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


def _assert_forcing_is_plain(m, eps, x, ts):
    """The forcing built on x has the bits of the plain formulas at each t,
    and each call returns a fresh array with the shape and dtype of x. On
    1-d points of doubles, at least 15 of them (the interior nodes of the
    least N), so does what the C step's forcing buffers hold after a step:
    at gamma = 2 its own evaluation of the pair, and at any other gamma
    the closures' values, copied there."""
    plain = _plain_forcing(m, eps)
    forcing = solver.manufactured_forcing(m, eps, x)
    for t in ts:
        for f, p in zip(forcing, plain):
            a, b = f(t), f(t)
            assert _same_bits(a, p(x, t))
            assert np.shape(a) == np.shape(x) and a.dtype == x.dtype
            assert not np.shares_memory(a, b)
    if np.ndim(x) == 1 and x.dtype == np.float64 and x.size >= 15:
        _require_kernel()
        N = x.size + 1
        stepper = solver._KernelStep(_kernel.load(), _cfg(N=N, epsilon=eps, gamma=m.gamma),
                                     np.ones(N + 1), forcing)
        # the C step evaluates the pair itself only where its power is its base
        library = m.gamma - 1.0 == 1.0
        assert (stepper._forcing_grid is not None) == library
        for t in ts:
            # march's first step from t, which evaluates the forcing at t
            next(stepper.march(np.ones(N + 1), np.zeros(N + 1), t, t + 1.0, 1))
            for f, p in zip(stepper._f, plain):
                assert _same_bits(f, p(x, t))


_interior_grids = st.integers(16, 800).map(lambda N: np.linspace(0.0, 1.0, N + 1)[1:-1])
_points = hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-2.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(_interior_grids, _points, _points.map(np.sort)),
       ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
       gamma=st.floats(1.0, 3.0, exclude_min=True) | st.just(2.0),
       eps=st.floats(1e-6, 1.0))
def test_forcing_has_the_bits_of_the_plain_formulas(x, ts, gamma, eps):
    # gamma = 2 drawn on its own too: the C step evaluates the pair there
    _assert_forcing_is_plain(sh.GasModel(gamma), eps, x, ts)


def test_forcing_follows_the_grid_it_is_given():
    # each forcing has the bits of the plain formulas on the points it was
    # built on: two interior grids, one of the same shape and other values,
    # points equal as numbers but not as bits, unsorted points and a scalar
    # point
    m = sh.GasModel(2.0)
    a = np.linspace(0.0, 1.0, 101)[1:-1]
    b = np.linspace(0.0, 1.0, 201)[1:-1]
    for x in (a, b, a**2, np.array([0.0, 0.5]), np.array([-0.0, 0.5]), a[::-7],
              np.float64(0.3)):
        _assert_forcing_is_plain(m, 0.02, x, (0.0, 0.3, 0.7))


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
    with pytest.raises(ValueError, match="N must be at least 16, got 8"):
        solver.mms_convergence(cfg, [8, 16, 32])
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
    JJ[1:-1] = J[1:-1] + dt * (rhs_J - J[1:-1])
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


def _require_kernel():
    """Fail if the C step did not load on Linux; skip elsewhere."""
    if _kernel.load() is None:
        if sys.platform.startswith("linux"):
            pytest.fail("the C step did not load")
        pytest.skip("the C step is unavailable on this platform")


def _both_paths():
    """Iterate once with the C library, then once without it
    (semihydro._kernel.load patched to give None), on numpy's step and
    forcing. On Linux the library must load; elsewhere only numpy's path
    runs without it."""
    if _kernel.load() is not None:
        yield "kernel"
    elif sys.platform.startswith("linux"):
        pytest.fail("the C step did not load")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        yield "numpy"


def _march_both(cfg, D, n, J, forcing=None, steps=40, plain_forcing=None):
    """Step the package's and the plain step side by side from the same state;
    forcing is a pair of functions of t, plain_forcing the same terms as
    functions of (x, t).

    Each step is the first step of a stepper's march toward T_final = T,
    which takes its dt itself and keeps the step's records; every third
    step, T lies short of t + dt, so that the step ends on it and march
    stops. An unforced step is also taken by the public solver.step, with
    the same dt. The next step starts from the plain step's state."""
    m = cfg.model()
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    dx = 1.0 / cfg.N
    d_grid = D(x)
    bvals = (float(n[0]), float(n[-1]))
    marcher = solver._stepper(cfg, d_grid, forcing)
    t = 0.0
    total_clamped = 0
    for k in range(steps):
        dt = solver._dt(m, n, J, cfg, dx)
        assert _same_bits(dt, _plain_dt(m, n, J, cfg, dx))
        T = t + 0.75 * dt if k % 3 == 2 else 1e9
        last = t + dt >= T - 1e-13
        if last:
            dt = T - t
        t_new = T if last else t + dt
        march = marcher.march(n, J, t, T, 1)
        stepped = next(march)
        if last:
            assert next(march, None) is None
        times, masses, clamps = marcher.records()
        assert marcher.steps == k + 1 and times.size == k + 2 and clamps.size == k + 1
        assert _same_bits(times[-1], t_new) and _same_bits(stepped[2], t_new)
        assert stepped[3] == clamps[-1] and stepped[4] is True
        plain = _plain_advance(n, J, t, dt, m, cfg, d_grid, x, dx, bvals, plain_forcing)
        assert _same_bits(stepped[0], plain[0]) and _same_bits(stepped[1], plain[1])
        assert clamps[-1] == plain[2]
        assert _same_bits(masses[-1], float(np.trapezoid(plain[0], dx=dx)))
        if forcing is None:
            out = solver.step(State(t, n, J, None), cfg, D, dt)
            assert _same_bits(out.n, plain[0]) and _same_bits(out.J, plain[1])
            assert _same_bits(out.E, cumulative_trapezoid(plain[0] - d_grid, dx=dx,
                                                          initial=0.0))
        n, J = plain[:2]
        t += dt
        total_clamped += plain[2]
    return total_clamped


# odd and even node counts, so that every vector loop of the C step runs a
# scalar tail in some run, and the sweep's grid
GRIDS = (17, 64, 400)


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("relaxation", ["explicit"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_step_matches_plain_step_bit_for_bit(scheme, relaxation, boundary):
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    for _ in _both_paths():
        for N, gamma in itertools.product(GRIDS, (1.5, 2.0, 3.0)):
            x = np.linspace(0.0, 1.0, N + 1)
            n = D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x))
            J = 0.3 * np.sin(np.pi * x) ** 2
            cfg = _cfg(N=N, epsilon=2e-3, scheme=scheme, relaxation=relaxation,
                       boundary=boundary, gamma=gamma)
            _march_both(cfg, D, n, J)


def test_step_matches_plain_step_while_clamping():
    # a floor above part of the density clamps cells on every step
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 65)
    for _ in _both_paths():
        for scheme in ("central", "rusanov"):
            cfg = _cfg(N=64, n_floor=0.6, boundary="float", scheme=scheme)
            assert _march_both(cfg, D, D(x), np.zeros(65), steps=10) > 0


def test_a_dirichlet_wall_below_the_floor_is_clamped_on_the_first_step_only():
    # a dirichlet wall holds the state's own density: the first step clamps
    # the wall that starts below the floor, and from then on it holds the
    # floor. N = 1000 keeps that one clamp within run's budget of
    # 1e-3 * N clamps per step. Both paths give the same bits.
    N = 1000
    cfg = _cfg(N=N, epsilon=2e-3, n_floor=0.5, T_final=0.01, output_stride=20)
    n = np.ones(N + 1)
    n[0] = 0.25
    runs = []
    for _ in _both_paths():
        traj = solver.run(cfg, D1, n, np.zeros(N + 1), mollify=False)
        assert traj.n_steps > 20
        assert traj.clamp_counts[0] == 1 and not traj.clamp_counts[1:].any()
        assert (traj.n[1:, 0] == 0.5).all() and (traj.n[:, -1] == 1.0).all()
        runs.append([getattr(traj, f) for f in ("times", "n", "J", "E", "step_times", "mass",
                                                 "clamp_counts")])
    for kernel, numpy in zip(*runs):
        assert _same_bits(kernel, numpy)


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
def test_step_matches_plain_step_with_mms_forcing(scheme):
    n_star, J_star = solver.manufactured_solution()
    for _ in _both_paths():
        for N in GRIDS:
            cfg = _cfg(N=N, epsilon=0.02, scheme=scheme)
            x = np.linspace(0.0, 1.0, N + 1)
            forcing = solver.manufactured_forcing(cfg.model(), cfg.epsilon, x[1:-1])
            _march_both(cfg, D1, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing,
                        plain_forcing=_plain_forcing(cfg.model(), cfg.epsilon))


def _counted(forcing, calls):
    """manufactured_forcing's pair with closures that record each call in
    calls around its own; the factors, eps and gas model stay its own."""
    def counted(f):
        def call(t):
            calls.append(t)
            return f(t)
        return call

    return solver._ManufacturedForcing(*map(counted, forcing), forcing.factors, forcing.eps,
                                       forcing.m)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("path", ["library", "closures", "numpy"])
def test_forced_step_has_the_same_bits_on_every_path(gamma, path, monkeypatch):
    # manufactured_forcing's pair given to the C step (evaluated inside it
    # at gamma = 2, with the power's base for the power; at any other gamma
    # its closures' values copied in), the same pair as a plain tuple of
    # closures whose values the C step copies, and numpy's step and
    # forcing: each gives the plain step's bits, through march, on both
    # fluxes (the Rusanov radius from the speeds)
    n_star, J_star = solver.manufactured_solution()
    if path == "numpy":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    else:
        _require_kernel()
    calls = []
    for N, scheme in itertools.product(GRIDS, ("central", "rusanov")):
        cfg = _cfg(N=N, epsilon=0.02, gamma=gamma, boundary="dirichlet", scheme=scheme)
        x = np.linspace(0.0, 1.0, N + 1)
        forcing = _counted(solver.manufactured_forcing(cfg.model(), cfg.epsilon, x[1:-1]), calls)
        if path == "closures":
            forcing = tuple(forcing)
        _march_both(cfg, D1, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing, steps=30,
                    plain_forcing=_plain_forcing(cfg.model(), cfg.epsilon))
    # inside the C step at gamma = 2 the closures are never called; on the
    # other paths and gammas both are, on each of the 30 steps of the one
    # stepper of each case
    assert len(calls) == (0 if path == "library" and gamma == 2.0
                          else 2 * 30 * 2 * len(GRIDS))


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 64),
                    elements=st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                       -2.225073858507201e-308])))
def test_numpy_power_one_is_the_identity(x):
    # the premise of the C step's forcing at gamma = 2: it takes the power
    # (1 + b_n e^-t)**(gamma - 1) = (...)**1.0 to be its base, as numpy gives it
    assert _same_bits(x ** 1.0, x)


_speed_floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                                               np.nan, 1e308, -1e308])


@settings(max_examples=300, deadline=None)
@given(nJ=st.integers(1, 64).flatmap(lambda size: st.tuples(
           hnp.arrays(np.float64, size, elements=st.floats(0.0, exclude_min=True)
                      | st.sampled_from([5e-324, 2.225073858507201e-308, 1e308, np.inf])),
           hnp.arrays(np.float64, size, elements=_speed_floats))),
       gamma=st.floats(1.0, 3.0, exclude_min=True) | st.sampled_from([1.5, 2.0, 3.0]))
def test_rusanov_radius_is_the_larger_speed(nJ, gamma):
    # the premise of the C step's Rusanov flux: its radius |J/n| + theta
    # n**theta is max(|lam1|, |lam2|) of eigenvalues' speeds, byte for byte,
    # for any n > 0, infinite and NaN rows included
    n, J = nJ
    m = sh.GasModel(gamma)
    with np.errstate(all="ignore"):
        lam1, lam2 = gas.eigenvalues(m, n, J)
        c = m.theta * n**m.theta
        assert _same_bits(lam1, J / n - c) and _same_bits(lam2, J / n + c)
        assert _same_bits(np.maximum(np.abs(lam1), np.abs(lam2)),
                          np.abs(J / n) + m.theta * n**m.theta)


@pytest.mark.parametrize("J_vacuum", [0.0, 0.25])
@pytest.mark.parametrize("node", [0, 40])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_rusanov_single_step_from_a_zero_density_blows_up_without_warnings(
        boundary, node, J_vacuum):
    # step is numpy's _advance, which takes the radius without eigenvalues'
    # positivity check: a zero density ends in the non-finite BlowupError,
    # and numpy's floating-point warnings stay silent, as in run
    cfg = _cfg(N=64, scheme="rusanov", boundary=boundary, gamma=1.5)
    x = np.linspace(0.0, 1.0, 65)
    n = 1.0 + 0.2 * np.sin(3.0 * np.pi * x)
    J = 0.3 * np.sin(np.pi * x) ** 2
    n[node], J[node] = 0.0, J_vacuum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError, match="non-finite"):
            solver.step(State(0.0, n, J, None), cfg, D1, 1e-4)


def _run_on_both_paths(*args, **kwargs):
    """run(*args, **kwargs) on the C step and on numpy's: for each path, the
    Trajectory or the BlowupError raised, and the rows passed to on_snapshot."""
    _require_kernel()
    outcomes = []
    for _ in _both_paths():
        rows, hook = _recorder()
        try:
            got = solver.run(*args, on_snapshot=hook, **kwargs)
        except BlowupError as exc:
            got = exc
        outcomes.append((got, rows))
    return outcomes


def _assert_same_runs(a, b):
    (got_a, rows_a), (got_b, rows_b) = a, b
    assert type(got_a) is type(got_b)
    if isinstance(got_a, BlowupError):
        assert (str(got_a), got_a.cell, got_a.time) == (str(got_b), got_b.cell, got_b.time)
        got_a, got_b = got_a.trajectory, got_b.trajectory
    for name in ("times", "n", "J", "E", "step_times", "mass", "clamp_counts"):
        assert _same_bits(getattr(got_a, name), getattr(got_b, name)), name
    assert [t for t, _, _ in rows_a] == [t for t, _, _ in rows_b]
    for k in (1, 2):
        assert np.array([r[k] for r in rows_a]).tobytes() == \
            np.array([r[k] for r in rows_b]).tobytes()
    _assert_rows_are_the_snapshots(rows_a, got_a)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("relaxation", ["explicit"])
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_kernel_and_numpy_runs_have_the_same_bytes(scheme, relaxation, boundary, gamma):
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    # the coarsest grid takes larger steps, so it runs longer, and with more
    # viscosity: at eps = 2e-3 central's dirichlet run at gamma 3 clamps
    for N, eps, T_final in zip(GRIDS, (5e-3, 2e-3, 2e-3), (2.0, 0.3, 0.3)):
        cfg = _cfg(N=N, epsilon=eps, T_final=T_final, scheme=scheme, relaxation=relaxation,
                   boundary=boundary, gamma=gamma, output_stride=7)
        x = np.linspace(0.0, 1.0, N + 1)
        n0 = sh.project_neutral(D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x)), D, 1.0 / N)
        J0 = 0.3 * np.sin(np.pi * x) ** 2
        kernel, numpy_step = _run_on_both_paths(cfg, D, n0, J0)
        assert kernel[0].n_steps > 20
        _assert_same_runs(kernel, numpy_step)


# the largest grid whose N mass terms np.sum adds as one block, and the
# smallest it splits in two
SUM_SPLIT_GRIDS = (128, 129)


@pytest.mark.parametrize("N", SUM_SPLIT_GRIDS)
@pytest.mark.parametrize("boundary", ["dirichlet", "float"])
def test_kernel_and_numpy_runs_have_the_same_mass_where_the_sum_splits(N, boundary):
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    cfg = _cfg(N=N, epsilon=2e-3, T_final=0.3, boundary=boundary, output_stride=7)
    x = np.linspace(0.0, 1.0, N + 1)
    n0 = sh.project_neutral(D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x)), D, 1.0 / N)
    kernel, numpy_step = _run_on_both_paths(cfg, D, n0, 0.3 * np.sin(np.pi * x) ** 2)
    assert kernel[0].n_steps > 20
    _assert_same_runs(kernel, numpy_step)


# sizes below one 8-term unroll, around one and two 128-term blocks, the
# scenario's and finer grids, and a size past numpy's 8192-element buffer
SUM_SIZES = (*range(1, 10), 127, 128, 129, 255, 256, 257, 400, 1600, 16384)
# signed zeros, the smallest and largest subnormals, infinities and NaN
SUM_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                -2.225073858507201e-308, np.inf, -np.inf, np.nan)


@settings(max_examples=300, deadline=None)
@given(size=st.sampled_from(SUM_SIZES), seed=st.integers(0, 2**32 - 1),
       exponents=st.sampled_from([(-3, 3), (-20, 20), (-320, -300), (290, 308), (-320, 308)]),
       specials=st.lists(st.sampled_from(SUM_SPECIALS), max_size=4),
       share=st.sampled_from([0.0, 0.01, 0.3, 1.0]))
@example(size=16, seed=0, exponents=(-3, 3), specials=[-0.0], share=1.0)
def test_library_sum_is_numpy_sum(size, seed, exponents, specials, share):
    # the mass of the C step is semihydro_sum of its trapezoid terms; it must
    # be np.sum's, which adds pairwise in a fixed order
    _require_kernel()
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        a = rng.standard_normal(size) * 10.0 ** rng.integers(*exponents, size, endpoint=True)
    if specials:
        hit = rng.random(size) < share
        a[hit] = rng.choice(specials, hit.sum())
    expected = np.sum(a)
    got = np.float64(_kernel.load().semihydro_sum(a.ctypes.data, a.size))
    if np.isnan(expected):
        # which NaN an addition of two NaNs gives depends on its operand
        # order, which neither C nor numpy fixes
        assert np.isnan(got)
    else:
        assert _same_bits(got, expected)


@pytest.mark.parametrize("case", ["clamping", "mms", "closures", "growing-records",
                                  "budget-on-a-snapshot"])
def test_kernel_and_numpy_runs_agree_on_clamps_and_forcing(case):
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    if case == "clamping":
        cfg = _cfg(N=64, n_floor=0.6, boundary="float", T_final=0.05, output_stride=3)
        x = np.linspace(0.0, 1.0, 65)
        args, kwargs = (cfg, D, D(x), np.zeros(65)), {"mollify": False}
    elif case in ("mms", "closures"):
        cfg = _cfg(N=64, epsilon=0.02, T_final=0.25, output_stride=5)
        n_star, J_star = solver.manufactured_solution()
        x = np.linspace(0.0, 1.0, 65)
        forcing = solver.manufactured_forcing(cfg.model(), cfg.epsilon, x[1:-1])
        if case == "closures":
            # the shape the benchmark's tracer gives manufactured_forcing's pair
            forcing = tuple(forcing)
        args = (cfg, D1, n_star(x, 0.0), J_star(x, 0.0))
        kwargs = {"forcing": forcing, "mollify": False}
    elif case == "growing-records":
        # more steps than the records hold at first: they double twice
        # mid-run, once on a snapshot step
        cfg = _cfg(N=64, epsilon=0.02, T_final=2.0, boundary="float", output_stride=64)
        x = np.linspace(0.0, 1.0, 65)
        n0 = sh.project_neutral(D(x) * (1.0 + 0.2 * np.sin(3.0 * np.pi * x)), D, 1.0 / 64)
        args, kwargs = (cfg, D, n0, 0.3 * np.sin(np.pi * x) ** 2), {"mollify": False}
    else:
        # the density of test_kernel_and_numpy_runs_blow_up_alike, whose
        # clamps exceed the budget on step 216, a snapshot step at stride 8
        cfg = _cfg(epsilon=1e-4, N=200, T_final=2.0, boundary="float", n_floor=1e-3,
                   output_stride=8)
        x = np.linspace(0.0, 1.0, 201)
        n0 = sh.project_neutral(1.0 + 0.99 * np.sin(2.0 * np.pi * x), D, 1.0 / 200)
        args, kwargs = (cfg, D, n0, np.zeros(201)), {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the mollifier's width
        kernel, numpy_step = _run_on_both_paths(*args, **kwargs)
    if case == "clamping":
        # the clamps soon exceed the budget; the partial trajectory counts them
        assert kernel[0].trajectory.clamp_counts.sum() > 0
    elif case == "growing-records":
        assert kernel[0].n_steps > 2 * solver._RECORDS
    elif case == "budget-on-a-snapshot":
        assert "budget" in str(kernel[0])
        traj = kernel[0].trajectory
        assert traj.n_steps == 216 and traj.clamp_counts[-1] > 0
        # the budget is checked before the snapshot, so that step's row is missing
        assert traj.times[-1] < traj.step_times[-1] == kernel[0].time
    _assert_same_runs(kernel, numpy_step)


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_a_run_makes_one_call_of_each_gas_function_per_step(scheme, forced, monkeypatch):
    # the benchmark's tracer counts each step's gas calls through these
    # names of the solver module
    calls = {"eigenvalues": 0, "pressure": 0}
    for name in calls:
        def counted(*args, name=name, function=getattr(solver, name)):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(solver, name, counted)
    N = 64
    x = np.linspace(0.0, 1.0, N + 1)
    cfg = _cfg(N=N, epsilon=0.02, T_final=0.3, scheme=scheme, output_stride=7)
    n_star, J_star = solver.manufactured_solution()
    forcing = solver.manufactured_forcing(cfg.model(), cfg.epsilon, x[1:-1]) if forced else None
    for path in _both_paths():
        for name in calls:
            calls[name] = 0
        traj = solver.run(cfg, D1, n_star(x, 0.0), J_star(x, 0.0), forcing=forcing,
                          mollify=False)
        assert traj.n_steps > 20
        assert calls == {"eigenvalues": traj.n_steps, "pressure": traj.n_steps}, path


def _late_inf_forcing(x):
    # on the interior nodes x: finite until t = 0.05, then infinite on the
    # right half of the grid
    def f_n(t):
        return np.where(x > 0.5, np.inf, 0.0) if t >= 0.05 else np.zeros_like(x)
    return f_n, lambda t: np.zeros_like(x)


@pytest.mark.parametrize("floor, message", [(None, "non-finite"), (0.0, "vacuum"),
                                            (1e-3, "budget")])
def test_kernel_and_numpy_runs_blow_up_alike(floor, message):
    # the density of test_on_snapshot_sees_every_recorded_row, which reaches
    # vacuum near x = 0.09 by t = 0.55
    cfg = _cfg(epsilon=1e-4, N=200, T_final=2.0, boundary="float", n_floor=floor,
               output_stride=3)
    D = sh.DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 201)
    n0 = sh.project_neutral(1.0 + 0.99 * np.sin(2.0 * np.pi * x), D, 1.0 / 200)
    forcing = _late_inf_forcing(x[1:-1]) if message == "non-finite" else None
    with pytest.warns(UserWarning, match="mollifier"):
        kernel, numpy_step = _run_on_both_paths(cfg, D, n0, np.zeros(201),
                                                forcing=forcing)
    assert isinstance(kernel[0], BlowupError) and message in str(kernel[0])
    assert kernel[0].trajectory.times.size > 3
    _assert_same_runs(kernel, numpy_step)


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
