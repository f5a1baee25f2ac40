"""Steady-profile shooting, root finding and the viscous steady state."""

import dataclasses
import dis
import itertools
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

import semihydro as sh
from semihydro import _kernel, stationary
from semihydro.config import parse_config
from semihydro.solver import SolverConfig, _rhs
from semihydro.stationary import (BracketError, DivergentTrial, InfeasibleTrial,
                                  solve_stationary, solve_viscous_stationary)

SINE = sh.DopingProfile.sine(1.0, 0.5, 1.0)

# frozen from an independent adaptive-RK integration (rtol 1e-12) with
# root-finding on the boundary density; profile D = 1 + 0.5 sin(2 pi x),
# values at x = 0, 0.5, 1
ORACLE = {
    1.5: (1.219640420538, 0.993163132660, 0.783651618024),
    2.0: (1.110060059091, 1.000000000000, 0.889939940909),
    3.0: (1.035621557121, 1.000374793279, 0.963873357000),
}


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_constant_doping_is_exact(gamma):
    D = sh.DopingProfile.constant(1.3)
    prof = solve_stationary(D, sh.GasModel(gamma), 256)
    assert np.max(np.abs(prof.N_tilde - 1.3)) < 1e-14
    assert np.max(np.abs(prof.E_tilde)) < 1e-14
    assert prof.shoot_residual < 1e-14


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_sine_doping_matches_frozen_oracle(gamma):
    prof = solve_stationary(SINE, sh.GasModel(gamma), 400)
    o = ORACLE[gamma]
    assert prof.N_tilde[0] == pytest.approx(o[0], abs=1e-9)
    assert prof.N_tilde[200] == pytest.approx(o[1], abs=1e-9)
    assert prof.N_tilde[-1] == pytest.approx(o[2], abs=1e-9)
    assert prof.E_tilde[0] == 0.0
    assert abs(prof.E_tilde[-1]) < 1e-10


def test_profile_grid_and_bounds():
    prof = solve_stationary(SINE, sh.GasModel(2.0), 300)
    assert prof.x[0] == 0.0 and prof.x[-1] == 1.0
    assert prof.x.size == 301
    # steady density stays inside the doping hull
    assert np.all(prof.N_tilde >= SINE.d_lo - 1e-6)
    assert np.all(prof.N_tilde <= SINE.d_hi + 1e-6)


def _trial(N0, m, N=200):
    """One shooting trial from N(0) = N0 with solve_stationary's limits."""
    d2 = SINE(np.linspace(0.0, 1.0, 2 * N + 1))
    return stationary._integrate(N0, d2, m, N, SINE.d_lo / 10.0, 1e6 * SINE.d_hi)


def test_integrate_residual_monotone_in_boundary_density():
    m = sh.GasModel(2.0)
    res = [_trial(N0, m)[1][-1] for N0 in np.linspace(0.92, 1.6, 8)]
    assert np.all(np.diff(res) > 0.0)
    # and the residual changes sign inside the window
    assert res[0] < 0.0 < res[-1]


def test_integrate_failure_modes():
    m = sh.GasModel(1.5)
    with pytest.raises(InfeasibleTrial):
        _trial(0.06, m)
    with pytest.raises(DivergentTrial):
        _trial(5.0, m)
    with pytest.raises(InfeasibleTrial):
        _trial(-1.0, m)


def test_bracket_error_reports_residuals():
    # a profile whose advertised bounds undershoot the real values leaves
    # every bracket trial collapsing, which must surface, not loop
    class Lying:
        d_lo = 0.01
        d_hi = 0.02

        def __call__(self, x):
            return np.ones_like(np.asarray(x, dtype=float))

    with pytest.raises(BracketError) as exc:
        solve_stationary(Lying(), sh.GasModel(2.0), 100)
    assert exc.value.residual_lo == -np.inf
    assert exc.value.residual_hi == -np.inf


def test_refining_grid_converges():
    m = sh.GasModel(2.0)
    coarse = solve_stationary(SINE, m, 100)
    fine = solve_stationary(SINE, m, 800)
    # one-step integration is 4th order: N 100 -> 800 shrinks the boundary
    # value difference far below the coarse error
    assert abs(coarse.N_tilde[0] - fine.N_tilde[0]) < 1e-8
    assert abs(coarse.N_tilde[-1] - fine.N_tilde[-1]) < 1e-8


def _float_config(gamma=2.0, N=200, **kw):
    kw.setdefault("boundary", "float")
    return SolverConfig(gamma=gamma, epsilon=1e-3, N=N, T_final=1e-4, **kw)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_viscous_constant_doping_is_exact(gamma):
    cfg = _float_config(gamma, N=64)
    D = sh.DopingProfile.constant(1.0)
    mass = float(np.trapezoid(D(np.linspace(0.0, 1.0, 65)), dx=1.0 / 64))
    prof = solve_viscous_stationary(cfg, D, mass)
    assert np.all(prof.N_tilde == 1.0)
    assert np.all(prof.J_tilde == 0.0)
    assert np.all(prof.E_tilde == 0.0)
    assert prof.leak_rate == 0.0
    assert prof.shoot_residual == 0.0


def test_viscous_state_is_a_fixed_point_of_the_step():
    cfg = _float_config()
    x = np.linspace(0.0, 1.0, 201)
    prof = solve_viscous_stationary(cfg, SINE, float(np.trapezoid(SINE(x), dx=1.0 / 200)))
    assert prof.shoot_residual <= 1e-12
    # every interface density flux vanishes, the two next to the walls too
    n, J = prof.N_tilde, prof.J_tilde
    flux = 0.5 * (J[:-1] + J[1:]) - cfg.epsilon * (n[1:] - n[:-1]) / (1.0 / 200)
    assert np.max(np.abs(flux)) <= 1e-12
    # so one step moves neither n nor J
    traj = sh.run(cfg, SINE, prof.N_tilde, prof.J_tilde, mollify=False)
    assert traj.n_steps == 1
    assert np.max(np.abs(traj.n[-1] - prof.N_tilde)) <= 1e-12
    assert np.max(np.abs(traj.J[-1] - prof.J_tilde)) <= 1e-12
    # steady continuity J_x = eps n_xx with n_x = 0 at the walls gives
    # J = eps n_x up to truncation
    J_expected = cfg.epsilon * np.gradient(prof.N_tilde, 1.0 / 200)
    assert np.max(np.abs(prof.J_tilde - J_expected)) <= 0.05 * np.max(np.abs(prof.J_tilde))


def test_viscous_solver_refuses_other_closures():
    with pytest.raises(ValueError, match="float"):
        solve_viscous_stationary(_float_config(boundary="dirichlet"), SINE, 1.0)


# ---------------------------------------------------------------------------
# The viscous Newton solve: its banded Jacobian and the band LU, in C and
# in numpy, against dense and scipy references.

SCENARIO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "configs", "scenario_sine.ini")


def _scenario_viscous_inputs(gamma):
    """The shipped scenario's grid at gamma, its doping and its neutral mass."""
    with open(SCENARIO) as fh:
        cfg = dataclasses.replace(parse_config(fh.read()), gamma=gamma)
    x = np.linspace(0.0, 1.0, cfg.N + 1)
    return cfg, cfg.doping, float(np.trapezoid(cfg.doping(x), dx=1.0 / cfg.N))


def _solve_recording_systems(solve, *args):
    """solve(*args), and the (ab, b) of every Newton system it factors."""
    band_solve = stationary._band_solve
    systems = []

    def recorded(ab, kl, ku, b):
        systems.append((ab.copy(), np.array(b)))
        return band_solve(ab, kl, ku, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stationary, "_band_solve", recorded)
        return solve(*args), systems


def _dense(ab, kl, ku):
    """The n x n matrix that the band storage ab holds."""
    n = ab.shape[0]
    A = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            A[i, j] = ab[j, kl + ku + i - j]
    return A


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_band_solve_has_the_same_bits_in_c_and_numpy(gamma):
    if _kernel.load() is None:
        if sys.platform.startswith("linux"):
            pytest.fail("the C library does not load")
        pytest.skip("the C library is unavailable on this platform")
    kl, ku = stationary._KL, stationary._KU
    _, systems = _solve_recording_systems(solve_viscous_stationary,
                                          *_scenario_viscous_inputs(gamma))
    assert len(systems) == {1.5: 4, 2.0: 4, 3.0: 3}[gamma]
    for ab, b in systems:
        ab_c, ab_numpy = ab.copy(), ab.copy()
        x_c = stationary._band_solve(ab_c, kl, ku, b)
        x_numpy = stationary._band_solve_numpy(ab_numpy, kl, ku, b)
        assert x_c.tobytes() == x_numpy.tobytes()
        assert ab_c.tobytes() == ab_numpy.tobytes()
        # and it solves the system the band holds
        A = _dense(ab, kl, ku)
        assert np.max(np.abs(A @ x_c - b)) <= 1e-9 * np.max(np.abs(b))


def test_band_solve_pivots_like_dense_elimination():
    # random band matrices whose diagonal is not the largest entry, so
    # that rows swap; both paths against numpy's dense solve
    rng = np.random.default_rng(7)
    for n, kl, ku in [(1, 0, 0), (2, 1, 0), (7, 2, 1), (30, 5, 3), (40, 1, 4)]:
        ab = np.zeros((n, 2 * kl + ku + 1))
        for j in range(n):
            for i in range(max(0, j - ku), min(n, j + kl + 1)):
                ab[j, kl + ku + i - j] = rng.standard_normal() * (0.1 if i == j else 1.0)
        A = _dense(ab, kl, ku)
        b = rng.standard_normal(n)
        want = np.linalg.solve(A, b)
        got = []
        for path in _paths():
            x = stationary._band_solve(ab.copy(), kl, ku, b)
            assert np.allclose(x, want, rtol=1e-9, atol=1e-9), (path, n)
            got.append(x.tobytes())
        assert len(set(got)) == 1, n


def test_band_solve_of_a_singular_matrix_is_nan_on_both_paths():
    ab = np.zeros((3, 4))           # kl = 1, ku = 1
    ab[:, 2] = [1.0, 0.0, 1.0]      # the diagonal, with a zero column in the middle
    for path in _paths():
        assert np.all(np.isnan(stationary._band_solve(ab.copy(), 1, 1, np.ones(3)))), path
    with pytest.raises(ValueError, match="shape"):
        stationary._band_solve(np.zeros((3, 3)), 1, 1, np.ones(3))


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
def test_banded_jacobian_is_the_dense_forward_difference(scheme, monkeypatch):
    # every difference outside the band is exactly zero, and the band holds
    # the column-by-column forward differences bit for bit
    kl, ku = stationary._KL, stationary._KU
    jacobian = stationary._banded_jacobian
    checked = []

    def dense_too(F, u, f0):
        ab = jacobian(F, u, f0)
        h = 1.5e-8 * np.maximum(1.0, np.abs(u))
        for q in range(u.size):
            up = u.copy()
            up[q] += h[q]
            column = (F(up) - f0) / h[q]
            band = slice(max(0, q - ku), min(u.size, q + kl + 1))
            outside = np.ones(u.size, bool)
            outside[band] = False
            assert np.all(column[outside] == 0.0), q
            assert column[band].tobytes() == ab[q, kl + ku + np.arange(u.size)[band] - q].tobytes()
        checked.append(u.size)
        return ab

    cfg = _float_config(2.0, N=30, scheme=scheme)
    x = np.linspace(0.0, 1.0, 31)
    with monkeypatch.context() as mp:
        mp.setattr(stationary, "_banded_jacobian", dense_too)
        solve_viscous_stationary(cfg, SINE, float(np.trapezoid(SINE(x), dx=1.0 / 30)))
    assert checked and checked[0] == 91


def _banded_function(n, rng):
    """A generic smooth F on n unknowns whose row r depends on exactly the
    columns r - _KL ... r + _KU, elementwise along the last axis of u, and
    the shapes of the arguments of its calls."""
    kl, ku = stationary._KL, stationary._KU
    a = rng.standard_normal((kl + ku + 1, n))
    calls = []

    def F(u):
        calls.append(u.shape)
        lead = u.shape[:-1]
        pad = np.concatenate((np.zeros(lead + (kl,)), u, np.zeros(lead + (ku,))), axis=-1)
        f = u**3
        for k in range(kl + ku + 1):
            f = f + a[k] * np.sin(pad[..., k:k + n])
        return f
    return F, calls


@pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 23, 40])
def test_banded_jacobian_of_a_generic_band_function(n):
    # fewer unknowns than colours, and rows that the band cuts at both ends:
    # one call of F on the stack of the coloured copies of u, and the band
    # holds the column-by-column forward differences bit for bit, and every
    # other slot of the storage stays zero
    kl, ku = stationary._KL, stationary._KU
    rng = np.random.default_rng(n)
    F, calls = _banded_function(n, rng)
    u = rng.standard_normal(n) * 3.0
    f0 = F(u)
    calls.clear()
    ab = stationary._banded_jacobian(F, u, f0)
    assert calls == [(kl + ku + 1, n)]
    want = np.zeros((n, 2 * kl + ku + 1))
    h = 1.5e-8 * np.maximum(1.0, np.abs(u))
    for q in range(n):
        up = u.copy()
        up[q] += h[q]
        column = (F(up) - f0) / h[q]
        band = np.arange(max(0, q - ku), min(n, q + kl + 1))
        want[q, kl + ku + band - q] = column[band]
        assert np.all(np.delete(column, band) == 0.0), q
    assert ab.tobytes() == want.tobytes()


def _assert_rows_are_the_1d_calls(stacked, rows):
    """Each array of the result of a call on a stack equals, bit for bit,
    the stack of that array's results of the row-by-row calls."""
    for got, *want in zip(stacked, *rows):
        assert np.shape(got) == (len(rows), *np.shape(want[0]))
        assert np.asarray(got).tobytes() == np.stack(want).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 9]), st.sampled_from(["central", "rusanov"]),
       st.sampled_from([1.5, 2.0, 3.0]), st.booleans(), st.integers(16, 48), st.data())
def test_rhs_and_viscous_residual_of_a_stack_are_its_rows_calls(B, scheme, gamma, forced, N,
                                                                data):
    # the Jacobian evaluates its coloured differences in one call on a
    # (B, .) stack: each row has the bits of its own 1-D call
    cfg = _float_config(gamma, N=N, scheme=scheme)
    m = cfg.model()
    dx = 1.0 / N
    x = np.linspace(0.0, 1.0, N + 1)
    density = st.floats(0.1, 10.0)
    signed = st.floats(-10.0, 10.0)
    n = data.draw(hnp.arrays(np.float64, (B, N + 1), elements=density))
    J, E = (data.draw(hnp.arrays(np.float64, (B, N + 1), elements=signed)) for _ in "JE")
    forcing = sh.manufactured_forcing(m, cfg.epsilon, x[1:-1]) if forced else None
    rows = [_rhs(n[b], J[b], E[b], 0.25, m, cfg, dx, forcing) for b in range(B)]
    rhs_n, rhs_J, flux = _rhs(n, J, E, 0.25, m, cfg, dx, forcing)
    _assert_rows_are_the_1d_calls((rhs_n, rhs_J, *flux),
                                  [(r_n, r_J, *f) for r_n, r_J, f in rows])

    M = 3 * N + 1
    v = data.draw(hnp.arrays(np.float64, (B, M), elements=signed))
    v[:, 0] = n[:, 0]
    v[:, 2:-2:3] = n[:, 1:-1]
    v[:, -2] = n[:, -1]
    args = (cfg, m, SINE(x), dx, -0.125)
    want = [(stationary._viscous_residual(v[b], *args),) for b in range(B)]
    _assert_rows_are_the_1d_calls((stationary._viscous_residual(v, *args),), want)


def _spsolve_band(ab, kl, ku, b):
    return spsolve(csc_matrix(_dense(ab, kl, ku)), b)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_viscous_newton_matches_an_spsolve_reference(gamma, monkeypatch):
    inputs = _scenario_viscous_inputs(gamma)
    with monkeypatch.context() as mp:
        mp.setattr(stationary, "_band_solve", _spsolve_band)
        want = solve_viscous_stationary(*inputs)
    runs = []
    for path in _paths():
        got = solve_viscous_stationary(*inputs)
        for field in ("N_tilde", "J_tilde", "E_tilde"):
            gap = np.max(np.abs(getattr(got, field) - getattr(want, field)))
            assert gap <= 1e-13, (path, field, gap)
        assert got.iterations == want.iterations == {1.5: 4, 2.0: 4, 3.0: 3}[gamma]
        assert got.shoot_residual <= 1e-13
        runs.append((got.N_tilde.tobytes(), got.J_tilde.tobytes(), got.E_tilde.tobytes(),
                     got.shoot_residual))
    # the same bytes with the library and without it
    assert len(set(runs)) == 1


# ---------------------------------------------------------------------------
# Bit identity of the shooting solve against plain reference copies of the
# RK4 integration on numpy scalars and of the bisection to adjacent floats.

def _plain_integrate(N0, d2, m, N, floor, cap):
    h = 1.0 / N
    c = 1.0 / (m.p0 * m.gamma)
    ex = 2.0 - m.gamma
    Nt = np.empty(N + 1)
    Et = np.empty(N + 1)
    y1 = float(N0)
    y2 = 0.0
    Nt[0] = y1
    Et[0] = y2
    for i in range(N):
        d0 = d2[2 * i]
        dm = d2[2 * i + 1]
        d1 = d2[2 * i + 2]
        if y1 < floor:
            raise InfeasibleTrial(f"density fell below {floor} near x = {i * h}")
        if y1 > cap:
            raise DivergentTrial(f"density exceeded {cap} near x = {i * h}")
        k1a = c * y2 * y1**ex
        k1b = y1 - d0
        a = y1 + 0.5 * h * k1a
        b = y2 + 0.5 * h * k1b
        if a < floor:
            raise InfeasibleTrial(f"density fell below {floor} near x = {i * h}")
        if a > cap:
            raise DivergentTrial(f"density exceeded {cap} near x = {i * h}")
        k2a = c * b * a**ex
        k2b = a - dm
        a = y1 + 0.5 * h * k2a
        b = y2 + 0.5 * h * k2b
        if a < floor:
            raise InfeasibleTrial(f"density fell below {floor} near x = {i * h}")
        if a > cap:
            raise DivergentTrial(f"density exceeded {cap} near x = {i * h}")
        k3a = c * b * a**ex
        k3b = a - dm
        a = y1 + h * k3a
        b = y2 + h * k3b
        if a < floor:
            raise InfeasibleTrial(f"density fell below {floor} near x = {i * h}")
        if a > cap:
            raise DivergentTrial(f"density exceeded {cap} near x = {i * h}")
        k4a = c * b * a**ex
        k4b = a - d1
        y1 += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        y2 += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        if not (np.isfinite(y1) and np.isfinite(y2)):
            raise DivergentTrial(f"integration diverged near x = {(i + 1) * h}")
        Nt[i + 1] = y1
        Et[i + 1] = y2
    return Nt, Et


def _plain_solve(D, m, N, integrate, tol=1e-10):
    d2 = D(np.linspace(0.0, 1.0, 2 * N + 1))
    floor = D.d_lo / 10.0
    cap = 1e6 * max(1.0, D.d_hi)

    def residual(N0):
        try:
            Nt, Et = integrate(N0, d2, m, N, floor, cap)
        except InfeasibleTrial:
            return -np.inf, None
        except DivergentTrial:
            return np.inf, None
        return float(Et[-1]), (Nt, Et)

    lo, hi = D.d_lo / 2.0, 2.0 * D.d_hi
    r_lo, _ = residual(lo)
    r_hi, sol_hi = residual(hi)
    assert r_lo <= 0.0 <= r_hi
    best = (abs(r_hi), hi, sol_hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        r, sol = residual(mid)
        if sol is not None and abs(r) < best[0]:
            best = (abs(r), mid, sol)
        if r == 0.0:
            break
        if r < 0.0:
            lo = mid
        else:
            hi = mid
    res_abs, _, sol = best
    assert sol is not None and res_abs <= tol
    return sol[0], sol[1], res_abs


def _outcome(integrate, *args):
    try:
        Nt, Et = integrate(*args)
    except (InfeasibleTrial, DivergentTrial) as exc:
        return type(exc), str(exc)
    return Nt.tobytes(), Et.tobytes()


def _paths():
    """The ways the steady solvers' inner loops run: "kernel", in the C
    library (when it builds here), and "python", with _kernel.load patched
    to give no library. Yields each path's name inside its patch."""
    if _kernel.load() is not None:
        yield "kernel"
    elif sys.platform.startswith("linux"):
        pytest.fail("the C library does not load")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        yield "python"


def test_integrate_matches_plain_reference():
    for path in _paths():
        outcomes = set()
        for gamma, N in itertools.product([1.2, 1.5, 2.0, 2.5, 3.0], [100, 400, 2048]):
            m = sh.GasModel(gamma)
            d2 = SINE(np.linspace(0.0, 1.0, 2 * N + 1))
            floor, cap = SINE.d_lo / 10.0, 1e6 * SINE.d_hi
            # from collapse through the root to runaway, plus a negative, a
            # NaN and an inf start
            for N0 in [0.06, 0.3, 0.7, 1.0, 1.1, 1.2, 2.0, 5.0, 1e7, -1.0, np.nan, np.inf]:
                args = (N0, d2, m, N, floor, cap)
                got = _outcome(stationary._integrate, *args)
                assert got == _outcome(_plain_integrate, *args), (path, gamma, N, N0)
                outcomes.add(got[0] if isinstance(got[0], type) else "ok")
        assert outcomes == {"ok", InfeasibleTrial, DivergentTrial}, path


def test_integrate_aborts_name_the_node_on_both_paths():
    m = sh.GasModel(1.5)
    d2 = SINE(np.linspace(0.0, 1.0, 401))
    want = [
        # below the floor at the start, and at the first node
        ((-1.0, 0.05, 1.5e6), InfeasibleTrial, "density fell below 0.05 near x = 0.0"),
        # a cap that the doping-matched start already exceeds
        ((1.0, 0.05, 0.5), DivergentTrial, "density exceeded 0.5 near x = 0.0"),
        ((5.0, 0.05, 1.5e6), DivergentTrial, None),
        ((0.06, 0.05, 1.5e6), InfeasibleTrial, None),
        ((np.nan, 0.05, 1.5e6), DivergentTrial, "integration diverged near x = 0.005"),
    ]
    seen = {}
    for path in _paths():
        for (N0, floor, cap), kind, message in want:
            with pytest.raises(kind) as exc:
                stationary._integrate(N0, d2, m, 200, floor, cap)
            if message is not None:
                assert str(exc.value) == message, path
            seen.setdefault((N0, floor, cap), set()).add(str(exc.value))
    # each abort has one message, x included, whichever path ran
    assert all(len(messages) == 1 for messages in seen.values()), seen


def test_a_power_python_refuses_diverges_on_both_paths():
    # a zero or subnormal density to the power 2 - gamma = -1, which
    # float.__pow__ refuses and libm's pow makes infinite: the trial
    # diverges at its step's start node; an infinite start runs on to the
    # end-of-step check, whatever the power
    d2 = SINE(np.linspace(0.0, 1.0, 401))
    want = [(3.0, 0.0, 1.5e6, "integration diverged near x = 0.0"),
            (3.0, 1e-310, 1.5e6, "integration diverged near x = 0.0"),
            (3.0, np.inf, np.inf, "integration diverged near x = 0.005"),
            (1.5, np.inf, np.inf, "integration diverged near x = 0.005")]
    for path in _paths():
        for gamma, N0, cap, message in want:
            with pytest.raises(DivergentTrial) as exc:
                stationary._integrate(N0, d2, sh.GasModel(gamma), 200, 0.0, cap)
            assert str(exc.value) == message, (path, gamma, N0)
        # so a doping that small leaves no sign change to bracket
        with pytest.raises(BracketError, match=r"residuals \(inf, inf\)"):
            solve_stationary(sh.DopingProfile.constant(1e-320), sh.GasModel(3.0), 64)


def test_a_negative_base_below_a_negative_floor_diverges_on_both_paths():
    # (-0.5)**0.5 is complex in Python and NaN in C, which runs on to the
    # end-of-step check: the trial diverges at the step's end node
    d2 = SINE(np.linspace(0.0, 1.0, 401))
    outcomes = {}
    for path in _paths():
        with pytest.raises(DivergentTrial) as exc:
            stationary._integrate(-0.5, d2, sh.GasModel(1.5), 200, -1.0, 1e6)
        assert str(exc.value) == "integration diverged near x = 0.005", path
        # starts above zero that the field drives below it, at later nodes
        # and in any of the four stages
        for gamma, N0 in itertools.product((1.2, 1.5, 2.5), (0.02, 0.1, 0.3)):
            args = (N0, d2, sh.GasModel(gamma), 200, -1.0, 1e6)
            outcomes.setdefault((gamma, N0), []).append(_outcome(stationary._integrate, *args))
    for key, (first, *rest) in outcomes.items():
        assert first[0] is DivergentTrial and first[1] != "integration diverged near x = 0.005"
        assert all(other == first for other in rest), key


@pytest.mark.parametrize("spec", ["sine:1:0.5:1", "sine:1:0.9:3", "constant:1.3"])
def test_solve_stationary_has_the_same_bytes_on_both_paths(spec):
    D = sh.DopingProfile.from_spec(spec)
    runs = {}
    for path in _paths():
        for gamma, N in itertools.product([1.2, 1.5, 2.0, 3.0], [64, 400, 4096]):
            prof = solve_stationary(D, sh.GasModel(gamma), N)
            runs.setdefault((gamma, N), []).append(
                (prof.N_tilde.tobytes(), prof.E_tilde.tobytes(), prof.shoot_residual,
                 prof.iterations))
    assert all(len(r) == 2 and r[0] == r[1] for r in runs.values())


@pytest.mark.parametrize("spec", ["sine:1:0.5:1", "constant:1.3", "constant:1",
                                  "sine:1:0.3:2"])
@pytest.mark.parametrize("gamma", [1.5, 2.0, 2.5, 3.0])
def test_solve_matches_plain_bisection(spec, gamma, monkeypatch):
    D = sh.DopingProfile.from_spec(spec)
    m = sh.GasModel(gamma)
    integrate = stationary._integrate
    calls = []

    def counted(*args):
        calls.append(args[0])
        return integrate(*args)

    for N in [50, 100, 200, 256, 400, 800]:
        # the plain bisection runs the package's integration, which the test
        # above holds to the plain one
        Nt, Et, res = _plain_solve(D, m, N, integrate)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(stationary, "_integrate", counted)
            prof = solve_stationary(D, m, N)
        assert prof.N_tilde.tobytes() == Nt.tobytes(), N
        assert prof.E_tilde.tobytes() == Et.tobytes(), N
        assert prof.shoot_residual == res, N
        assert prof.iterations == len(calls) <= 20, N


def test_solve_matches_plain_reference_end_to_end():
    m = sh.GasModel(2.0)
    Nt, Et, res = _plain_solve(SINE, m, 400, _plain_integrate)
    prof = solve_stationary(SINE, m, 400)
    assert (prof.N_tilde.tobytes(), prof.E_tilde.tobytes(), prof.shoot_residual) == (
        Nt.tobytes(), Et.tobytes(), res)


# ---------------------------------------------------------------------------
# The Brent root finder is a port of scipy's brentq: the same trials in the
# same order and the same root, so solve_stationary makes the trials (and
# writes the trial count) it made when it called scipy.

# brentq's default (xtol, rtol) and solve_stationary's
_TOLERANCES = [(2e-12, 4.0 * np.finfo(float).eps), (5e-324, 4.0 * np.finfo(float).eps)]
_BRENT_CASES = {
    "f(a) = 0": (lambda x: x - 1.0, 1.0, 2.0),
    "f(b) = 0": (lambda x: x - 1.0, 0.0, 1.0),
    "root at -0.0": (lambda x: x, -0.0, 1.0),
    "linear": (lambda x: x, -1.0, 3.0),
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    # f(a) * f(b) underflows to zero: only a signbit test sees the sign
    # change, here and in "tiny, no sign change" below
    "tiny linear": (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
    # the extrapolation's denominator underflows to zero, so the step bisects
    "tiny cubic": (lambda x: 1e-200 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0),
    "exp": (lambda x: math.exp(x) - 2.0, -5.0, 10.0),
    "atan": (lambda x: math.atan(x - 0.7), -10.0, 30.0),
    # a triple root: maxiter runs out
    "flat": (lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0),
    "step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
    "no sign change": (lambda x: x * x + 1.0, -1.0, 1.0),
    "tiny, no sign change": (lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0),
}


def _brent_trace(solver, f, a, b, xtol, rtol):
    """The points solver evaluates f at, and its root (or the error's type)."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        root = solver(g, a, b, xtol, rtol)
    except ValueError as exc:
        return xs, type(exc)
    return xs, (root, math.copysign(1.0, root))


def _scipy_brentq(f, xa, xb, xtol, rtol, maxiter=100):
    return brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter, disp=False)


def test_brentq_port_makes_scipys_trials():
    code = stationary._brentq.__code__
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None

        def lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return lines
        return lines

    for (name, (f, a, b)), (xtol, rtol) in itertools.product(_BRENT_CASES.items(), _TOLERANCES):
        want = _brent_trace(_scipy_brentq, f, a, b, xtol, rtol)
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            got = _brent_trace(stationary._brentq, f, a, b, xtol, rtol)
        finally:
            sys.settrace(previous)
        assert got == want, name
    # the cases run every line: interpolation, extrapolation, the minimum
    # step, bisection, maxiter and the division that underflows
    body = {line for _, line in dis.findlinestarts(code)} - {code.co_firstlineno, None}
    assert body <= ran, sorted(body - ran)


@pytest.mark.parametrize("spec", ["sine:1:0.5:1", "sine:1:0.9:3", "sine:2:1.5:0.3",
                                  "constant:1", "sine:1:0.2:2.5"])
def test_solve_with_the_port_is_solve_with_scipy_brentq(spec, monkeypatch):
    D = sh.DopingProfile.from_spec(spec)
    integrate = stationary._integrate
    for gamma, N in itertools.product([1.2, 1.5, 2.0, 2.5, 3.0], [64, 400, 2048]):
        m = sh.GasModel(gamma)
        runs = []
        for brent in (stationary._brentq, _scipy_brentq):
            trials = []

            def counted(*args):
                trials.append(args[0])
                return integrate(*args)

            with monkeypatch.context() as mp:
                mp.setattr(stationary, "_integrate", counted)
                mp.setattr(stationary, "_brentq", brent)
                prof = solve_stationary(D, m, N)
            runs.append((prof.N_tilde.tobytes(), prof.E_tilde.tobytes(),
                         prof.shoot_residual, prof.iterations, trials))
        assert runs[0] == runs[1], (gamma, N)
        assert runs[0][3] == len(runs[0][4])


# ---------------------------------------------------------------------------
# Bit identity of the viscous Newton solve against a plain copy of the
# design it replaces: the residual in field order, its rows and unknowns
# permuted into node order by index arrays, and a Jacobian coloured by
# field and node mod 3 through a node map.

def _plain_viscous_residual(u, cfg, m, d_grid, dx, E_end):
    N = cfg.N
    n = u[:N + 1]
    J = np.concatenate(([0.0], u[N + 1:2 * N], [0.0]))
    E = u[2 * N:]
    rhs_n, rhs_J, (flux_lo, _) = _rhs(n, J, E, 0.0, m, cfg, dx, None)
    y = n - d_grid
    return np.concatenate((
        [flux_lo], rhs_n, rhs_J,
        [E[0]], E[1:] - E[:-1] - dx * (y[1:] + y[:-1]) / 2.0, [E[-1] - E_end],
    ))


def _plain_colored_jacobian(F, u, f0, row_node, col_node, col_field):
    kl, ku = stationary._KL, stationary._KU
    n_nodes = int(col_node.max()) + 1
    ab = np.zeros((u.size, 2 * kl + ku + 1))
    row = np.arange(u.size)
    h_all = 1.5e-8 * np.maximum(1.0, np.abs(u))
    for field in range(3):
        for color in range(3):
            group = np.nonzero((col_field == field) & (col_node % 3 == color))[0]
            up = u.copy()
            up[group] += h_all[group]
            df = F(up) - f0
            col_at = np.full(n_nodes + 1, -1)
            col_at[col_node[group]] = group
            j_node = row_node - 1 + (color - row_node + 1) % 3
            j = col_at[np.where(j_node < 0, n_nodes, j_node)]
            r = np.nonzero((j >= 0) & (row - j <= kl) & (j - row <= ku))[0]
            ab[j[r], kl + ku + r - j[r]] = df[r] / h_all[j[r]]
    return ab


def _plain_viscous_solve(cfg, D, mass):
    m = cfg.model()
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    dx = 1.0 / N
    d_grid = D(x)
    E_end = float(mass) - float(np.trapezoid(d_grid, dx=dx))
    guess = solve_stationary(D, m, N)
    nodes = np.arange(N + 1)
    interior = nodes[1:-1]
    row_node = np.concatenate(([0], interior, interior, [0], nodes[:-1], [N]))
    col_node = np.concatenate((nodes, interior, nodes))
    col_field = np.concatenate((np.zeros(N + 1, int), np.ones(N - 1, int), np.full(N + 1, 2)))
    rows = np.argsort(row_node, kind="stable")
    cols = np.lexsort((col_field, col_node))

    def unpack(v):
        u = np.empty_like(v)
        u[cols] = v
        return u

    def F(v):
        return _plain_viscous_residual(unpack(v), cfg, m, d_grid, dx, E_end)[rows]

    v = np.concatenate((guess.N_tilde, np.zeros(N - 1), guess.E_tilde))[cols]
    f = F(v)
    res = float(np.max(np.abs(f)))
    iterations = 0
    while res > 0.0 and iterations < 20:
        ab = _plain_colored_jacobian(F, v, f, row_node[rows], col_node[cols], col_field[cols])
        v_new = v + stationary._band_solve(ab, stationary._KL, stationary._KU, -f)
        f_new = F(v_new)
        res_new = float(np.max(np.abs(f_new)))
        iterations += 1
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        v, f, res = v_new, f_new, res_new
        if not halved:
            break
    u = unpack(v)
    J = np.concatenate(([0.0], u[N + 1:2 * N], [0.0]))
    return stationary.StationaryProfile(x, u[:N + 1].copy(), u[2 * N:].copy(), res,
                                        iterations, J_tilde=J)


def _viscous_bytes(prof, systems):
    return (prof.N_tilde.tobytes(), prof.J_tilde.tobytes(), prof.E_tilde.tobytes(),
            prof.shoot_residual, prof.iterations,
            [(ab.tobytes(), b.tobytes()) for ab, b in systems])


def _assert_viscous_matches_plain(scheme, gamma, N):
    cfg, D, _ = _scenario_viscous_inputs(gamma)
    cfg = dataclasses.replace(cfg, scheme=scheme, N=N)
    mass = float(np.trapezoid(D(np.linspace(0.0, 1.0, N + 1)), dx=1.0 / N))
    for path in _paths():
        want = _viscous_bytes(*_solve_recording_systems(_plain_viscous_solve, cfg, D, mass))
        got = _viscous_bytes(*_solve_recording_systems(solve_viscous_stationary, cfg, D, mass))
        assert got == want, (path, N)


@pytest.mark.parametrize("scheme", ["central", "rusanov"])
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_viscous_solve_matches_the_permuted_layout_it_replaces(scheme, gamma):
    for N in [30, 101, 400]:
        _assert_viscous_matches_plain(scheme, gamma, N)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["central", "rusanov"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.integers(16, 64))
def test_viscous_solve_matches_the_permuted_layout_on_drawn_grids(scheme, gamma, N):
    # colours now follow the index mod 9, not the node mod 3, so grids of
    # every size modulo 9 and 3 meet both walls in another colour
    _assert_viscous_matches_plain(scheme, gamma, N)
