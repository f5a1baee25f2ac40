"""Steady-profile shooting, root finding and the viscous steady state."""

import dis
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import semihydro as sh
from semihydro import stationary
from semihydro.solver import SolverConfig
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
    with pytest.raises(ValueError, match="explicit"):
        solve_viscous_stationary(_float_config(relaxation="exp"), SINE, 1.0)


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


def test_integrate_matches_plain_reference():
    outcomes = set()
    for gamma, N in itertools.product([1.5, 2.0, 3.0], [100, 400, 2048]):
        m = sh.GasModel(gamma)
        d2 = SINE(np.linspace(0.0, 1.0, 2 * N + 1))
        floor, cap = SINE.d_lo / 10.0, 1e6 * SINE.d_hi
        # from collapse through the root to runaway, plus a NaN and an inf start
        for N0 in [0.06, 0.3, 0.7, 1.0, 1.1, 1.2, 2.0, 5.0, 1e7, np.nan, np.inf]:
            args = (N0, d2, m, N, floor, cap)
            got = _outcome(stationary._integrate, *args)
            assert got == _outcome(_plain_integrate, *args), (gamma, N, N0)
            outcomes.add(got[0] if isinstance(got[0], type) else "ok")
    assert outcomes == {"ok", InfeasibleTrial, DivergentTrial}


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
