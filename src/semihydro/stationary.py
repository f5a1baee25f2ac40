"""Steady-state solvers: the inviscid profile and the scheme's viscous one.

The inviscid (eps = 0) steady problem is the ODE system

    N' = E * N**(2 - gamma) / (p0 * gamma),    E' = N - D(x),

integrated from x = 0 with E(0) = 0 and an unknown boundary density N(0).
The far-end condition E(1) = 0 (equivalently, neutrality of the steady
profile) is a root of E(1) in N(0), which is strictly increasing on the
bracket for the profiles this package ships. It is found by bisection
until both ends of the bracket give feasible trials, then Brent's method,
then bisection of the tightest sign-change pair down to adjacent floats:
the profile has the bits the bisection alone reaches, in a fifth of the
trials.

At finite eps a run settles instead on the steady state of the discrete
viscous scheme, which carries a current J ~ eps N_x and sits O(eps) away
from the inviscid profile; solve_viscous_stationary computes it by Newton
iteration on the scheme's own residual. That residual takes its unknowns
and gives its rows node by node, so its Jacobian is banded, and is found
in _KL + _KU + 1 evaluations whatever the grid.

Both inner loops run in the package's C library when it loads (see the
_kernel module): a shooting trial is semihydro_shoot, a Newton step's
linear solve semihydro_band_solve. Without it, _integrate runs the trial
in Python and _band_solve_numpy the elimination in numpy, with the same
bits; a power that Python refuses ends a trial as divergent on both. The
module needs numpy alone: its root finder, _brentq, is a line-for-line
port of scipy's brentq, so it makes the same trials.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from math import copysign, inf, isfinite

import numpy as np

from . import _kernel
from .solver import _rhs


class InfeasibleTrial(Exception):
    """Raised by _integrate when the trial density collapses toward vacuum."""


class DivergentTrial(Exception):
    """Raised by _integrate when the trial density blows up instead of collapsing."""


class NewtonError(Exception):
    """Raised when the viscous steady Newton iteration stalls above 1e-10."""


class BracketError(Exception):
    """Raised when bisection cannot bracket or reach the residual tolerance."""

    def __init__(self, message: str, residual_lo: float | None = None,
                 residual_hi: float | None = None):
        super().__init__(message)
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


@dataclass
class StationaryProfile:
    """A steady state (N_tilde, J_tilde, E_tilde) on the grid x.

    For the inviscid profile J_tilde is zero, shoot_residual is |E(1)| and
    iterations counts shooting trials. For the viscous steady state
    shoot_residual is the max-norm Newton residual and iterations counts
    Newton steps. leak_rate is always 0.0.
    """

    x: np.ndarray
    N_tilde: np.ndarray
    E_tilde: np.ndarray
    shoot_residual: float
    iterations: int
    J_tilde: np.ndarray | None = None
    leak_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.J_tilde is None:
            self.J_tilde = np.zeros_like(self.N_tilde)


# how a trial ends: the statuses semihydro_shoot returns
_OK, _BELOW, _ABOVE, _NONFINITE = range(4)


def _abort(status: int, x: float, floor: float, cap: float) -> Exception:
    """The exception that ends a trial near x, for its status."""
    if status == _BELOW:
        return InfeasibleTrial(f"density fell below {floor} near x = {x}")
    if status == _ABOVE:
        return DivergentTrial(f"density exceeded {cap} near x = {x}")
    return DivergentTrial(f"integration diverged near x = {x}")


def _check_density(a: float, floor: float, cap: float, x: float) -> None:
    """Abort a trial whose density left [floor, cap] near x.

    NaN passes: the finiteness check at the end of the step reports it.
    """
    if a < floor:
        raise _abort(_BELOW, x, floor, cap)
    if a > cap:
        raise _abort(_ABOVE, x, floor, cap)


def _integrate(N0: float, d2: np.ndarray, m, N: int, floor: float, cap: float):
    """Classical 4th-order one-step integration on the grid.

    d2 holds D sampled at the N+1 nodes and the N midpoints (2N+1 values).
    Aborts with InfeasibleTrial when the density drops below `floor` and
    with DivergentTrial when it climbs above `cap`; solve_stationary treats
    these as negative and positive residuals respectively.  The cap abort
    has to happen before float overflow because gamma < 2 makes runaway
    trials blow up in finite x. A power that Python refuses (0 to a negative
    power, an overflow) ends the trial with DivergentTrial at its step's node;
    a negative base to a fractional power, which only a negative floor lets
    through, ends it so at the step's end node.

    The trial runs in C, semihydro_shoot, when the library loads, and in
    _integrate_python otherwise; both give the same bits, and end with the
    same exception and message.
    """
    lib = _kernel.load()
    d = np.ascontiguousarray(d2, dtype=float)
    if lib is None or d.shape != (2 * N + 1,):
        return _integrate_python(N0, d2, m, N, floor, cap)
    Nt, Et = np.empty(N + 1), np.empty(N + 1)
    at = ctypes.c_long()
    status = lib.semihydro_shoot(N, float(N0), d.ctypes.data, 1.0 / (m.p0 * m.gamma),
                                 2.0 - m.gamma, floor, cap, Nt.ctypes.data, Et.ctypes.data,
                                 ctypes.byref(at))
    if status == _OK:
        return Nt, Et
    raise _abort(status, at.value * (1.0 / N), floor, cap)


def _integrate_python(N0: float, d2: np.ndarray, m, N: int, floor: float, cap: float):
    """_integrate's trial in Python, the loop semihydro_shoot mirrors.

    The loop does its arithmetic on Python floats, which gives the same
    bits as numpy float64 scalars at a fraction of the cost per operation:
    it reads the doping as floats, in (node, midpoint, node) triples, and
    collects the profile in lists.
    """
    h = 1.0 / N
    hh = 0.5 * h
    c = 1.0 / (m.p0 * m.gamma)
    ex = 2.0 - m.gamma
    d = d2.tolist()
    y1 = float(N0)
    y2 = 0.0
    Nt = [y1]
    Et = [y2]
    for i, (d0, dm, d1) in enumerate(zip(d[0:-1:2], d[1::2], d[2::2])):
        try:
            if not floor <= y1 <= cap:
                _check_density(y1, floor, cap, i * h)
            k1a = c * y2 * y1**ex
            k1b = y1 - d0
            a = y1 + hh * k1a
            b = y2 + hh * k1b
            if not floor <= a <= cap:
                _check_density(a, floor, cap, i * h)
            k2a = c * b * a**ex
            k2b = a - dm
            a = y1 + hh * k2a
            b = y2 + hh * k2b
            if not floor <= a <= cap:
                _check_density(a, floor, cap, i * h)
            k3a = c * b * a**ex
            k3b = a - dm
            a = y1 + h * k3a
            b = y2 + h * k3b
            if not floor <= a <= cap:
                _check_density(a, floor, cap, i * h)
            k4a = c * b * a**ex
            k4b = a - d1
            y1 += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
            y2 += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
            finite = isfinite(y1) and isfinite(y2)
        except (OverflowError, ZeroDivisionError):
            # a power of a finite base that pow makes infinite, as C's trial sees it
            raise _abort(_NONFINITE, i * h, floor, cap) from None
        except TypeError:
            # a negative base (below a negative floor) to a fractional power:
            # complex here, NaN in C, where it runs on to the step's end and
            # ends the trial there as non-finite; the next comparison of the
            # complex value lands here
            finite = False
        if not finite:
            raise _abort(_NONFINITE, (i + 1) * h, floor, cap)
        Nt.append(y1)
        Et.append(y2)
    return np.array(Nt), np.array(Et)


def _signbit(v: float) -> bool:
    return copysign(1.0, v) < 0.0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f on [xa, xb] by Brent's method, as scipy's brentq computes it.

    A line-for-line port of scipy's Zeros/brentq.c: the same trials in the
    same order, the same returned root. f(xa) and f(xb) must differ in sign
    (signbit, as brentq.c tests it) unless one of them is zero; past
    maxiter the last trial is returned silently, as brentq(disp=False) does.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives an infinite or NaN step there, which the test below rejects
                stry = inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    return xcur


def solve_stationary(D, m, N: int, tol: float = 1e-10) -> StationaryProfile:
    """Root of E(1) in N(0) on the bracket [d_lo/2, 2*d_hi], to |E(1)| <= tol.

    Trials that collapse or run away count as residuals -inf and +inf.
    The bracket is bisected until both ends are feasible, then Brent's
    method (a port of scipy's brentq) closes in on the root, and a last bisection
    of the tightest sign-change pair of trials runs down to adjacent
    floats. The trial with the smallest |E(1)| is returned, so the profile
    is machine accurate whenever the residual is a smooth increasing
    function of N(0), and has the bits a bisection alone would reach;
    constant doping in particular reproduces N = D exactly. `iterations`
    counts the trials integrated.
    """
    d2 = D(np.linspace(0.0, 1.0, 2 * N + 1))
    floor = D.d_lo / 10.0
    cap = 1e6 * max(1.0, D.d_hi)
    lo, hi = D.d_lo / 2.0, 2.0 * D.d_hi
    trials = {}
    best = (inf, None)

    def residual(N0: float) -> float:
        """E(1) of the trial from N0, narrowing [lo, hi] to the sign change."""
        nonlocal lo, hi, best
        if N0 in trials:
            return trials[N0]
        try:
            sol = _integrate(N0, d2, m, N, floor, cap)
        except InfeasibleTrial:
            r = -inf
        except DivergentTrial:
            r = inf
        else:
            r = float(sol[1][-1])
            if abs(r) < best[0]:
                best = (abs(r), sol)
        trials[N0] = r
        if lo < N0 < hi:
            if r < 0.0:
                lo = N0
            else:
                hi = N0
        return r

    def bisect(until) -> None:
        while best[0] != 0.0 and not until():
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return
            residual(mid)

    def feasible() -> bool:
        return isfinite(trials[lo]) and isfinite(trials[hi])

    r_lo, r_hi = residual(lo), residual(hi)
    if not (r_lo <= 0.0 <= r_hi):
        raise BracketError(
            f"no sign change on bracket [{lo}, {hi}]: residuals ({r_lo}, {r_hi})",
            r_lo, r_hi,
        )
    bisect(feasible)
    if best[0] != 0.0 and feasible():
        # no trial inside a feasible bracket aborts (a larger N(0) gives a
        # larger N everywhere), and the bisection below keeps the result
        # exact whatever points Brent's method picks
        _brentq(residual, lo, hi, xtol=5e-324, rtol=4.0 * np.finfo(float).eps)
    bisect(lambda: False)
    res_abs, sol = best
    if sol is None or res_abs > tol:
        raise BracketError(
            f"bisection stalled at residual {res_abs:.3e} > tol {tol:.3e}",
            r_lo, r_hi,
        )
    Nt, Et = sol
    return StationaryProfile(np.linspace(0.0, 1.0, N + 1), Nt, Et, res_abs, len(trials))


def _node_fields(v):
    """n, J and E on the nodes, from the unknowns v of _viscous_residual.

    v holds (n_0, E_0), then (n_i, J_i, E_i) at each interior node, then
    (n_N, E_N); J is zero at the walls. The copy makes each field
    contiguous, as the step takes it.
    """
    return np.insert(v, (1, v.size - 1), 0.0).reshape(-1, 3).T.copy()


def _viscous_residual(v, cfg, m, d_grid, dx, E_end):
    """Steady residual of the time step under the float closure, node by node.

    The unknowns v are those of _node_fields. The rows follow them: node 0
    holds the zero density flux through the face next to x = 0, E(0) = 0
    and the trapezoid recursion from E_0 to E_1; interior node i holds the
    density equation rhs_n = 0, the current equation rhs_J = 0 and the
    recursion from E_i to E_i+1; the last row is E(1) = E_end, which fixes
    the mass. Zero flux at the face next to x = 1 follows by conservation.
    """
    n, J, E = _node_fields(v)
    rhs_n, rhs_J, (flux_lo, _) = _rhs(n, J, E, 0.0, m, cfg, dx, None)
    y = n - d_grid
    by_node = np.stack((np.concatenate(([flux_lo], rhs_n)), np.concatenate(([E[0]], rhs_J)),
                        E[1:] - E[:-1] - dx * (y[1:] + y[:-1]) / 2.0), axis=1)
    return np.append(by_node, E[-1] - E_end)


# The Jacobian's bandwidths in node order. A row depends only on unknowns
# within one node of its own, E only through the trapezoid recursion and
# through rhs_J's n E at the row's node, so no row reaches the next node's E.
_KL, _KU = 5, 3


def _banded_jacobian(F, u, f0):
    """Forward-difference Jacobian of F at u in _KL + _KU + 1 evaluations
    of F, in the band storage _band_solve takes, with bandwidths (_KL, _KU).

    Columns _KL + _KU + 1 apart share no row of a banded matrix (Curtis,
    Powell and Reid, 1974), so one evaluation perturbs every column of a
    group j = c mod (_KL + _KU + 1) at once, and row r's difference belongs
    to the one column of the group in r - _KL ... r + _KU. The differences
    outside the band are exactly zero, and are left out.
    """
    w = _KL + _KU + 1
    ab = np.zeros((u.size, 2 * _KL + _KU + 1))
    row = np.arange(u.size)
    h = 1.5e-8 * np.maximum(1.0, np.abs(u))
    for c in range(w):
        up = u.copy()
        up[c::w] += h[c::w]
        df = F(up) - f0
        j = row - _KL + (c - row + _KL) % w
        r = np.nonzero((j >= 0) & (j < u.size))[0]
        ab[j[r], _KL + _KU + r - j[r]] = df[r] / h[j[r]]
    return ab


def _band_solve(ab, kl: int, ku: int, b):
    """x with A x = b for the n x n matrix A with kl sub- and ku
    superdiagonals, given in LAPACK's band storage: ab of shape
    (n, 2 kl + ku + 1), A[i, j] at ab[j, kl + ku + i - j], the first kl
    entries of each row zero (room for the fill-in).

    Gaussian elimination with partial pivoting, by semihydro_band_solve
    when the library loads and by _band_solve_numpy otherwise, with the
    same bits. ab is overwritten with the factors. An exactly zero pivot
    (a singular A) gives NaNs.
    """
    n = np.size(b)
    if not (ab.shape == (n, 2 * kl + ku + 1) and ab.dtype == np.float64
            and ab.flags.c_contiguous and ab.flags.writeable):
        raise ValueError(f"ab must be a writeable C-contiguous float64 array of shape "
                         f"{(n, 2 * kl + ku + 1)}")
    lib = _kernel.load()
    if lib is None:
        return _band_solve_numpy(ab, kl, ku, b)
    x = np.array(b, dtype=float)
    if lib.semihydro_band_solve(n, kl, ku, ab.ctypes.data, x.ctypes.data):
        x[:] = np.nan
    return x


def _band_solve_numpy(ab, kl: int, ku: int, b):
    """_band_solve in numpy: semihydro_band_solve's operations, in its order.

    The elimination (LAPACK's dgbtf2) applies each row operation to b as
    it makes it; back substitution then runs by columns (dtbsv).
    """
    n, width = ab.shape
    kv = kl + ku
    # A[i, j] as an (n, n) view of ab's memory, exact on the band
    A = np.lib.stride_tricks.as_strided(ab.reshape(-1)[kv:], shape=(n, n),
                                        strides=(ab.itemsize, (width - 1) * ab.itemsize))
    x = np.array(b, dtype=float)
    ju = 0
    for j in range(n):
        km = min(kl, n - 1 - j)
        p = j + int(np.argmax(np.abs(A[j:j + km + 1, j])))
        if A[p, j] == 0.0:
            return np.full(n, np.nan)
        ju = max(ju, min(p + ku, n - 1))
        if p != j:
            A[[j, p], j:ju + 1] = A[[p, j], j:ju + 1]
            x[[j, p]] = x[[p, j]]
        lower = A[j + 1:j + km + 1, j]
        lower /= A[j, j]
        A[j + 1:j + km + 1, j + 1:ju + 1] -= np.outer(lower, A[j, j + 1:ju + 1])
        x[j + 1:j + km + 1] -= lower * x[j]
    for j in range(n - 1, -1, -1):
        x[j] /= A[j, j]
        lo = max(0, j - kv)
        x[lo:j] -= x[j] * A[lo:j, j]
    return x


def solve_viscous_stationary(cfg, D, mass: float) -> StationaryProfile:
    """Steady state of the explicit scheme under the float wall closure.

    Newton iteration on the steady residual of the time step (the same
    stencil run() advances) with E kept as an unknown through its
    trapezoid recursion. The unknowns and the rows of _viscous_residual
    come node by node, so its Jacobian is banded (_banded_jacobian) and
    _band_solve factors it. The mass is imposed through
    E(1) = mass - integral(D); the float walls conserve it, so one step
    from the returned state moves n and J by rounding.

    Starts from the inviscid profile and stops once a step no longer
    halves the residual; raises NewtonError if that leaves it above 1e-10.
    """
    if cfg.boundary != "float":
        raise ValueError("the viscous steady state is defined for boundary = float, "
                         f"got {cfg.boundary!r}")
    m = cfg.model()
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    dx = 1.0 / N
    d_grid = D(x)
    E_end = float(mass) - float(np.trapezoid(d_grid, dx=dx))
    guess = solve_stationary(D, m, N)

    def F(v):
        return _viscous_residual(v, cfg, m, d_grid, dx, E_end)

    v = np.delete(np.column_stack((guess.N_tilde, np.zeros(N + 1), guess.E_tilde)).ravel(),
                  (1, 3 * N + 1))
    f = F(v)
    res = float(np.max(np.abs(f)))
    iterations = 0
    while res > 0.0 and iterations < 20:
        ab = _banded_jacobian(F, v, f)
        v_new = v + _band_solve(ab, _KL, _KU, -f)
        f_new = F(v_new)
        res_new = float(np.max(np.abs(f_new)))
        iterations += 1
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        v, f, res = v_new, f_new, res_new
        if not halved:
            break
    if not res <= 1e-10:
        raise NewtonError(f"viscous steady Newton stalled at residual {res:.3e} "
                          f"> 1e-10 after {iterations} steps")
    n, J, E = _node_fields(v)
    return StationaryProfile(x, n, E, res, iterations, J_tilde=J)
