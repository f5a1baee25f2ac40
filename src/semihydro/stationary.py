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
iteration on the scheme's own residual.

The inviscid solve runs on numpy alone: its root finder, _brentq, is a
line-for-line port of scipy's brentq, so it makes the same trials. scipy
is imported only by the viscous Newton solve and its Jacobian builder,
which use scipy.sparse, at the top of those functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, inf, isfinite

import numpy as np

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


def _check_density(a: float, floor: float, cap: float, x: float) -> None:
    """Abort a trial whose density left [floor, cap] near x.

    NaN passes: the finiteness check at the end of the step reports it.
    """
    if a < floor:
        raise InfeasibleTrial(f"density fell below {floor} near x = {x}")
    if a > cap:
        raise DivergentTrial(f"density exceeded {cap} near x = {x}")


def _integrate(N0: float, d2: np.ndarray, m, N: int, floor: float, cap: float):
    """Classical 4th-order one-step integration on the grid.

    d2 holds D sampled at the N+1 nodes and the N midpoints (2N+1 values).
    Aborts with InfeasibleTrial when the density drops below `floor` and
    with DivergentTrial when it climbs above `cap`; solve_stationary treats
    these as negative and positive residuals respectively.  The cap abort
    has to happen before float overflow because gamma < 2 makes runaway
    trials blow up in finite x.

    The loop does its arithmetic on Python floats, which gives the same
    bits as numpy float64 scalars at a fraction of the cost per operation.
    """
    h = 1.0 / N
    hh = 0.5 * h
    c = 1.0 / (m.p0 * m.gamma)
    ex = 2.0 - m.gamma
    d = d2.item
    Nt = np.empty(N + 1)
    Et = np.empty(N + 1)
    y1 = float(N0)
    y2 = 0.0
    Nt[0] = y1
    Et[0] = y2
    d1 = d(0)
    for i in range(N):
        d0 = d1
        dm = d(2 * i + 1)
        d1 = d(2 * i + 2)
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
        if not (isfinite(y1) and isfinite(y2)):
            raise DivergentTrial(f"integration diverged near x = {(i + 1) * h}")
        Nt[i + 1] = y1
        Et[i + 1] = y2
    return Nt, Et


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


def _viscous_residual(u, cfg, m, d_grid, x, dx, E_end):
    """Steady residual of the time step under the float closure.

    u packs n (N+1 nodes), the interior J (N-1) and E (N+1). Rows: zero
    density flux through the face next to x = 0, the density equation
    rhs_n = 0 and the current equation rhs_J = J at the interior nodes,
    E(0) = 0, the trapezoid recursion for E, and E(1) = E_end, which fixes
    the mass. Zero flux at the face next to x = 1 follows by conservation.
    """
    N = cfg.N
    n = u[:N + 1]
    J = np.concatenate(([0.0], u[N + 1:2 * N], [0.0]))
    E = u[2 * N:]
    rhs_n, rhs_J, (flux_lo, _) = _rhs(n, J, E, 0.0, m, cfg, x, dx, None)
    y = n - d_grid
    return np.concatenate((
        [flux_lo], rhs_n, rhs_J - J[1:-1],
        [E[0]], E[1:] - E[:-1] - dx * (y[1:] + y[:-1]) / 2.0, [E[-1] - E_end],
    ))


def _colored_jacobian(F, u, f0, row_node, col_node, col_field):
    """Forward-difference Jacobian of F at u in nine evaluations of F.

    Every row of F depends only on unknowns within one node of its own
    row_node. Perturbing one field at every third node at once therefore
    moves each row through a single column.
    """
    from scipy.sparse import csc_matrix

    n_nodes = int(col_node.max()) + 1
    h_all = 1.5e-8 * np.maximum(1.0, np.abs(u))
    rows, cols, vals = [], [], []
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
            r = np.nonzero(j >= 0)[0]
            rows.append(r)
            cols.append(j[r])
            vals.append(df[r] / h_all[j[r]])
    return csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(u.size, u.size))


def solve_viscous_stationary(cfg, D, mass: float) -> StationaryProfile:
    """Steady state of the explicit scheme under the float wall closure.

    Newton iteration on the steady residual of the time step (the same
    stencil run() advances) with E kept as an unknown through its
    trapezoid recursion, so the Jacobian stays sparse. The mass is
    imposed through E(1) = mass - integral(D); the float walls conserve
    it, so one step from the returned state moves n and J by rounding.

    Starts from the inviscid profile and stops once a step no longer
    halves the residual; raises NewtonError if that leaves it above 1e-10.
    """
    from scipy.sparse.linalg import spsolve

    if cfg.boundary != "float":
        raise ValueError("the viscous steady state is defined for boundary = float, "
                         f"got {cfg.boundary!r}")
    if cfg.relaxation != "explicit":
        raise ValueError("the fixed point of the exp relaxation step depends on dt; "
                         "use relaxation = explicit")
    m = cfg.model()
    N = cfg.N
    x = np.linspace(0.0, 1.0, N + 1)
    dx = 1.0 / N
    d_grid = D(x)
    E_end = float(mass) - float(np.trapezoid(d_grid, dx=dx))
    guess = solve_stationary(D, m, N)

    def F(u):
        return _viscous_residual(u, cfg, m, d_grid, x, dx, E_end)

    nodes = np.arange(N + 1)
    interior = nodes[1:-1]
    row_node = np.concatenate(([0], interior, interior, [0], nodes[:-1], [N]))
    col_node = np.concatenate((nodes, interior, nodes))
    col_field = np.concatenate((np.zeros(N + 1, int), np.ones(N - 1, int),
                                np.full(N + 1, 2)))

    u = np.concatenate((guess.N_tilde, np.zeros(N - 1), guess.E_tilde))
    f = F(u)
    res = float(np.max(np.abs(f)))
    iterations = 0
    while res > 0.0 and iterations < 20:
        jac = _colored_jacobian(F, u, f, row_node, col_node, col_field)
        u_new = u + spsolve(jac, -f)
        f_new = F(u_new)
        res_new = float(np.max(np.abs(f_new)))
        iterations += 1
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        u, f, res = u_new, f_new, res_new
        if not halved:
            break
    if not res <= 1e-10:
        raise NewtonError(f"viscous steady Newton stalled at residual {res:.3e} "
                          f"> 1e-10 after {iterations} steps")
    J = np.concatenate(([0.0], u[N + 1:2 * N], [0.0]))
    return StationaryProfile(x, u[:N + 1].copy(), u[2 * N:].copy(), res,
                             iterations, J_tilde=J)
