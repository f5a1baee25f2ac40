"""Gamma-law gas relations for the one-dimensional carrier fluid.

The state is (n, J): number density and current density. The pressure law
is p(n) = p0 * n**gamma with p0 tied to gamma so that the characteristic
fields take a particularly clean form in the Riemann invariants

    w = J/n + n**theta,    z = J/n - n**theta,    theta = (gamma - 1) / 2.

Everything in this module is a pure function of the state and a GasModel;
all operations broadcast over numpy arrays. Only the kernel entropy pair
(kernel_mass, kernel_second_moment, weak_entropy_pair) needs scipy.special,
and imports it inside those functions, so importing this module loads
numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class GasModel:
    """Thermodynamic constants for the pressure law p(n) = p0 * n**gamma.

    Only gamma is free. theta, p0 and lam are fixed functions of gamma and
    are filled in automatically:

        theta = (gamma - 1) / 2
        p0    = theta**2 / gamma
        lam   = (3 - gamma) / (2 * (gamma - 1))

    Valid range is 1 < gamma <= 3, which keeps 0 < theta <= 1 and lam >= 0.
    """

    gamma: float
    theta: float = field(init=False)
    p0: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self) -> None:
        if not 1.0 < self.gamma <= 3.0:
            raise ValueError(f"gamma must satisfy 1 < gamma <= 3, got {self.gamma}")
        object.__setattr__(self, "theta", (self.gamma - 1.0) / 2.0)
        object.__setattr__(self, "p0", self.theta**2 / self.gamma)
        object.__setattr__(self, "lam", (3.0 - self.gamma) / (2.0 * (self.gamma - 1.0)))


class FluidPoint(NamedTuple):
    n: float | np.ndarray
    J: float | np.ndarray


class RiemannPair(NamedTuple):
    w: float | np.ndarray
    z: float | np.ndarray


class EntropyPairValue(NamedTuple):
    """An entropy density eta, its flux q, and the partial derivative
    d(eta)/dJ needed by the weak entropy inequality."""

    eta: float | np.ndarray
    q: float | np.ndarray
    eta_J: float | np.ndarray


def _least(n):
    """The least value of the float array n, NaN skipped; inf if there is
    none. So _least(n) <= 0.0 exactly when (n <= 0.0).any(), and likewise
    for < 0.0, in one reduction and without a boolean array."""
    return np.fmin.reduce(n, axis=None, initial=np.inf)


def _check_positive(n, what: str = "density"):
    n = np.asarray(n, dtype=float)
    least = _least(n)
    if least <= 0.0:
        raise ValueError(f"vacuum or negative {what}: min = {least}")
    return n


def pressure(m: GasModel, n):
    """p(n) = p0 * n**gamma. Rejects negative density."""
    n = np.asarray(n, dtype=float)
    least = _least(n)
    if least < 0.0:
        raise ValueError(f"negative density: min = {least}")
    return m.p0 * n**m.gamma


def pressure_derivative(m: GasModel, n):
    """p'(n) = p0 * gamma * n**(gamma-1); strictly increasing for n > 0."""
    n = np.asarray(n, dtype=float)
    least = _least(n)
    if least < 0.0:
        raise ValueError(f"negative density: min = {least}")
    return m.p0 * m.gamma * n ** (m.gamma - 1.0)


def _speeds(m: GasModel, n, J):
    """eigenvalues without its positivity check, for a float array n."""
    J = np.asarray(J, dtype=float)
    u = J / n
    c = m.theta * n**m.theta
    return u - c, u + c


def eigenvalues(m: GasModel, n, J):
    """Characteristic speeds (lam1, lam2) = J/n -+ theta * n**theta."""
    return _speeds(m, _check_positive(n), J)


def to_invariants(m: GasModel, n, J) -> RiemannPair:
    """Riemann invariants w = J/n + n**theta, z = J/n - n**theta."""
    n = _check_positive(n)
    J = np.asarray(J, dtype=float)
    u = J / n
    s = n**m.theta
    return RiemannPair(u + s, u - s)


def from_invariants(m: GasModel, w, z) -> FluidPoint:
    """Invert the Riemann-invariant map.

    n = ((w - z) / 2)**(1/theta), J = n * (w + z) / 2. The degenerate case
    w == z maps to the vacuum point (0, 0).
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if (w < z).any():
        raise ValueError("invalid invariant pair: w < z")
    n = ((w - z) / 2.0) ** (1.0 / m.theta)
    return FluidPoint(n, n * (w + z) / 2.0)


def mechanical_energy(m: GasModel, n, J) -> EntropyPairValue:
    """The mechanical-energy entropy pair.

        eta = J**2/(2n) + p0 * n**gamma / (gamma - 1)
        q   = J**3/(2n**2) + p0 * gamma / (gamma - 1) * n**(gamma-1) * J

    The n**(gamma-1)*J coefficient in q carries a factor gamma: it is forced
    by the compatibility relation grad(q) = grad(eta) . grad(F), which the
    finite-difference property test checks at 1e-6 relative tolerance.
    Vacuum cells are admitted only with J = 0 and contribute (0, 0, 0).
    """
    n = np.asarray(n, dtype=float)
    J = np.asarray(J, dtype=float)
    least = _least(n)
    if least < 0.0:
        raise ValueError(f"negative density: min = {least}")
    vac = n == 0.0
    if np.any(vac & (np.asarray(J) != 0.0)):
        raise ValueError("vacuum state with nonzero current")
    n_safe = np.where(vac, 1.0, n)
    eta = J**2 / (2.0 * n_safe) + m.p0 * n**m.gamma / (m.gamma - 1.0)
    q = J**3 / (2.0 * n_safe**2) + (m.p0 * m.gamma / (m.gamma - 1.0)) * n ** (m.gamma - 1.0) * J
    eta_J = J / n_safe
    if np.any(vac):
        eta = np.where(vac, 0.0, eta)
        q = np.where(vac, 0.0, q)
        eta_J = np.where(vac, 0.0, eta_J)
    return EntropyPairValue(eta, q, eta_J)


def kernel_mass(m: GasModel) -> float:
    """Integral of (1 - s**2)**lam over [-1, 1], in closed form."""
    from scipy.special import beta

    return float(beta(0.5, m.lam + 1.0))


def kernel_second_moment(m: GasModel) -> float:
    """Integral of s**2 * (1 - s**2)**lam over [-1, 1], in closed form."""
    from scipy.special import beta

    return float(beta(1.5, m.lam + 1.0))


def weak_entropy_pair(
    m: GasModel,
    n,
    J,
    g: Callable,
    dg: Callable,
    nodes: int = 64,
) -> EntropyPairValue:
    """Entropy pair generated by a C2 profile g through the kernel integral

        eta   = n * I[ g(u + n**theta s) ]
        q     = n * I[ (u + theta n**theta s) g(u + n**theta s) ]
        eta_J =     I[ g'(u + n**theta s) ]

    where u = J/n and I[f] = integral of f(s) (1 - s**2)**lam over [-1, 1].

    The kernel weight is absorbed into Gauss-Jacobi nodes (alpha = beta =
    lam), so the quadrature is exact for polynomial g up to high degree.
    A plain Gauss-Legendre rule at the same node count leaves a residual
    near 1e-6 at gamma = 2, which the identity tests would trip on.
    The rule is evaluated at `nodes` and `2*nodes` points as a convergence
    self-check; disagreement raises a warning and the finer value wins.
    An empty state gives empty arrays of its shape.
    """
    from scipy.special import roots_jacobi

    n = _check_positive(n)
    J = np.asarray(J, dtype=float)

    def quad(k: int):
        s, wt = roots_jacobi(k, m.lam, m.lam)
        u = J / n
        amp = n**m.theta
        arg = u[..., None] + amp[..., None] * s
        gv = g(arg)
        eta = n * (gv * wt).sum(axis=-1)
        q = n * (((u[..., None] + m.theta * amp[..., None] * s) * gv) * wt).sum(axis=-1)
        eta_J = (dg(arg) * wt).sum(axis=-1)
        return eta, q, eta_J

    coarse = quad(nodes)
    fine = quad(2 * nodes)
    # initial=0.0: an empty state has nothing to disagree on
    scale = 1.0 + max(float(np.max(np.abs(v), initial=0.0)) for v in fine)
    worst = max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(coarse, fine))
    if worst > 1e-8 * scale:
        warnings.warn(
            f"weak entropy quadrature not converged at {nodes} nodes "
            f"(node-doubling disagreement {worst:.2e}); profile g may be too rough",
            stacklevel=2,
        )
    return EntropyPairValue(*fine)


def relative_entropy(m: GasModel, n, J, n_ref, J_ref=0.0):
    """Mechanical energy minus its linearization about (n_ref, J_ref).

        eta* = (J - n u_ref)**2/(2n) + p0 n**gamma/(gamma-1)
               - p0 n_ref**gamma/(gamma-1)
               - p0 gamma/(gamma-1) n_ref**(gamma-1) (n - n_ref)

    with u_ref = J_ref/n_ref; the kinetic part is n (u - u_ref)**2 / 2.
    Nonnegative, and zero exactly at (n, J) = (n_ref, J_ref). The default
    J_ref = 0 is the rest state.
    """
    n = _check_positive(n)
    n_ref = _check_positive(n_ref, "reference density")
    J = np.asarray(J, dtype=float) - n * (np.asarray(J_ref, dtype=float) / n_ref)
    a = m.p0 / (m.gamma - 1.0)
    eta = J**2 / (2.0 * n) + a * n**m.gamma
    return eta - a * n_ref**m.gamma - a * m.gamma * n_ref ** (m.gamma - 1.0) * (n - n_ref)
