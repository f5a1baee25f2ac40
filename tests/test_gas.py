"""Gas relations: pressure law, invariants, entropy pairs."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from semihydro import gas
from semihydro.gas import GasModel


@pytest.fixture(scope="module")
def m2():
    return GasModel(2.0)


def test_model_constants():
    m = GasModel(2.0)
    assert m.theta == 0.5
    assert m.p0 == 0.125
    assert m.lam == 0.5
    m = GasModel(3.0)
    assert m.theta == 1.0
    assert m.p0 == pytest.approx(1.0 / 3.0)
    assert m.lam == 0.0
    m = GasModel(1.5)
    assert m.theta == 0.25
    assert m.p0 == pytest.approx(0.0625 / 1.5)
    assert m.lam == pytest.approx(1.5)


@pytest.mark.parametrize("bad", [1.0, 0.5, 3.5, -2.0])
def test_model_rejects_gamma_outside_range(bad):
    with pytest.raises(ValueError, match="gamma"):
        GasModel(bad)


def test_pressure_values(m2):
    assert gas.pressure(m2, 1.0) == 0.125
    assert gas.pressure(m2, 2.0) == 0.5
    m = GasModel(1.5)
    assert gas.pressure(m, 1.0) == pytest.approx(1.0 / 24.0)
    assert gas.pressure(m2, 0.0) == 0.0
    with pytest.raises(ValueError, match="negative"):
        gas.pressure(m2, -0.1)
    # a NaN must not hide the negative entry behind it (as a min() test would)
    for f in (gas.pressure, gas.pressure_derivative):
        with pytest.raises(ValueError, match="negative"):
            f(m2, np.array([np.nan, -1.0]))


def _rejects_nonpositive(n):
    """The former positivity rule of eigenvalues and the other functions
    that need n > 0."""
    return (n <= 0.0).any()


def _rejects_negative(n):
    """The former rule of pressure, pressure_derivative and
    mechanical_energy, which admit n = 0."""
    return (n < 0.0).any()


# each gas function that checks positivity, called on density n: (call, former rule)
POSITIVITY_CHECKS = {
    "pressure": (gas.pressure, _rejects_negative),
    "pressure_derivative": (gas.pressure_derivative, _rejects_negative),
    "mechanical_energy": (lambda m, n: gas.mechanical_energy(m, n, np.zeros_like(n)),
                          _rejects_negative),
    "eigenvalues": (lambda m, n: gas.eigenvalues(m, n, np.zeros_like(n)), _rejects_nonpositive),
    "to_invariants": (lambda m, n: gas.to_invariants(m, n, np.zeros_like(n)),
                      _rejects_nonpositive),
    "relative_entropy": (lambda m, n: gas.relative_entropy(m, n, 0.0, 1.0),
                         _rejects_nonpositive),
    "relative_entropy-n_ref": (lambda m, n: gas.relative_entropy(m, 1.0, 0.0, n),
                               _rejects_nonpositive),
    "weak_entropy_pair": (lambda m, n: gas.weak_entropy_pair(m, n, np.zeros_like(n), np.ones_like,
                                                             np.zeros_like, nodes=2),
                          _rejects_nonpositive),
}

_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(POSITIVITY_CHECKS)),
       n=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
                    elements=st.one_of(_EDGE_FLOATS, st.floats())))
def test_positivity_checks_keep_the_former_rule(name, n):
    call, rejects = POSITIVITY_CHECKS[name]
    m = GasModel(2.0)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # the quadrature self-check of weak_entropy_pair on non-finite values
        warnings.simplefilter("ignore")
        if not rejects(n):
            call(m, n)
            return
        with pytest.raises(ValueError, match="negative") as exc:
            call(m, n)
    # the message names the least value, NaN skipped
    assert float(str(exc.value).rsplit("= ", 1)[1]) == np.nanmin(n)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_entropy_pairs_of_an_empty_state_are_empty(m2, shape):
    n, J = np.ones(shape), np.zeros(shape)
    for value in (gas.mechanical_energy(m2, n, J),
                  gas.weak_entropy_pair(m2, n, J, np.ones_like, np.zeros_like)):
        assert [a.shape for a in value] == [shape] * 3


@pytest.mark.parametrize("name", sorted(POSITIVITY_CHECKS))
def test_positivity_error_reports_the_least_value_beside_a_nan(m2, name):
    call, _ = POSITIVITY_CHECKS[name]
    with pytest.raises(ValueError, match=r"min = -1\.0$"):
        call(m2, np.array([np.nan, -1.0, 2.0]))


def test_pressure_derivative_matches_finite_difference(m2):
    rng = np.random.default_rng(7)
    n = rng.uniform(0.1, 5.0, size=200)
    h = 1e-6 * n
    fd = (gas.pressure(m2, n + h) - gas.pressure(m2, n - h)) / (2.0 * h)
    assert np.allclose(gas.pressure_derivative(m2, n), fd, rtol=1e-7)


def test_eigenvalues_order_and_values(m2):
    lam1, lam2 = gas.eigenvalues(m2, 1.0, 0.0)
    assert lam1 == -0.5 and lam2 == 0.5
    rng = np.random.default_rng(11)
    n = rng.uniform(0.05, 8.0, size=500)
    J = rng.uniform(-4.0, 4.0, size=500)
    lam1, lam2 = gas.eigenvalues(m2, n, J)
    assert np.all(lam1 < lam2)


@settings(max_examples=100, deadline=None)
@given(gamma=st.sampled_from([1.5, 2.0, 3.0]), gamma_free=st.floats(1.0, 3.0, exclude_min=True),
       n=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(1e-3, 1e3)),
       data=st.data())
def test_speeds_and_pressure_are_the_plain_expressions_with_and_without_out(gamma, gamma_free,
                                                                           n, data):
    # the C step's gas calls write into its buffers: the bits of the plain
    # expressions either way, and the buffers themselves come back
    J = data.draw(hnp.arrays(np.float64, n.shape, elements=st.floats(-1e3, 1e3)))
    for m in (GasModel(gamma), GasModel(gamma_free)):
        u = J / n
        c = m.theta * n**m.theta
        want = (u - c, u + c)
        speeds = (np.full(n.shape, np.nan), np.full(n.shape, np.nan))
        got = gas.eigenvalues(m, n, J, speeds)
        assert got[0] is speeds[0] and got[1] is speeds[1]
        for a, b, w in zip(speeds, gas.eigenvalues(m, n, J), want):
            assert a.tobytes() == b.tobytes() == w.tobytes()
        p = np.full(n.shape, np.nan)
        assert gas.pressure(m, n, p) is p
        assert p.tobytes() == gas.pressure(m, n).tobytes() == (m.p0 * n**m.gamma).tobytes()


def test_invariants_simple_values(m2):
    w, z = gas.to_invariants(m2, 1.0, -1.0)
    assert w == 0.0 and z == -2.0
    n, J = gas.from_invariants(m2, 3.0, -1.0)
    assert n == 4.0 and J == 4.0


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_invariant_round_trip(gamma):
    m = GasModel(gamma)
    rng = np.random.default_rng(23)
    n = rng.uniform(0.1, 10.0, size=1000)
    u = rng.uniform(-3.0, 3.0, size=1000)
    J = n * u
    w, z = gas.to_invariants(m, n, J)
    n2, J2 = gas.from_invariants(m, w, z)
    assert np.allclose(n2, n, rtol=1e-12)
    assert np.allclose(J2, J, rtol=1e-12, atol=1e-12)


@settings(max_examples=500, deadline=None)
@given(gamma=st.floats(1.0, 3.0, exclude_min=True),
       n=st.floats(1e-3, 1e3),
       u=st.floats(-10.0, 10.0))
def test_invariant_round_trip_property(gamma, n, u):
    # The round trip is ill-conditioned in two places, so a flat 1e-12
    # does not hold on this range. w - z = 2 n**theta cancels when
    # |u| >> s = n**theta: rounding w and z leaves (w - z)/2 = s (1 + d)
    # with |d| <= eps (2 + |u|/s), and the power 1/theta multiplies d, so
    # |log(n2/n)| <= eps (2 + |u|/s) / theta. At gamma = 3, n = 1e-3 and
    # |u| = 10 that is 2.2e-12; as gamma -> 1 it grows without bound. J2 =
    # n2 (w + z)/2 adds the absolute rounding of (w + z)/2, eps (|u| + s).
    # The asserted tolerances are twice these first-order bounds.
    m = GasModel(gamma)
    J = n * u
    w, z = gas.to_invariants(m, n, J)
    n2, J2 = gas.from_invariants(m, w, z)
    ulp = np.finfo(float).eps
    s = n**m.theta
    tol = 2.0 * ulp * (2.0 + abs(u) / s) / m.theta
    assert abs(np.log(n2 / n)) <= tol
    assert abs(J2 - J) <= 2.0 * n * (np.expm1(tol) * abs(u) + ulp * (abs(u) + s))


def test_invariants_vacuum_edge(m2):
    n, J = gas.from_invariants(m2, 0.7, 0.7)
    assert n == 0.0 and J == 0.0
    with pytest.raises(ValueError, match="w < z"):
        gas.from_invariants(m2, -1.0, 1.0)
    with pytest.raises(ValueError, match="vacuum"):
        gas.to_invariants(m2, 0.0, 0.0)
    # a NaN must not hide the invalid entry behind it
    with pytest.raises(ValueError, match="w < z"):
        gas.from_invariants(m2, np.array([np.nan, -1.0]), np.array([0.0, 1.0]))
    for f in (gas.to_invariants, gas.eigenvalues):
        with pytest.raises(ValueError, match="vacuum"):
            f(m2, np.array([np.nan, -1.0]), np.zeros(2))


def test_mechanical_energy_values(m2):
    eta, q, eta_J = gas.mechanical_energy(m2, 1.0, 1.0)
    assert eta == 0.625
    # the flux coefficient carries the adiabatic exponent; see the
    # compatibility test below
    assert q == 0.75
    assert eta_J == 1.0
    eta, q, eta_J = gas.mechanical_energy(m2, 0.0, 0.0)
    assert eta == 0.0 and q == 0.0 and eta_J == 0.0
    with pytest.raises(ValueError, match="vacuum"):
        gas.mechanical_energy(m2, 0.0, 0.5)
    with pytest.raises(ValueError, match="negative"):
        gas.mechanical_energy(m2, -1.0, 0.0)
    with pytest.raises(ValueError, match="negative"):
        gas.mechanical_energy(m2, np.array([np.nan, -1.0]), np.zeros(2))


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_mechanical_flux_compatibility(gamma):
    # grad(q) = grad(eta) . grad(F) with F = (J, J^2/n + p(n)), checked by
    # central differences of the pair itself
    m = GasModel(gamma)
    rng = np.random.default_rng(5)
    n = rng.uniform(0.2, 5.0, size=300)
    J = rng.uniform(-3.0, 3.0, size=300)
    hn = 1e-5 * n
    hJ = 1e-5 * (1.0 + np.abs(J))

    def pair(nv, Jv):
        return gas.mechanical_energy(m, nv, Jv)

    eta_n = (pair(n + hn, J).eta - pair(n - hn, J).eta) / (2.0 * hn)
    eta_J = (pair(n, J + hJ).eta - pair(n, J - hJ).eta) / (2.0 * hJ)
    q_n = (pair(n + hn, J).q - pair(n - hn, J).q) / (2.0 * hn)
    q_J = (pair(n, J + hJ).q - pair(n, J - hJ).q) / (2.0 * hJ)

    u = J / n
    f2_n = gas.pressure_derivative(m, n) - u**2
    f2_J = 2.0 * u
    scale = 1.0 + np.abs(q_n) + np.abs(q_J)
    assert np.all(np.abs(q_n - eta_J * f2_n) <= 1e-6 * scale)
    assert np.all(np.abs(q_J - (eta_n + eta_J * f2_J)) <= 1e-6 * scale)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_mechanical_energy_hessian_nonnegative(gamma):
    m = GasModel(gamma)
    rng = np.random.default_rng(31)
    n = rng.uniform(0.2, 5.0, size=300)
    J = rng.uniform(-3.0, 3.0, size=300)
    hn = 1e-4 * n
    hJ = 1e-4 * (1.0 + np.abs(J))

    def eta(nv, Jv):
        return gas.mechanical_energy(m, nv, Jv).eta

    e0 = eta(n, J)
    d_nn = (eta(n + hn, J) - 2.0 * e0 + eta(n - hn, J)) / hn**2
    d_JJ = (eta(n, J + hJ) - 2.0 * e0 + eta(n, J - hJ)) / hJ**2
    d_nJ = (eta(n + hn, J + hJ) - eta(n + hn, J - hJ)
            - eta(n - hn, J + hJ) + eta(n - hn, J - hJ)) / (4.0 * hn * hJ)
    tol = 1e-6 * (1.0 + np.abs(d_nn) + np.abs(d_JJ))
    assert np.all(d_nn >= -tol)
    assert np.all(d_JJ >= -tol)
    assert np.all(d_nn * d_JJ - d_nJ**2 >= -tol * (1.0 + np.abs(d_nJ)))


def test_kernel_moments_against_quadrature():
    # weight='alg' integrates (1-s)^a (1+s)^b weights without endpoint loss
    for gamma in (1.5, 2.0, 2.5, 3.0):
        m = GasModel(gamma)
        w = (m.lam, m.lam)
        mass, _ = quad(lambda s: 1.0, -1.0, 1.0, weight="alg", wvar=w)
        mom, _ = quad(lambda s: s * s, -1.0, 1.0, weight="alg", wvar=w)
        assert gas.kernel_mass(m) == pytest.approx(mass, rel=1e-12)
        assert gas.kernel_second_moment(m) == pytest.approx(mom, rel=1e-12)
    m = GasModel(2.0)
    assert gas.kernel_mass(m) == pytest.approx(np.pi / 2.0)
    assert gas.kernel_second_moment(m) == pytest.approx(np.pi / 8.0)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_weak_pair_identity_g_one(gamma):
    # g = 1 generates (c_lam * n, c_lam * J, 0)
    m = GasModel(gamma)
    rng = np.random.default_rng(13)
    n = rng.uniform(0.1, 6.0, size=400)
    J = n * rng.uniform(-2.0, 2.0, size=400)
    c = gas.kernel_mass(m)
    eta, q, eta_J = gas.weak_entropy_pair(m, n, J, lambda xi: np.ones_like(xi),
                                          lambda xi: np.zeros_like(xi))
    assert np.allclose(eta, c * n, rtol=1e-10)
    assert np.allclose(q, c * J, rtol=1e-10, atol=1e-12)
    assert np.allclose(eta_J, 0.0, atol=1e-12)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_weak_pair_identity_g_xi(gamma):
    # g = xi generates eta = c_lam * J, q = c_lam J^2/n + theta b_lam n^gamma
    m = GasModel(gamma)
    rng = np.random.default_rng(17)
    n = rng.uniform(0.1, 6.0, size=400)
    J = n * rng.uniform(-2.0, 2.0, size=400)
    c = gas.kernel_mass(m)
    b = gas.kernel_second_moment(m)
    eta, q, eta_J = gas.weak_entropy_pair(m, n, J, lambda xi: xi,
                                          lambda xi: np.ones_like(xi))
    assert np.allclose(eta, c * J, rtol=1e-10, atol=1e-12)
    assert np.allclose(q, c * J**2 / n + m.theta * b * n**m.gamma, rtol=1e-10)
    assert np.allclose(eta_J, c, rtol=1e-12)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_weak_pair_quadratic_profile_matches_closed_form(gamma):
    # g = xi^2/2 gives the kernel-weighted mechanical pair
    m = GasModel(gamma)
    rng = np.random.default_rng(19)
    n = rng.uniform(0.1, 6.0, size=400)
    J = n * rng.uniform(-2.0, 2.0, size=400)
    c = gas.kernel_mass(m)
    b = gas.kernel_second_moment(m)
    eta, q, eta_J = gas.weak_entropy_pair(m, n, J, lambda xi: 0.5 * xi**2,
                                          lambda xi: xi)
    assert np.allclose(eta, c * J**2 / (2.0 * n) + 0.5 * b * n**m.gamma, rtol=1e-10)
    assert np.allclose(q, c * J**3 / (2.0 * n**2)
                       + 0.5 * m.gamma * b * J * n ** (m.gamma - 1.0), rtol=1e-9,
                       atol=1e-12)
    assert np.allclose(eta_J, c * J / n, rtol=1e-10, atol=1e-12)


def test_weak_pair_scalar_against_direct_quadrature(m2):
    # independent oracle: adaptive quadrature of the defining integrals
    n, J = 1.3, -0.4
    u = J / n
    a = n**m2.theta

    def g(xi):
        return np.cos(xi)

    eta_ref = n * quad(lambda s: g(u + a * s) * (1 - s * s) ** m2.lam, -1, 1)[0]
    q_ref = n * quad(lambda s: (u + m2.theta * a * s) * g(u + a * s)
                     * (1 - s * s) ** m2.lam, -1, 1)[0]
    dJ_ref = quad(lambda s: -np.sin(u + a * s) * (1 - s * s) ** m2.lam, -1, 1)[0]
    eta, q, eta_J = gas.weak_entropy_pair(m2, np.array([n]), np.array([J]),
                                          g, lambda xi: -np.sin(xi))
    assert eta[0] == pytest.approx(eta_ref, rel=1e-10)
    assert q[0] == pytest.approx(q_ref, rel=1e-10)
    assert eta_J[0] == pytest.approx(dJ_ref, rel=1e-10)


def test_weak_pair_warns_on_rough_profile(m2):
    # kinked profile defeats the node-doubling self-check
    with pytest.warns(UserWarning, match="quadrature"):
        gas.weak_entropy_pair(m2, np.array([1.0]), np.array([0.0]),
                              np.abs, np.sign)


def test_relative_entropy_values(m2):
    assert gas.relative_entropy(m2, 1.0, 0.0, 1.0) == 0.0
    assert gas.relative_entropy(m2, 2.0, 0.0, 1.0) == pytest.approx(0.125)
    assert gas.relative_entropy(m2, 1.0, 1.0, 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_relative_entropy_nonnegative(gamma):
    m = GasModel(gamma)
    rng = np.random.default_rng(41)
    n = rng.uniform(0.05, 8.0, size=1000)
    J = n * rng.uniform(-3.0, 3.0, size=1000)
    n_ref = rng.uniform(0.05, 8.0, size=1000)
    vals = gas.relative_entropy(m, n, J, n_ref)
    assert np.all(vals >= -1e-14)
    far = np.abs(n - n_ref) > 0.1
    assert np.all(vals[far] > 0.0)
