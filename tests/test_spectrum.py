"""Closed-form spectrum against quadrature and the generic root-finder."""

import numpy as np
import pytest
from scipy.optimize import brentq

from berrybox import (
    BoundaryData,
    DegenerateEtaError,
    ETA_INF,
    Geometry,
    alpha_of,
    bc_residual,
    boundary_form,
    degenerate_basis,
    dilation_transport,
    eigenfunction_fixed,
    eigenfunction_fixed_dx,
    eigenfunction_physical,
    eigenvalue,
    eta_to_unitary,
    generic_spectrum,
    mode,
    mode_boundary_data,
    oscillatory_rule,
    wavenumber,
)

UNIT = Geometry(1.0, 0.0)


def test_alpha_values():
    # (1+i)/(1-i) = i, so alpha = pi/2
    assert alpha_of(1j) == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert alpha_of(0.0) == pytest.approx(0.0, abs=1e-15)
    assert alpha_of(ETA_INF) == pytest.approx(np.pi)
    for eta in (-0.5, 0.3, 2.0, -4.0):
        assert abs(np.sin(alpha_of(eta))) < 1e-15
    for bad in (1.0, -1.0):
        with pytest.raises(DegenerateEtaError):
            alpha_of(bad)
        with pytest.raises(DegenerateEtaError):
            wavenumber(0, bad)


def test_wavenumber_values():
    # |(1-i)/(1+i)| = 1 and arctan 1 = pi/4
    assert wavenumber(0, 1j) == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert wavenumber(1, 1j) == pytest.approx(2.0 * np.pi + np.pi / 2.0, abs=1e-14)
    assert wavenumber(0, 0.0) == pytest.approx(np.pi / 2.0, abs=1e-15)
    # injectivity over a window of indices
    for eta in (1j, 0.5, -0.3 + 0.4j):
        ks = [wavenumber(n, eta) for n in range(-6, 7)]
        assert len(set(np.round(ks, 12))) == len(ks)


def test_eigenfunction_endpoint_value():
    m = mode(0, 1j)
    assert eigenfunction_fixed(m, 0.5) == pytest.approx((1 + 1j) / np.sqrt(2.0), abs=1e-14)


def eta_test_grid():
    etas = []
    for r in (0.5, 1.0, 2.0):
        for j in range(10):
            etas.append(r * np.exp(2j * np.pi * (j + 0.5) / 10))
    return etas + [ETA_INF, 0.0]


def test_unit_norm_and_orthogonality():
    x, w = oscillatory_rule(-0.5, 0.5, 2.0 * abs(wavenumber(-6, 1j)))
    for eta in (1j, 0.5, -0.3 + 0.4j, ETA_INF):
        modes = [mode(n, eta) for n in range(-6, 7)]
        vals = np.array([eigenfunction_fixed(m, x) for m in modes])
        gram = (vals.conj() * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


def test_boundary_condition_compliance_grid():
    for eta in eta_test_grid():
        u = eta_to_unitary(eta)
        for n in (-2, 0, 3):
            d = mode_boundary_data(mode(n, eta))
            assert bc_residual(u, d) < 1e-10


def test_eigen_residual():
    # -phi''/(2 m l^2) = lambda phi with phi'' = -k^2 phi analytically
    x, w = oscillatory_rule(-0.5, 0.5, 40.0)
    for eta in (1j, 0.5, -0.3 + 0.4j):
        for n in (-2, 0, 1):
            m = mode(n, eta)
            g = Geometry(1.7, 0.0)
            lam = eigenvalue(m, g, mass=1.3)
            phi = eigenfunction_fixed(m, x)
            residual = -(-m.k ** 2 * phi) / (2.0 * 1.3 * g.l ** 2) - lam * phi
            assert np.sqrt(np.sum(w * np.abs(residual) ** 2)) < 1e-8


def test_physical_eigenfunction():
    m = mode(0, 1j)
    x = np.linspace(-0.5, 0.5, 64)
    assert np.allclose(eigenfunction_physical(m, UNIT, x), eigenfunction_fixed(m, x))
    # a doubled box evaluated at the center
    got = eigenfunction_physical(m, Geometry(2.0, 0.0), 0.0)
    assert got == pytest.approx(np.exp(1j * m.alpha) / np.sqrt(2.0), abs=1e-14)
    # zero outside the support
    assert eigenfunction_physical(m, Geometry(2.0, 0.0), 1.5) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(4):
        g = Geometry(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-1.0, 1.0)))
        x, w = oscillatory_rule(g.left, g.right, 2 * m.k / g.l)
        nrm = np.sqrt(np.sum(w * np.abs(eigenfunction_physical(m, g, x)) ** 2))
        assert nrm == pytest.approx(1.0, abs=1e-12)


def test_dilation_covariance():
    # the physical eigenfunction is the unitary transport of the reference one
    m = mode(1, -0.3 + 0.4j)
    g = Geometry(1.8, -0.4)
    x = np.linspace(g.left, g.right, 101)
    manual = eigenfunction_fixed(m, (x - g.c) / g.l) / np.sqrt(g.l)
    assert np.max(np.abs(eigenfunction_physical(m, g, x) - manual)) < 1e-12
    # endpoint data follow the same transport
    ref = mode_boundary_data(m)
    moved = mode_boundary_data(m, g)
    scaled = dilation_transport(ref, g.l, g.c)
    for f in ("va", "vb", "da", "db"):
        assert getattr(moved, f) == pytest.approx(getattr(scaled, f), abs=1e-12)


@pytest.mark.parametrize("l, c", [(0.0, 0.0), (-1.0, 0.0), (np.inf, 0.0), (np.nan, 0.0),
                                  (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)])
def test_geometry_must_be_finite(l, c):
    # an infinite length used to give lambda = 0, a non-finite center to pass
    with pytest.raises(ValueError, match="finite"):
        Geometry(l, c)


@pytest.mark.parametrize("mass", [0.0, -1.0, np.inf, np.nan])
def test_mass_must_be_finite_and_positive(mass):
    # every routine that takes a mass checks it with one predicate
    m = mode(0, 1j)
    data = mode_boundary_data(m)
    calls = [
        lambda: eigenvalue(m, UNIT, mass),
        lambda: generic_spectrum(eta_to_unitary(1j), count=2, mass=mass),
        lambda: boundary_form(data, data, mass=mass),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="mass must be finite and positive"):
            call()


def test_eigenvalue_scaling():
    m = mode(0, 1j)
    assert eigenvalue(m, UNIT, 1.0) == pytest.approx(np.pi ** 2 / 8.0, abs=1e-12)
    lam1 = eigenvalue(m, Geometry(1.0, 0.0), 1.0)
    for l in (0.5, 2.0, 3.7):
        assert eigenvalue(m, Geometry(l, 0.0), 1.0) == pytest.approx(lam1 / l ** 2, rel=1e-14)
    for c in (-2.0, 0.3):
        assert eigenvalue(m, Geometry(1.0, c), 1.0) == lam1


def test_degenerate_basis():
    x, w = oscillatory_rule(-0.5, 0.5, 8 * np.pi)
    ci, si = degenerate_basis(1, 1, 0.0)
    assert ci == pytest.approx(np.sqrt(2.0)) and si == 0.0
    ci, si = degenerate_basis(-1, 0, 0.0)
    assert ci == pytest.approx(np.sqrt(2.0)) and si == 0.0
    for eta, n in ((1, 1), (1, 3), (-1, 0), (-1, 2)):
        fi, fii = degenerate_basis(eta, n, x)
        assert abs(np.sum(w * fi * fii)) < 1e-12
        assert np.sum(w * fi ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(w * fii ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        degenerate_basis(2, 1, 0.0)
    with pytest.raises(ValueError):
        degenerate_basis(1, 0, 0.0)


def test_generic_spectrum_dirichlet():
    levels = generic_spectrum(-np.eye(2), count=3)
    for j, lv in zip((1, 2, 3), levels):
        assert lv.lam == pytest.approx(j ** 2 * np.pi ** 2 / 2.0, rel=1e-9)
        assert lv.eigenfunction.norm() == pytest.approx(1.0, abs=1e-10)
        # textbook profile sqrt(2) |sin(j pi (x + 1/2))| up to a global phase
        x = lv.eigenfunction.nodes
        expected = np.sqrt(2.0) * np.abs(np.sin(j * np.pi * (x + 0.5)))
        assert np.max(np.abs(np.abs(lv.eigenfunction.values) - expected)) < 1e-7


def test_generic_spectrum_matches_closed_form():
    for eta in (1j, 0.0, 0.5, 2j, -0.3 + 0.4j):
        closed = sorted(
            eigenvalue(mode(n, eta), Geometry(1.2, 0.0), 0.7) for n in range(-4, 5)
        )
        levels = generic_spectrum(eta_to_unitary(eta), count=9, mass=0.7, geometry=Geometry(1.2, 0.0))
        for lv, ex in zip(levels, closed):
            assert lv.lam == pytest.approx(ex, rel=1e-9)


def test_generic_spectrum_periodic_degeneracy():
    levels = generic_spectrum(np.array([[0, 1], [1, 0]], dtype=complex), count=5)
    assert levels[0].lam == pytest.approx(0.0, abs=1e-9)
    assert levels[1].multiplicity == 2 and levels[2].multiplicity == 2
    assert levels[1].lam == pytest.approx((2 * np.pi) ** 2 / 2.0, rel=1e-9)
    assert levels[1].lam == pytest.approx(levels[2].lam, rel=1e-12)
    # the two degenerate eigenfunctions are orthonormal
    f1, f2 = levels[1].eigenfunction, levels[2].eigenfunction
    assert abs(f1.inner(f2)) < 1e-8
    assert f1.norm() == pytest.approx(1.0, abs=1e-10)


def test_generic_spectrum_robin_bound_states():
    # attractive Robin walls psi' = -+5 psi at the left/right ends:
    # diagonal unitary exp(-2i arctan 5) I; independent scalar oracles for
    # the even/odd hyperbolic branches
    u = np.exp(-2j * np.arctan(5.0)) * np.eye(2)
    levels = generic_spectrum(u, count=2)
    k_even = brentq(lambda k: k * np.tanh(k / 2.0) - 5.0, 1.0, 10.0)
    k_odd = brentq(lambda k: k / np.tanh(k / 2.0) - 5.0, 1.0, 10.0)
    expected = sorted([-k_even ** 2 / 2.0, -k_odd ** 2 / 2.0])
    for lv, ex in zip(levels, expected):
        assert lv.lam == pytest.approx(ex, rel=1e-9)


def test_generic_spectrum_neumann_zero_mode():
    levels = generic_spectrum(np.eye(2), count=2)
    assert levels[0].lam == pytest.approx(0.0, abs=1e-10)
    assert levels[1].lam == pytest.approx(np.pi ** 2 / 2.0, rel=1e-9)


def test_generic_spectrum_no_spurious_zero_level():
    # E = 0 is no eigenvalue here (smallest scaled singular value 0.022), but
    # a hyperbolic basis that degenerates as kappa -> 0 reported one
    c, s = np.cos(1.1), np.sin(1.1)
    u = np.exp(0.7j) * np.array([[c, 1j * np.exp(2.2j) * s], [1j * np.exp(-2.2j) * s, c]])
    lams = [lv.lam for lv in generic_spectrum(u, 4)]
    assert min(abs(lam) for lam in lams) > 1e-6
    assert lams[0] == pytest.approx(-0.0197065, abs=5e-8)  # kappa = 0.19853
    assert lams[1] == pytest.approx(6.6386786, abs=5e-8)


@pytest.mark.parametrize("eta, ns", [
    (0.6620 + 0.4268j, range(0, 6)),  # k_0 = 0.61: a level was paired with a wrong root
    (1 - 1e-6, range(-8, 9)),
    (-1 + 1e-6j, range(-8, 9)),
    (0.999 + 0.0447j, range(-8, 9)),
])
def test_generic_spectrum_near_degenerate_eta(eta, ns):
    # levels 2 pi n +- k_0 (or (2n+1) pi +- (pi - k_0)) form close pairs
    closed = sorted(eigenvalue(mode(n, eta), UNIT, 1.0) for n in ns)
    numeric = np.array([lv.lam for lv in generic_spectrum(eta_to_unitary(eta), count=17)])
    for lam in closed:
        assert numeric[np.argmin(np.abs(numeric - lam))] == pytest.approx(lam, rel=1e-9)


def _fitted_boundary_data(level):
    """Endpoint data of a sampled eigenfunction on the unit box, from a least-squares
    fit to the two solutions of -psi''/2m = lam psi."""
    e = 2.0 * level.mass * level.lam
    k = np.sqrt(abs(e))
    if e > 0:
        fns, ders = (np.cos, np.sin), (lambda z: -np.sin(z), np.cos)
    else:
        fns, ders = (np.cosh, np.sinh), (np.sinh, np.cosh)
    fn = level.eigenfunction
    basis = np.column_stack([f(k * fn.nodes) for f in fns])
    coef = np.linalg.lstsq(basis, fn.values, rcond=None)[0]
    assert np.max(np.abs(basis @ coef - fn.values)) < 1e-9
    ends = np.array([-0.5, 0.5])
    vals = np.column_stack([f(k * ends) for f in fns]) @ coef
    slopes = k * np.column_stack([d(k * ends) for d in ders]) @ coef
    return BoundaryData(vals[0], vals[1], slopes[0], slopes[1])


def test_generic_spectrum_random_unitaries():
    rng = np.random.default_rng(44)
    for _ in range(30):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        levels = generic_spectrum(u, count=6)
        lams = [lv.lam for lv in levels]
        assert lams == sorted(lams)
        for lv in levels:
            assert lv.eigenfunction.norm() == pytest.approx(1.0, abs=1e-10)
            assert bc_residual(u, _fitted_boundary_data(lv)) < 1e-8
