"""Closed-form spectrum against quadrature and the generic root-finder."""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest

from array_rules import GridFunction, oscillatory_rule, plane_wave_values
from berrybox.berry import state_overlap
from berrybox.boundary import ETA_INF, as_eta, eta_to_unitary
from berrybox.boundary_triple import BoundaryData, bc_residual, boundary_form, dilation_transport
from berrybox.closed_form import (
    DegenerateEtaError,
    alpha_of,
    degenerate_wavenumber,
    degenerate_waves,
    eigenvalue,
    mode,
    require_length,
    wavenumber,
)
from berrybox.paths import ParameterPath
from berrybox.spectrum import RootSearchError, generic_spectrum
from berrybox.wilczek_zee import wz_connection, wz_curvature
import berrybox.spectrum

UNIT = (1.0, 0.0)


def _physical(m, g, x):
    """The eigenfunction l^-1/2 phi((x - c)/l) at the box g = (l, c), zero outside it."""
    l, c = g
    x = np.asarray(x, dtype=float)
    inside = (x >= c - 0.5 * l) & (x <= c + 0.5 * l)
    return np.where(inside, plane_wave_values(m.waves, (x - c) / l)[0] / np.sqrt(l), 0.0 + 0.0j)


def _sampled(level):
    """The generic level's eigenfunction v0 cos(qu) + v1 sin(qu)/q on a quadrature
    grid of [-1/2, 1/2]: unit norm, with its largest sample real and positive."""
    q = np.sqrt(complex(level.t * abs(level.t)))
    nodes, weights = oscillatory_rule(-0.5, 0.5, 2.0 * max(level.t, np.pi))
    v0, v1 = level.coefficients
    f = v0 * np.cos(q * nodes) + v1 * nodes * np.sinc(q * nodes / np.pi)
    f = f / np.sqrt(np.sum(weights * np.abs(f) ** 2))
    j = int(np.argmax(np.abs(f)))
    return GridFunction(nodes=nodes, values=f * (np.abs(f[j]) / f[j]), weights=weights)


def _boundary_data(m, l=1.0):
    """Endpoint values and x-derivatives of the eigenfunction at a box of length l."""
    (va, da), (vb, db) = (plane_wave_values(m.waves, u) for u in (-0.5, 0.5))
    return BoundaryData(va / np.sqrt(l), vb / np.sqrt(l), da / l ** 1.5, db / l ** 1.5)


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


def _drawn_etas(rng):
    """eta on and off the unit circle, within 1e-6 of +-1, real and inf."""
    circle = np.exp(1j * rng.uniform(-np.pi, np.pi, 12))
    off = rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(-3.0, 3.0, 12)
    near = [s + 1e-6 * complex(*rng.uniform(-1.0, 1.0, 2)) for s in (1.0, -1.0) for _ in range(4)]
    real = rng.uniform(-5.0, 5.0, 6)
    return [*circle, *off, *near, *real, 1.0 + 1e-9, -1.0 - 1e-9, 0.0, ETA_INF]


def test_closed_forms_match_the_numpy_expressions_they_replace():
    # mode() and dc_over_l run on math and cmath; the numpy forms they
    # replaced (np.arctan, np.angle, np.log1p) round differently, here by at
    # most one unit in the last place
    rng = np.random.default_rng(2020)
    for eta in _drawn_etas(rng):
        e = as_eta(eta)
        if e.infinite:
            ratio, alpha = 1.0, np.pi
        else:
            ratio = abs((1.0 - e.value) / (1.0 + e.value))
            alpha = float(np.angle((1.0 + e.value) / (1.0 - e.value)))
        for n in [-30, 0, 30, *rng.integers(-30, 31, 6)]:
            m = mode(n, eta)
            k = float(2.0 * np.pi * n + 2.0 * np.arctan(ratio))
            assert abs(m.k - k) <= math.ulp(k), (eta, n)
            assert abs(m.alpha - alpha) <= math.ulp(alpha), (eta, n)
    for _ in range(200):
        points = np.column_stack([rng.uniform(0.05, 3.0, 6), rng.uniform(-2.0, 2.0, 6)])
        path = ParameterPath(points[: rng.integers(2, 7)], orientation=int(rng.choice([1, -1])))
        terms = [dc / l0 if dl == 0 else dc * np.log1p(dl / l0) / dl
                 for (l0, c0), (l1, c1) in path.segments for dl, dc in [(l1 - l0, c1 - c0)]]
        # the sides are summed in the same order, so only the log1p roundings
        # differ: within a few units in the last place of the largest side's
        # term (at most 4 over 15000 drawn loops)
        scale = max(abs(t) for t in terms)
        assert abs(path.dc_over_l() - path.orientation * float(sum(terms))) <= 8 * math.ulp(scale)


def test_eigenfunction_endpoint_value():
    m = mode(0, 1j)
    assert plane_wave_values(m.waves, 0.5)[0] == pytest.approx((1 + 1j) / np.sqrt(2.0), abs=1e-14)


def test_mode_waves_are_the_closed_form_eigenfunction():
    # the record's two plane waves are phi = sin(ku) + e^{i alpha} cos(ku) and
    # its derivative; real and infinite eta give exactly real values
    rng = np.random.default_rng(2022)
    u = np.concatenate([[-0.5, 0.0, 0.5], rng.uniform(-0.7, 0.7, 20)])
    for eta in _drawn_etas(rng):
        for n in (-7, 0, 1, 30):
            m = mode(n, eta)
            e = np.exp(1j * m.alpha)
            for x in u:
                val, der = plane_wave_values(m.waves, x)
                assert abs(val - (np.sin(m.k * x) + e * np.cos(m.k * x))) <= 1e-14 * (1 + abs(m.k * x)), (eta, n, x)
                assert abs(der - m.k * (np.cos(m.k * x) - e * np.sin(m.k * x))) <= 1e-14 * (1 + abs(m.k)) ** 2
                if m.sin_alpha == 0.0:
                    assert val.imag == 0.0 and der.imag == 0.0, (eta, n, x)
            assert m.waves is m.waves


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
        vals = np.array([plane_wave_values(m.waves, x)[0] for m in modes])
        gram = (vals.conj() * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-10


def test_boundary_condition_compliance_grid():
    for eta in eta_test_grid():
        u = eta_to_unitary(eta)
        for n in (-2, 0, 3):
            d = _boundary_data(mode(n, eta))
            assert bc_residual(u, d) < 1e-10


def test_eigen_residual():
    # -phi''/(2 m l^2) = lambda phi with phi'' = -k^2 phi analytically
    x, w = oscillatory_rule(-0.5, 0.5, 40.0)
    for eta in (1j, 0.5, -0.3 + 0.4j):
        for n in (-2, 0, 1):
            m = mode(n, eta)
            l = 1.7
            lam = eigenvalue(m.k, l, mass=1.3)
            phi = plane_wave_values(m.waves, x)[0]
            residual = -(-m.k ** 2 * phi) / (2.0 * 1.3 * l ** 2) - lam * phi
            assert np.sqrt(np.sum(w * np.abs(residual) ** 2)) < 1e-8


def test_physical_eigenfunction():
    m = mode(0, 1j)
    x = np.linspace(-0.5, 0.5, 64)
    assert np.allclose(_physical(m, UNIT, x), np.sin(m.k * x) + np.exp(1j * m.alpha) * np.cos(m.k * x))
    # a doubled box evaluated at the center
    got = _physical(m, (2.0, 0.0), 0.0)
    assert got == pytest.approx(np.exp(1j * m.alpha) / np.sqrt(2.0), abs=1e-14)
    # zero outside the support
    assert _physical(m, (2.0, 0.0), 1.5) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(4):
        l, c = g = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(-1.0, 1.0)))
        x, w = oscillatory_rule(c - 0.5 * l, c + 0.5 * l, 2 * m.k / l)
        nrm = np.sqrt(np.sum(w * np.abs(_physical(m, g, x)) ** 2))
        assert nrm == pytest.approx(1.0, abs=1e-12)


def test_dilation_covariance():
    # the physical eigenfunction is the unitary transport of the reference one
    m = mode(1, -0.3 + 0.4j)
    l, c = g = (1.8, -0.4)
    x = np.linspace(c - 0.5 * l, c + 0.5 * l, 101)
    manual = np.array([plane_wave_values(m.waves, u)[0] for u in (x - c) / l]) / np.sqrt(l)
    assert np.max(np.abs(_physical(m, g, x) - manual)) < 1e-12
    # endpoint data follow the same transport
    ref = _boundary_data(m)
    moved = _boundary_data(m, l)
    scaled = dilation_transport(ref, l)
    for f in ("va", "vb", "da", "db"):
        assert getattr(moved, f) == pytest.approx(getattr(scaled, f), abs=1e-12)


@pytest.mark.parametrize("l, c", [(0.0, 0.0), (-1.0, 0.0), (np.inf, 0.0), (np.nan, 0.0),
                                  (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)])
def test_geometry_must_be_finite(l, c):
    # an infinite length used to give lambda = 0, a non-finite center to pass;
    # a box is its length, checked by one predicate wherever a routine takes
    # one, and the overlap, which takes its box relative to the unit box, checks the center too
    with pytest.raises(ValueError, match="finite"):
        state_overlap(mode(0, 1j), l, c)
    if math.isfinite(c):
        for call in (lambda: require_length(l), lambda: eigenvalue(1.0, l), lambda: wz_connection(1, 1, l),
                     lambda: wz_curvature(1, 1, l), lambda: generic_spectrum(eta_to_unitary(1j), count=2, l=l)):
            with pytest.raises(ValueError, match=f"box length must be finite and positive, not {float(l)}"):
                call()


@pytest.mark.parametrize("mass", [0.0, -1.0, np.inf, np.nan])
def test_mass_must_be_finite_and_positive(mass):
    # every routine that takes a mass checks it with one predicate
    m = mode(0, 1j)
    data = _boundary_data(m)
    calls = [
        lambda: eigenvalue(m.k, 1.0, mass),
        lambda: generic_spectrum(eta_to_unitary(1j), count=2, mass=mass),
        lambda: boundary_form(data, data, mass=mass),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="mass must be finite and positive"):
            call()


def test_eigenvalue_scaling():
    m = mode(0, 1j)
    assert eigenvalue(m.k) == pytest.approx(np.pi ** 2 / 8.0, abs=1e-12)
    lam1 = eigenvalue(m.k, 1.0, 1.0)
    for l in (0.5, 2.0, 3.7):
        assert eigenvalue(m.k, l, 1.0) == pytest.approx(lam1 / l ** 2, rel=1e-14)
    # a degenerate level has no Mode: its wavenumber is all the closed form reads
    assert eigenvalue(degenerate_wavenumber(1, 1), 2.0, 0.5) == np.pi ** 2
    for l in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="box length"):
            eigenvalue(m.k, l)


def test_eigenvalue_must_be_finite():
    # l ** 2 underflowed to 0 at l = 1e-170 (ZeroDivisionError), and a
    # subnormal mass gave lambda = inf
    m = mode(0, 0.3 + 0.6j)
    for k, l, mass in ((m.k, 1e-170, 1.0), (m.k, 1.0, 1e-320), (1e200, 1.0, 1.0)):
        with pytest.raises(ValueError, match="not finite"):
            eigenvalue(k, l, mass)
    assert eigenvalue(m.k, 1e-150, 1.0) == pytest.approx(m.k ** 2 / 2e-300, rel=1e-15)
    # where l^2 or m l^2 overflows, lambda underflows to 0 alike: l ** 2
    # raised OverflowError at l = 1e160
    for l, mass in ((1e160, 1.0), (1e10, 1e300), (1e150, 1e10)):
        assert eigenvalue(m.k, l, mass) == 0.0
    assert eigenvalue(m.k, 1e100, 1.0) == pytest.approx(m.k ** 2 / 2e200, rel=1e-15)


def test_degenerate_basis():
    # degenerate_waves is the pair sqrt(2) cos(ku), sqrt(2) sin(ku): real,
    # orthonormal, at the degenerate wavenumber
    x, w = oscillatory_rule(-0.5, 0.5, 8 * np.pi)
    ci, si = (plane_wave_values(f, 0.0)[0] for f in degenerate_waves(1, 1))
    assert ci == pytest.approx(np.sqrt(2.0)) and si == 0.0
    ci, si = (plane_wave_values(f, 0.0)[0] for f in degenerate_waves(-1, 0))
    assert ci == pytest.approx(np.sqrt(2.0)) and si == 0.0
    for eta, n in ((1, 1), (1, 3), (-1, 0), (-1, 2)):
        pair = degenerate_waves(eta, n)
        k = degenerate_wavenumber(eta, n)
        assert all(f.k == k for f in pair)
        fi, fii = (plane_wave_values(f, x)[0] for f in pair)
        assert np.max(np.abs(fi - np.sqrt(2.0) * np.cos(k * x))) < 1e-14
        assert np.max(np.abs(fii - np.sqrt(2.0) * np.sin(k * x))) < 1e-14
        assert all(plane_wave_values(f, u)[0].imag == 0.0 for f in pair for u in (-0.5, 0.1, 0.5))
        assert abs(np.sum(w * fi * fii)) < 1e-12
        assert np.sum(w * np.abs(fi) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(w * np.abs(fii) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        degenerate_waves(2, 1)
    with pytest.raises(ValueError):
        degenerate_waves(1, 0)


def test_generic_spectrum_dirichlet():
    levels = generic_spectrum(-np.eye(2), count=3)
    for j, lv in zip((1, 2, 3), levels):
        assert lv.lam == pytest.approx(j ** 2 * np.pi ** 2 / 2.0, rel=1e-9)
        fn = _sampled(lv)
        assert fn.norm() == pytest.approx(1.0, abs=1e-10)
        # textbook profile sqrt(2) |sin(j pi (x + 1/2))| up to a global phase
        expected = np.sqrt(2.0) * np.abs(np.sin(j * np.pi * (fn.nodes + 0.5)))
        assert np.max(np.abs(np.abs(fn.values) - expected)) < 1e-7


def test_generic_spectrum_matches_closed_form():
    for eta in (1j, 0.0, 0.5, 2j, -0.3 + 0.4j):
        closed = sorted(
            eigenvalue(mode(n, eta).k, 1.2, 0.7) for n in range(-4, 5)
        )
        levels = generic_spectrum(eta_to_unitary(eta), count=9, mass=0.7, l=1.2)
        for lv, ex in zip(levels, closed):
            assert lv.lam == pytest.approx(ex, rel=1e-9)


def test_generic_spectrum_periodic_degeneracy():
    levels = generic_spectrum(np.array([[0, 1], [1, 0]], dtype=complex), count=5)
    assert levels[0].lam == pytest.approx(0.0, abs=1e-9)
    assert levels[1].multiplicity == 2 and levels[2].multiplicity == 2
    assert levels[1].lam == pytest.approx((2 * np.pi) ** 2 / 2.0, rel=1e-9)
    assert levels[1].lam == pytest.approx(levels[2].lam, rel=1e-12)
    # the two degenerate eigenfunctions are orthonormal
    f1, f2 = _sampled(levels[1]), _sampled(levels[2])
    assert abs(f1.inner(f2)) < 1e-8
    assert f1.norm() == pytest.approx(1.0, abs=1e-10)


def _bisect(f, lo, hi):
    """The root of f on [lo, hi], where f changes sign, by bisection down to
    adjacent floats."""
    below = f(lo) < 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if (f(mid) < 0) == below else (lo, mid)
    return mid


def test_generic_spectrum_robin_bound_states():
    # attractive Robin walls psi' = -+5 psi at the left/right ends:
    # diagonal unitary exp(-2i arctan 5) I; independent scalar oracles for
    # the even/odd hyperbolic branches
    u = np.exp(-2j * np.arctan(5.0)) * np.eye(2)
    levels = generic_spectrum(u, count=2)
    k_even = _bisect(lambda k: k * math.tanh(k / 2.0) - 5.0, 1.0, 10.0)
    k_odd = _bisect(lambda k: k / math.tanh(k / 2.0) - 5.0, 1.0, 10.0)
    expected = sorted([-k_even ** 2 / 2.0, -k_odd ** 2 / 2.0])
    for lv, ex in zip(levels, expected):
        assert lv.lam == pytest.approx(ex, rel=1e-9)



@pytest.mark.parametrize("eps", [0.01, 1e-6])
def test_generic_spectrum_finds_deep_bound_states(eps):
    # walls just past Dirichlet, U = e^{i(pi + eps)} I, are Robin walls
    # psi' = -+kappa psi that bind two states at E = -kappa^2, kappa = 2/eps
    # to first order; the scan started at t = -60 and returned the three
    # lowest positive levels alone (5.03, 20.14 and 45.31 at eps = 0.01)
    z = cmath.exp(1j * (math.pi + eps))
    u = [[z, 0], [0, z]]
    # the Robin parameter Re[i(1 - z)/(1 + z)] of the matrix as rounded
    kappa = -2.0 * z.imag / abs(1.0 + z) ** 2
    levels = generic_spectrum(u, count=3)
    assert [lv.lam < 0 for lv in levels] == [True, True, False]
    for lv in levels[:2]:
        # kappa tanh(kappa/2) = kappa coth(kappa/2) = kappa in floats
        assert lv.lam == pytest.approx(-kappa ** 2 / 2.0, rel=1e-6)
        # the endpoint data of v0 cos(qu) + v1 sin(qu)/q, times 2 e^{-kappa/2}
        # (cosh(kappa/2) overflows at eps = 1e-6)
        k = -lv.t
        c, s = 1.0 + math.exp(-k), -math.expm1(-k) / k
        v0, v1 = lv.coefficients
        data = BoundaryData(v0 * c - v1 * s, v0 * c + v1 * s, -v0 * k * k * s + v1 * c, v0 * k * k * s + v1 * c)
        assert bc_residual(u, data) < 1e-8 * max(map(abs, (data.va, data.vb, data.da, data.db)))


def test_generic_spectrum_refuses_a_floor_beyond_the_float_range():
    # an eigenphase 1e-200 past pi binds a level near E = -4e400, which no
    # float holds: the solver says so rather than return the levels above it
    with pytest.raises(RootSearchError, match="beyond the float range"):
        generic_spectrum([[-1.0 - 1e-200j, 0.0], [0.0, -1.0]], count=1)

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
    closed = sorted(eigenvalue(mode(n, eta).k, 1.0, 1.0) for n in ns)
    numeric = np.array([lv.lam for lv in generic_spectrum(eta_to_unitary(eta), count=17)])
    for lam in closed:
        assert numeric[np.argmin(np.abs(numeric - lam))] == pytest.approx(lam, rel=1e-9)


def _fitted_boundary_data(level, mass=1.0):
    """Endpoint data of a sampled eigenfunction on the unit box, from a least-squares
    fit to the two solutions of -psi''/2m = lam psi."""
    e = 2.0 * mass * level.lam
    k = np.sqrt(abs(e))
    if e > 0:
        fns, ders = (np.cos, np.sin), (lambda z: -np.sin(z), np.cos)
    else:
        fns, ders = (np.cosh, np.sinh), (np.sinh, np.cosh)
    fn = _sampled(level)
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
            assert _sampled(lv).norm() == pytest.approx(1.0, abs=1e-10)
            assert bc_residual(u, _fitted_boundary_data(lv)) < 1e-8


def _pinned_generic_cases():
    path = pathlib.Path(__file__).parent / "data" / "generic_spectrum_pinned.json"
    return json.loads(path.read_text())["cases"]


@pytest.mark.parametrize("case", _pinned_generic_cases(), ids=lambda c: c["name"])
def test_generic_spectrum_matches_the_pinned_levels(case):
    # the scalar solver against the levels of the array solver it replaced
    u = [[complex(*v) for v in row] for row in case["unitary"]]
    levels = generic_spectrum(u, count=case["count"])
    assert [lv.multiplicity for lv in levels] == case["multiplicity"]
    for lv, pinned in zip(levels, case["lam"]):
        assert abs(lv.lam - pinned) <= 1e-13 * abs(pinned), (lv.lam, pinned)


def test_generic_spectrum_scans_once(monkeypatch):
    # level j of any wall condition lies at or below t = (j + 1) pi (the
    # Dirichlet extension is the largest), so one scan to (count + 3) pi
    # spans every level asked for; a scan that finds fewer raises, where the
    # retry used to widen it and pad the list with higher levels
    scans = []
    roots = berrybox.spectrum._roots
    monkeypatch.setattr(berrybox.spectrum, "_roots", lambda *args: scans.append(args[-1]) or roots(*args))
    assert len(generic_spectrum(eta_to_unitary(0.3 + 0.6j), 5)) == 5
    assert scans == [8 * math.pi]
    monkeypatch.setattr(berrybox.spectrum, "_roots", lambda *args: scans.append(args[-1]) or roots(*args)[:4])
    with pytest.raises(RootSearchError, match="found only 4 eigenvalues"):
        generic_spectrum(eta_to_unitary(0.3 + 0.6j), 5)
    assert scans == [8 * math.pi] * 2

