"""Boundary-condition classification and boundary-triple identities."""

import cmath

import numpy as np
import pytest

from berrybox.boundary import ETA_INF, Eta, as_eta, classify_unitary, eta_to_unitary, require_unitary
from berrybox.boundary_triple import (
    BoundaryData,
    bc_residual,
    boundary_form,
    compliant_data,
    dilation_transport,
    triple_identity_defect,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)


def eta_grid(count=100):
    """Family members spread over radii and phases, avoiding the degenerate +-1."""
    radii = [0.25, 0.5, 1.0, 2.0, 4.0]
    per = count // len(radii)
    etas = []
    for r in radii:
        for j in range(per):
            phase = 2.0 * np.pi * (j + 0.5) / per
            etas.append(r * np.exp(1j * phase))
    return etas


def test_as_eta_reads_numbers_and_text():
    assert as_eta("0.3+0.6i") == Eta(0.3 + 0.6j)
    assert as_eta(" -2I ") == Eta(-2j)
    assert as_eta(0.5) == Eta(0.5)
    for inf in ("inf", " Infinity", float("inf")):
        assert as_eta(inf) is ETA_INF
    # a 401-digit integer used to raise OverflowError
    for bad in (10 ** 400, "1+", "nan", float("nan"), float("-inf"), complex(1.0, float("inf")), None):
        with pytest.raises(ValueError, match="cannot parse eta"):
            as_eta(bad)


def test_named_unitaries():
    assert np.allclose(eta_to_unitary(1.0), SIGMA1, atol=1e-15)
    assert np.allclose(eta_to_unitary(-1.0), -SIGMA1, atol=1e-15)
    # eta = 0 pins psi(a) = 0, psi'(b) = 0; eta = inf is the mirrored pair
    assert np.allclose(eta_to_unitary(0.0), np.diag([-1.0, 1.0]), atol=1e-15)
    assert np.allclose(eta_to_unitary(ETA_INF), np.diag([1.0, -1.0]), atol=1e-15)


@pytest.mark.parametrize("eta, sign", [
    (1.0, 1), (-1.0, -1), (1.0000000000000002, 1), (-0.9999999999999998, -1),
    (1.0 + 5e-15j, 1), (-1.0 - 5e-15j, -1),
    (1.0 + 1e-13, None), (0.3 + 0.5j, None), (0.0, None), (1j, None), (ETA_INF, None),
])
def test_degenerate_sign_is_the_one_predicate(eta, sign):
    e = eta if isinstance(eta, Eta) else Eta(eta)
    assert e.degenerate_sign == sign
    assert e.degenerate is (sign is not None)


def test_unitary_at_i_by_hand():
    # substituting eta = i: |eta|^2 = 1, off-diagonal 2(+-i)/2 = +-i, diagonal 0
    assert np.allclose(eta_to_unitary(1j), np.array([[0, 1j], [-1j, 0]]), atol=1e-15)


@pytest.mark.parametrize("eta", eta_grid() + [ETA_INF])
def test_family_is_unitary_and_hermitian(eta):
    u = eta_to_unitary(eta)
    assert all(type(v) is complex for row in u for v in row) and len(u) == 2 == len(u[0]) == len(u[1])
    u = np.array(u)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    assert np.max(np.abs(u - u.conj().T)) < 1e-12


def test_family_member_beyond_the_square_of_the_float_range():
    # |eta|^2 overflowed (OverflowError, exit 1 from `bc`) from |eta| ~ 1.3e154;
    # the member there is that of 1/conj(eta) with the diagonal negated, which
    # the direct formula gives too below the switch at |eta| = 1e150
    for eta in (1e300 + 1e300j, -1e200j, 1.2e308, 3e150 - 2e150j):
        u = np.array(eta_to_unitary(eta))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12 and np.max(np.abs(u - u.conj().T)) == 0.0
        assert u[0, 1] == pytest.approx(2.0 / np.conj(eta), rel=1e-12) and u[0, 0] == 1.0 and u[1, 1] == -1.0
    for eta in (1e149 + 1e149j, 2e149, 3e140j):
        a, b = np.array(eta_to_unitary(eta)), -np.array(eta_to_unitary(1.0 / np.conj(eta))) * [[1, -1], [-1, 1]]
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    # a modulus beyond the float range is no finite eta
    with pytest.raises(ValueError, match="cannot parse eta"):
        as_eta("1.7e308+1.7e308i")


def test_classification_named_cases():
    assert classify_unitary(-np.eye(2)).kind == "dirichlet"
    assert classify_unitary(np.eye(2)).kind == "neumann"
    info = classify_unitary(SIGMA1)
    assert info.kind == "periodic" and info.eta == Eta(1.0)
    info = classify_unitary(-SIGMA1)
    assert info.kind == "antiperiodic" and info.eta == Eta(-1.0)
    # Dirichlet/Neumann are dilation invariant but outside the eta family
    assert classify_unitary(-np.eye(2)).dilation_invariant
    assert classify_unitary(np.eye(2)).eta is None


def test_classification_roundtrip_grid():
    for eta in eta_grid(100):
        info = classify_unitary(eta_to_unitary(eta))
        assert info.eta is not None
        assert abs(info.eta.value - eta) <= 1e-10 * abs(eta)
        assert info.dilation_invariant
    assert classify_unitary(eta_to_unitary(ETA_INF)).eta == ETA_INF


def test_classification_other():
    robin = np.diag([np.exp(0.7j), 1.0])
    info = classify_unitary(robin)
    assert info.kind == "other"
    assert not info.dilation_invariant


def test_classify_rejects_nonunitary():
    with pytest.raises(ValueError):
        classify_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("u, message", [
    # a NaN defect used to compare false against tol and pass the check
    pytest.param([[complex("nan"), 0], [0, 1]], "must be finite", id="nan"),
    pytest.param([[float("inf"), 0], [0, 1]], "must be finite", id="infinity"),
    pytest.param([[1, 0], [0, complex(0, float("nan"))]], "must be finite", id="imaginary-nan"),
    pytest.param([[1, 0], [0]], "must be 2x2", id="ragged"),
    pytest.param(np.eye(3), "must be 2x2", id="3x3"),
    pytest.param([1, 0], "must be 2x2", id="vector"),
    pytest.param(np.eye(2)[0], "must be 2x2", id="array-vector"),
])
def test_require_unitary_rejects_nonfinite_or_non_2x2(u, message):
    with pytest.raises(ValueError, match=message):
        require_unitary(u)


def test_require_unitary_returns_rows_of_complex():
    assert require_unitary(np.eye(2)) == ((1, 0), (0, 1))
    assert require_unitary([[0, 1j], [-1j, 0]]) == ((0, 1j), (-1j, 0))
    assert all(type(v) is complex for row in require_unitary(np.eye(2)) for v in row)


def test_classification_matches_entrywise_within_tol():
    # np.allclose added a relative tolerance of 1e-5, so both of these used to
    # match a named condition although they differ from it by 1e-6
    near_dirichlet = [[-1, 0], [0, -cmath.exp(1e-6j)]]
    assert classify_unitary(near_dirichlet).kind == "other"
    near_periodic = eta_to_unitary(1 + 1e-6j)
    info = classify_unitary(near_periodic)
    assert info.kind == "eta" and not info.eta.degenerate
    assert abs(info.eta.value - (1 + 1e-6j)) < 1e-15
    # within the absolute tolerance a named condition still matches
    assert classify_unitary([[-1, 0], [0, -cmath.exp(1e-10j)]]).kind == "dirichlet"


def eta_i_mode_data(k):
    """Endpoint data of sin(kx) + i cos(kx) on [-1/2, 1/2], by direct arithmetic."""
    phi = lambda x: cmath.sin(k * x) + 1j * cmath.cos(k * x)
    dphi = lambda x: k * cmath.cos(k * x) - 1j * k * cmath.sin(k * x)
    return BoundaryData(phi(-0.5), phi(0.5), dphi(-0.5), dphi(0.5))


def test_bc_residual():
    assert bc_residual(-np.eye(2), BoundaryData(0, 0, 1, 1)) == pytest.approx(0.0, abs=1e-14)
    assert bc_residual(SIGMA1, BoundaryData(1, 1, 2, 2)) == pytest.approx(0.0, abs=1e-14)
    # lowest eta = i eigenfunction, with its quantized wavenumber pi/2
    d = eta_i_mode_data(np.pi / 2.0)
    assert bc_residual(eta_to_unitary(1j), d) < 1e-10
    # and a wrong wavenumber must NOT satisfy the condition
    assert bc_residual(eta_to_unitary(1j), eta_i_mode_data(1.0)) > 1e-2


def test_boundary_form_dirichlet_and_self():
    rng = np.random.default_rng(7)
    for _ in range(5):
        da, db, ea, eb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = BoundaryData(0, 0, da, db)
        phi = BoundaryData(0, 0, ea, eb)
        assert abs(boundary_form(psi, phi)) < 1e-14
    # Gamma(xi, xi) is purely imaginary
    xi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    assert abs(boundary_form(xi, xi).real) < 1e-14


def test_boundary_form_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        phi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        g1 = boundary_form(psi, phi, mass=1.3)
        g2 = boundary_form(phi, psi, mass=1.3)
        assert abs(g1 + np.conj(g2)) < 1e-13


def test_boundary_form_vanishes_on_common_domain():
    rng = np.random.default_rng(3)
    etas = [rng.standard_normal() + 1j * rng.standard_normal() for _ in range(19)] + [ETA_INF]
    for eta in etas:
        psi = compliant_data(eta, rng.standard_normal() + 1j * rng.standard_normal(),
                             rng.standard_normal() + 1j * rng.standard_normal())
        phi = compliant_data(eta, rng.standard_normal() + 1j * rng.standard_normal(),
                             rng.standard_normal() + 1j * rng.standard_normal())
        assert bc_residual(eta_to_unitary(eta), psi) < 1e-12
        assert abs(boundary_form(psi, phi, mass=0.8)) < 1e-13


def test_triple_identity_examples():
    zero = BoundaryData(0, 0, 0, 0)
    assert triple_identity_defect(zero, zero) == pytest.approx(0.0, abs=1e-15)
    # the identity is algebraic: it holds for data that satisfy no particular BC
    assert triple_identity_defect(BoundaryData(1, 0, 0, 0), BoundaryData(0, 0, 1, 0)) < 1e-15


def test_triple_identity_random():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        psi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        phi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        assert triple_identity_defect(psi, phi) < 1e-12


def test_dilation_transport():
    d = BoundaryData(1.0 + 2j, 0.5, -1j, 3.0)
    same = dilation_transport(d, 1.0)
    assert all(
        getattr(same, f) == getattr(d, f) for f in ("va", "vb", "da", "db")
    )
    # eta = i compliant data stay compliant under scaling
    psi = compliant_data(1j, 0.3 - 0.7j, 1.1 + 0.2j)
    out = dilation_transport(psi, 2.0)
    assert bc_residual(eta_to_unitary(1j), out) < 1e-12
    # Dirichlet stays Dirichlet
    out = dilation_transport(BoundaryData(0, 0, 1.0, 2.0), 3.7)
    assert out.va == 0 and out.vb == 0
    with pytest.raises(ValueError):
        dilation_transport(d, -1.0)
