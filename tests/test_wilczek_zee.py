"""Degenerate-level matrix connection, curvature, and holonomy."""

import numpy as np
import pytest

import berrybox.wilczek_zee
from berrybox import (
    Geometry,
    connection_from_basis,
    diagonalize_in_plane_waves,
    rectangle_loop,
    wz_connection,
    wz_curvature,
    wz_holonomy,
)

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)


def test_connection_closed_forms():
    conn = wz_connection(1, 1, Geometry(1.0, 0.0))
    assert np.allclose(conn.coeff_c, 2.0 * np.pi * SIGMA2, atol=1e-13)
    assert np.allclose(conn.coeff_l, 0.0, atol=1e-13)
    conn = wz_connection(1, 1, Geometry(2.0, 0.0))
    assert np.allclose(conn.coeff_c, np.pi * SIGMA2, atol=1e-13)
    conn = wz_connection(-1, 0, Geometry(1.0, 0.0))
    assert np.allclose(conn.coeff_c, np.pi * SIGMA2, atol=1e-13)


def test_connection_matrices_hermitian():
    for eta, n in ((1, 2), (-1, 1)):
        conn = wz_connection(eta, n, Geometry(1.4, -0.3))
        for mat in (conn.coeff_l, conn.coeff_c):
            assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_numeric_recomputation_matches():
    for eta, n, g in ((1, 1, Geometry(1.0, 0.0)), (1, 3, Geometry(0.7, 0.4)), (-1, 0, Geometry(2.2, -1.0))):
        closed = wz_connection(eta, n, g, verify=False)
        numeric = connection_from_basis(eta, n, g)
        assert np.max(np.abs(numeric.coeff_c - closed.coeff_c)) < 1e-8
        assert np.max(np.abs(numeric.coeff_l)) < 1e-8


def test_rejects_nondegenerate():
    with pytest.raises(ValueError):
        wz_connection(0, 1, Geometry(1.0, 0.0))
    with pytest.raises(ValueError):
        wz_holonomy(2, 1, RECT, 64)


def test_curvature():
    curv = wz_curvature(1, 1, Geometry(1.0, 0.0))
    assert np.allclose(curv, 2.0 * np.pi * SIGMA2, atol=1e-13)
    assert abs(np.trace(curv)) < 1e-15
    # 1/l^2 scaling
    curv2 = wz_curvature(1, 1, Geometry(2.0, 0.0))
    assert np.allclose(curv2, 0.5 * np.pi * SIGMA2, atol=1e-13)


def test_holonomy_standard_rectangle():
    # theta = k (1/l1 - 1/l2)(c2 - c1) = 2 pi / 2 = pi, exp(+-i pi sigma2) = -I
    hol = wz_holonomy(1, 1, RECT, 256)
    assert np.max(np.abs(hol.matrix + np.eye(2))) < 1e-6
    assert abs(abs(hol.eigenphases[0]) - np.pi) < 1e-6
    assert abs(abs(hol.eigenphases[1]) - np.pi) < 1e-6
    assert hol.err_estimate < 1e-6


def test_holonomy_quarter_rectangle():
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.0, 0.25), 256)
    assert hol.eigenphases[0] == pytest.approx(-np.pi / 4.0, abs=1e-9)
    assert hol.eigenphases[1] == pytest.approx(np.pi / 4.0, abs=1e-9)


def test_holonomy_zero_area():
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.5, 0.5), 64)
    assert np.max(np.abs(hol.matrix - np.eye(2))) < 1e-12


def test_holonomy_unitary_and_real():
    for mesh in (8, 64, 256):
        hol = wz_holonomy(-1, 1, RECT, mesh)
        u = hol.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
        # in the real cos/sin basis the transport is a plane rotation
        assert np.max(np.abs(u.imag)) < 1e-10


def test_holonomy_mesh_stability():
    fine = wz_holonomy(1, 1, RECT, 512)
    coarse = wz_holonomy(1, 1, RECT, 256)
    # compare on the circle: the rectangle phases sit at the +-pi seam
    delta = np.array(fine.eigenphases) - np.array(coarse.eigenphases)
    assert np.max(np.abs(np.angle(np.exp(1j * delta)))) < 1e-6


def test_holonomy_abelian_reduction():
    # eigenphases equal +- the scalar rectangle formula with k = k_n
    k = 2.0 * np.pi  # eta = +1, n = 1
    theta = k * (1.0 / 1.0 - 1.0 / 2.0) * 0.25
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.0, 0.25), 128)
    assert sorted(np.abs(hol.eigenphases)) == pytest.approx([theta, theta], abs=1e-9)


def test_plane_wave_diagonalization():
    conn = wz_connection(1, 1, Geometry(1.0, 0.0))
    diag, q = diagonalize_in_plane_waves(conn)
    assert abs(diag[0, 1]) + abs(diag[1, 0]) < 1e-12
    assert diag[0, 0] == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert diag[1, 1] == pytest.approx(-2.0 * np.pi, abs=1e-12)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-14)
    # the same unitary works at every geometry: recompute across a grid
    for l in np.linspace(0.5, 2.5, 5):
        for c in np.linspace(-1.0, 1.0, 5):
            conn = wz_connection(1, 1, Geometry(l, c), verify=False)
            d2, q2 = diagonalize_in_plane_waves(conn)
            assert np.array_equal(q2, q)
            assert abs(d2[0, 1]) + abs(d2[1, 0]) < 1e-12


def test_closed_form_step_matches_matrix_exponential():
    from scipy.linalg import expm

    rng = np.random.default_rng(20150)
    for theta in np.concatenate([[0.0, np.pi / 2, -np.pi], rng.uniform(-np.pi, np.pi, 200)]):
        step = berrybox.wilczek_zee.expm(theta)
        assert np.max(np.abs(step - expm(1j * theta * SIGMA2))) < 1e-15


@pytest.mark.parametrize("mesh", [8, 9, 64, 129])
def test_holonomy_routes_every_step_through_expm(monkeypatch, mesh):
    # instrumentation counts holonomy steps by wrapping this module attribute
    calls = []
    closed_form = berrybox.wilczek_zee.expm

    def counting(theta):
        calls.append(theta)
        return closed_form(theta)

    monkeypatch.setattr(berrybox.wilczek_zee, "expm", counting)
    wz_holonomy(1, 1, RECT, mesh)
    assert len(calls) == mesh + max(mesh // 2, 4)
