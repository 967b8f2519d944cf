"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test exercises the full tolerance budget of its criterion;
the supporting unit tests live in the sibling modules.
"""

import numpy as np
import pytest

from array_rules import GridFunction, commutator_defect, curvature_flux
from berrybox.adiabatic import Schedule, propagate
from berrybox.berry import connection_interior, connection_mollified, loop_phase_overlap_meshes, refine
from berrybox.boundary import ETA_INF, classify_unitary, eta_to_unitary
from berrybox.boundary_triple import BoundaryData, triple_identity_defect
from berrybox.closed_form import connection_analytic, curvature, eigenvalue, loop_phase_analytic, mode
from berrybox.paths import rectangle_loop
from berrybox.spectrum import generic_spectrum
from berrybox.wilczek_zee import diagonalize_in_plane_waves, wz_connection, wz_holonomy

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)
ETA_GRID = (1j, 0.0, 0.5, 2j, -0.3 + 0.4j)


def report(num, name):
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


def test_criterion_1_boundary_condition_table():
    assert np.allclose(eta_to_unitary(1.0), SIGMA1, atol=1e-15)
    assert np.allclose(eta_to_unitary(-1.0), -SIGMA1, atol=1e-15)
    assert classify_unitary(-np.eye(2)).kind == "dirichlet"
    assert classify_unitary(np.eye(2)).kind == "neumann"
    assert classify_unitary(SIGMA1).kind == "periodic"
    assert classify_unitary(-SIGMA1).kind == "antiperiodic"
    count = 0
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        for j in range(20):
            eta = r * np.exp(2j * np.pi * (j + 0.5) / 20)
            got = classify_unitary(eta_to_unitary(eta)).eta
            assert got is not None
            assert abs(got.value - eta) <= 1e-10 * abs(eta)
            count += 1
    assert count == 100
    assert classify_unitary(eta_to_unitary(ETA_INF)).eta == ETA_INF
    report(1, "boundary-condition table and classification round-trip")


def test_criterion_2_boundary_triple_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        psi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        phi = BoundaryData(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        worst = max(worst, triple_identity_defect(psi, phi))
    assert worst < 1e-12
    report(2, f"boundary-triple identity (worst defect {worst:.2e})")


def test_criterion_3_spectrum():
    m0 = mode(0, 1j)
    assert m0.k == pytest.approx(np.pi / 2.0, abs=1e-14)
    lam0 = eigenvalue(m0.k, 1.0, 1.0)
    assert lam0 == pytest.approx(np.pi ** 2 / 8.0, abs=1e-12)
    assert lam0 == pytest.approx(1.23370055, abs=1e-8)
    for eta in ETA_GRID:
        closed = sorted(eigenvalue(mode(n, eta).k, 1.0, 1.0) for n in range(-4, 5))
        levels = generic_spectrum(eta_to_unitary(eta), count=9)
        for lv, ex in zip(levels, closed):
            assert lv.lam == pytest.approx(ex, rel=1e-9)
    dirichlet = generic_spectrum(-np.eye(2), count=3)
    for j, lv in zip((1, 2, 3), dirichlet):
        assert lv.lam == pytest.approx(j ** 2 * np.pi ** 2 / 2.0, rel=1e-9)
    report(3, "closed-form spectrum vs independent transcendental solver")


def test_criterion_4_connection_oracles():
    for eta in ETA_GRID:
        for n in range(-4, 5):
            for l in (1.0, 1.6):
                m = mode(n, eta)
                exact = connection_analytic(m)[1] / l
                inner_l, inner_c = (f / l for f in connection_interior(m))
                assert abs(inner_c - exact) < 1e-6
                assert abs(inner_l) < 1e-6
                eps = [0.2, 0.1, 0.05, 0.025]
                moll_l, moll_c = ([f / l for f in fs] for fs in zip(*(connection_mollified(m, e) for e in eps)))
                limit = refine(eps, moll_c, 1)[0]
                assert abs(limit - exact) < 1e-4
                assert abs(moll_l[-1]) < 1e-4
    report(4, "interior and mollified connection oracles on the full grid")


def test_criterion_5_rectangle_berry_phase():
    m = mode(0, 1j)
    target = abs(loop_phase_analytic(m, RECT))
    assert target == pytest.approx(np.pi / 4.0, abs=1e-12)
    errs = []
    for phase in loop_phase_overlap_meshes(m, RECT, [64, 128, 256, 512]):
        errs.append(abs(abs(phase) - np.pi / 4.0))
    assert errs[-1] < 1e-3
    for coarse, fine in zip(errs[:-1], errs[1:]):
        # halving ratio about 1/2 or better, with an absolute floor for the
        # plane-wave case where the discrete product is exact
        assert fine <= 0.65 * coarse + 1e-12
    for eta in (0.0, 0.5, -2.0):
        [phase] = loop_phase_overlap_meshes(mode(0, eta), RECT, [256])
        assert abs(phase) < 1e-4
    report(5, f"rectangle loop phase pi/4 by overlaps (final err {errs[-1]:.2e})")


def test_criterion_6_stokes_consistency():
    rng = np.random.default_rng(77)
    m = mode(1, -0.3 + 0.4j)
    for _ in range(10):
        l1, l2 = np.sort(rng.uniform(0.5, 3.0, 2) + [0.0, 1e-3])
        c1, c2 = np.sort(rng.uniform(-1.0, 1.0, 2) + [0.0, 1e-3])
        orientation = int(rng.choice([1, -1]))
        rect = rectangle_loop(float(l1), float(l2), float(c1), float(c2), orientation=orientation)
        # the loop phase against the curvature flux through the rectangle
        flux = curvature_flux(m, float(l1), float(l2), float(c1), float(c2))
        assert abs(loop_phase_analytic(m, rect) - orientation * flux) < 1e-8
    # exact ratio: f_lc equals k sin(alpha) times the hyperbolic density 1/l^2
    m2 = mode(0, 2j)
    expected = m2.k * np.sin(m2.alpha)
    for l in np.linspace(0.5, 2.5, 5):
        for c in np.linspace(-1.0, 1.0, 5):
            f = curvature(m2, l)
            assert f * l ** 2 == pytest.approx(expected, rel=1e-13)
    report(6, "Stokes consistency and hyperbolic-area curvature ratio")


def test_criterion_7_degenerate_holonomy():
    hol = wz_holonomy(1, 1, RECT)
    assert np.max(np.abs(hol.matrix + np.eye(2))) < 1e-6
    for phase in hol.eigenphases:
        assert abs(abs(phase) - np.pi) < 1e-6
    assert np.max(np.abs(np.imag(hol.matrix))) < 1e-10
    u = np.real(hol.matrix)
    assert np.max(np.abs(u.T @ u - np.eye(2))) < 1e-10
    q_ref = None
    # the connection depends on the box through l alone
    for l in np.linspace(0.6, 2.4, 5):
        conn = wz_connection(1, 1, l)
        diag, q = diagonalize_in_plane_waves(conn)
        assert abs(diag[0][1]) + abs(diag[1][0]) < 1e-12
        if q_ref is None:
            q_ref = q
        assert q == q_ref
    report(7, "degenerate holonomy -I, real-orthogonal, global plane-wave basis")


def test_criterion_8_adiabatic_dynamics():
    target = np.pi / 4.0
    errs = []
    for T in (25.0, 50.0, 100.0, 200.0):
        rep = propagate(Schedule(RECT, T, int(100 * T)), 0, 1j, 16)
        assert rep.fidelity > 0.99
        errs.append(abs(rep.geometric_phase - target))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert fine <= 0.6 * coarse
    assert errs[-1] < 0.01 * target
    report(8, f"adiabatic geometric phase converges O(1/T) (final err {errs[-1]:.2e})")


def test_criterion_9_commutator_identity():
    defects = []
    for h in (4e-3, 2e-3, 1e-3):
        x = np.arange(-2.0, 2.0 + h / 2.0, h)
        f = np.exp(-x ** 2 / (2.0 * 0.25 ** 2))
        defects.append(commutator_defect(GridFunction(nodes=x, values=f, weights=np.full_like(x, h))))
    assert defects[-1] < 1e-4
    for coarse, fine in zip(defects[:-1], defects[1:]):
        assert 3.0 < coarse / fine < 5.0
    report(9, "dilation-momentum commutator second-order decay")
