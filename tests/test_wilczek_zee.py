"""Degenerate-level matrix connection, curvature, and holonomy."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import berrybox.wilczek_zee
from berrybox.closed_form import curvature, degenerate_wavenumber, mode
from berrybox.paths import ParameterPath, rectangle_loop
from berrybox.wilczek_zee import (
    connection_from_basis,
    diagonalize_in_plane_waves,
    wz_connection,
    wz_curvature,
    wz_holonomy,
)
from berrybox.cli import main

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)


def test_connection_closed_forms():
    conn = wz_connection(1, 1, 1.0)
    assert np.allclose(conn.coeff_c, 2.0 * np.pi * SIGMA2, atol=1e-13)
    assert np.allclose(conn.coeff_l, 0.0, atol=1e-13)
    conn = wz_connection(1, 1, 2.0)
    assert np.allclose(conn.coeff_c, np.pi * SIGMA2, atol=1e-13)
    conn = wz_connection(-1, 0, 1.0)
    assert np.allclose(conn.coeff_c, np.pi * SIGMA2, atol=1e-13)


def test_connection_matrices_hermitian():
    for eta, n in ((1, 2), (-1, 1)):
        conn = wz_connection(eta, n, 1.4)
        for mat in map(np.array, (conn.coeff_l, conn.coeff_c)):
            assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_numeric_recomputation_matches():
    for eta, n, l in ((1, 1, 1.0), (1, 3, 0.7), (-1, 0, 2.2)):
        closed = wz_connection(eta, n, l)
        numeric = connection_from_basis(eta, n)
        assert np.max(np.abs(np.array(numeric.coeff_c) / l - closed.coeff_c)) < 1e-8
        assert np.max(np.abs(np.array(numeric.coeff_l) / l)) < 1e-8


def test_rejects_nondegenerate():
    with pytest.raises(ValueError):
        wz_connection(0, 1, 1.0)
    with pytest.raises(ValueError):
        wz_holonomy(2, 1, RECT)


def test_curvature():
    curv = wz_curvature(1, 1, 1.0)
    assert np.allclose(curv, 2.0 * np.pi * SIGMA2, atol=1e-13)
    assert abs(np.trace(curv)) < 1e-15
    # 1/l^2 scaling
    curv2 = wz_curvature(1, 1, 2.0)
    assert np.allclose(curv2, 0.5 * np.pi * SIGMA2, atol=1e-13)


@pytest.mark.parametrize("l", [1e-160, 1e-300])
def test_curvature_beyond_the_float_range_raises(l):
    # l ** 2 underflowed: k / l^2 was inf, or a ZeroDivisionError traceback
    with pytest.raises(ValueError, match="not finite"):
        wz_curvature(1, 1, l)
    with pytest.raises(ValueError, match="not finite"):
        curvature(mode(0, 1j), l)


def test_curvature_underflows_to_zero_at_a_huge_box():
    # l ** 2 overflowed with an OverflowError traceback; k_n / l^2 is 0
    assert wz_curvature(1, 1, 1e200) == ((0j, 0j), (0j, 0j))
    assert curvature(mode(0, 1j), 1e200) == 0.0


def test_holonomy_standard_rectangle():
    # theta = k (1/l1 - 1/l2)(c2 - c1) = 2 pi / 2 = pi, exp(+-i pi sigma2) = -I
    hol = wz_holonomy(1, 1, RECT)
    assert np.max(np.abs(hol.matrix + np.eye(2))) < 1e-12
    assert abs(abs(hol.eigenphases[0]) - np.pi) < 1e-12
    assert abs(abs(hol.eigenphases[1]) - np.pi) < 1e-12


def test_holonomy_quarter_rectangle():
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.0, 0.25))
    assert hol.eigenphases[0] == pytest.approx(-np.pi / 4.0, abs=1e-9)
    assert hol.eigenphases[1] == pytest.approx(np.pi / 4.0, abs=1e-9)


def test_holonomy_zero_area():
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.5, 0.5))
    assert np.max(np.abs(hol.matrix - np.eye(2))) < 1e-12


def test_holonomy_unitary_and_real():
    for eta, n in ((-1, 1), (1, 3)):
        u = np.array(wz_holonomy(eta, n, RECT).matrix)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14
        # in the real cos/sin basis the transport is a plane rotation
        assert np.max(np.abs(u.imag)) == 0.0


def test_holonomy_abelian_reduction():
    # eigenphases equal +- the scalar rectangle formula with k = k_n
    k = 2.0 * np.pi  # eta = +1, n = 1
    theta = k * (1.0 / 1.0 - 1.0 / 2.0) * 0.25
    hol = wz_holonomy(1, 1, rectangle_loop(1.0, 2.0, 0.0, 0.25))
    assert sorted(np.abs(hol.eigenphases)) == pytest.approx([theta, theta], abs=1e-9)


def test_plane_wave_diagonalization():
    conn = wz_connection(1, 1, 1.0)
    diag, q = diagonalize_in_plane_waves(conn)
    assert abs(diag[0][1]) + abs(diag[1][0]) < 1e-12
    assert diag[0][0] == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert diag[1][1] == pytest.approx(-2.0 * np.pi, abs=1e-12)
    assert np.allclose(np.array(q).conj().T @ q, np.eye(2), atol=1e-14)
    # the same unitary works at every box: recompute across box lengths, the
    # one thing the connection depends on
    for l in np.linspace(0.5, 2.5, 5):
        conn = wz_connection(1, 1, l)
        d2, q2 = diagonalize_in_plane_waves(conn)
        assert q2 == q
        assert abs(d2[0][1]) + abs(d2[1][0]) < 1e-12


def _expm_i_hermitian(h):
    """exp(i h) of a Hermitian matrix h from its eigendecomposition."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * lam)) @ v.conj().T


def test_closed_form_step_matches_matrix_exponential():
    rng = np.random.default_rng(20150)
    for theta in np.concatenate([[0.0, np.pi / 2, -np.pi], rng.uniform(-np.pi, np.pi, 200)]):
        step = berrybox.wilczek_zee.expm(theta)
        assert np.max(np.abs(step - _expm_i_hermitian(theta * SIGMA2))) < 1e-15


# ---------------------------------------------------------------------------
# the holonomy in closed form


def _sloped_polyline(rng, orientation):
    """A closed polyline of 3-5 vertices around a drawn centre, every side sloped."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 6))))
    l0, c0 = rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0)
    radius = rng.uniform(0.2, 0.6, angles.size)
    verts = [(l0 + r * np.cos(a), c0 + r * np.sin(a)) for a, r in zip(angles, radius)]
    return ParameterPath(verts, orientation)


def _drawn_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        eta = int(rng.choice([1, -1]))
        n = int(rng.integers(1 if eta == 1 else 0, 6))
        yield eta, n, _sloped_polyline(rng, int(rng.choice([1, -1])))


def _theta(eta, n, path):
    """k_n times the loop integral of dc/l, side by side in the log(lb/la)/(lb - la) form."""
    total = 0.0
    for (la, ca), (lb, cb) in path.segments:
        total += (cb - ca) * (1.0 / la if lb == la else math.log(lb / la) / (lb - la))
    return degenerate_wavenumber(eta, n) * path.orientation * total


def _rotation(theta):
    return np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])


def _midpoint_product(eta, n, path, steps):
    """Path-ordered product of exp(i (k/l) sigma_2 dc) with l at each step's
    midpoint, `steps` steps per side: the stepped reference, second order."""
    k = degenerate_wavenumber(eta, n)
    u = np.eye(2)
    sides = path.segments if path.orientation > 0 else [(b, a) for a, b in reversed(path.segments)]
    t = np.arange(steps + 1) / steps
    for (la, ca), (lb, cb) in sides:
        l_mid = la + (lb - la) * 0.5 * (t[:-1] + t[1:])
        c = ca + (cb - ca) * t
        for lj, dc in zip(l_mid, np.diff(c)):
            u = _rotation(k * dc / lj) @ u
    return u


def test_holonomy_eigenphases_are_plus_minus_the_loop_integral():
    for eta, n, path in _drawn_cases(20260, 40):
        theta = _theta(eta, n, path)
        hol = wz_holonomy(eta, n, path)
        assert hol.eigenphases[0] == -hol.eigenphases[1] <= 0.0
        # compare on the circle: each eigenphase is +theta or -theta mod 2 pi
        for phase in hol.eigenphases:
            err = min(abs(math.remainder(phase - s * theta, 2.0 * np.pi)) for s in (1.0, -1.0))
            assert err <= 1e-12 * (1.0 + abs(theta))
        assert np.max(np.abs(hol.matrix - _rotation(theta))) <= 1e-12 * (1.0 + abs(theta))


def test_midpoint_product_converges_to_the_closed_form_at_second_order():
    for eta, n, path in _drawn_cases(20261, 6):
        closed = wz_holonomy(eta, n, path).matrix
        errs = [np.max(np.abs(_midpoint_product(eta, n, path, steps) - closed)) for steps in (256, 512, 1024)]
        ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
        assert all(3.8 < r < 4.2 for r in ratios), (errs, ratios)


def test_reversed_orientation_transposes_the_holonomy():
    for eta, n, path in _drawn_cases(20262, 20):
        reverse = ParameterPath(path.vertices, -path.orientation)
        fwd, rev = wz_holonomy(eta, n, path), wz_holonomy(eta, n, reverse)
        np.testing.assert_allclose(rev.matrix, np.transpose(fwd.matrix), rtol=0.0, atol=1e-15)
        assert rev.eigenphases == fwd.eigenphases


@pytest.mark.parametrize("mesh", [8, 9, 64, 129])
def test_holonomy_routes_every_step_through_expm(monkeypatch, tmp_path, mesh):
    # one closed-form step per holonomy, whatever --mesh says; instrumentation
    # counts holonomies by wrapping this module attribute
    calls = []
    closed_form = berrybox.wilczek_zee.expm

    def counting(theta):
        calls.append(theta)
        return closed_form(theta)

    monkeypatch.setattr(berrybox.wilczek_zee, "expm", counting)
    points = [(1.0, 0.0), (1.6, 0.2), (1.3, 0.7), (0.8, 0.4)]
    config, out = tmp_path / "loop.json", tmp_path / "wz.json"
    config.write_text(json.dumps({"loop": {"type": "polyline", "points": points}}))
    assert main(["wz", "--config", str(config), "--eta", "-1", "--n", "3", "--mesh", str(mesh),
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    doc = json.loads(out.read_text())
    assert doc["mesh"] == mesh and doc["err_estimate"] == 0.0
    # the JSON holds 9 significant digits: the closed form, rounded alike
    theta = abs(math.remainder(_theta(-1, 3, ParameterPath(points)), 2.0 * np.pi))
    assert doc["eigenphases"] == [float(f"{-theta:.8e}"), float(f"{theta:.8e}")]


def test_connection_check_holds_far_off_centre():
    # the quadrature runs once, in the box coordinate, so F/l matches the
    # closed form at centres far from the origin (|c|/l from 1e3 to 1e6):
    # the connection takes the box length alone, which `wz` reads off the
    # first vertex of such a loop
    rng = np.random.default_rng(20263)
    for _ in range(30):
        eta = int(rng.choice([1, -1]))
        n = int(rng.integers(1 if eta == 1 else 0, 6))
        l = 10.0 ** rng.uniform(-3.0, 0.0)
        c = rng.choice([1.0, -1.0]) * l * 10.0 ** rng.uniform(3.0, 6.0)
        closed = wz_connection(eta, n, rectangle_loop(l, 2.0 * l, c, c + l).point(0.0)[0])
        numeric = connection_from_basis(eta, n)
        assert np.max(np.abs(np.array(numeric.coeff_c) / l - closed.coeff_c)) < 1e-8
        assert np.max(np.abs(np.array(numeric.coeff_l) / l)) < 1e-8


def test_connection_check_holds_on_small_boxes_at_high_levels():
    # the entries are of size k/l, up to 6e9 here: checked at the box itself,
    # rounding alone tripped the absolute 1e-8 gate (wz --eta 1 --n 100 on a
    # box of length 1e-6 exited 1); the check runs once, at the unit box
    rng = np.random.default_rng(20264)
    draws = [(1, 100, 1e-6)] + [(int(e), int(rng.integers(1 if e == 1 else 0, 1001)), 10.0 ** rng.uniform(-6.0, 3.0))
                                for e in rng.choice([1, -1], 24)]
    for eta, n, l in draws:
        k = degenerate_wavenumber(eta, n)
        conn = wz_connection(eta, n, l)
        assert np.max(np.abs(conn.coeff_c - (k / l) * SIGMA2)) <= 1e-15 * abs(k) / l, (eta, n, l)
        assert np.max(np.abs(conn.coeff_l)) == 0.0


def test_connection_check_memory_does_not_grow_with_the_level():
    # the recomputation is a closed form: it passes the unchanged 1e-8 gate
    # at n = 1e4 and 1e6 for both signs (the Gauss rule it replaced missed it
    # at n = 1e6, by 3e-8), and its peak memory at those levels is that of n = 1
    for eta in (1, -1):
        wz_connection(eta, 1, 1.0)
        peaks = {}
        for n in (1, 10_000, 1_000_000):
            tracemalloc.start()
            try:
                wz_connection(eta, n, 1.0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            k = degenerate_wavenumber(eta, n)
            numeric = connection_from_basis(eta, n)
            assert np.max(np.abs(numeric.coeff_c - k * SIGMA2)) <= 1e-8, (eta, n)
            assert np.max(np.abs(numeric.coeff_l)) <= 1e-8, (eta, n)
        assert max(peaks.values()) <= peaks[1] + 4096, (eta, peaks)


@pytest.mark.parametrize("eta", ["1", "-1"])
def test_connection_check_holds_at_the_rounding_floor_of_k(tmp_path, eta):
    # beyond |n| ~ 1.3e6 the recomputation rounds 1-2 ulps of k_n off, which
    # is more than 1e-8: wz --eta +-1 --n 10000000 exited 3 on rounding alone.
    # The gate is the wider of 1e-8 and 8 ulps of k_n
    for n in (10 ** 7, 10 ** 8, 10 ** 9):
        assert main(["wz", "--eta", eta, "--n", str(n), "--out", str(tmp_path / "wz.json")]) == 0, n
        k = degenerate_wavenumber(int(eta), n)
        assert np.max(np.abs(connection_from_basis(int(eta), n).coeff_c - k * SIGMA2)) <= 8 * math.ulp(k), n


@pytest.mark.parametrize("n", [1, 100, 10 ** 6, 10 ** 8])
def test_connection_off_by_a_relative_1e_7_exits_3(tmp_path, monkeypatch, n):
    # the gate widens with k_n no further than its rounding floor: a
    # recomputation scaled by 1 + 1e-7 still fails it, at low and high levels
    real = berrybox.wilczek_zee.connection_from_basis

    def scaled(eta, n):
        conn = real(eta, n)
        return berrybox.wilczek_zee.MatrixConnection(
            coeff_l=conn.coeff_l, coeff_c=tuple(tuple(v * (1.0 + 1e-7) for v in row) for row in conn.coeff_c))

    monkeypatch.setattr(berrybox.wilczek_zee, "connection_from_basis", scaled)
    for eta in ("1", "-1"):
        assert main(["wz", "--eta", eta, "--n", str(n), "--out", str(tmp_path / "wz.json")]) == 3, eta
        assert not (tmp_path / "wz.json").exists()
