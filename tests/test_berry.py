"""Connection oracles, loop phases, curvature, and the dilation commutator."""

import functools
import itertools
import json
import math
import pathlib
import re
import types

import numpy as np
import pytest

from array_rules import (
    GridFunction,
    commutator_defect,
    curvature_flux,
    oscillatory_rule,
    panel_rule,
    plane_wave_values,
    reference_rule,
)
import berrybox.berry
from berrybox.adiabatic import mode_window
from berrybox.berry import (
    MeshTooCoarseError,
    _chain_phase,
    connection_interior,
    connection_mollified,
    loop_phase_overlap_meshes,
    ORDER_SLACK,
    SAFETY,
    overlap_order,
    refine,
    require_interior_step,
    state_overlap,
)
from berrybox.boundary import ETA_INF, eta_to_unitary
from berrybox.cli.berry import _MOLLIFIER_WIDTHS, _berry_phase_rows
from berrybox.closed_form import (
    PlaneWaves,
    connection_analytic,
    curvature,
    degenerate_wavenumber,
    degenerate_waves,
    loop_phase_analytic,
    mode,
    weak_form,
    window_integral,
)
from berrybox.paths import ParameterPath, rectangle_loop
from berrybox.spectrum import _residual_matrix, _secular_parts, generic_spectrum

UNIT = (1.0, 0.0)
RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)


def _phi(m, u):
    """phi = sin(ku) + e^{i alpha} cos(ku) and phi' at each point of the array u."""
    e = np.exp(1j * m.alpha)
    return np.sin(m.k * u) + e * np.cos(m.k * u), m.k * (np.cos(m.k * u) - e * np.sin(m.k * u))


def _extension(m, g, x):
    """The smooth extension l^-1/2 phi((x - c)/l) of the eigenfunction at the
    box g = (l, c), and its gradient (d/dl, d/dc) at fixed x, at each point of
    the array x: -l^-3/2 (phi/2 + u phi') and -l^-3/2 phi', u = (x - c)/l."""
    l, c = g
    u = (np.asarray(x, dtype=float) - c) / l
    val, der = _phi(m, u)
    scale = -1.0 / (l * np.sqrt(l))
    return val / np.sqrt(l), (scale * (0.5 * val + u * der), scale * der)


def _overlap(m, ga, gb):
    """The overlap of the states at two boxes (l, c), by dilation covariance:
    `state_overlap` at (lb/la, (cb - ca)/la)."""
    (la, ca), (lb, cb) = ga, gb
    return state_overlap(m, lb / la, (cb - ca) / la)


def _loop_integral(path, connection):
    """Reference line integral -contour integral of (a_l dl + a_c dc) by 16
    Gauss nodes per side, summed node by node in path order;
    `connection(l, c)` takes the box at one node."""
    nseg = len(path.segments)
    xg, wg = reference_rule(16)
    total = 0.0
    for i in range(nseg):
        for xj, wj in zip(xg, wg):
            s = (i + 0.5 + 0.5 * xj) / nseg
            al, ac = connection(*path.point(s))
            vl, vc = path.velocity(s)
            total += wj * (0.5 / nseg) * (al * vl + ac * vc)
    return -total


def _over_l(f):
    """A side connection for `_loop_integral`: the unit-box connection
    f = (F_l, F_c) of an oracle, divided by l at each node."""
    return lambda l, c: (f[0] / l, f[1] / l)


def _loop_phase(f, path):
    """The loop phase of the unit-box connection f = (F_l, F_c), as `berry`
    forms it: -F_c times the loop integral of dc/l."""
    return -f[1] * path.dc_over_l()


def _mollified_sweep(m, path):
    """The unrounded phases of `berry`'s mollified rows, one per width of
    `_MOLLIFIER_WIDTHS`."""
    return _berry_phase_rows(m, path, ["mollified"], {"mesh": 256})[3]["mollified"][1]


# ---------------------------------------------------------------------------
# mollifier profiles


def _cos_squared(t):
    """The cutoff profile of `connection_mollified`, rho(t) = cos^2(pi t/2),
    at each entry of the array t in [0, 1]."""
    return np.cos(0.5 * np.pi * np.asarray(t, dtype=float)) ** 2


def _smooth_step(t):
    """The C^infinity profile rho(t) = f(1 - t)/(f(t) + f(1 - t)) built from
    f(t) = exp(-1/t), identically 1 for t <= 0 and 0 for t >= 1, at each
    entry of the array t: a second reference profile, flat to every order
    where it meets the box."""
    t = np.asarray(t, dtype=float)
    up = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    down = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
    return up / (up + down)


PROFILES = {"cos-squared": _cos_squared, "smooth-step": _smooth_step}


def test_mollifier_shape():
    # both profiles fall from 1 to 0 across the strip, and the square of
    # cos^2(pi t/2) is the plane-wave sum the oracle integrates in closed form
    t = np.linspace(0.0, 1.0, 201)
    for rho in PROFILES.values():
        vals = rho(t)
        assert vals[0] == pytest.approx(1.0, abs=1e-15) and vals[-1] == pytest.approx(0.0, abs=1e-15)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(_smooth_step(np.linspace(1.0, 3.0, 20)) == 0.0)
    square = sum(w * np.exp(1j * s * t) for w, s in berrybox.berry._PROFILE_SQUARED)
    assert np.max(np.abs(square - _cos_squared(t) ** 2)) < 1e-15


def test_mollifier_flat_at_zero():
    # one-sided finite differences of orders 1..3 at t = 0 must vanish for
    # the smooth step; the step must keep every sample in the exp(-1/t)-flat
    # zone.  cos^2(pi t/2) is C^1: its slope vanishes at both ends, where it
    # meets the box and the zero beyond, and its curvature does not
    h = 0.01
    f = _smooth_step(np.arange(5) * h)
    d1 = (f[1] - f[0]) / h
    d2 = (f[2] - 2 * f[1] + f[0]) / h ** 2
    d3 = (f[3] - 3 * f[2] + 3 * f[1] - f[0]) / h ** 3
    for d in (d1, d2, d3):
        assert abs(d) < 1e-6
    for end, inward in ((0.0, 1.0), (1.0, -1.0)):
        slopes = [(_cos_squared(end + inward * step) - _cos_squared(end)) / step for step in (h, h / 2)]
        assert slopes[0] / slopes[1] == pytest.approx(2.0, rel=1e-2)
    # the second derivative jumps from 0 to -pi^2/2 at t = 0
    f = _cos_squared(np.arange(3) * h)
    assert (f[2] - 2 * f[1] + f[0]) / h ** 2 == pytest.approx(-0.5 * np.pi ** 2, rel=1e-3)


# ---------------------------------------------------------------------------
# connection oracles


def test_connection_analytic_values():
    m = mode(0, 1j)
    a_l, a_c = connection_analytic(m)
    assert a_c == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert a_l == 0.0


@pytest.mark.parametrize("eta", [2.0, -3.0, ETA_INF, 0.5])
def test_time_reversal_invariant_eta_carries_exactly_zero(eta):
    # alpha is pi (or 0), and np.sin(pi) = 1.2e-16 used to leak into the
    # connection, the curvature, the p diagonal and the loop phase
    for n in (-2, 0, 1):
        m = mode(n, eta)
        assert m.sin_alpha == 0.0
        assert connection_analytic(m)[1] == 0.0
        assert all(curvature(m, l) == 0.0 for l in (0.5, 1.0, 2.0))
        assert loop_phase_analytic(m, RECT) == 0.0
    assert np.all(np.diag(weak_form(tuple(m.waves for m in mode_window(eta, 2)))[0]) == 0.0)


def test_connection_interior_matches_closed_form():
    m = mode(0, 1j)
    a_l, a_c = connection_interior(m)
    assert abs(a_c - np.pi / 2.0) < 1e-6
    assert abs(a_l) < 1e-6
    a_l, a_c = connection_interior(mode(0, 0.0))
    assert abs(a_c) < 1e-8 and abs(a_l) < 1e-8
    with pytest.raises(ValueError):
        connection_interior(m, 1.0)


def test_connection_interior_second_order():
    m = mode(1, -0.3 + 0.4j)
    exact = connection_analytic(m)[1]
    errs = [abs(connection_interior(m, h_rel)[1] - exact) for h_rel in (2e-2, 1e-2, 5e-3)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_connection_mollified_converges():
    m = mode(0, 2j)
    exact = connection_analytic(m)[1]
    eps = [0.2, 0.1, 0.05]
    a_l, a_c = zip(*(connection_mollified(m, e) for e in eps))
    limit, _, _, converged = refine(eps, a_c, 1)
    assert converged
    assert abs(limit - exact) < 1e-4
    assert np.all(np.abs(a_l) < 1e-10)


def _embedding_grid(m, g, eps):
    """(nodes, weights) of the embedding: the left wall strip, the box
    interior and the right wall strip, in that order."""
    inner = max(2, int(np.ceil(4.0 * abs(m.k) / (2.0 * np.pi))) + 2)
    l, c = g
    left, right = c - 0.5 * l, c + 0.5 * l
    pieces = (panel_rule(left - eps, left, 12), panel_rule(left, right, inner), panel_rule(right, right + eps, 12))
    return tuple(np.concatenate(part) for part in zip(*pieces))


def test_mollified_normalization():
    # the embedded state is normalized by construction for every eps and profile
    m = mode(0, 2j)
    l, c = g = (1.3, -0.2)
    for eps, rho in itertools.product((0.3, 0.1), PROFILES.values()):
        x, w = _embedding_grid(m, g, eps)
        chi = np.where((x >= c - 0.5 * l) & (x <= c + 0.5 * l), 1.0, rho((np.abs(x - c) - l / 2) / eps))
        ext = _extension(m, g, x)[0]
        norm2 = np.sum(w * chi ** 2 * np.abs(ext) ** 2)
        xi = chi / np.sqrt(norm2)
        assert np.sum(w * np.abs(ext * xi) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_oracle_agreement_grid():
    for eta in (1j, 0.5, 2j, -0.3 + 0.4j):
        for n in (-1, 0, 2):
            for l in (0.8, 1.6):
                m = mode(n, eta)
                exact = connection_analytic(m)[1] / l
                inner_l, inner_c = (f / l for f in connection_interior(m))
                assert abs(inner_c - exact) < 1e-6
                assert abs(inner_l) < 1e-6
                eps = [0.2, 0.1, 0.05, 0.025]
                limit = refine(eps, [connection_mollified(m, e)[1] / l for e in eps], 1)[0]
                assert abs(limit - exact) < 1e-4


# ---------------------------------------------------------------------------
# loop phases


def test_rectangle_phase_analytic():
    m = mode(0, 1j)
    # k (1/l1 - 1/l2)(c2 - c1) sin(alpha) = (pi/2)(1/2)(1) = pi/4, CCW positive
    assert loop_phase_analytic(m, RECT) == pytest.approx(np.pi / 4.0, abs=1e-12)
    rev = rectangle_loop(1.0, 2.0, 0.0, 1.0, orientation=-1)
    assert loop_phase_analytic(m, rev) == pytest.approx(-np.pi / 4.0, abs=1e-12)
    flat = rectangle_loop(1.5, 1.5, 0.0, 1.0)
    assert abs(loop_phase_analytic(m, flat)) < 1e-12
    for eta in (0.0, 0.5, -2.0):
        assert loop_phase_analytic(mode(0, eta), RECT) == 0.0


def test_loop_phase_mollified_matches_per_point_route():
    # -F_c times the loop integral of dc/l, against Gauss nodes along each
    # side with the connection F/l at each node
    rng = np.random.default_rng(41)
    for trial in range(12):
        if trial % 2:
            l1, c1 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            path = rectangle_loop(l1, l1 + rng.uniform(0.05, 1.0), c1, c1 + rng.uniform(0.05, 1.0),
                                  orientation=int(rng.choice([1, -1])))
        else:
            path = ParameterPath(rng.uniform([0.5, -1.0], [2.0, 1.0], size=(int(rng.integers(3, 6)), 2)),
                                 orientation=int(rng.choice([1, -1])))
        eta = (ETA_INF, 0.3, 2j, complex(*rng.uniform(-1.0, 1.0, 2)))[trial % 4]
        m = mode(int(rng.integers(-5, 6)), eta)
        e = float(rng.choice([0.2, 0.1, 0.05, 0.025]))
        f = connection_mollified(m, e)
        assert abs(_loop_phase(f, path) - _loop_integral(path, _over_l(f))) < 1e-13, (m, path)


def test_loop_phase_overlap_converges():
    m = mode(0, 2j)
    exact = loop_phase_analytic(m, RECT)
    meshes = [64, 128, 256]
    phases = loop_phase_overlap_meshes(m, RECT, meshes)
    _, order, errs, converged = refine([1.0 / n for n in meshes], phases, overlap_order(RECT))
    assert converged and abs(order - 2.0) < 0.1
    prev = None
    for phase, err_est in zip(phases, errs):
        err = abs(phase - exact)
        assert err <= err_est
        if prev is not None:
            assert err < 0.7 * prev + 1e-12
        prev = err
    assert prev < 1e-3


def test_loop_phase_overlap_trivial_cases():
    m = mode(0, 1j)
    [phase] = loop_phase_overlap_meshes(m, ParameterPath([(1.0, 0.0)]), [16])
    assert phase == pytest.approx(0.0, abs=1e-14)
    [phase] = loop_phase_overlap_meshes(mode(0, 0.0), RECT, [256])
    assert abs(phase) < 1e-4
    with pytest.raises(ValueError):
        loop_phase_overlap_meshes(m, RECT, [4])


def test_loop_phase_overlap_meshes_equals_single_mesh_calls():
    m = mode(1, -0.3 + 0.4j)
    tri = ParameterPath([(1.0, 0.0), (1.5, 0.1), (1.2, 0.4)])
    for path, meshes in ((RECT, [16, 32, 64]), (tri, [64, 17, 32, 64])):
        assert loop_phase_overlap_meshes(m, path, meshes) == [loop_phase_overlap_meshes(m, path, [mm])[0]
                                                              for mm in meshes]
    assert loop_phase_overlap_meshes(m, RECT, []) == []
    with pytest.raises(ValueError):
        loop_phase_overlap_meshes(m, RECT, [16, 4])


def test_loop_phase_overlap_meshes_computes_each_chain_once(monkeypatch):
    # one chain per mesh, in the order given, and no half-mesh chain for an
    # error estimate: refine takes that from the meshes themselves (the
    # results equal single-mesh calls: test_loop_phase_overlap_meshes_equals_single_mesh_calls)
    calls = []

    def counted(m, path, n):
        calls.append(n)
        return _chain_phase(m, path, n)

    monkeypatch.setattr(berrybox.berry, "_chain_phase", counted)
    loop_phase_overlap_meshes(mode(1, 0.3 + 0.6j), RECT, [64, 128, 256])
    assert calls == [64, 128, 256]


def test_loop_phase_overlap_mesh_too_coarse():
    # translating by many box widths between samples kills the overlap
    wide = rectangle_loop(1.0, 1.2, 0.0, 40.0)
    with pytest.raises(MeshTooCoarseError):
        loop_phase_overlap_meshes(mode(0, 1j), wide, [8])


def test_gauge_invariance_of_overlap_product():
    # multiplying each sampled state by a phase drops out of the product
    m = mode(0, 2j)
    mesh = 32
    pts = [RECT.point(j / mesh) for j in range(mesh)] + [RECT.point(0.0)]
    ovs = [_overlap(m, a, b) for a, b in zip(pts[:-1], pts[1:])]
    base = -np.angle(np.prod([o / abs(o) for o in ovs]))
    rng = np.random.default_rng(17)
    thetas = rng.uniform(-np.pi, np.pi, mesh + 1)
    thetas[-1] = thetas[0]  # same state, same gauge at the seam
    dressed = [
        o * np.exp(1j * (thetas[j + 1] - thetas[j])) for j, o in enumerate(ovs)
    ]
    gauged = -np.angle(np.prod([o / abs(o) for o in dressed]))
    assert gauged == pytest.approx(base, abs=1e-12)


def test_loop_additivity():
    # two rectangles sharing an edge: phases add along the analytic one-form
    m = mode(0, 2j)
    left = rectangle_loop(1.0, 1.5, 0.0, 1.0)
    right = rectangle_loop(1.5, 2.0, 0.0, 1.0)
    union = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    total = loop_phase_analytic(m, left) + loop_phase_analytic(m, right)
    assert total == pytest.approx(loop_phase_analytic(m, union), abs=1e-8)


# ---------------------------------------------------------------------------
# closed-form plane-wave integrals against panel quadrature


def _draw_eta(rng, kind):
    if kind == "circle":
        return np.exp(1j * rng.uniform(0.05, np.pi - 0.05) * rng.choice([1, -1]))
    if kind == "off":
        return rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    if kind == "near":
        return rng.choice([1.0, -1.0]) + 10.0 ** rng.uniform(-9, -3) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    if kind == "real":
        return rng.uniform(-3.0, 3.0)
    return ETA_INF


def _draw_mode(rng, j):
    return mode(int(rng.integers(-30, 31)), _draw_eta(rng, ("circle", "off", "near", "real", "inf")[j % 5]))


def _draw_pair(rng, j):
    la = rng.uniform(0.3, 3.0)
    ca = rng.uniform(-1.0, 1.0)
    if j % 3 == 0:
        return (la, ca), (la * (1.0 + 1e-9), ca + rng.uniform(-1e-9, 1e-9))
    return (la, ca), (rng.uniform(0.3, 3.0), ca + rng.uniform(-0.5, 0.5) * la)


def _quadrature_window(m, ga, gb, lo, hi):
    # panel quadrature of conj(psi_a) psi_b over [lo, hi], four panels per wavelength
    x, w = oscillatory_rule(lo, hi, abs(m.k) / ga[0] + abs(m.k) / gb[0])
    return complex(np.sum(w * np.conj(_extension(m, ga, x)[0]) * _extension(m, gb, x)[0]))


def test_state_overlap_matches_quadrature():
    # the overlap of two drawn boxes, taken against the unit box by dilation
    # covariance, against quadrature over the two boxes' intersection
    rng = np.random.default_rng(2024)
    for j in range(300):
        m = _draw_mode(rng, j)
        ga, gb = (la, ca), (lb, cb) = _draw_pair(rng, j)
        lo, hi = max(ca - 0.5 * la, cb - 0.5 * lb), min(ca + 0.5 * la, cb + 0.5 * lb)
        ref = _quadrature_window(m, ga, gb, lo, hi) if hi > lo else 0.0
        assert abs(_overlap(m, ga, gb) - ref) < 1e-13, (m, ga, gb)


def _mode_states(n, eta):
    m = mode(n, eta)
    return [(m.waves, lambda u: _phi(m, u))]


def _degenerate_states(eta, n):
    k, root2 = degenerate_wavenumber(eta, n), np.sqrt(2.0)
    cos, sin = degenerate_waves(eta, n)
    return [(cos, lambda u: (root2 * np.cos(k * u), -root2 * k * np.sin(k * u))),
            (sin, lambda u: (root2 * np.sin(k * u), root2 * k * np.cos(k * u)))]


def _null_vector_states(unitary, level):
    """The generic solver's eigenfunction v0 cos(qu) + v1 sin(qu)/q at E = q^2 > 0,
    from the null vector v of its residual matrix, as plane waves built here."""
    unitary = np.asarray(unitary)
    lam = generic_spectrum(unitary, level + 1)[level].lam
    assert lam > 0.0
    q = np.sqrt(2.0 * lam)
    v = np.linalg.svd(_residual_matrix(_secular_parts(unitary)[0], q * q))[2][-1].conj()
    psi = PlaneWaves(q, complex(v[0] / 2.0 + v[1] / (2j * q)), complex(v[0] / 2.0 - v[1] / (2j * q)))
    return [(psi, lambda u: (v[0] * np.cos(q * u) + v[1] * np.sin(q * u) / q,
                             -v[0] * q * np.sin(q * u) + v[1] * np.cos(q * u)))]


def _random_unitary(seed):
    z = np.random.default_rng(seed).standard_normal((2, 2, 2)) @ [1.0, 1j]
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# each case builds its states, as (record, u -> (psi(u), psi'(u)) by the
# state's own defining formula)
_STATES = [pytest.param(functools.partial(_mode_states, n, eta), id=f"mode-{kind}-{n}")
           for kind, eta in (("circle", np.exp(0.7j)), ("off", 1.8 * np.exp(-2.3j)), ("real", -2.5), ("inf", ETA_INF))
           for n in (-7, 0, 1, 30)]
_STATES += [pytest.param(functools.partial(_degenerate_states, 1, 3), id="degenerate+1"),
            pytest.param(functools.partial(_degenerate_states, -1, 2), id="degenerate-1"),
            pytest.param(functools.partial(_null_vector_states, eta_to_unitary(0.3 + 0.6j), 3), id="null-vector-eta"),
            pytest.param(functools.partial(_null_vector_states, _random_unitary(7), 2), id="null-vector-random")]


@pytest.mark.parametrize("states", _STATES)
def test_window_integral_matches_quadrature(states):
    # Int conj(psi_a) psi_b dx for every ordered pair of the states and
    # their derivatives (plane waves of amplitudes +-ik times the state's)
    # over windows between two boxes, nearly equal ones among them, by
    # dilation covariance (the unit-box call at (lb/la, (cb - ca)/la)), and
    # over windows of the unit box
    built = states()
    kinds = [(psi, lambda u, f=f: f(u)[0]) for psi, f in built]
    kinds += [(PlaneWaves(psi.k, 1j * psi.k * psi.plus, -1j * psi.k * psi.minus), lambda u, f=f: f(u)[1])
              for psi, f in built]
    rng = np.random.default_rng(2026)
    boxes = [((1.0, 0.0), (1.0, 0.0))]
    for i in range(4):
        la, ca = rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)
        near = (la * (1.0 + 1e-9), ca + 1e-9 * rng.uniform(-1.0, 1.0))
        boxes.append(((la, ca), near if i == 0 else (rng.uniform(0.3, 3.0), ca + rng.uniform(-0.5, 0.5) * la)))
    for a, fa in kinds:
        for b, fb in kinds:
            # to 1e-14 of the amplitudes' product; the largest deviation is 1.4e-15
            scale = 1e-14 * (abs(a.plus) + abs(a.minus)) * (abs(b.plus) + abs(b.minus))
            for (la, ca), (lb, cb) in boxes:
                lo, hi = max(ca - 0.5 * la, cb - 0.5 * lb), min(ca + 0.5 * la, cb + 0.5 * lb)
                x, w = oscillatory_rule(lo, hi, abs(a.k) / la + abs(b.k) / lb)
                ref = np.sum(w * np.conj(fa((x - ca) / la)) * fb((x - cb) / lb)) / np.sqrt(la * lb)
                got = window_integral(a, b, (lo - ca) / la, (hi - ca) / la, lb / la, (cb - ca) / la)
                assert abs(got - ref) <= scale, (la, ca, lb, cb)
            for lo, hi in ((-0.5, 0.5), (-0.3, 0.45)):
                x, w = oscillatory_rule(lo, hi, abs(a.k) + abs(b.k))
                ref = np.sum(w * np.conj(fa(x)) * fb(x))
                assert abs(window_integral(a, b, lo, hi) - ref) <= scale, (lo, hi)


def _interior_quotients(m, g, h):
    """(a_l, a_c) from the finite-difference quotients of the states at the
    box g = (l, c) by panel quadrature over the windows of `connection_interior`."""
    l, c = g

    def quotient(plus, minus, half):
        lo, hi = c - half, c + half
        diff = _quadrature_window(m, g, plus, lo, hi) - _quadrature_window(m, g, minus, lo, hi)
        return diff.imag / (2.0 * h) / _quadrature_window(m, g, g, lo, hi).real

    return (quotient((l + h, c), (l - h, c), 0.5 * (l - h)),
            quotient((l, c + h), (l, c - h), 0.5 * l - h))


def test_connection_interior_matches_quadrature():
    # the quotients at the unit box, where x is the box coordinate u
    rng = np.random.default_rng(2025)
    for j in range(150):
        m = _draw_mode(rng, j)
        a_l, a_c = _interior_quotients(m, UNIT, 1e-4 / (1.0 + abs(m.k)))
        s_l, s_c = connection_interior(m)
        tol = 1e-10 * (1.0 + abs(m.k))
        assert abs(s_c - a_c) < tol, m
        assert abs(s_l - a_l) < tol, m


def test_connection_interior_is_dilation_covariant_in_x():
    # the quotients in x at drawn boxes are F/l at the relative step: the
    # premise of every interior loop phase
    rng = np.random.default_rng(2028)
    for j in range(60):
        m = _draw_mode(rng, j)
        l = 10.0 ** rng.uniform(-3.0, 3.0)
        c = rng.uniform(-10.0, 10.0) * l
        g = (l, c)
        h_rel = float(rng.choice([1e-4, 1e-3, 1e-2]))
        a_l, a_c = _interior_quotients(m, g, h_rel * l / (1.0 + abs(m.k)))
        f_l, f_c = connection_interior(m, h_rel)
        # the rounding of window integrals at phases k (1 + |c|/l), over the
        # step; over 300 draws the error reached 0.09 of this
        tol = 1e-15 * (1.0 + abs(m.k)) ** 2 * (1.0 + abs(c) / l) / (h_rel * l)
        assert abs(f_c / l - a_c) < tol, (m, g, h_rel)
        assert abs(f_l / l - a_l) < tol, (m, g, h_rel)


def _narrow_polyline(rng):
    # l spans at most l_min, as the benchmark's loops do; one side changes l
    # by a relative 1e-12, where dc log1p(dl/l0)/dl must not cancel
    l_min = rng.uniform(0.3, 3.0)
    count = int(rng.integers(3, 7))
    ls = l_min * (1.0 + rng.uniform(0.0, 1.0, count))
    ls[0] = l_min
    cs = rng.uniform(-1.0, 1.0, count) * l_min
    verts = [(l, c) for l, c in zip(ls, cs)]
    verts.insert(1, (l_min * (1.0 + 1e-12), cs[0] + 0.3 * l_min))
    return ParameterPath(verts, int(rng.choice([1, -1])))


def test_loop_phase_analytic_matches_connection_quadrature():
    rng = np.random.default_rng(2026)
    for j in range(100):
        m = _draw_mode(rng, j)
        path = _narrow_polyline(rng)
        ref = _loop_integral(path, _over_l(connection_analytic(m)))
        phase = loop_phase_analytic(m, path)
        assert abs(phase - ref) < 1e-13 * (1.0 + abs(ref)), (m, path)


def test_reversed_orientation_negates_phases():
    rng = np.random.default_rng(2027)
    for j in range(20):
        m = mode(int(rng.integers(-3, 4)), _draw_eta(rng, ("circle", "off", "near")[j % 3]))
        l_min = rng.uniform(0.5, 2.0)
        verts = [(l_min * (1.0 + rng.uniform(0.0, 0.3)), l_min * rng.uniform(-0.3, 0.3)) for _ in range(4)]
        fwd = ParameterPath(verts)
        rev = ParameterPath(fwd.vertices, orientation=-1)
        assert loop_phase_analytic(m, rev) == -loop_phase_analytic(m, fwd)
        [fwd_phase], [rev_phase] = (loop_phase_overlap_meshes(m, p, [64]) for p in (fwd, rev))
        assert rev_phase == pytest.approx(-fwd_phase, abs=1e-12)


# ---------------------------------------------------------------------------
# array routes: scalars as their 0-d case, and per-node references


def _drawn_loop(rng, m, size=None, polyline=None):
    """A rectangle or a polyline, either orientation, whose c-extent winds a
    drawn number of radians at level m; `size` fixes perimeter / l_min."""
    l_min = rng.uniform(0.5, 2.0)
    dl, dc = l_min * rng.uniform(0.15, 0.9), l_min * rng.uniform(0.5, 3.0) / max(abs(m.k), 1.0)
    orientation = int(rng.choice([1, -1]))
    if not (rng.random() < 0.5 if polyline is None else polyline):
        verts = [(0.0, 0.0), (dl, 0.0), (dl, dc), (0.0, dc)]
    else:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 6))))
        verts = [(0.5 * dl * (1.0 + np.cos(a)), 0.5 * dc * (1.0 + np.sin(a))) for a in angles]
    per = sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for a, b in zip(verts, verts[1:] + verts[:1]))
    f = 1.0 if size is None else size * l_min / per
    verts = [(l_min + f * l, f * c) for l, c in verts]
    return ParameterPath(verts, orientation)


def test_extrapolation_without_positive_order_returns_last_sample():
    # growing differences fit order -1, and equal ones order 0; differences
    # alternating in sign fit no power law.  None has converged: the limit is
    # the last sample and every err_est is inf
    inf = math.inf
    assert refine([0.4, 0.2, 0.1], [0.0, 1.0, 3.0], 1) == (3.0, pytest.approx(-1.0), [inf] * 3, False)
    assert refine([0.4, 0.2, 0.1], [0.0, 1.0, 2.0], 1) == (2.0, pytest.approx(0.0, abs=1e-12), [inf] * 3, False)
    limit, order, errs, converged = refine([0.4, 0.2, 0.1], [0.0, 1.0, 0.5], 1)
    assert (limit, errs, converged) == (0.5, [inf] * 3, False) and math.isnan(order)
    # a first-order sequence converges to 2, each err_est SAFETY times the distance to it
    limit, order, errs, converged = refine([0.4, 0.2, 0.1], [0.0, 1.0, 1.5], 1)
    assert (limit, order, converged) == (pytest.approx(2.0), pytest.approx(1.0), True)
    assert errs == pytest.approx([2.0 * SAFETY, 1.0 * SAFETY, 0.5 * SAFETY])
    # the same samples where second order is expected: the fitted order strays
    assert refine([0.4, 0.2, 0.1], [0.0, 1.0, 1.5], 2)[2:] == ([inf] * 3, False)
    # one sample cannot be refined
    assert refine([0.1], [1.5], 1) == (1.5, pytest.approx(math.nan, nan_ok=True), [inf], False)


def test_refine_keeps_phases_that_straddle_pi_on_their_lift():
    # a first-order approach to pi - 5e-4 refines to its limit as lifted
    # phases; reduced to (-pi, pi], its first two samples jump by 2 pi, and
    # refine reports that as unconverged instead of folding them back
    eps = [0.4, 0.2, 0.1, 0.05]
    wrapped = [-3.14049265, -3.14129265, 3.14149265, 3.14129265]
    lifted = [p + 2.0 * np.pi * (p < 0) for p in wrapped]
    limit, order, errs, converged = refine(eps, lifted, 1)
    # the samples carry 8 decimals, so the last three steps fit the order to 5e-5
    assert converged and limit == pytest.approx(np.pi - 5e-4, abs=1e-8) and order == pytest.approx(1.0, abs=1e-4)
    assert refine(eps, [-p for p in lifted], 1)[0] == pytest.approx(-np.pi + 5e-4, abs=1e-8)
    for jumped in (wrapped, lifted[:3] + [lifted[3] - 2.0 * np.pi]):
        assert refine(eps, jumped, 1)[::2] == (jumped[-1], [math.inf] * 4)


def test_refine_is_richardson_at_the_expected_order_at_any_ratios():
    # samples of a* + C e^q at unequal ratios, the overlap rows' 1/16, 1/24
    # and 1/48 among them: the fitted order is q, refine converges exactly
    # when |q - p| <= ORDER_SLACK at the expected order p, and then the limit
    # is the last sample's Richardson step at p
    rng = np.random.default_rng(16180)
    for j in range(40):
        eps = [1 / 16, 1 / 24, 1 / 48] if j == 0 else sorted(rng.uniform(0.01, 1.0, 3), reverse=True)
        q, p, a_star, c = rng.uniform(0.5, 3.0), int(rng.choice([1, 2])), rng.uniform(-3, 3), rng.uniform(0.1, 1.0)
        a = [a_star + c * e ** q for e in eps]
        limit, fitted, errs, converged = refine(eps, a, p)
        assert fitted == pytest.approx(q, abs=1e-8)
        assert converged == (abs(q - p) <= ORDER_SLACK)
        if converged:
            rho = (eps[2] / eps[1]) ** p
            assert limit == pytest.approx(a[2] + (a[2] - a[1]) * rho / (1.0 - rho), abs=1e-13)
            assert errs == pytest.approx([max(SAFETY * abs(v - limit), 1e-12 * max(max(map(abs, a)), 1.0)) for v in a])
    with pytest.raises(ValueError):
        refine([0.1, 0.1], [0.0, 1.0], 1)
    with pytest.raises(ValueError):
        refine([0.2, 0.1], [0.0], 1)


def test_err_est_bounds_every_refining_row_or_is_inf(monkeypatch):
    # every interior, mollified and overlap row of `berry --method all`, its
    # phase and err_est unrounded: at |n| <= 10, eta on and off the unit
    # circle and inf, rectangles and polylines of either orientation, meshes
    # 48 to 4096 and loops from resolved to 300 times too large for their
    # mesh, each err_est is at least the row's error on the circle, or inf
    monkeypatch.setattr(berrybox.cli.berry, "_fmt", float)
    rng = np.random.default_rng(31)
    finite = {"interior": [], "mollified": [], "overlap": []}
    for j in range(240):
        eta = (ETA_INF, _eta_on_circle(rng, 1.0),
               _eta_on_circle(rng, rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 3.0)])))[j % 3]
        m = mode(int(rng.integers(-10, 11)), eta)
        mesh = int(round(48 * (4096 / 48) ** rng.random()))
        path = _drawn_loop(rng, m, size=mesh / ((1.0 + abs(m.k)) * 10 ** rng.uniform(0.5, 2.5)))
        rows, _, exact, _, _ = _berry_phase_rows(m, path, ["interior", "mollified", "overlap"], {"mesh": mesh})
        for method, _, _, _, phase, err_est in rows:
            assert _circle(phase - exact) <= err_est, (method, m, path, mesh, phase, exact, err_est)
            finite[method].append(err_est < math.inf)
    assert all(finite["interior"]) and all(finite["mollified"])
    assert np.mean(finite["overlap"]) > 0.7


def _drawn_mode(rng, j, n_max):
    eta = (ETA_INF, rng.uniform(-3.0, 3.0), complex(*rng.uniform(-1.5, 1.5, 2)))[j % 3]
    return mode(int(rng.integers(-n_max, n_max + 1)), eta)


def test_state_overlap_rejects_boxes_outside_the_half_plane():
    # the check the overlap makes of its box, relative to the unit box
    m = mode(0, 1j)
    bad_lengths = (0.0, -1.0, np.nan, np.inf)
    for l, c in [(l, 0.0) for l in bad_lengths] + [(1.0, np.nan), (1.0, -np.inf)]:
        with pytest.raises(ValueError, match="box"):
            state_overlap(m, l, c)
    # the closed-form curvature takes one box length, checked by require_length
    for l in bad_lengths:
        with pytest.raises(ValueError, match="box length"):
            curvature(m, l)


def test_loop_phase_interior_matches_per_point_route():
    rng = np.random.default_rng(3101)
    for j in range(12):
        m = _drawn_mode(rng, j, 12)
        path = _drawn_loop(rng, m)
        h = float(rng.choice([1e-4, 5e-5, 1e-3]))
        f = connection_interior(m, h)
        assert abs(_loop_phase(f, path) - _loop_integral(path, _over_l(f))) < 1e-13, (m, path)


def test_interior_step_bound_is_relative():
    # h_rel is relative to l / (1 + |k|): the bound l/4 reads (1 + |k|)/4 = 0.643
    # at n = 0, eta = i, and used to be reported as "need 0 < h < l/4"
    m = mode(0, 1j)
    for h in (1.0, 0.65, 0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match=r"0 < h < \(1 \+ \|k\|\)/4 = 0.643"):
            connection_interior(m, h)
    assert require_interior_step(m, 0.64) == 0.64
    assert _loop_phase(connection_interior(m, 0.64), RECT) == pytest.approx(np.pi / 4.0, abs=0.1)


def test_interior_step_that_underflows_is_refused():
    # `berry --h=5e-324` used to raise ZeroDivisionError (exit 1): the step
    # h/(1 + |k|) underflowed to 0 at the unit box.  The CLI's steps are fixed
    # now; the library still refuses such a step before any integral
    for m in (mode(0, 1j), mode(7, 0.3 + 0.6j)):
        with pytest.raises(ValueError, match=r"\bh must\b.*underflow"):
            connection_interior(m, 5e-324)


def _side_samples(path, n):
    """The chain's boxes as explicit (l, c) points, one list per side in vertex
    order: each side takes n // sides links (the first n % sides one more, at
    least one), sampled geometrically in l with c linear in l, or uniformly
    in c where l is constant.  The fraction t_j = (l_j - l0)/dl is formed
    with expm1 and log1p, so that a side with a tiny dl keeps its c steps."""
    sides = len(path.segments)
    for i, ((l0, c0), (l1, c1)) in enumerate(path.segments):
        links = max(n // sides + (i < n % sides), 1)
        dl, dc = l1 - l0, c1 - c0
        ts = [j / links if dl == 0 else math.expm1(j / links * math.log1p(dl / l0)) / (dl / l0)
              for j in range(links + 1)]
        yield [(l0 + dl * t, c0 + dc * t) for t in ts[:-1]] + [(l1, c1)]


def test_overlap_chains_match_scalar_overlaps():
    rng = np.random.default_rng(3102)
    for j in range(12):
        m = _drawn_mode(rng, j, 12)
        path = _drawn_loop(rng, m)
        for n in (8, 17, 64):
            pts = [g for side in _side_samples(path, n) for g in side[:-1]]
            pts = (pts + pts[:1])[::path.orientation]
            prod = 1.0 + 0.0j
            for a, b in zip(pts[:-1], pts[1:]):
                ov = _overlap(m, a, b)
                prod *= ov / abs(ov)
            assert abs(np.angle(np.exp(1j * (_chain_phase(m, path, n) + np.angle(prod))))) < 1e-13, (m, path, n)


def _spy_overlaps(monkeypatch):
    """The list of the overlaps the chain computes, one entry per call."""
    links = []
    real = berrybox.berry.state_overlap

    def spied(*args):
        links.append(real(*args))
        return links[-1]

    monkeypatch.setattr(berrybox.berry, "state_overlap", spied)
    return links


def test_chain_computes_one_overlap_per_side(monkeypatch):
    links = _spy_overlaps(monkeypatch)
    pentagon = ParameterPath([(1.0, 0.0), (1.4, 0.1), (1.5, 0.4), (1.2, 0.6), (0.9, 0.3)])
    for path in (RECT, pentagon):
        for n in (16, 2 ** 20):
            links.clear()
            _chain_phase(mode(1, 0.3 + 0.6j), path, n)
            assert len(links) == len(path.segments), (path, n)


def test_every_neighbour_overlap_on_a_side_is_its_unit_box_link(monkeypatch):
    # dilation covariance: <psi(l, c)|psi(l', c')> depends only on l'/l and
    # (c' - c)/l, and along a geometric side both are constant
    links = _spy_overlaps(monkeypatch)
    rng = np.random.default_rng(3112)
    for j in range(12):
        m = _drawn_mode(rng, j, 12)
        path = _drawn_loop(rng, m, polyline=True)
        for n in (16, 61):
            links.clear()
            _chain_phase(m, path, n)
            for link, side in zip(links, _side_samples(path, n), strict=True):
                assert all(abs(_overlap(m, a, b) - link) < 1e-13 for a, b in zip(side[:-1], side[1:])), (m, path)


def test_chain_link_keeps_its_precision_as_dl_goes_to_zero():
    # a side with dl = 1e-12 l and dc = l: the ratio (l1/l0) ** (1/N) - 1
    # cancels to a few digits (to none at all at 2^22 links), which put the
    # chain at n = 1, eta = 0.3+0.6i off by 0.16 rad at mesh 1024 and 6.75 rad
    # at 2^22; expm1 and log1p keep the step's digits, and the side tends to
    # its dl = 0 twin
    near = ParameterPath([(1.0, 0.0), (1.0 + 1e-12, 1.0), (2.0, 1.0), (2.0, 0.0)])
    rect = ParameterPath([(1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0)])
    for m in (mode(0, 1j), mode(1, 0.3 + 0.6j), mode(-3, 2.0 - 1.0j)):
        for n in (1024, 2 ** 22):
            assert abs(_chain_phase(m, near, n) - _chain_phase(m, rect, n)) < 1e-10, (m, n)
    # on the circle the rectangle's chain is exact, and so the near one meets its closed form
    m = mode(0, 1j)
    assert abs(_chain_phase(m, near, 2 ** 22) - loop_phase_analytic(m, near)) < 1e-9


@pytest.mark.parametrize("n, eta_abs", [(1, 0.67), (3, 2.24), (-2, 1.0)])
def test_overlap_deficit_is_linear_in_the_wall_displacements(n, eta_abs):
    # the walls move, so d psi / d(l, c) is not square integrable and the
    # fidelity deficit of neighbouring states is first order in the step:
    # 1 - |<psi(p)|psi(p + delta)>| = (w_L |d_L| + w_R |d_R|)/2 + O(delta^2),
    # with wall densities w = |phi(wall)|^2 / l and wall displacements
    # d_L, d_R = dc -/+ dl/2; translations, dilations and a sloped step
    rng = np.random.default_rng(3107 + n)
    delta = 1e-6
    for j in range(4):
        m = mode(n, eta_abs * np.exp(1j * rng.uniform(0.2, np.pi - 0.2) * rng.choice([-1, 1])))
        l, c = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        w_left, w_right = np.abs(_phi(m, np.array([-0.5, 0.5]))[0]) ** 2 / l
        slope = rng.uniform(0.0, 2.0 * np.pi)
        for dl, dc in ((0.0, delta), (delta, 0.0), (delta * np.cos(slope), delta * np.sin(slope))):
            deficit = 1.0 - abs(_overlap(m, (l, c), (l + dl, c + dc)))
            law = 0.5 * (w_left * abs(dc - 0.5 * dl) + w_right * abs(dc + 0.5 * dl))
            assert deficit == pytest.approx(law, rel=1e-3), (m, l, c, dl, dc)


def _mollified_in_x(m, g, width, rho=_cos_squared):
    # the embedding in x on one grid through both walls, cutoff of the given
    # width and profile applied node by node
    l, c = g
    x, w = _embedding_grid(m, g, width)
    inside = (x >= c - 0.5 * l) & (x <= c + 0.5 * l)
    chi = np.where(inside, 1.0, rho((np.abs(x - c) - 0.5 * l) / width))
    ext, (d_dl, d_dc) = _extension(m, g, x)
    weight = w * chi ** 2
    norm2 = np.sum(weight * np.abs(ext) ** 2)
    return (np.sum(weight * np.imag(np.conj(ext) * d_dl)) / norm2,
            np.sum(weight * np.imag(np.conj(ext) * d_dc)) / norm2)


def test_mollified_connection_is_dilation_covariant():
    # F/l at the relative width eps is the embedding in x at every box, up
    # to rounding
    rng = np.random.default_rng(3108)
    for j in range(9):
        m = _drawn_mode(rng, j, 12)
        l, c = rng.uniform(0.3, 3.0, 6), rng.uniform(-2.0, 2.0, 6)
        eps = rng.uniform(0.01, 0.3, 3)
        scale = (1.0 + abs(m.k)) / l
        for e in eps:
            f_l, f_c = connection_mollified(m, e)
            x_l, x_c = np.array([_mollified_in_x(m, (lj, cj), e * lj) for lj, cj in zip(l, c)]).T
            assert np.all(np.abs(f_l / l - x_l) <= 1e-13 * scale), (m, e)
            assert np.all(np.abs(f_c / l - x_c) <= 1e-13 * scale), (m, e)


@pytest.mark.parametrize("profile", PROFILES)
def test_mollified_connection_does_not_depend_on_the_profile(profile):
    # regulator independence on symmetric strips: the embedding in x under
    # either profile, C^1 or C^infinity, is the closed-form oracle to rounding
    # at every box and width, since |phi|^2 - 1 is odd about the box center
    rng = np.random.default_rng(3109)
    for j in range(9):
        m = _drawn_mode(rng, j, 12)
        g = (float(rng.uniform(0.3, 3.0)), float(rng.uniform(-2.0, 2.0)))
        for e in rng.uniform(0.01, 0.3, 2):
            f = np.array(connection_mollified(m, e)) / g[0]
            x = np.array(_mollified_in_x(m, g, e * g[0], PROFILES[profile]))
            assert np.all(np.abs(f - x) <= 1e-13 * (1.0 + abs(m.k)) / g[0]), (m, g, e)
            assert abs(f[1] - connection_analytic(m)[1] / g[0]) <= 1e-13 * (1.0 + abs(m.k)) / g[0], (m, g, e)


def test_mollified_strips_are_the_embedding_of_any_plane_wave_state():
    # states with Re(conj(a) b) != 0, which no level has: the norm's cross
    # term over the strips, 4 eps Re(conj(a) b) Re(e^{ik} E), against the
    # embedding in u under cos^2(pi t/2)
    rng = np.random.default_rng(3110)
    for j in range(12):
        k = float(rng.uniform(-40.0, 40.0)) if j % 2 else float(rng.uniform(-1e-3, 1e-3))
        psi = PlaneWaves(k, complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        state = types.SimpleNamespace(waves=psi, k=k)
        for eps in (0.3, 0.05, 1e-3):
            u, w = _embedding_grid(state, UNIT, eps)
            chi2 = w * np.where(np.abs(u) <= 0.5, 1.0, _cos_squared((np.abs(u) - 0.5) / eps)) ** 2
            val, der = plane_wave_values(psi, u)
            norm2 = np.sum(chi2 * np.abs(val) ** 2)
            reference = (np.sum(chi2 * np.imag(np.conj(val) * (-0.5 * val - u * der))) / norm2,
                         np.sum(chi2 * np.imag(np.conj(val) * -der)) / norm2)
            got = connection_mollified(state, eps)
            assert np.max(np.abs(np.subtract(got, reference))) <= 1e-13 * (1.0 + abs(k)), (psi, eps)


def test_mollified_sweep_integrates_once_per_width(monkeypatch):
    # the mollified rows of `berry` take one connection per width, whatever
    # the number of sides, and each is the closed form to rounding
    widths = []
    real = berrybox.berry.connection_mollified

    def counted(m, eps):
        widths.append(eps)
        return real(m, eps)

    monkeypatch.setattr(berrybox.berry, "connection_mollified", counted)
    for n, eta in ((0, 1j), (7, 0.3 + 0.6j)):
        m = mode(n, eta)
        for path in (RECT, ParameterPath([(1.0, 0.0), (1.3, 0.05), (1.2, 0.3), (1.1, 0.2)])):
            widths.clear()
            phases = _mollified_sweep(m, path)
            assert widths == list(_MOLLIFIER_WIDTHS), (m, path)
            exact = loop_phase_analytic(m, path)
            assert all(abs(p - exact) < 1e-13 * (1.0 + abs(m.k)) for p in phases), (m, path)


def test_mollified_work_does_not_grow_with_the_level():
    # the interior used to be one grid of O(|k|) nodes: 119 MB at n = 10000;
    # the strips are plane-wave means, at any level
    for n in (0, 100, 10000):
        m = mode(n, 0.3 + 0.6j)
        for eps in (0.2, 0.025):
            f_l, f_c = connection_mollified(m, eps)
            assert abs(f_c - connection_analytic(m)[1]) < 1e-13 * (1.0 + abs(m.k)), n
            assert abs(f_l) < 1e-13 * (1.0 + abs(m.k)), n


def test_mollified_connection_at_widths_near_the_float_range():
    # the strips' wavenumber 2 k eps overflows, and (1 + 3 eps/4) F_c did:
    # nan, or a math domain error, where the limit holds at every width
    for n in (-2, 3, 10000):
        m = mode(n, 0.3 + 0.6j)
        for eps in (1e300, 1e308, 1.7e308):
            f_l, f_c = connection_mollified(m, eps)
            assert abs(f_c - connection_analytic(m)[1]) < 1e-13 * (1.0 + abs(m.k)) and abs(f_l) < 1e-300, (n, eps)


def test_loop_phase_mollified_sweep_matches_single_widths():
    rng = np.random.default_rng(3103)
    for j in range(5):
        m = _drawn_mode(rng, j, 12)
        path = _drawn_loop(rng, m)
        # `berry`'s widths, and drawn ones: three at a constant ratio
        ratio = rng.uniform(0.3, 0.7)
        if j % 2:
            eps_list = _MOLLIFIER_WIDTHS
            phases = _mollified_sweep(m, path)
            assert phases == [_loop_phase(connection_mollified(m, e), path) for e in eps_list]
        else:
            eps_list = list(rng.uniform(0.1, 0.3) * ratio ** np.arange(3))
            phases = [_loop_phase(connection_mollified(m, e), path) for e in eps_list]
        # the box-coordinate integrals, taken once for every width, are the embedding's own
        for e, phase in zip(eps_list, phases):
            reference = _loop_integral(path, _over_l(_mollified_in_x(m, UNIT, e)))
            assert abs(phase - reference) < 1e-13, (m, path, e)


def _chain_errors(m, path, meshes):
    exact = loop_phase_analytic(m, path)
    return np.array([_circle(_chain_phase(m, path, n) - exact) for n in meshes])


def _eta_on_circle(rng, modulus):
    return modulus * np.exp(1j * rng.uniform(0.3, np.pi - 0.3) * rng.choice([-1, 1]))


def test_overlap_chain_is_exact_on_circle_rectangles():
    # |psi(a)| = |eta| |psi(b)|: at |eta| = 1 both walls carry one density,
    # and along axis-aligned sides the chain's phase is exact up to the
    # rounding of each side's -N Arg of its one link, which grows with the
    # side's phase (2.6e-15 at worst over these draws, 4.5e-15 over 300)
    rng = np.random.default_rng(3109)
    for j in range(24):
        m = mode(int(rng.integers(-10, 11)), _eta_on_circle(rng, 1.0))
        path = _drawn_loop(rng, m, polyline=False)
        assert np.all(_chain_errors(m, path, (16, 64, 256)) <= 16 * np.finfo(float).eps), (m, path)


def test_overlap_chain_is_second_order_on_rectangles_off_the_circle():
    rng = np.random.default_rng(3110)
    for j in range(12):
        m = mode(int(rng.integers(-10, 11)), _eta_on_circle(rng, rng.choice([rng.uniform(0.6, 0.9),
                                                                             rng.uniform(1.1, 2.5)])))
        path = _drawn_loop(rng, m, polyline=False)
        errs = _chain_errors(m, path, (64, 128, 256))
        assert np.all((3.8 < errs[:-1] / errs[1:]) & (errs[:-1] / errs[1:] < 4.2)), (m, path, errs)


def test_overlap_chain_is_first_order_on_sloped_sides():
    # triangles whose three sides all move l and c together
    rng = np.random.default_rng(3111)
    for j in range(12):
        m = mode(int(rng.integers(-6, 7)), _eta_on_circle(rng, (1.0, 0.67, 0.92, 1.6)[j % 4]))
        l1, c1 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        dc = l1 / max(abs(m.k), 1.0)
        verts = [(l1, c1), (l1 * rng.uniform(1.2, 1.4), c1 + dc * rng.uniform(0.1, 0.3)),
                 (l1 * rng.uniform(1.05, 1.15), c1 + dc * rng.uniform(0.6, 1.0))]
        path = ParameterPath(verts, orientation=int(rng.choice([1, -1])))
        errs = _chain_errors(m, path, (512, 1024))
        assert 1.9 < errs[0] / errs[1] < 2.1, (m, path, errs)


def test_a_link_beyond_the_float_range_is_too_coarse():
    # one link of the first side multiplies l by 1e310: expm1 of its log
    # raised OverflowError (a traceback, exit 1), where the boxes share nothing
    grow = ParameterPath([(1e-300, 0.0)] + [(1e10, float(i)) for i in range(16)] + [(1.0, 16.0)])
    with pytest.raises(MeshTooCoarseError, match=re.escape("|<.|.>| = 0.00e+00; refine the mesh")):
        loop_phase_overlap_meshes(mode(0, 1j), grow, [16])


def test_too_coarse_mesh_raises_on_the_first_coarse_chain():
    # the chains run in the order loop_phase_overlap would run them mesh by
    # mesh; the error names the link of the first side that has a too-small
    # one, in vertex order, as the explicit neighbour overlaps find it.  The
    # two sloped sides of the 16-link chain step c by about l1 - w0 while l
    # grows by a few w0, so their boxes share windows near w0, of distinct
    # widths on the two sides; the 8-link chain's boxes are disjoint
    rng = np.random.default_rng(3104)
    for j in range(8):
        m = mode(int(rng.integers(-3, 4)), complex(*rng.uniform(-1.5, 1.5, 2)))
        l1, w0 = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-9.0, -8.0)
        d1, d2, c2 = rng.uniform(1.0, 4.0) * w0, rng.uniform(1.0, 4.0) * w0, 4.0 * (l1 - w0)
        verts = [(l1, 0.0), (l1 + d1, c2), (l1 + d1 + d2, 0.0), (1.3 * l1, 0.0), (l1, 0.0)]
        path = ParameterPath(verts, orientation=int(rng.choice([1, -1])))
        expected = None
        for n in (16, 8):
            small = [[abs(_overlap(m, a, b)) for a, b in zip(side[:-1], side[1:])] for side in _side_samples(path, n)]
            small = [side for side in small if max(side) < 1e-6]
            if small:
                expected = f"|<.|.>| = {small[0][0]:.2e}"
                break
        assert expected is not None and small[0][0] > 0.0 and len(small) == 2
        # each side's links are one number, and the two sides' differ
        assert all(len({f"{v:.2e}" for v in side}) == 1 for side in small)
        assert f"{small[0][0]:.2e}" != f"{small[1][0]:.2e}"
        with pytest.raises(MeshTooCoarseError, match=re.escape(expected)):
            loop_phase_overlap_meshes(m, path, [16])


# ---------------------------------------------------------------------------
# seeded properties of the four oracles


def _four_phases(m, path, mesh=256):
    limit = refine(_MOLLIFIER_WIDTHS, _mollified_sweep(m, path), 1)[0]
    return {"analytic": loop_phase_analytic(m, path), "interior": _loop_phase(connection_interior(m, 1e-4), path),
            "mollified": limit, "overlap": loop_phase_overlap_meshes(m, path, [mesh])[0]}


def _gates(path):
    # the acceptance gates: per unit path length for the connection oracles
    length = sum(abs(l1 - l0) + abs(c1 - c0) for (l0, c0), (l1, c1) in path.segments)
    return {"analytic": 1e-12, "interior": 1e-6 * length, "mollified": 1e-4 * length, "overlap": 1e-3}


def _circle(x):
    return abs(float(np.angle(np.exp(1j * x))))


def _level_sized_loop(rng, m, mesh=256):
    # the loop size (perimeter / l_min) a 256-point chain resolves at this
    # level: the chain converges at second order on rectangles, at first on
    # polylines
    k = abs(m.k)
    if rng.random() < 0.5:
        return _drawn_loop(rng, m, size=mesh / (300.0 * np.sqrt(1.0 + k)), polyline=True)
    return _drawn_loop(rng, m, size=mesh / (30.0 * (1.0 + k) ** (2.0 / 3.0)), polyline=False)


def test_oracles_agree_and_reverse_at_high_levels():
    rng = np.random.default_rng(3105)
    for j in range(8):
        m = _drawn_mode(rng, j, 30)
        path = _level_sized_loop(rng, m)
        phases, gates = _four_phases(m, path), _gates(path)
        for method, phase in phases.items():
            assert _circle(phase - phases["analytic"]) <= gates[method], (method, m, path)
        reversed_phases = _four_phases(m, ParameterPath(path.vertices, -path.orientation))
        for method, phase in reversed_phases.items():
            assert _circle(phase + phases[method]) < 1e-12, (method, m, path)


def test_oracle_phases_add_over_rectangles_sharing_an_edge():
    rng = np.random.default_rng(3106)
    for j in range(4):
        m = _drawn_mode(rng, j, 30)
        size = 256 / (30.0 * (1.0 + abs(m.k)) ** (2.0 / 3.0))
        l1 = rng.uniform(0.5, 2.0)
        l3 = l1 * (1.0 + rng.uniform(0.2, 0.6) * size / 2.0)
        l2, c1 = rng.uniform(l1 + 0.2 * (l3 - l1), l3 - 0.2 * (l3 - l1)), rng.uniform(-1.0, 1.0)
        c2 = c1 + (size * l1 - 2.0 * (l3 - l1)) / 2.0
        parts = [rectangle_loop(a, b, c1, c2) for a, b in ((l1, l2), (l2, l3))]
        union = rectangle_loop(l1, l3, c1, c2)
        left, right, whole = (_four_phases(m, p) for p in (*parts, union))
        for method in whole:
            gate = sum(_gates(p)[method] for p in (*parts, union))
            assert _circle(left[method] + right[method] - whole[method]) <= gate, (method, m, union)


def _pinned_cases():
    path = pathlib.Path(__file__).parent / "data" / "berry_phases_pinned.json"
    return json.loads(path.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", _pinned_cases(), ids=lambda c: f"{c['eta']}-n{c['n']}-{c['loop']['type']}"
                         + ("-reversed" if c["loop"]["orientation"] < 0 else ""))
def test_method_all_phases_are_pinned(case):
    # every phase row of `berry --method all` (the CLI's calls, at its default
    # widths, steps and meshes) as the array implementation computed it, to
    # 1e-13 on the circle: eta = inf, real, on the circle and off it
    eta = ETA_INF if case["eta"] == "inf" else complex(case["eta"].replace("i", "j"))
    m, loop = mode(case["n"], eta), case["loop"]
    if loop["type"] == "rectangle":
        path = rectangle_loop(loop["l1"], loop["l2"], loop["c1"], loop["c2"], loop["orientation"])
    else:
        path = ParameterPath(loop["points"], orientation=loop["orientation"])
    mollified = _mollified_sweep(m, path)
    phases = ([loop_phase_analytic(m, path)] + [_loop_phase(connection_interior(m, h), path) for h in (1e-4, 5e-5)]
              + mollified + [refine(_MOLLIFIER_WIDTHS, mollified, 1)[0]]
              + loop_phase_overlap_meshes(m, path, [64, 128, 256]))
    assert len(phases) == len(case["phases"])
    for j, (phase, pinned) in enumerate(zip(phases, case["phases"])):
        assert abs(math.remainder(phase - pinned, 2.0 * math.pi)) <= 1e-13, (j, phase, pinned)


# ---------------------------------------------------------------------------
# curvature and Stokes


def test_curvature_values():
    m = mode(0, 1j)
    assert curvature(m, 1.0) == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert curvature(m, 2.0) == pytest.approx(np.pi / 8.0, abs=1e-15)
    for eta in (0.0, 0.5, -2.0):
        # real eta: alpha is 0 or pi, and sin(alpha) is exactly 0
        assert curvature(mode(0, eta), 1.0) == 0.0


def test_curvature_scales_with_wavenumber():
    eta = 2j
    base = mode(0, eta)
    for n in (1, 2, -3):
        m = mode(n, eta)
        ratio = curvature(m, 1.3) / curvature(base, 1.3)
        assert ratio == pytest.approx(m.k / base.k, rel=1e-14)


def test_stokes_consistency():
    # the loop phase against the curvature flux through the rectangle, whose
    # sign the orientation sets
    m = mode(0, 1j)
    assert abs(loop_phase_analytic(m, RECT) - curvature_flux(m, 1.0, 2.0, 0.0, 1.0)) < 1e-10
    assert abs(loop_phase_analytic(m, rectangle_loop(1.0, 1.0, 0.0, 1.0))) < 1e-14
    rng = np.random.default_rng(42)
    m2 = mode(1, -0.3 + 0.4j)
    for _ in range(10):
        l1, l2 = np.sort(rng.uniform(0.5, 3.0, 2))
        c1, c2 = np.sort(rng.uniform(-1.0, 1.0, 2))
        orientation = int(rng.choice([1, -1]))
        rect = rectangle_loop(l1, l2 + 1e-3, c1, c2 + 1e-3, orientation=orientation)
        flux = curvature_flux(m2, l1, l2 + 1e-3, c1, c2 + 1e-3)
        assert abs(loop_phase_analytic(m2, rect) - orientation * flux) < 1e-8


# ---------------------------------------------------------------------------
# dilation-generator commutator


def gaussian_sample(step, width=0.25, span=2.0):
    x = np.arange(-span, span + step / 2.0, step)
    f = np.exp(-x ** 2 / (2.0 * width ** 2))
    return GridFunction(nodes=x, values=f, weights=np.full_like(x, step))


def test_commutator_defect_small_and_second_order():
    defects = [commutator_defect(gaussian_sample(h)) for h in (4e-3, 2e-3, 1e-3)]
    assert defects[-1] < 1e-4
    assert 3.0 < defects[0] / defects[1] < 5.0
    assert 3.0 < defects[1] / defects[2] < 5.0


def test_commutator_zero_function():
    x = np.linspace(-1.0, 1.0, 401)
    zero = GridFunction(nodes=x, values=np.zeros_like(x), weights=np.full_like(x, x[1] - x[0]))
    assert commutator_defect(zero) == 0.0


def test_commutator_rejects_boundary_support():
    x = np.linspace(-1.0, 1.0, 401)
    f = np.cos(x)  # nowhere near zero at the edges
    gf = GridFunction(nodes=x, values=f, weights=np.full_like(x, x[1] - x[0]))
    with pytest.raises(ValueError):
        commutator_defect(gf)
