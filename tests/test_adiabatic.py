"""Moving-frame Hamiltonian and dynamical phase extraction."""

import cmath
import math
import random

import numpy as np
import pytest

import berrybox.adiabatic
from array_propagator import propagate_arrays
from array_rules import oscillatory_rule
from berrybox.adiabatic import Schedule, eigh, generator, mode_window, propagate
from berrybox.closed_form import (DegenerateEtaError, PlaneWaves, degenerate_waves, eigenvalue, loop_phase_analytic, mode,
                                  weak_form)
from berrybox.paths import ParameterPath, rectangle_loop

RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)
# one side of constant l, (1.5, 0) -> (1.5, 0.4); the other three move l
ONE_VERTICAL = ParameterPath([(1.0, 0.0), (1.5, 0.0), (1.5, 0.4), (1.2, 0.6)])
NO_VERTICAL = ParameterPath([(1.0, 0.0), (1.5, 0.1), (1.2, 0.5)])
POINT = ParameterPath([(1.3, 0.2)])


def _states(eta, size):
    """The `PlaneWaves` of `mode_window(eta, size)`, as `propagate` builds them."""
    return tuple(m.waves for m in mode_window(eta, size))


def test_static_hamiltonian_is_diagonal():
    modes = mode_window(1j, 4)
    l = 1.3
    h = np.array(generator(_states(1j, 4), 0.0, 0.0, mass=0.9)) / l ** 2
    lam = np.array([eigenvalue(m.k, l, 0.9) for m in modes])
    assert np.max(np.abs(h - np.diag(lam))) < 1e-12


def test_velocity_blocks_hermitian():
    for eta in (1j, 0.0, 0.5, -0.3 + 0.4j):
        states = _states(eta, 8)
        p, xp = (np.array(m) for m in weak_form(states))
        assert np.max(np.abs(p - p.conj().T)) < 1e-10
        assert np.max(np.abs(xp - xp.conj().T)) < 1e-10
        # kappa = l ldot and l cdot at l = 1.2, ldot = 0.3, cdot = -0.7
        h = np.array(generator(states, 1.2 * 0.3, 1.2 * -0.7))
        assert np.max(np.abs(h - h.conj().T)) < 1e-10


def _assert_weak_form_matches_quadrature(states):
    # weak_form against the symmetrized weak form
    # -(i/2) Int u^j (conj(a) b' - conj(a') b), j = 0 for p and 1 for x o p,
    # by Gauss-Legendre on the plane waves and their slopes +-ik e^{+-iku}
    x, w = oscillatory_rule(-0.5, 0.5, 2.0 * max(abs(psi.k) for psi in states))
    waves = [(np.exp(1j * psi.k * x), psi) for psi in states]
    vals = np.array([psi.plus * e + psi.minus / e for e, psi in waves])
    slopes = np.array([1j * psi.k * (psi.plus * e - psi.minus / e) for e, psi in waves])
    for weight, block in zip((1.0, x), map(np.array, weak_form(states))):
        a = (vals.conj() * (w * weight)) @ slopes.T
        assert np.max(np.abs(block - (-0.5j) * (a - a.conj().T))) < 1e-13


@pytest.mark.parametrize("eta", [1j, np.exp(0.3j), 2j, -0.3 + 0.4j, 0.5, 0.0, -3.0, 1.0 + 1e-7, -1.0 - 1e-7])
@pytest.mark.parametrize("window", [4, 8])
def test_velocity_blocks_match_quadrature(eta, window):
    # mode windows at |eta| = 1, |eta| != 1, real eta and eta near +-1, where
    # k_n + k_m nearly cancels for n + m = 0 or -1
    _assert_weak_form_matches_quadrature(_states(eta, window))


@pytest.mark.parametrize("eta, n", [(1, 1), (1, 2), (1, 5), (-1, 0), (-1, 1), (-1, 4)])
def test_degenerate_weak_form_matches_quadrature(eta, n):
    # the degenerate cos/sin pairs, whose four plane waves sit at +-k on one lattice
    _assert_weak_form_matches_quadrature(degenerate_waves(eta, n))


@pytest.mark.parametrize("k0", [1e-3, 0.7, np.pi - 1e-3])
def test_weak_form_of_lattice_states_matches_quadrature(k0):
    # states of unrelated amplitudes on one lattice k0 + 2 pi Z: only these
    # reach the opposite-sign waves' x o p term, which cancels within a mode
    # window and a degenerate pair, and its series where k_a + k_b nearly
    # cancels (k0 near 0 and near pi)
    rng = random.Random(5)
    states = tuple(PlaneWaves(k0 + 2.0 * np.pi * n, complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                              complex(rng.gauss(0, 1), rng.gauss(0, 1))) for n in range(-4, 5))
    _assert_weak_form_matches_quadrature(states)


def test_diagonal_momentum_matches_connection():
    # <phi_n|p|phi_n> = -k sin(alpha): the diagonal that feeds the geometric phase
    for eta in (1j, 2j, -0.3 + 0.4j):
        modes = mode_window(eta, 3)
        p = weak_form(_states(eta, 3))[0]
        for i, m in enumerate(modes):
            assert p[i][i].real == pytest.approx(-m.k * np.sin(m.alpha), abs=1e-10)


def test_rebuilt_mode_window_hits_the_weak_form_cache():
    # states compare and hash by value, so the window `propagate` rebuilds for
    # each T of a sweep finds the matrices built for the first
    first = _states(0.3 + 0.6j, 3)
    weak_form(first)
    hits = weak_form.cache_info().hits
    again = _states(0.3 + 0.6j, 3)
    assert again == first and hash(again) == hash(first) and again[0] is not first[0]
    assert weak_form(again) is weak_form(first)
    assert weak_form.cache_info().hits == hits + 2


def test_length_scaling_of_static_block():
    # l^2 times the static Hamiltonian is l-independent, as l^2 lambda_n(l) is
    modes = mode_window(1j, 3)
    h = np.array(generator(_states(1j, 3), 0.0, 0.0))
    for l in (1.0, 2.0):
        lam = np.array([eigenvalue(m.k, l) for m in modes])
        assert np.allclose(h / l ** 2, np.diag(lam), atol=1e-13)


def test_degenerate_eta_rejected():
    with pytest.raises(DegenerateEtaError):
        mode_window(1.0, 4)
    with pytest.raises(DegenerateEtaError):
        propagate(Schedule(RECT, 10.0, 200), 0, -1.0, 4)


def test_constant_path_trivial():
    rep = propagate(Schedule(ParameterPath([(1.0, 0.0)]), 10.0, 500), 0, 1j, 4)
    assert abs(rep.geometric_phase) < 1e-9
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.norm_drift < 1e-9
    assert not rep.adiabatic_warning


def test_rectangle_loop_converges_to_berry_phase():
    target = loop_phase_analytic(mode(0, 1j), RECT)
    errs = []
    for T in (25.0, 50.0):
        rep = propagate(Schedule(RECT, T, int(100 * T)), 0, 1j, 8)
        assert rep.fidelity > 0.99
        assert rep.norm_drift < 1e-9
        errs.append(abs(rep.geometric_phase - target))
    assert errs[1] < 0.6 * errs[0]
    assert errs[1] < 0.05


def test_real_eta_loop_has_no_geometric_phase():
    # vanishing curvature: the residual phase is pure second-order velocity
    # effect and dies off like 1/T
    geo = []
    for T in (250.0, 500.0):
        rep = propagate(Schedule(RECT, T, 2000), 0, 0.0, 8)
        assert rep.fidelity > 0.999
        geo.append(abs(rep.geometric_phase))
    assert geo[1] < 0.6 * geo[0]
    assert geo[1] < 0.01


def test_window_convergence():
    # at the slow end of the acceptance sweep the loop barely couples to the
    # window edge: widening the window from 8 to 16 moves the geometric
    # phase by less than 1e-4
    sched = Schedule(RECT, 200.0, 20000)
    narrow = propagate(sched, 0, 1j, 8)
    wide = propagate(sched, 0, 1j, 16)
    assert abs(narrow.geometric_phase - wide.geometric_phase) < 1e-4
    assert wide.edge_weight < 1e-3


def test_window_out_of_range():
    with pytest.raises(ValueError):
        propagate(Schedule(RECT, 10.0, 200), 7, 1j, 4)


def _midpoint_overlap(schedule, start_mode, eta, window, mass, steps_per_side):
    """Reference: <psi(0)|psi(T)> and the largest window-edge amplitude from
    the exponential midpoint rule in physical time t, with l(t)^2 linear in t
    on each side and c moving with l along it; each step's Hamiltonian is
    built from spectrum.eigenvalue."""
    modes = mode_window(eta, window)
    pmat, xpmat = weak_form(_states(eta, window))
    lam1 = np.array([eigenvalue(m.k, 1.0, mass) for m in modes])
    path = schedule.path
    segs = path.segments if path.orientation > 0 else [(b, a) for a, b in reversed(path.segments)]
    t_side = schedule.duration / len(segs)
    dt = t_side / steps_per_side
    t = (np.arange(steps_per_side) + 0.5) * dt
    psi = np.zeros(len(modes), dtype=complex)
    psi[start_mode + window] = 1.0
    psi0 = psi.copy()
    edge_weight = 0.0
    for (l0, c0), (l1, c1) in segs:
        l = np.sqrt(l0 ** 2 + (l1 ** 2 - l0 ** 2) * t / t_side)
        ldot = (l1 ** 2 - l0 ** 2) / (2.0 * t_side * l)
        cdot = ldot * (c1 - c0) / (l1 - l0) if l1 != l0 else np.full_like(l, (c1 - c0) / t_side)
        h = ((lam1 / l[:, None] ** 2)[:, :, None] * np.eye(len(modes)) - (ldot / l)[:, None, None] * xpmat
             - (cdot / l)[:, None, None] * pmat)
        evals, vecs = np.linalg.eigh(h)
        for e, v in zip(evals, vecs):
            psi = v @ (np.exp(-1j * e * dt) * (v.conj().T @ psi))
            edge_weight = max(edge_weight, abs(psi[0]), abs(psi[-1]))
    return np.vdot(psi0, psi), edge_weight


@pytest.mark.parametrize("path", [RECT, rectangle_loop(1.0, 2.0, 0.0, 1.0, orientation=-1),
                                  ONE_VERTICAL, POINT],
                         ids=["rectangle", "rectangle-reversed", "one-vertical-side", "point"])
def test_propagate_matches_stepwise_reference(path):
    # the per-side exponentials in conformal time are exact: a midpoint
    # integration of the same schedule in physical time converges to them at
    # second order, 16x per 4x steps, until it reaches roundoff
    sched = Schedule(path, 20.0, 400)
    rep = propagate(sched, 1, -0.3 + 0.4j, 4, mass=0.8)
    exact = rep.fidelity * np.exp(1j * rep.total_phase)
    refs = [_midpoint_overlap(sched, 1, -0.3 + 0.4j, 4, 0.8, n) for n in (100, 400, 1600)]
    gaps = [abs(overlap - exact) for overlap, _ in refs]
    for coarse, fine in zip(gaps[:-1], gaps[1:]):
        assert fine < 1e-12 or 12.0 < coarse / fine < 20.0
    assert gaps[-1] < 3e-5
    # edge_weight bounds the window-edge amplitude at every instant, so it is
    # at least the largest the reference meets at its steps, and close to it
    assert rep.edge_weight >= refs[-1][1]
    assert rep.edge_weight == pytest.approx(refs[-1][1], rel=0.05)
    assert rep.norm_drift < 1e-13


@pytest.mark.parametrize("path, nseg", [(RECT, 4), (NO_VERTICAL, 3), (POINT, 1)],
                         ids=["rectangle", "no-vertical-side", "point"])
def test_one_eigh_per_side(monkeypatch, path, nseg):
    # one solve of the 9 x 9 generator per side; resolution changes nothing
    counted = []
    monkeypatch.setattr(berrybox.adiabatic, "eigh", lambda h: counted.append((len(h), len(h[0]))) or eigh(h))
    reps = [propagate(Schedule(path, 20.0, resolution), 0, 1j, 4) for resolution in (100, 4001)]
    assert counted == [(9, 9)] * (2 * nseg)
    assert reps[0] == reps[1]


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _rotated(rng, values):
    # a random unitary conjugate of diag(values)
    q, _ = np.linalg.qr(_random_hermitian(rng, len(values)) + 1j * np.eye(len(values)))
    return q @ np.diag(values) @ q.conj().T


@pytest.mark.parametrize("make", [
    pytest.param(lambda rng: _random_hermitian(rng, 1), id="size-1"),
    pytest.param(lambda rng: _random_hermitian(rng, 2), id="size-2"),
    pytest.param(lambda rng: _random_hermitian(rng, 9), id="size-9"),
    pytest.param(lambda rng: _random_hermitian(rng, 33), id="size-33"),
    pytest.param(lambda rng: np.diag(rng.standard_normal(9)).astype(complex), id="diagonal"),
    pytest.param(lambda rng: _rotated(rng, [1.0] * 4 + [2.0] * 3 + [-0.5] * 2), id="repeated"),
    pytest.param(lambda rng: np.array(generator(_states(1.0 + 1e-7, 16), 0.3, -0.2)), id="generator-near-plus-1"),
    pytest.param(lambda rng: np.array(generator(_states(-1.0 - 1e-7, 16), -0.4, 0.1)), id="generator-near-minus-1"),
])
def test_eigh_matches_numpy(make):
    # the eigenvalues, and exp(-i h tau) psi formed from the factored V,
    # against LAPACK's; tau ||h|| = 2 keeps the phases of order one
    rng = np.random.default_rng(7)
    h = make(rng)
    basis = eigh(tuple(map(tuple, h)))
    values, vecs = np.linalg.eigh(h)
    scale = max(np.max(np.abs(values)), 1e-300)
    assert np.max(np.abs(np.sort(basis.values) - values)) <= 1e-13 * scale
    psi = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
    psi /= np.linalg.norm(psi)
    tau = 2.0 / scale
    want = vecs @ (np.exp(-1j * tau * values) * (vecs.conj().T @ psi))
    got = basis.vector([cmath.exp(-1j * tau * lam) * z for lam, z in zip(basis.values, basis.coordinates(psi))])
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12
    # V is unitary: its coordinates map back to the vector
    assert np.max(np.abs(np.array(basis.vector(basis.coordinates(psi))) - psi)) <= 1e-14


@pytest.mark.parametrize("exponent", [600, -600])
def test_eigh_at_any_scale(exponent):
    # beta = 1/(norm (norm + |x0|)) overflowed above column norms of about
    # 1e154 and underflowed below 1e-154; each column is divided by a power
    # of two first, exactly, so h times 2^e has its eigenvalues times 2^e and
    # the same eigenvectors, bit for bit
    rng = np.random.default_rng(11)
    h = _random_hermitian(rng, 9)
    scale = 2.0 ** exponent
    base, scaled = eigh(tuple(map(tuple, h))), eigh(tuple(map(tuple, h * scale)))
    assert scaled.values == [v * scale for v in base.values]
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert scaled.coordinates(psi) == base.coordinates(psi)
    want = np.linalg.eigvalsh(h * scale)
    assert np.max(np.abs(np.sort(scaled.values) - want)) <= 2e-15 * np.max(np.abs(want))


def test_eigh_of_the_generator_at_a_tiny_mass():
    # diag(k_n^2 / (2m)) reaches 1e204 at mass 1e-200, beside velocity blocks of order one
    h = generator(_states(1j, 8), 0.3, -0.2, mass=1e-200)
    want = np.linalg.eigvalsh(np.array(h))
    assert np.max(np.abs(np.sort(eigh(h).values) - want)) <= 2e-15 * np.max(np.abs(want))


def test_slow_side_at_huge_mass_meets_the_analytic_phase():
    # `adiabatic --mass 1e300 --T-list 1.7e308`: the levels k^2/(2m), near
    # 1e-300, and l cdot = 4.7e-308 left every generator entry near the
    # smallest normal float, and QL did not converge; each side's generator is
    # now built at a power-of-two scale near 1, and tau at the inverse scale
    rep = propagate(Schedule(RECT, 1.7e308), 0, 1j, 8, mass=1e300)
    assert rep.fidelity >= 0.9999 and not rep.adiabatic_warning
    target = loop_phase_analytic(mode(0, 1j), RECT)
    assert abs(math.remainder(rep.geometric_phase - target, 2.0 * math.pi)) < 1e-4


def test_eigh_stops_when_ql_does_not_converge():
    # a NaN never deflates: the iteration cap raises instead of looping
    h = [[1.0 + 0j, 0.5j, 0j], [-0.5j, float("nan"), 0.2 + 0j], [0j, 0.2 + 0j, 3.0 + 0j]]
    with pytest.raises(ArithmeticError, match="did not converge"):
        eigh(h)


def _seeded_loops(seed):
    # rectangles of either orientation, closed polylines and the point loop,
    # drawn in l in [0.8, 2] and c in [-0.5, 0.5]
    rng = random.Random(seed)
    l0, c0 = rng.uniform(0.8, 1.4), rng.uniform(-0.5, 0.2)
    rect = rectangle_loop(l0, l0 + rng.uniform(0.1, 0.6), c0, c0 + rng.uniform(0.05, 0.3),
                          orientation=rng.choice([-1, 1]))
    points = [(rng.uniform(0.8, 2.0), rng.uniform(-0.5, 0.5)) for _ in range(rng.choice([3, 4, 5]))]
    return [rect, ParameterPath(points), ParameterPath([(rng.uniform(0.8, 2.0), rng.uniform(-0.5, 0.5))])]


@pytest.mark.parametrize("seed", range(4))
def test_propagate_matches_array_propagator(seed):
    # the standard-library solve against the numpy propagator it replaced:
    # the same phases to 1e-9 mod 2 pi at window 8, T = 50 and 400
    rng = random.Random(100 + seed)
    eta = complex(rng.uniform(-0.8, 0.8), rng.choice([-1, 1]) * rng.uniform(0.3, 1.2))
    for path in _seeded_loops(seed):
        for duration in (50.0, 400.0):
            n = rng.choice([-1, 0, 1])
            sched = Schedule(path, duration, 400)
            got, want = propagate(sched, n, eta, 8), propagate_arrays(sched, n, eta, 8)
            assert got.dynamical_phase == want.dynamical_phase
            for a, b in ((got.total_phase, want.total_phase), (got.geometric_phase, want.geometric_phase)):
                assert abs(math.remainder(a - b, 2.0 * math.pi)) < 1e-9
            assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12)
            assert got.norm_drift < 1e-13 and want.norm_drift < 1e-13
            # the bound on every instant against the largest sampled amplitude
            assert got.edge_weight >= want.edge_weight


def test_dynamical_phase_is_conformal_time():
    # -k^2/(2m) sum tau_side, with tau_side = Int dt / l^2 = T_side ln(l1/l0)/kappa
    # on a side of moving l and T_side / l^2 on a side of constant l
    t_side, mass = 5.0, 0.8
    k = mode(1, -0.3 + 0.4j).k
    rep = propagate(Schedule(RECT, 4.0 * t_side, 400), 1, -0.3 + 0.4j, 4, mass=mass)
    tau = t_side * (2.0 * 2.0 * np.log(2.0) / 3.0 + 1.0 / 4.0 + 1.0)
    assert rep.dynamical_phase == pytest.approx(-k ** 2 / (2.0 * mass) * tau, rel=1e-14)
    # on any polyline: Gauss-Legendre in t of lambda(l(t)), l(t)^2 linear on each side
    rep = propagate(Schedule(NO_VERTICAL, 15.0, 400), 1, -0.3 + 0.4j, 4, mass=mass)
    xg, wg = np.polynomial.legendre.leggauss(40)
    t = 2.5 * (1.0 + xg)
    integral = sum(wg @ [2.5 * eigenvalue(mode(1, -0.3 + 0.4j).k, np.sqrt(l0 ** 2 + (l1 ** 2 - l0 ** 2) * tj / 5.0), mass)
                         for tj in t]
                   for (l0, _), (l1, _) in NO_VERTICAL.segments)
    assert rep.dynamical_phase == pytest.approx(-integral, rel=1e-13)


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        propagate(Schedule(RECT, 10.0, 200), 0, 1j, 4, mass=0.0)


@pytest.mark.parametrize("mass", [-1.0, float("inf"), float("nan")])
def test_nonfinite_or_negative_mass_rejected(mass):
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        propagate(Schedule(RECT, 10.0, 200), 0, 1j, 4, mass=mass)
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        generator(_states(1j, 2), 0.0, 0.0, mass=mass)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(RECT, -1.0, 500)
    for duration in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Schedule(RECT, duration, 500)
    with pytest.raises(ValueError):
        Schedule(RECT, 10.0, 50)
