"""Moving-frame Hamiltonian and dynamical phase extraction."""

import numpy as np
import pytest

from berrybox import (
    DegenerateEtaError,
    Geometry,
    Schedule,
    effective_hamiltonian,
    eigenvalue,
    loop_phase_analytic,
    mode,
    mode_window,
    momentum_matrix,
    point_loop,
    polyline_path,
    propagate,
    rectangle_loop,
    virial_matrix,
)
from berrybox.adiabatic import _EIGH_BLOCK

RECT = rectangle_loop(1.0, 2.0, 0.0, 1.0)
# one side of constant l, (1.5, 0) -> (1.5, 0.4); the other three move l
ONE_VERTICAL = polyline_path([(1.0, 0.0), (1.5, 0.0), (1.5, 0.4), (1.2, 0.6)], close=True)
NO_VERTICAL = polyline_path([(1.0, 0.0), (1.5, 0.1), (1.2, 0.5)], close=True)


def test_static_hamiltonian_is_diagonal():
    modes = mode_window(1j, 4)
    g = Geometry(1.3, 0.0)
    h = effective_hamiltonian(modes, g, 0.0, 0.0, mass=0.9)
    lam = np.array([eigenvalue(m, g, 0.9) for m in modes])
    assert np.max(np.abs(h - np.diag(lam))) < 1e-12


def test_velocity_blocks_hermitian():
    for eta in (1j, 0.0, 0.5, -0.3 + 0.4j):
        modes = mode_window(eta, 8)
        p = momentum_matrix(modes)
        xp = virial_matrix(modes)
        assert np.max(np.abs(p - p.conj().T)) < 1e-10
        assert np.max(np.abs(xp - xp.conj().T)) < 1e-10
        h = effective_hamiltonian(modes, Geometry(1.2, 0.4), 0.3, -0.7)
        assert np.max(np.abs(h - h.conj().T)) < 1e-10


def test_diagonal_momentum_matches_connection():
    # <phi_n|p|phi_n> = -k sin(alpha): the diagonal that feeds the geometric phase
    for eta in (1j, 2j, -0.3 + 0.4j):
        modes = mode_window(eta, 3)
        p = momentum_matrix(modes)
        for i, m in enumerate(modes):
            assert p[i, i].real == pytest.approx(-m.k * np.sin(m.alpha), abs=1e-10)


def test_length_scaling_of_static_block():
    modes = mode_window(1j, 3)
    h1 = effective_hamiltonian(modes, Geometry(1.0, 0.0), 0.0, 0.0)
    h2 = effective_hamiltonian(modes, Geometry(2.0, 0.0), 0.0, 0.0)
    assert np.allclose(h2, h1 / 4.0, atol=1e-13)


def test_degenerate_eta_rejected():
    with pytest.raises(DegenerateEtaError):
        mode_window(1.0, 4)
    with pytest.raises(DegenerateEtaError):
        propagate(Schedule(RECT, 10.0, 200), 0, -1.0, 4)


def test_constant_path_trivial():
    rep = propagate(Schedule(point_loop(1.0, 0.0), 10.0, 500), 0, 1j, 4)
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


def test_global_phase_does_not_shift_geometric_phase():
    # the return overlap carries the dressed state on both sides, so a
    # global phase on the initial state cancels identically
    rep1 = propagate(Schedule(RECT, 20.0, 1000), 0, 1j, 6)
    rep2 = propagate(Schedule(RECT, 20.0, 1000), 0, 1j, 6, initial_phase=1.234)
    assert rep1.geometric_phase == pytest.approx(rep2.geometric_phase, abs=1e-12)
    assert rep1.total_phase == pytest.approx(rep2.total_phase, abs=1e-12)


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


def _stepwise_propagate(schedule, start_mode, eta, window, mass=1.0):
    """Reference: one eigh of the midpoint Hamiltonian, built from
    spectrum.eigenvalue, at every step; -Int lambda dt by Gauss-Legendre."""
    modes = mode_window(eta, window)
    pmat, xpmat = momentum_matrix(modes), virial_matrix(modes)
    path, duration = schedule.path, schedule.duration
    nseg = len(path.segments)
    nsteps = nseg * int(np.ceil(schedule.resolution / nseg))
    dt = duration / nsteps
    psi = np.zeros(len(modes), dtype=complex)
    psi[start_mode + window] = 1.0
    psi0 = psi.copy()
    norm_drift = edge_weight = 0.0
    for j in range(nsteps):
        s_mid = (j + 0.5) / nsteps
        g = path.point(s_mid)
        vl, vc = path.velocity(s_mid)
        h = (np.diag([eigenvalue(m, g, mass) for m in modes]).astype(complex)
             - (vl / duration / g.l) * xpmat - (vc / duration / g.l) * pmat)
        evals, vecs = np.linalg.eigh(h)
        psi = vecs @ (np.exp(-1j * evals * dt) * (vecs.conj().T @ psi))
        norm_drift = max(norm_drift, abs(np.linalg.norm(psi) - 1.0))
        edge_weight = max(edge_weight, abs(psi[0]), abs(psi[-1]))
    xg, wg = np.polynomial.legendre.leggauss(32)
    level = modes[start_mode + window]
    integral = sum(wj * 0.5 / nseg * eigenvalue(level, path.point((i + 0.5 + 0.5 * xj) / nseg), mass)
                   for i in range(nseg) for xj, wj in zip(xg, wg))
    overlap = np.vdot(psi0, psi)
    return float(np.angle(overlap)), -duration * integral, abs(overlap), norm_drift, edge_weight


@pytest.mark.parametrize("path", [RECT, rectangle_loop(1.0, 2.0, 0.0, 1.0, orientation=-1),
                                  ONE_VERTICAL, point_loop(1.3, 0.2)],
                         ids=["rectangle", "rectangle-reversed", "one-vertical-side", "point"])
def test_propagate_matches_stepwise_reference(path):
    sched = Schedule(path, 20.0, 400)
    rep = propagate(sched, 1, -0.3 + 0.4j, 4, mass=0.8)
    total, dynamical, fidelity, norm_drift, edge_weight = _stepwise_propagate(sched, 1, -0.3 + 0.4j, 4, 0.8)
    assert abs(rep.total_phase - total) < 1e-12
    assert abs(rep.dynamical_phase - dynamical) < 1e-12
    assert abs(np.angle(np.exp(1j * (rep.geometric_phase - (total - dynamical))))) < 1e-12
    assert abs(rep.fidelity - fidelity) < 1e-12
    assert abs(rep.norm_drift - norm_drift) < 1e-12
    assert abs(rep.edge_weight - edge_weight) < 1e-12


@pytest.mark.parametrize("path, resolution", [(NO_VERTICAL, 100), (ONE_VERTICAL, 150)],
                         ids=["no-vertical-side", "one-vertical-side"])
def test_propagate_eigh_blocks_match_stepwise_reference(path, resolution):
    # 34 and 38 steps per side: each moving side spans three eigh blocks, the last one partial
    steps_per = -(-resolution // len(path.segments))
    assert steps_per > 2 * _EIGH_BLOCK and steps_per % _EIGH_BLOCK
    sched = Schedule(path, 15.0, resolution)
    rep = propagate(sched, -1, 2j, 5, mass=1.1)
    total, dynamical, fidelity, norm_drift, edge_weight = _stepwise_propagate(sched, -1, 2j, 5, 1.1)
    assert abs(rep.total_phase - total) < 1e-12
    assert abs(rep.dynamical_phase - dynamical) < 1e-12
    assert abs(rep.fidelity - fidelity) < 1e-12
    assert abs(rep.norm_drift - norm_drift) < 1e-12
    assert abs(rep.edge_weight - edge_weight) < 1e-12


@pytest.mark.parametrize("path, calls", [(RECT, 2 + 2 * 100), (NO_VERTICAL, 3 * 134)], ids=["rectangle", "no-vertical-side"])
def test_one_eigh_per_constant_side(monkeypatch, path, calls):
    # resolution 400: 100 steps per rectangle side, ceil(400 / 3) per triangle side;
    # eigh takes a stack of Hamiltonians, so count the matrices, not the calls
    eigh = np.linalg.eigh
    counted = []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: counted.append(int(np.prod(h.shape[:-2]))) or eigh(h))
    propagate(Schedule(path, 20.0, 400), 0, 1j, 4)
    assert sum(counted) == calls


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        propagate(Schedule(RECT, 10.0, 200), 0, 1j, 4, mass=0.0)


@pytest.mark.parametrize("mass", [-1.0, float("inf"), float("nan")])
def test_nonfinite_or_negative_mass_rejected(mass):
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        propagate(Schedule(RECT, 10.0, 200), 0, 1j, 4, mass=mass)
    with pytest.raises(ValueError, match="mass must be finite and positive"):
        effective_hamiltonian(mode_window(1j, 2), Geometry(1.0, 0.0), 0.0, 0.0, mass=mass)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(RECT, -1.0, 500)
    for duration in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Schedule(RECT, duration, 500)
    with pytest.raises(ValueError):
        Schedule(RECT, 10.0, 50)
    from berrybox import polyline_path
    with pytest.raises(ValueError):
        Schedule(polyline_path([(1.0, 0.0), (2.0, 0.0)]), 10.0, 500)
