"""The numpy propagator that `adiabatic.propagate` replaced, which the tests
use as its reference: one `numpy.linalg.eigh` per loop side, V formed, and
the diagnostics read off `ceil(resolution / nseg)` states per side, evenly
spaced in conformal time and the last at the side's end."""

import numpy as np

from berrybox.adiabatic import PhaseReport, _sides, generator, mode_window
from berrybox.closed_form import eigenvalue


def propagate_arrays(schedule, start_mode, eta, window, mass=1.0) -> PhaseReport:
    """`adiabatic.propagate` on numpy arrays; norm_drift and edge_weight are
    the largest unitarity defect and window-edge amplitude of the sampled
    states."""
    modes = mode_window(eta, window)
    if abs(start_mode) > window:
        raise ValueError("start mode lies outside the window")
    idx = start_mode + window
    sides = list(_sides(schedule))
    samples = -(-schedule.resolution // len(sides))
    fractions = np.arange(1, samples + 1) / samples

    psi = np.zeros(len(modes), dtype=complex)
    psi[idx] = 1.0
    psi0 = psi.copy()
    norm_drift = edge_weight = 0.0
    for kappa, lcdot, tau in sides:
        evals, vecs = np.linalg.eigh(np.array(generator(tuple(m.waves for m in modes), kappa, lcdot, mass)))
        trail = (np.exp(-1j * tau * np.outer(fractions, evals)) * (vecs.conj().T @ psi)) @ vecs.T
        psi = trail[-1]
        norm_drift = max(norm_drift, float(np.max(np.abs(np.linalg.norm(trail, axis=1) - 1.0))))
        edge_weight = max(edge_weight, float(np.max(np.abs(trail[:, [0, -1]]))))

    overlap = np.vdot(psi0, psi)
    total = float(np.angle(overlap))
    dynamical = -eigenvalue(modes[idx].k, 1.0, mass) * sum(tau for _, _, tau in sides)
    geometric = float(np.angle(np.exp(1j * (total - dynamical))))
    fidelity = float(abs(overlap))
    return PhaseReport(total, dynamical, geometric, fidelity, norm_drift, edge_weight, fidelity < 0.9)
