"""Dynamical extraction of the geometric phase from slow wall motion.

Transforming the moving-box Schrodinger equation to the fixed reference
interval with the translation/dilation unitaries produces, besides the
rescaled kinetic term, moving-frame gauge terms proportional to the
traversal velocities:

    i d psi/dt = [ p^2/(2 m l^2) - (ldot/l) (x o p) - (cdot/l) p ] psi.

Derivation: with U(l, c) = W(ln l)^dag V(c)^dag and psi_fixed = U psi_lab,
i d/dt psi_fixed = (U H U^dag + i Udot U^dag) psi_fixed; the group
generators give i Udot U^dag = -(ldot/l) x o p - (cdot/l) p, using
W^dag(ln l) p W(ln l) = p/l.

The operators are truncated to a symmetric window of eigenmodes of the
static problem.  Matrix elements of p and x o p are evaluated in the
symmetrized (weak) form -(i/2) Int (conj(phi) phi' - conj(phi)' phi), which
is Hermitian for every boundary parameter and agrees with <phi|-i phi'>
whenever |eta| = 1, where the endpoint bracket vanishes.  Propagation uses
the exponential midpoint rule: each step applies the exact exponential of
the frozen midpoint Hamiltonian, hence is exactly unitary and phase-exact
on constant paths.  On a side of constant l (the c-sides of a rectangle)
the Hamiltonian does not change, so one eigh serves every step of that
side and its evolution is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import as_eta
from .paths import ParameterPath
from .quadrature import oscillatory_rule
from .spectrum import (
    DegenerateEtaError,
    Geometry,
    Mode,
    eigenfunction_fixed,
    eigenfunction_fixed_dx,
    mode,
)

__all__ = [
    "Schedule",
    "PhaseReport",
    "mode_window",
    "momentum_matrix",
    "virial_matrix",
    "effective_hamiltonian",
    "propagate",
]


@dataclass(frozen=True)
class Schedule:
    """A closed parameter loop traversed in total time T with a fixed step count."""

    path: ParameterPath
    duration: float
    resolution: int = 1000

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("traversal time must be positive")
        if self.resolution < 100:
            raise ValueError("resolution must be at least 100 steps")
        if not self.path.closed:
            raise ValueError("adiabatic schedules must traverse closed loops")


@dataclass(frozen=True)
class PhaseReport:
    """Phases accumulated over one traversal.

    geometric_phase = total_phase - dynamical_phase (mod 2 pi); fidelity is
    the modulus of the return overlap and gates the phase's meaning, so an
    adiabaticity warning is carried here rather than raised.  norm_drift and
    edge_weight are propagation diagnostics (unitarity defect and the largest
    amplitude reaching the mode-window edge).
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    fidelity: float
    norm_drift: float
    edge_weight: float
    adiabatic_warning: bool


def mode_window(eta, size: int) -> tuple[Mode, ...]:
    """Modes n = -size .. size of the nondegenerate family member eta."""
    eta = as_eta(eta)
    if eta.degenerate:
        raise DegenerateEtaError("adiabatic propagation handles nondegenerate eta only")
    return tuple(mode(n, eta) for n in range(-size, size + 1))


def _window_grid(modes):
    kmax = max(abs(m.k) for m in modes)
    return oscillatory_rule(-0.5, 0.5, 2.0 * kmax)


def _weak_form_matrix(modes):
    """Matrices of p and x o p in the symmetrized quadrature form."""
    x, w = _window_grid(modes)
    vals = np.array([eigenfunction_fixed(m, x) for m in modes])
    ders = np.array([eigenfunction_fixed_dx(m, x) for m in modes])

    def sym(extra):
        a = (vals.conj() * (w * extra)) @ ders.T
        return -0.5j * (a - a.conj().T)

    p = sym(np.ones_like(x))
    xp = sym(x)
    return p, xp


def momentum_matrix(modes) -> np.ndarray:
    """Hermitian momentum block over the mode window."""
    return _weak_form_matrix(modes)[0]


def virial_matrix(modes) -> np.ndarray:
    """Hermitian dilation-generator block (x o p = (xp + px)/2)."""
    return _weak_form_matrix(modes)[1]


def effective_hamiltonian(
    modes,
    g: Geometry,
    ldot: float,
    cdot: float,
    mass: float = 1.0,
    pmat: np.ndarray | None = None,
    xpmat: np.ndarray | None = None,
) -> np.ndarray:
    """Moving-frame Hamiltonian on the mode window.

    Static part: diag(lambda_n(l)) = diag(k_n^2 / (2 m l^2)).  Velocity
    part: -(ldot/l) x o p - (cdot/l) p.  The velocity blocks are
    l-independent (unit-interval integrals), so callers doing time stepping
    should precompute them.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    if pmat is None or xpmat is None:
        pmat, xpmat = _weak_form_matrix(modes)
    # Python's k ** 2, as in spectrum.eigenvalue: numpy's square rounds a
    # few squares in ten thousand differently
    lam = np.array([m.k ** 2 for m in modes]) / (2.0 * mass * g.l ** 2)
    return np.diag(lam).astype(complex) - (ldot / g.l) * xpmat - (cdot / g.l) * pmat


def _dynamical_phase(schedule: Schedule, m: Mode, mass: float) -> float:
    """-Int lambda_n(l(t)) dt along the instantaneous level, in closed form.

    Each side is a straight segment traversed in time T/nseg, over which
    Int dt / l^2 = (T/nseg) / (l0 l1).
    """
    segs = schedule.path.segments
    inv_l2 = sum(1.0 / (l0 * l1) for (l0, _), (l1, _) in segs) / len(segs)
    return -schedule.duration * m.k ** 2 / (2.0 * mass) * inv_l2


def propagate(
    schedule: Schedule,
    start_mode: int,
    eta,
    window: int,
    mass: float = 1.0,
    initial_phase: float = 0.0,
) -> PhaseReport:
    """Integrate the moving-frame Schrodinger equation around the loop.

    The state starts on level `start_mode` (times exp(i initial_phase),
    which cancels from every reported quantity); each time step applies the
    exact exponential of the midpoint-frozen Hamiltonian (unitary by
    construction, second order in the step, and exact on constant paths).
    On a side of constant l the Hamiltonian is constant, so the side is
    evolved exactly with one eigh whose exponential every step reuses;
    norm_drift and edge_weight are still sampled after every step.
    Returns the total return phase Arg<psi(0)|psi(T)>, the dynamical phase
    -Int lambda dt, and their difference mod 2 pi as the geometric phase.
    A fidelity below 0.9 sets the adiabaticity warning instead of raising.
    """
    modes = mode_window(eta, window)
    if abs(start_mode) > window:
        raise ValueError("start mode lies outside the window")
    idx = start_mode + window
    pmat, xpmat = _weak_form_matrix(modes)

    path = schedule.path
    nseg = len(path.segments)
    steps_per = max(1, int(np.ceil(schedule.resolution / nseg)))
    nsteps = nseg * steps_per
    dt = schedule.duration / nsteps

    psi = np.zeros(len(modes), dtype=complex)
    psi[idx] = np.exp(1j * initial_phase)
    psi0 = psi.copy()

    norm_drift = 0.0
    edge_weight = 0.0
    for side in range(nseg):
        # steps run through the segments in traversal order
        (l0, _), (l1, _) = path.segments[side if path.orientation > 0 else nseg - 1 - side]
        constant = l0 == l1
        for j in range(side * steps_per, (side + 1) * steps_per):
            if not constant or j == side * steps_per:
                s_mid = (j + 0.5) / nsteps
                g = path.point(s_mid)
                vl, vc = path.velocity(s_mid)
                h = effective_hamiltonian(
                    modes, g, vl / schedule.duration, vc / schedule.duration, mass, pmat, xpmat
                )
                evals, vecs = np.linalg.eigh(h)
                phases = np.exp(-1j * evals * dt)
                vecs_h = vecs.conj().T
            psi = vecs @ (phases * (vecs_h @ psi))
            norm_drift = max(norm_drift, abs(np.linalg.norm(psi) - 1.0))
            edge_weight = max(edge_weight, abs(psi[0]), abs(psi[-1]))

    overlap = np.vdot(psi0, psi)
    total = float(np.angle(overlap))
    dynamical = _dynamical_phase(schedule, modes[idx], mass)
    geometric = float(np.angle(np.exp(1j * (total - dynamical))))
    fidelity = float(abs(overlap))
    return PhaseReport(
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        fidelity=fidelity,
        norm_drift=float(norm_drift),
        edge_weight=float(edge_weight),
        adiabatic_warning=fidelity < 0.9,
    )
