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
on constant paths.  The loop is worked one side at a time: the side's
midpoint geometries come from one array call, their Hamiltonians are built
as one stack, and a stacked eigh diagonalises them in blocks of at most
`_EIGH_BLOCK`, so only the two matrix-vector products of each step remain
per step.  On a side of constant l (the c-sides of a rectangle) the
Hamiltonian does not change, so the block holds one Hamiltonian that every
step of the side reuses, and the side's evolution is exact.  The p and
x o p blocks are built once per mode window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import as_eta, require_mass
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

# midpoint Hamiltonians per stacked eigh call: stacking removes the per-step
# Python work around eigh, and the bound keeps the stack's memory small (a
# whole loop at once raised peak RSS by about a quarter)
_EIGH_BLOCK = 16


@dataclass(frozen=True)
class Schedule:
    """A closed parameter loop traversed in total time T with a fixed step count."""

    path: ParameterPath
    duration: float
    resolution: int = 1000

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("traversal time must be finite and positive")
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


@functools.lru_cache(maxsize=8)
def _weak_form_matrix(modes):
    """Matrices of p and x o p in the symmetrized quadrature form.

    Built once per mode window; the cached arrays are shared and read-only.
    """
    x, w = _window_grid(modes)
    vals = np.array([eigenfunction_fixed(m, x) for m in modes])
    ders = np.array([eigenfunction_fixed_dx(m, x) for m in modes])

    def sym(extra):
        a = (vals.conj() * (w * extra)) @ ders.T
        return -0.5j * (a - a.conj().T)

    p = sym(np.ones_like(x))
    xp = sym(x)
    p.setflags(write=False)
    xp.setflags(write=False)
    return p, xp


def momentum_matrix(modes) -> np.ndarray:
    """Hermitian momentum block over the mode window (read-only)."""
    return _weak_form_matrix(tuple(modes))[0]


def virial_matrix(modes) -> np.ndarray:
    """Hermitian dilation-generator block (x o p = (xp + px)/2, read-only)."""
    return _weak_form_matrix(tuple(modes))[1]


def _hamiltonians(modes, blocks, l, ldot, cdot, mass):
    """Stack of moving-frame Hamiltonians, one per entry of the arrays l, ldot, cdot.

    `blocks` holds the window's (p, x o p) from `_weak_form_matrix`.
    """
    mass = require_mass(mass)
    pmat, xpmat = blocks
    # Python's x ** 2, as in spectrum.eigenvalue: numpy's square rounds a
    # few squares in ten thousand differently
    ksq = np.array([m.k ** 2 for m in modes])
    lsq = np.array([x ** 2 for x in l.tolist()])
    h = np.zeros((l.size, len(modes), len(modes)), dtype=complex)
    diag = np.arange(len(modes))
    h[:, diag, diag] = ksq / (2.0 * mass * lsq[:, None])
    return h - (ldot / l)[:, None, None] * xpmat - (cdot / l)[:, None, None] * pmat


def effective_hamiltonian(modes, g: Geometry, ldot: float, cdot: float, mass: float = 1.0) -> np.ndarray:
    """Moving-frame Hamiltonian on the mode window at one geometry.

    Static part: diag(lambda_n(l)) = diag(k_n^2 / (2 m l^2)).  Velocity
    part: -(ldot/l) x o p - (cdot/l) p, whose blocks are l-independent
    (unit-interval integrals) and built once per mode window.
    """
    modes = tuple(modes)
    return _hamiltonians(modes, _weak_form_matrix(modes), np.array([g.l]), np.array([ldot]), np.array([cdot]), mass)[0]


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
    norm_drift and edge_weight are sampled after every step and reduced
    per block.
    Returns the total return phase Arg<psi(0)|psi(T)>, the dynamical phase
    -Int lambda dt, and their difference mod 2 pi as the geometric phase.
    A fidelity below 0.9 sets the adiabaticity warning instead of raising.
    """
    modes = mode_window(eta, window)
    if abs(start_mode) > window:
        raise ValueError("start mode lies outside the window")
    idx = start_mode + window
    blocks = _weak_form_matrix(modes)

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
        for first in range(0, steps_per, _EIGH_BLOCK):
            j = side * steps_per + np.arange(first, min(first + _EIGH_BLOCK, steps_per))
            if first == 0 or not constant:
                # a side of constant l has one Hamiltonian, which all its steps reuse
                s_mid = ((j[:1] if constant else j) + 0.5) / nsteps
                l, _ = path.points(s_mid)
                vl, vc = path.velocities(s_mid)
                evals, vecs = np.linalg.eigh(
                    _hamiltonians(modes, blocks, l, vl / schedule.duration, vc / schedule.duration, mass)
                )
                phases = np.exp(-1j * evals * dt)
                vecs_h = vecs.conj().transpose(0, 2, 1)
            trail = np.empty((j.size, len(modes)), dtype=complex)
            for b in range(j.size):
                i = b % len(phases)
                psi = vecs[i] @ (phases[i] * (vecs_h[i] @ psi))
                trail[b] = psi
            norm_drift = max(norm_drift, float(np.max(np.abs(np.linalg.norm(trail, axis=1) - 1.0))))
            edge_weight = max(edge_weight, float(np.max(np.abs(trail[:, [0, -1]]))))

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
