"""Dynamical extraction of the geometric phase from slow wall motion.

Transforming the moving-box Schrodinger equation to the fixed reference
interval with the translation/dilation unitaries adds moving-frame gauge
terms to the rescaled kinetic term:

    i d psi/dt = [ p^2/(2 m l^2) - (ldot/l) (x o p) - (cdot/l) p ] psi.

Derivation: with U(l, c) = W(ln l)^dag V(c)^dag and psi_fixed = U psi_lab,
i d/dt psi_fixed = (U H U^dag + i Udot U^dag) psi_fixed; the group
generators give i Udot U^dag = -(ldot/l) x o p - (cdot/l) p, using
W^dag(ln l) p W(ln l) = p/l.

Each straight side (l0, c0) -> (l1, c1) is traversed in time T_side = T/nseg
with l(t)^2 linear in t, so kappa = l ldot = (l1^2 - l0^2)/(2 T_side) and
l cdot = (c1 - c0)(l0 + l1)/(2 T_side) are constant on it.  In the conformal
time tau = Int dt / l^2 the equation becomes

    i d psi/dtau = [ p^2/(2 m) - kappa (x o p) - (l cdot) p ] psi,

with a generator constant on the side, so one eigh evolves the whole side
exactly as V exp(-i Lambda tau_side) V^H, where tau_side = ln(l1/l0)/kappa,
or T_side/l^2 at constant l: no time step and no step error.  This is the
scaling and time change used for expanding boxes (Berry and Klein,
J. Phys. A 17, 1805 (1984)); the adiabatic limit, and with it the geometric
phase, does not depend on the speed profile.

The operators are truncated to a symmetric window of static eigenmodes.  The
p and x o p blocks take the symmetrized (weak) form
-(i/2) Int (conj(phi) phi' - conj(phi)' phi), Hermitian for every boundary
parameter and equal to <phi|-i phi'> when |eta| = 1; each eigenfunction is
two plane waves, so the blocks are built in closed form, once per window.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .closed_form import Mode, eigenvalue, mode
from .paths import ParameterPath

__all__ = [
    "Schedule",
    "PhaseReport",
    "mode_window",
    "weak_form_matrix",
    "generator",
    "propagate",
]


class Schedule:
    """A closed parameter loop traversed in total time T; `resolution` states
    per traversal are sampled for the diagnostics (see `propagate`)."""

    __slots__ = ("path", "duration", "resolution")

    def __init__(self, path: ParameterPath, duration: float, resolution: int = 1000):
        if not 0 < duration < math.inf:
            raise ValueError("traversal time must be finite and positive")
        if resolution < 100:
            raise ValueError("resolution must be at least 100 steps")
        if not path.closed:
            raise ValueError("adiabatic schedules must traverse closed loops")
        self.path, self.duration, self.resolution = path, duration, resolution


PhaseReport = namedtuple("PhaseReport", "total_phase dynamical_phase geometric_phase fidelity norm_drift "
                                        "edge_weight adiabatic_warning")
PhaseReport.__doc__ = """Phases accumulated over one traversal.

geometric_phase = total_phase - dynamical_phase (mod 2 pi); fidelity is
the modulus of the return overlap and gates the phase's meaning, so an
adiabaticity warning is carried here rather than raised.  norm_drift and
edge_weight are propagation diagnostics (unitarity defect and the largest
amplitude reaching the mode-window edge).
"""


def mode_window(eta, size: int) -> tuple[Mode, ...]:
    """Modes n = -size .. size of the nondegenerate family member eta;
    `mode` raises DegenerateEtaError at eta = +-1."""
    return tuple(mode(n, eta) for n in range(-size, size + 1))


@functools.lru_cache(maxsize=8)
def weak_form_matrix(modes):
    """Hermitian matrices of p and of x o p = (xp + px)/2 in the symmetrized
    form, in closed form, over a tuple of modes such as `mode_window`'s.

    phi_n = sum_s a_s e^{s i k_n x} over s = +-1, with a_s = (e^{i alpha} - s i)/2,
    and k_n - k_m = 2 pi (n - m).  Plane waves of equal sign are therefore
    orthogonal, so they reach p only on its diagonal, and those of opposite
    sign cancel from x o p, which leaves

        p_mn = -k_n sin(alpha) delta_mn - (i/2) cos(alpha) (k_n - k_m) sin(z)/z,
        (x o p)_mn = -i (k_n + k_m) (-1)^(n-m) / (4 pi (n - m)),  0 at m = n,

    with z = (k_n + k_m)/2: the sin(z)/z form stays accurate as k_n -> -k_m,
    near eta = +-1.  Built once per mode window; the cached arrays are shared
    and read-only.
    """
    k = np.array([m.k for m in modes])
    n = np.array([m.n for m in modes])
    alpha = modes[0].alpha
    z, dn = 0.5 * (k + k[:, None]), n - n[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(z == 0, 1.0, np.sin(z) / z)
        xp = np.where(dn == 0, 0.0, -0.5j * z * (-1.0) ** dn / (np.pi * dn))
    p = np.diag(-k * modes[0].sin_alpha) - 0.5j * np.cos(alpha) * (k - k[:, None]) * sinc
    p.setflags(write=False)
    xp.setflags(write=False)
    return p, xp


def generator(modes, kappa, lcdot, mass=1.0):
    """p^2/(2m) - kappa x o p - (l cdot) p on a tuple of modes: l^2 times the
    moving-frame Hamiltonian, with kappa = l ldot.  At kappa = l cdot = 0 it
    is diag(k_n^2 / (2m)), l^2 times the static spectrum."""
    pmat, xpmat = weak_form_matrix(modes)
    # the scalar closed form: numpy's square rounds a few squares in ten
    # thousand differently from Python's x ** 2
    return np.diag([eigenvalue(m.k, 1.0, mass) for m in modes]) - kappa * xpmat - lcdot * pmat


def _sides(schedule: Schedule):
    """(kappa, l cdot, tau_side) of each side, in traversal order.

    A side (l0, c0) -> (l1, c1) takes T/nseg with l^2 linear in t.
    """
    path = schedule.path
    segs = path.segments if path.orientation > 0 else [(b, a) for a, b in reversed(path.segments)]
    t_side = schedule.duration / len(segs)
    for (l0, c0), (l1, c1) in segs:
        kappa = (l1 - l0) * (l1 + l0) / (2.0 * t_side)
        tau = t_side / l0 ** 2 if l0 == l1 else math.log1p((l1 - l0) / l0) / kappa
        yield kappa, (c1 - c0) * (l1 + l0) / (2.0 * t_side), tau


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
    which cancels from every reported quantity).  Each side, in traversal
    order, is evolved exactly in conformal time by one eigh of its constant
    generator.  `schedule.resolution` sets only the diagnostics:
    ceil(resolution / nseg) states per side, evenly spaced in conformal
    time and the last at the side's end, are formed by one
    (samples x modes) product, and norm_drift and edge_weight are their
    largest unitarity defect and window-edge amplitude.
    Returns the total return phase Arg<psi(0)|psi(T)>, the dynamical phase
    -Int lambda dt = -k^2/(2m) sum tau_side, and their difference mod 2 pi
    as the geometric phase.  A fidelity below 0.9 sets the adiabaticity
    warning instead of raising.
    """
    modes = mode_window(eta, window)
    if abs(start_mode) > window:
        raise ValueError("start mode lies outside the window")
    idx = start_mode + window
    sides = list(_sides(schedule))
    samples = -(-schedule.resolution // len(sides))
    fractions = np.arange(1, samples + 1) / samples

    psi = np.zeros(len(modes), dtype=complex)
    psi[idx] = np.exp(1j * initial_phase)
    psi0 = psi.copy()
    norm_drift = edge_weight = 0.0
    for kappa, lcdot, tau in sides:
        evals, vecs = np.linalg.eigh(generator(modes, kappa, lcdot, mass))
        trail = (np.exp(-1j * tau * np.outer(fractions, evals)) * (vecs.conj().T @ psi)) @ vecs.T
        psi = trail[-1]
        norm_drift = max(norm_drift, float(np.max(np.abs(np.linalg.norm(trail, axis=1) - 1.0))))
        edge_weight = max(edge_weight, float(np.max(np.abs(trail[:, [0, -1]]))))

    overlap = np.vdot(psi0, psi)
    total = float(np.angle(overlap))
    dynamical = -eigenvalue(modes[idx].k, 1.0, mass) * sum(tau for _, _, tau in sides)
    geometric = float(np.angle(np.exp(1j * (total - dynamical))))
    fidelity = float(abs(overlap))
    return PhaseReport(
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        fidelity=fidelity,
        norm_drift=norm_drift,
        edge_weight=edge_weight,
        adiabatic_warning=fidelity < 0.9,
    )
