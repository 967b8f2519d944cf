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

with a generator constant on the side, so one eigendecomposition evolves the
whole side exactly as V exp(-i Lambda tau_side) V^H, where
tau_side = ln(l1/l0)/kappa, or T_side/l^2 at constant l: no time step and no
step error.  This is the scaling and time change used for expanding boxes
(Berry and Klein, J. Phys. A 17, 1805 (1984)); the adiabatic limit, and with
it the geometric phase, does not depend on the speed profile.

The operators are truncated to a symmetric window of static eigenmodes.  The
p and x o p blocks take the symmetrized (weak) form
-(i/2) Int (conj(phi) phi' - conj(phi)' phi), Hermitian for every boundary
parameter and equal to <phi|-i phi'> when |eta| = 1; each eigenfunction is
two plane waves, so the blocks are one closed form over the window's states
(`closed_form.weak_form`), built once per window.

Everything runs on the standard library, every matrix a tuple of rows of
complex numbers.  The eigendecomposition (`eigh`) is the textbook one for a
dense Hermitian matrix: Householder reduction to a tridiagonal, a diagonal
phase that makes it real, and implicit-shift QL on that (Wilkinson and
Reinsch, Handbook for Automatic Computation II, 1971; Golub and Van Loan,
Matrix Computations, 8.3).  V is kept as its factors and applied to the few
vectors a side needs, never formed.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import mul

from .closed_form import Mode, eigenvalue, mode, weak_form
from .paths import ParameterPath, log_ratio

__all__ = [
    "Schedule",
    "PhaseReport",
    "mode_window",
    "generator",
    "eigh",
    "propagate",
]

# implicit QL sweeps allowed per eigenvalue, as in EISPACK's tql2; it takes
# one to three
QL_SWEEPS = 30


class Schedule:
    """A parameter loop traversed in total time T.  `resolution`, at
    least 100, is validated and kept for callers; `propagate` does not read
    it."""

    __slots__ = ("path", "duration", "resolution")

    def __init__(self, path: ParameterPath, duration: float, resolution: int = 1000):
        if not 0 < duration < math.inf:
            raise ValueError(f"traversal time T must be finite and positive, not {duration}")
        if resolution < 100:
            raise ValueError("resolution must be at least 100 steps")
        self.path, self.duration, self.resolution = path, duration, resolution


PhaseReport = namedtuple("PhaseReport", "total_phase dynamical_phase geometric_phase fidelity norm_drift "
                                        "edge_weight adiabatic_warning")
PhaseReport.__doc__ = """Phases accumulated over one traversal.

geometric_phase = total_phase - dynamical_phase (mod 2 pi); fidelity is
the modulus of the return overlap and gates the phase's meaning, so an
adiabaticity warning is carried here rather than raised.  norm_drift and
edge_weight are propagation diagnostics (unitarity defect at the side ends,
and a bound on the amplitude reaching the mode-window edge; see `propagate`).
"""


def mode_window(eta, size: int) -> tuple[Mode, ...]:
    """Modes n = -size .. size of the nondegenerate family member eta;
    `mode` raises DegenerateEtaError at eta = +-1."""
    return tuple(mode(n, eta) for n in range(-size, size + 1))


def generator(states, kappa, lcdot, mass=1.0):
    """p^2/(2m) - kappa x o p - (l cdot) p on a tuple of eigenstates (`PlaneWaves`,
    such as a mode window's), as a tuple of rows: l^2 times the moving-frame
    Hamiltonian, with kappa = l ldot.  At kappa = l cdot = 0 it is
    diag(k_n^2 / (2m)), l^2 times the static spectrum."""
    pmat, xpmat = weak_form(states)
    rows = []
    for i, (psi, prow, xrow) in enumerate(zip(states, pmat, xpmat)):
        row = [-kappa * x - lcdot * p for x, p in zip(xrow, prow)]
        row[i] += eigenvalue(psi.k, 1.0, mass)
        rows.append(tuple(row))
    return tuple(rows)


class Eigenbasis:
    """h = V diag(values) V^H for a Hermitian h, with V = Q D W kept as its
    factors: the Householder reflectors of Q, the diagonal phases D and the
    Givens rotations of W, so V applies to a vector in O(n^2) work and is
    never formed.  `values` are in no particular order; `coordinates` and
    `vector` pair them index by index."""

    __slots__ = ("values", "_reflectors", "_phases", "_rotations")

    def __init__(self, values, reflectors, phases, rotations):
        self.values, self._reflectors, self._phases, self._rotations = values, reflectors, phases, rotations

    def coordinates(self, v):
        """V^H v: the components of the vector v in the eigenbasis."""
        v = _reflect(list(v), self._reflectors)
        v = [x * d.conjugate() for x, d in zip(v, self._phases)]
        for i, c, s in self._rotations:
            a, b = v[i], v[i + 1]
            v[i], v[i + 1] = c * a - s * b, s * a + c * b
        return v

    def vector(self, coords):
        """V coords: the vector with these components in the eigenbasis."""
        v = list(coords)
        for i, c, s in reversed(self._rotations):
            a, b = v[i], v[i + 1]
            v[i], v[i + 1] = c * a + s * b, c * b - s * a
        return _reflect([x * d for x, d in zip(v, self._phases)], reversed(self._reflectors))


def _reflect(v, reflectors):
    """Apply each (k, beta, u, conj u), I - beta u u^H on entries k.., to the list v in turn."""
    for k, beta, u, uc in reflectors:
        f = beta * sum(map(mul, uc, v[k:]))
        v[k:] = [x - f * y for x, y in zip(v[k:], u)]
    return v


def eigh(h) -> Eigenbasis:
    """Eigendecomposition of the Hermitian matrix h, a sequence of rows.

    Householder reflections H_k = I - beta u u^H reduce h to a Hermitian
    tridiagonal T = Q^H h Q, column by column, each column first divided by
    a power of two near its norm: an exact scaling, so h may have any scale
    the float range holds; a diagonal phase D makes its off-diagonal real
    and nonnegative, and implicit QL with Wilkinson's shift diagonalizes
    that real tridiagonal by Givens rotations W.  Raises
    ArithmeticError when an eigenvalue takes more than QL_SWEEPS sweeps, as
    a NaN entry makes it.
    """
    rows = [list(row) for row in h]
    diag, off, reflectors = [], [], []
    for k in range(1, len(rows)):
        # the trailing block's first column below its diagonal, then the block without it
        x = [row[0] for row in rows[1:]]
        diag.append(rows[0][0].real)
        rows = [row[1:] for row in rows[1:]]
        x0, a0 = x[0], abs(x[0])
        tail = math.hypot(*map(abs, x[1:]))
        if tail == 0.0:
            off.append(x0)
            continue
        norm = math.hypot(a0, tail)
        # the column over a power of two near its norm, an exact division, so
        # that beta = 1/(norm (norm + |x0|)) neither overflows nor underflows
        scale = 2.0 ** -max(math.frexp(norm)[1], -1021)
        x0, a0, norm = x0 * scale, a0 * scale, norm * scale
        alpha = -(x0 / a0 if a0 else 1.0) * norm
        u = [x0 - alpha] + [y * scale for y in x[1:]]
        uc = [y.conjugate() for y in u]
        beta = 1.0 / (norm * (norm + a0))
        # the block becomes H B H = B - u w^H - w u^H
        p = [beta * sum(map(mul, row, u)) for row in rows]
        half = 0.5 * beta * sum(map(mul, uc, p)).real
        w = [y - half * z for y, z in zip(p, u)]
        wc = [y.conjugate() for y in w]
        rows = [[b - ui * wj - wi * uj for b, wj, uj in zip(row, wc, uc)] for row, ui, wi in zip(rows, u, w)]
        off.append(alpha / scale)
        reflectors.append((k, beta, u, uc))
    diag.append(rows[0][0].real)

    phases, sub = [1.0 + 0j], []
    for e in off:
        a = abs(e)
        phases.append(phases[-1] * e / a if a else phases[-1])
        sub.append(a)
    return Eigenbasis(diag, reflectors, phases, _tridiagonal_ql(diag, sub + [0.0]))


def _tridiagonal_ql(d, e):
    """Implicit QL with Wilkinson's shift on the real symmetric tridiagonal
    of diagonal d and subdiagonal e (e[-1] = 0), both overwritten: d ends as
    the eigenvalues.  Returns the Givens rotations (i, c, s), in the order
    applied, whose product W (each acting on columns i, i + 1) holds the
    eigenvectors; as in tqli (Press et al., Numerical Recipes, 11.3)."""
    n, rotations = len(d), []
    for l in range(n):
        for sweep in range(QL_SWEEPS + 1):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            if sweep == QL_SWEEPS:
                raise ArithmeticError(f"implicit QL did not converge in {QL_SWEEPS} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:
                    # the sweep split the matrix: deflate and start again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rotations.append((i, c, s))
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
    return rotations


def _sides(schedule: Schedule):
    """(kappa, l cdot, tau_side) of each side, in traversal order.

    A side (l0, c0) -> (l1, c1) takes T/nseg with l^2 linear in t; a side
    where one of the three is not finite raises ValueError naming it.
    """
    path = schedule.path
    segs = path.segments if path.orientation > 0 else [(b, a) for a, b in reversed(path.segments)]
    t_side = schedule.duration / len(segs)
    if t_side == 0:
        raise ValueError(f"T = {schedule.duration} gives each of the {len(segs)} loop sides a time T/{len(segs)} "
                         f"that underflows to 0")
    for (l0, c0), (l1, c1) in segs:
        kappa = (l1 - l0) * (l1 + l0) / (2.0 * t_side)
        lcdot = (c1 - c0) * (l1 + l0) / (2.0 * t_side)
        try:
            tau = log_ratio(l0, l1) / kappa if l0 != l1 else t_side / l0 ** 2
        except OverflowError:  # pow raises where l^2 overflows: t_side / l^2 underflows
            tau = 0.0
        except ZeroDivisionError:  # l^2 or kappa underflows to 0
            tau = math.inf
        if not all(map(math.isfinite, (kappa, lcdot, tau))):
            raise ValueError(f"the loop side (l, c) = ({l0}, {c0}) -> ({l1}, {c1}) leaves the float range at "
                             f"T = {schedule.duration}: kappa = l ldot = {kappa}, l cdot = {lcdot} and the "
                             f"conformal time {tau} must all be finite")
        yield kappa, lcdot, tau


def propagate(
    schedule: Schedule,
    start_mode: int,
    eta,
    window: int,
    mass: float = 1.0,
) -> PhaseReport:
    """Integrate the moving-frame Schrodinger equation around the loop.

    The state starts on level `start_mode`.  Each side, in traversal
    order, is evolved exactly in conformal time by one `eigh` of its
    constant generator: psi -> V exp(-i Lambda tau_side) V^H psi.
    norm_drift is the largest | ||psi|| - 1 | at the side ends.  The
    window-edge amplitude at any instant of a side is
    |sum_j <edge|v_j> e^(-i lambda_j tau) <v_j|psi>|, so edge_weight, the
    largest sum_j |<edge|v_j><v_j|psi>| over sides and both edges, bounds it
    from above all along the loop.
    Returns the total return phase Arg<psi(0)|psi(T)>, the dynamical phase
    -Int lambda dt = -k^2/(2m) sum tau_side, and their difference mod 2 pi
    as the geometric phase.  A fidelity below 0.9 sets the adiabaticity
    warning instead of raising.  A side out of the float range raises ValueError.
    """
    states = tuple(m.waves for m in mode_window(eta, window))
    if abs(start_mode) > window:
        raise ValueError(f"start mode n = {start_mode} lies outside the window n = -{window} .. {window}")
    idx = start_mode + window
    sides = list(_sides(schedule))
    dynamical = -eigenvalue(states[idx].k, 1.0, mass) * sum(tau for _, _, tau in sides)
    if not math.isfinite(dynamical):
        raise ValueError(f"the dynamical phase of level n = {start_mode} at mass {mass} and T = {schedule.duration} "
                         f"leaves the float range")
    top_level = max(eigenvalue(psi.k, 1.0, mass) for psi in states)
    # the largest e at which mass 2^e stays finite
    e_max = 1023 - max(math.frexp(mass)[1], 0)

    size = len(states)
    psi = [0j] * size
    psi[idx] = 1.0 + 0j
    psi0 = psi
    edges = [[1.0 + 0j] + [0j] * (size - 1), [0j] * (size - 1) + [1.0 + 0j]]
    norm_drift = edge_weight = 0.0
    for i, (kappa, lcdot, tau) in enumerate(sides):
        # the generator at the exact scale 2^-e and tau at 2^e, the largest term
        # near 1, leave exp(-i G tau) as it is, and keep every entry away from
        # the float range's ends, where QL does not converge on subnormals
        scale = 2.0 ** min(max(math.frexp(max(abs(kappa), abs(lcdot), top_level))[1], -1021), e_max)
        try:
            basis = eigh(generator(states, kappa / scale, lcdot / scale, mass * scale))
        except ArithmeticError as exc:  # QL meets inf or NaN where the generator nears the float range's end
            raise ValueError(f"loop side {i + 1} in traversal order moves too fast for the float range at this "
                             f"window: kappa = l ldot = {kappa}, l cdot = {lcdot} at T = {schedule.duration} "
                             f"and mass {mass} ({exc})") from None
        tau_scaled = tau * scale
        if not all(math.isfinite(tau_scaled * lam) for lam in basis.values):
            raise ValueError(f"loop side {i + 1} in traversal order takes the conformal time {tau} at T = "
                             f"{schedule.duration}: its phases tau * lambda leave the float range")
        coords = basis.coordinates(psi)
        for edge in edges:
            edge_weight = max(edge_weight, sum(abs(a) * abs(b) for a, b in zip(basis.coordinates(edge), coords)))
        psi = basis.vector([cmath.exp(-1j * tau_scaled * lam) * z for lam, z in zip(basis.values, coords)])
        norm_drift = max(norm_drift, abs(math.hypot(*map(abs, psi)) - 1.0))

    overlap = sum(a.conjugate() * b for a, b in zip(psi0, psi))
    total = cmath.phase(overlap)
    geometric = cmath.phase(cmath.exp(1j * (total - dynamical)))
    fidelity = abs(overlap)
    return PhaseReport(
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=geometric,
        fidelity=fidelity,
        norm_drift=norm_drift,
        edge_weight=edge_weight,
        adiabatic_warning=fidelity < 0.9,
    )
