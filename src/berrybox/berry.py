"""Berry connection oracles and loop phases for the nondegenerate levels.

Since the box eigenfunctions stop abruptly at the walls, the naive parameter
derivative of an eigenfunction is not square integrable and the connection
integral needs a prescription.  Three independent evaluations are provided
and cross-checked against the closed form a_c = (k/l) sin(alpha), a_l = 0
(`closed_form.connection_analytic`, with the curvature and the analytic loop
phase):

* `connection_interior`        - differentiate the smooth extension and
                                 integrate strictly inside the box (finite
                                 differences in the parameter);
* `connection_mollified`       - embed in L2(R) with a smoothed characteristic
                                 function of the box and let its width go to
                                 zero;
* `loop_phase_overlap_meshes`  - gauge-invariant discrete phase from overlaps
                                 of neighboring eigenfunctions along the loop,
                                 which never differentiates anything.

Each eigenfunction is two plane waves and each loop a polyline, so the
overlaps and the interior windows are integrated in closed form; quadrature
serves the mollified embedding and `stokes_defect`.
The boundary conditions are dilation invariant, so every state is
l^-1/2 phi((x - c)/l), and a prescription whose regulator scales with the box
(the interior step, the cutoff width) gives a connection F/l.  Each connection
oracle therefore takes only the mode and its relative regulator and returns
F = l a, the connection at the unit box, integrated in the box coordinate
u = (x - c)/l where no box enters; around a closed loop every phase is -F_c
times the closed-form loop integral of dc/l.  `state_overlaps` takes arrays
of boxes, a scalar being the 0-d case, and an overlap chain computes all of
its pairs at once.
Loop phases follow the convention Phi = i * contour integral of <psi|d psi>;
for the counterclockwise axis-aligned rectangle [l1, l2] x [c1, c2] this
gives Phi = k (1/l1 - 1/l2)(c2 - c1) sin(alpha).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .closed_form import Mode, _require_closed, curvature, loop_phase_analytic
from .paths import ParameterPath, rectangle_corners
from .quadrature import GridFunction, panel_rule
from .spectrum import _extension_jet

__all__ = [
    "MeshTooCoarseError",
    "standard_mollifier",
    "connection_interior",
    "connection_mollified",
    "LoopPhaseResult",
    "loop_phase_interior",
    "loop_phase_mollified_sweep",
    "loop_phase_overlap_meshes",
    "state_overlaps",
    "stokes_defect",
    "commutator_defect",
    "power_law_extrapolate",
    "require_geometric",
    "require_interior_step",
]


class MeshTooCoarseError(ValueError):
    """Raised when neighboring loop states barely overlap."""


# ---------------------------------------------------------------------------
# mollifier


def _flat_exp(t):
    """exp(-1/t) for t > 0, zero otherwise; flat to all orders at t = 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)


def standard_mollifier():
    """The standard smooth partition profile rho(t) = f(1-t)/(f(t) + f(1-t)).

    Built from f(t) = exp(-1/t); identically 1 for t <= 0 and 0 for t >= 1.
    The profile is nonnegative, decreasing and smooth, with every derivative
    vanishing at 0, so pasting it onto the flat top of a characteristic
    function stays smooth.  A plain bump like exp(1 - 1/(1-t^2)) would fail
    that flatness requirement at t = 0.
    """

    def rho(t):
        t = np.asarray(t, dtype=float)
        up = _flat_exp(1.0 - t)
        down = _flat_exp(t)
        return up / (up + down + 1e-300)

    return rho


# ---------------------------------------------------------------------------
# connection oracles


def _boxes(*lc):
    """The common shape of the boxes (l, c), (l, c), ... and their arrays,
    broadcast together and flattened; raises ValueError unless every l is
    finite and positive and every c finite."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in lc))
    if not all(np.all(np.isfinite(l) & (l > 0)) for l in arrays[0::2]):
        raise ValueError("box lengths must be finite and positive")
    if not all(np.all(np.isfinite(c)) for c in arrays[1::2]):
        raise ValueError("box centers must be finite")
    return arrays[0].shape, [v.ravel() for v in arrays]


def _window_integral(m: Mode, la, ca, lb, cb, lo, hi):
    """Int_lo^hi conj(psi_a) psi_b dx for the smooth extensions at the boxes
    (la, ca) and (lb, cb): arrays of one shape, one window per entry.

    Each extension is l^-1/2 sum_s ((e^{i alpha} - s i)/2) e^{s iku} over
    s = +-1, with u = (x - c)/l, so the integrand is four plane waves
    e^{i(w x + b)}, each integrating to e^{i(w mid + b)} (hi - lo) sin(z)/z,
    z = w (hi - lo)/2: a form that stays accurate as w -> 0, where
    neighbouring loop points of nearly equal l sit.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    e = cmath.exp(1j * m.alpha)
    ua, ub = m.k * (mid - ca) / la, m.k * (mid - cb) / lb
    wa, wb = m.k / la, m.k / lb

    def term(s, t):  # plane wave s of psi_a, conjugated, times plane wave t of psi_b
        z = half * (t * wb - s * wa)
        amp = ((e - s * 1j) / 2.0).conjugate() * ((e - t * 1j) / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return amp * np.exp(1j * (t * ub - s * ua)) * np.where(z == 0, 1.0, np.sin(z) / z)

    # for real eta the terms are conjugate in pairs; summing each pair first
    # keeps the integral of two real functions exactly real
    total = (term(1.0, 1.0) + term(-1.0, -1.0)) + (term(1.0, -1.0) + term(-1.0, 1.0))
    return 2.0 * half * total / np.sqrt(la * lb)


def require_interior_step(m: Mode, h_rel) -> float:
    """`h_rel` if 0 < h_rel < (1 + |k|)/4, the relative form of the interior
    bound 0 < h < l/4 at the step h_rel * l / (1 + |k|); raises ValueError
    otherwise."""
    bound = (1.0 + abs(m.k)) / 4.0
    if not 0 < h_rel < bound:
        raise ValueError(f"h must satisfy 0 < h < (1 + |k|)/4 = {bound:.3g} at this level, not {h_rel}")
    return h_rel


def connection_interior(m: Mode, h_rel=1e-4):
    """(F_l, F_c) = l (a_l, a_c) from parameter finite differences integrated
    inside the box, at the step h = h_rel * l / (1 + |k|).

    The derivative is formed from the eigenfunction at parameters +/- h, and
    the integral, in closed form, runs strictly inside the intersection of
    the shifted boxes, where all three functions are smooth.  The quotient is
    normalized by the norm captured in the same window: the window clips an
    O(h) sliver off the box, and without the renormalization that sliver
    would dominate the finite-difference truncation error.  Converges to the
    closed form at second order in h.  The step shrinks with the wavenumber:
    the truncation error grows like h^2 k^3.  At the unit box the shifted
    states sit at c = +-r or l = 1 +- r, r = h_rel / (1 + |k|).
    """
    r = require_interior_step(m, h_rel) / (1.0 + abs(m.k))
    lo = np.array([r - 0.5] * 3 + [0.5 * (r - 1.0)] * 3)
    w = _window_integral(m, 1.0, 0.0, np.array([1.0, 1.0, 1.0, 1.0 + r, 1.0 - r, 1.0]),
                         np.array([r, -r, 0.0, 0.0, 0.0, 0.0]), lo, -lo)
    return (w[3] - w[4]).imag / (2.0 * r) / w[5].real, (w[0] - w[1]).imag / (2.0 * r) / w[2].real


def connection_mollified(m: Mode, eps):
    """Arrays (F_l, F_c) = l (a_l, a_c) from the smoothed-box embedding at the
    cutoff widths eps, relative to l (the width at a box is eps * l), of the
    shape of eps.

    The eigenfunction is written as (smooth whole-line extension) times a
    normalized, mollified characteristic function of the box; the connection
    integrand uses the analytic parameter derivative of the extension and
    the square of the cutoff.  As eps -> 0, F_c tends to k sin(alpha) and
    F_l to zero (its limiting integrand is odd around the box center).  The
    interior is sampled once, the two wall strips once per width.

    For this particular eigenfunction family the convergence is in fact
    instantaneous: Im(conj(phi) d_c phi) is constant in x and the cutoff is
    reflection symmetric about the box center, so the normalization quotient
    cancels the eps dependence exactly and every width returns the limit up
    to quadrature error.  The sweep over eps still exercises the embedding
    end to end.
    """
    widths = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(widths) & (widths > 0)):
        raise ValueError("eps must be finite and positive")
    # panels split at the box walls where the cutoff profile kicks in
    inner_panels = max(2, int(np.ceil(4.0 * abs(m.k) / (2.0 * np.pi))) + 2)
    rho = standard_mollifier()

    def weighted(u, w):  # integrands of the norm, F_l and F_c, times the weights w
        ext, d_dl, d_dc = _extension_jet(m, 1.0, 0.0, u)
        bra = np.conj(ext)
        return np.stack([w * np.abs(ext) ** 2, w * np.imag(bra * d_dl), w * np.imag(bra * d_dc)])

    inside = weighted(*panel_rule(-0.5, 0.5, inner_panels))
    sums = []
    for width in widths.flat:
        u, w = panel_rule([-0.5 - width, 0.5], [-0.5, 0.5 + width], 12)
        strips = weighted(u, w * rho((np.abs(u) - 0.5) / width) ** 2)
        # summed in grid order, wall to wall
        sums.append(np.concatenate([strips[:, 0], inside, strips[:, 1]], axis=-1).sum(axis=-1))
    norm2, f_l, f_c = np.reshape(np.transpose(sums), (3,) + widths.shape)
    return f_l / norm2, f_c / norm2


# ---------------------------------------------------------------------------
# loop phases


def loop_phase_interior(m: Mode, path: ParameterPath, h_rel: float) -> float:
    """Loop phase of `connection_interior` at the step h_rel * l / (1 + |k|).

    The connection is (F_l, F_c)/l; around a closed loop F_l multiplies the
    loop integral of dl/l, which vanishes, and Phi = -F_c times that of dc/l
    (`ParameterPath.dc_over_l`).
    """
    _require_closed(path)
    _, f_c = connection_interior(m, h_rel)
    return float(-f_c * path.dc_over_l())


def loop_phase_mollified_sweep(m: Mode, path: ParameterPath, eps_list) -> list[float]:
    """Loop phases -F_c(eps) times the loop integral of dc/l of
    `connection_mollified`, as for `loop_phase_interior`, at each relative
    width in `eps_list`, in the order given."""
    _require_closed(path)
    _, f_c = connection_mollified(m, eps_list)
    return (-f_c * path.dc_over_l()).tolist()


def state_overlaps(m: Mode, la, ca, lb, cb):
    """Array of the L2(R) overlaps <psi(la, ca)|psi(lb, cb)> of the
    eigenfunction at two arrays of boxes, one per entry.

    Both states vanish outside their boxes, so each integral runs over the
    box intersection only, where it has a closed form; disjoint boxes give 0.
    """
    shape, (la, ca, lb, cb) = _boxes(la, ca, lb, cb)
    lo = np.maximum(ca - 0.5 * la, cb - 0.5 * lb)
    hi = np.minimum(ca + 0.5 * la, cb + 0.5 * lb)
    return np.where(hi - lo > 0, _window_integral(m, la, ca, lb, cb, lo, hi), 0.0).reshape(shape)


@dataclass(frozen=True)
class LoopPhaseResult:
    """Discrete loop phase with its mesh and a mesh-halving error estimate."""

    phase: float
    mesh: int
    err_estimate: float


def _chain_phase(m: Mode, path: ParameterPath, n: int) -> float:
    """-Arg prod_j <psi(p_j)|psi(p_j+1)> over the closed chain of the n points
    p_j = path(j/n), every overlap of the chain computed at once."""
    ls, cs = path.points(np.arange(n) / n)
    ov = state_overlaps(m, ls, cs, np.roll(ls, -1), np.roll(cs, -1))
    size = np.abs(ov)
    coarse = np.flatnonzero(size < 1e-6)
    if coarse.size:
        raise MeshTooCoarseError(
            f"neighboring states overlap only |<.|.>| = {size[coarse[0]]:.2e}; refine the mesh"
        )
    return float(-np.angle(np.prod(ov / size)))


def loop_phase_overlap_meshes(m: Mode, path: ParameterPath, meshes) -> list[LoopPhaseResult]:
    """Gauge-invariant discrete loop phases from neighboring-state overlaps,
    one per mesh in `meshes`, in the order given.

    The path is sampled at `mesh` points p_j and the phase is
    -Arg prod_j <psi(p_j)|psi(p_j+1)>; multiplying any sampled state by a
    phase cancels between the two factors it enters, so the product is
    exactly gauge invariant.  The error estimate compares against the
    half-mesh evaluation.

    Each mesh needs the chains at `mesh` and `mesh // 2`; a chain shared
    between meshes (the half mesh of one is often another mesh) is
    evaluated once, so [64, 128, 256] costs the 32-, 64-, 128- and 256-point
    chains.  Chains are evaluated mesh by mesh in the order given, so the
    first too-coarse chain raises the error.
    """
    _require_closed(path)
    if any(mesh < 8 for mesh in meshes):
        raise ValueError("mesh must be at least 8")
    chains = {}

    def chain(n):
        if n not in chains:
            chains[n] = _chain_phase(m, path, n)
        return chains[n]

    results = []
    for mesh in meshes:
        phase = chain(mesh)
        coarse = chain(mesh // 2)
        delta = np.angle(np.exp(1j * (phase - coarse)))
        results.append(LoopPhaseResult(phase=phase, mesh=mesh, err_estimate=float(abs(delta))))
    return results


# ---------------------------------------------------------------------------
# Stokes check


def stokes_defect(m: Mode, rect: ParameterPath) -> float:
    """|loop phase - enclosed curvature flux| for an axis-aligned rectangle.

    The loop phase, in closed form, and the tensor Gauss quadrature of f_lc
    over the enclosed area must agree up to quadrature error.
    """
    lmin, lmax, cmin, cmax, sign = rectangle_corners(rect)
    line = loop_phase_analytic(m, rect)
    if lmax - lmin <= 0 or cmax - cmin <= 0:
        return abs(line)
    xl, wl = panel_rule(lmin, lmax, 8)
    xc, wc = panel_rule(cmin, cmax, 2)
    f = np.outer([curvature(m, l) for l in xl], np.ones_like(xc))
    flux = float(wl @ f @ wc)
    return abs(line - sign * flux)


# ---------------------------------------------------------------------------
# dilation-generator commutator check


def commutator_defect(sample: GridFunction) -> float:
    """Grid norm of ([x o p, p] - i p) applied to a test function.

    x o p = (xp + px)/2 is the dilation generator; the identity
    [x o p, p] = i p is checked with second-order central differences, so
    the defect decays like the squared grid step.  The sample must be
    smooth and supported away from the grid edges.
    """
    x, f = sample.nodes, sample.values
    steps = np.diff(x)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-10, atol=0.0):
        raise ValueError("commutator check needs a uniform grid")
    edge = max(5, int(0.02 * x.size))
    tail = max(np.max(np.abs(f[:edge])), np.max(np.abs(f[-edge:])))
    if tail > 1e-10 * max(np.max(np.abs(f)), 1e-300):
        raise ValueError("test function support touches the grid boundary")

    def ddx(arr):
        return (arr[2:] - arr[:-2]) / (2.0 * h)

    def momentum(arr):
        return -1j * ddx(arr)

    def dilation(arr, nodes):
        return -1j * (nodes[1:-1] * ddx(arr) + 0.5 * arr[1:-1])

    pf = momentum(f)                      # on x[1:-1]
    xpf = dilation(f, x)                  # on x[1:-1]
    lhs = dilation(pf, x[1:-1]) - momentum(xpf)   # on x[2:-2]
    rhs = 1j * pf[1:-1]
    return float(np.sqrt(h * np.sum(np.abs(lhs - rhs) ** 2)))


# ---------------------------------------------------------------------------
# extrapolation helper


def require_geometric(params) -> np.ndarray:
    """`params` as an array, checked to be at least three finite positive
    values that decrease at a constant ratio, as `power_law_extrapolate`
    needs; raises ValueError otherwise."""
    eps = np.asarray(params, dtype=float)
    if eps.ndim != 1 or eps.size < 3:
        raise ValueError("need at least three samples")
    if not np.all(np.isfinite(eps) & (eps > 0)):
        raise ValueError("params must be finite and positive")
    ratios = eps[1:] / eps[:-1]
    if np.any(ratios >= 1.0) or np.max(np.abs(ratios - ratios[0])) > 1e-8:
        raise ValueError("params must decrease at a constant ratio")
    return eps


def power_law_extrapolate(params, values):
    """Extrapolate phases a(eps) = a* + C eps^q to eps -> 0.

    `params` must decrease geometrically (constant ratio).  The phases are
    first unwrapped about the last sample (shifted by multiples of 2 pi to
    within pi of it), so samples that straddle +-pi fit as one branch and
    the limit is returned on the last sample's branch; samples already
    within pi of the last are used unchanged.  Returns (limit, order); when
    successive differences sit at the noise floor the last sample is
    returned with the order capped at 8.  Differences that alternate in sign
    have no power-law limit, and a fitted order q <= 0 means that they do
    not shrink: the last sample is returned with order 0, or with that q.
    """
    eps = require_geometric(params)
    a = np.asarray(values, dtype=float)
    if eps.size != a.size:
        raise ValueError("need at least three matching samples")
    a = a - 2.0 * np.pi * np.round((a - a[-1]) / (2.0 * np.pi))
    r = eps[1] / eps[0]
    d = np.diff(a)
    floor = 1e-12 * max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(d)) < floor:
        return float(a[-1]), 8.0
    pairs = [(d0, d1) for d0, d1 in zip(d[:-1], d[1:]) if abs(d0) >= floor and abs(d1) >= floor]
    qs = [np.log(d0 / d1) / np.log(1.0 / r) for d0, d1 in pairs if d0 * d1 > 0]
    if not qs:
        # the pairs above the floor, if any, all alternate in sign
        return float(a[-1]), 0.0 if pairs else 8.0
    q = min(float(np.mean(qs)), 8.0)
    if q <= 0.0:
        return float(a[-1]), q
    rho = r ** q
    limit = a[-1] + (a[-1] - a[-2]) * rho / (1.0 - rho)
    return float(limit), q
