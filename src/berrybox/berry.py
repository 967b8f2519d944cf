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

Each eigenfunction is two plane waves (`Mode.waves`) and each loop a
polyline, so the overlaps, the interior windows and the mollified
embedding's norm are one closed form (`closed_form.window_integral`), and
the embedding's interior connection is the diagonal of another, the weak
forms of x o p and p (`closed_form.weak_form`) that the propagator reads;
the embedding's two wall strips are a few plane-wave means.  No state is
evaluated at a point.  Everything runs on the standard library, one box at
a time.
The boundary conditions are dilation invariant, so every state is
l^-1/2 phi((x - c)/l), the unit box is the one frame, and a prescription whose
regulator scales with the box (the interior step, the cutoff width) gives a
connection F/l.  Each connection oracle takes only the mode and its relative
regulator and returns F = l a, the connection at the unit box; around a loop
F_l meets the loop integral of dl/l, which vanishes, so the phase is -F_c
times that of dc/l (`ParameterPath.dc_over_l`).  The overlap of two states
depends only on (l'/l, (c' - c)/l) and is taken against the unit box, so
along a side sampled geometrically in l every neighbour overlap is one
number and a chain costs one per side.
Loop phases follow the convention Phi = i * contour integral of <psi|d psi>;
for the counterclockwise axis-aligned rectangle [l1, l2] x [c1, c2] this
gives Phi = k (1/l1 - 1/l2)(c2 - c1) sin(alpha).
"""

from __future__ import annotations

import cmath
import math
import sys

from .closed_form import Mode, require_length, weak_form, window_integral
from .paths import ParameterPath, log_ratio

__all__ = [
    "MeshTooCoarseError",
    "connection_interior",
    "connection_mollified",
    "loop_phase_overlap_meshes",
    "overlap_order",
    "state_overlap",
    "refine",
    "require_interior_step",
]


class MeshTooCoarseError(ValueError):
    """Raised when neighboring loop states barely overlap."""


# ---------------------------------------------------------------------------
# connection oracles


def require_interior_step(m: Mode, h_rel) -> float:
    """`h_rel` if 0 < h_rel < (1 + |k|)/4, the relative form of the interior
    bound 0 < h < l/4 at the step h_rel * l / (1 + |k|), and that step does not
    underflow to 0 at the unit box; raises ValueError otherwise."""
    bound = (1.0 + abs(m.k)) / 4.0
    if not (0 < h_rel < bound and h_rel / (1.0 + abs(m.k)) > 0):
        raise ValueError(f"h must satisfy 0 < h < (1 + |k|)/4 = {bound:.3g} at this level, with a step "
                         f"h/(1 + |k|) that does not underflow to 0, not {h_rel}")
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
    # windows [-half, half] inside the boxes shifted in c, then in l
    psi = m.waves
    w_c = [window_integral(psi, psi, r - 0.5, 0.5 - r, c=c) for c in (r, -r, 0.0)]
    w_l = [window_integral(psi, psi, 0.5 * (r - 1.0), 0.5 * (1.0 - r), l=l) for l in (1.0 + r, 1.0 - r, 1.0)]
    return (w_l[0] - w_l[1]).imag / (2.0 * r) / w_l[2].real, (w_c[0] - w_c[1]).imag / (2.0 * r) / w_c[2].real


# the square of the cutoff profile rho(t) = cos^2(pi t/2) on a wall strip,
# 3/8 + cos(pi t)/2 + cos(2 pi t)/8, as (weight, wavenumber) of plane waves in t
_PROFILE_SQUARED = ((0.375, 0.0), (0.25, math.pi), (0.25, -math.pi),
                    (0.0625, 2.0 * math.pi), (0.0625, -2.0 * math.pi))


def _mean(w: float) -> complex:
    """Int_0^1 e^{iwt} dt = e^{iw/2} sin(w/2)/(w/2), at most 2/|w|, so 0
    where w overflows."""
    h = 0.5 * w
    if math.isinf(h):
        return 0j
    return cmath.exp(1j * h) * (math.sin(h) / h if h else 1.0)


def connection_mollified(m: Mode, eps: float):
    """(F_l, F_c) = l (a_l, a_c) from the smoothed-box embedding at the
    cutoff width eps, relative to l (the width at a box is eps * l).

    The eigenfunction is written as (smooth whole-line extension) times a
    normalized, mollified characteristic function of the box; the connection
    integrand uses the analytic parameter derivative of the extension and
    the square of the cutoff.  The cutoff is 1 on the box and rho(t) =
    cos^2(pi t/2) on the wall strips |u| = 1/2 + eps t, 0 <= t <= 1, which is
    C^1: rho and rho' are continuous where a strip meets the box and where it
    meets the zero beyond.  As eps -> 0, F_c tends to k sin(alpha) and F_l to
    zero.  Everything is in closed form, so the work does not grow with the
    level: the box interior is the diagonal of the weak forms of x o p and p
    (`weak_form`) and the norm (`window_integral`).  On the strips, for
    psi = a e^{iku} + b e^{-iku}, Im(conj(psi) psi') is the constant
    k (|a|^2 - |b|^2), so the mirror strips add (3/4) eps of the box's F_c,
    cancel in F_l, and add (3/4) eps (|a|^2 + |b|^2) + 4 eps Re(conj(a) b)
    Re(e^{ik} E) to the norm, E = Int_0^1 rho^2 e^{2ik eps t} dt, a sum of
    plane-wave means.

    For this eigenfunction family the convergence is in fact instantaneous:
    Re(conj(a) b) = 0 (|phi|^2 - 1 is odd about the box center), so the norm
    grows with the cutoff as F_c does, and every width returns the limit up
    to rounding, at any reflection-symmetric profile.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive")
    psi = m.waves
    # d/dl phi = -phi/2 - u phi' and d/dc phi = -phi', whose imaginary parts
    # integrate to minus the diagonals of x o p and p
    p, xp = weak_form((psi,))
    e = sum(weight * _mean(2.0 * psi.k * eps + s) for weight, s in _PROFILE_SQUARED)
    strips = eps * (0.75 * (abs(psi.plus) ** 2 + abs(psi.minus) ** 2)
                    + 4.0 * (psi.plus.conjugate() * psi.minus).real * (cmath.exp(1j * psi.k) * e).real)
    norm2 = window_integral(psi, psi, -0.5, 0.5).real + strips
    # the strips scale F_c by 1 + 3 eps/4: divided out of the norm, which stays finite at any width
    return -xp[0][0].real / norm2, -p[0][0].real / (norm2 / (1.0 + 0.75 * eps))


# ---------------------------------------------------------------------------
# loop phases


def state_overlap(m: Mode, l: float, c: float) -> complex:
    """The L2(R) overlap <psi(1, 0)|psi(l, c)> of the eigenfunction at the unit
    box and at the box (l, c), l finite and positive and c finite, or
    ValueError.  By dilation covariance the overlap <psi(la, ca)|psi(lb, cb)>
    of any two boxes is this at (lb/la, (cb - ca)/la).

    Both states vanish outside their boxes, so the integral runs over the
    box intersection only, where it has a closed form; disjoint boxes give 0.
    """
    l = require_length(l)
    if not math.isfinite(c):
        raise ValueError(f"box center must be finite, not {c}")
    lo, hi = max(-0.5, c - 0.5 * l), min(0.5, c + 0.5 * l)
    psi = m.waves
    return window_integral(psi, psi, lo, hi, l, c) if hi - lo > 0 else 0j


def _chain_phase(m: Mode, path: ParameterPath, n: int) -> float:
    """-Arg prod_j <psi(p_j)|psi(p_j+1)> over a closed chain of n links,
    lifted: the sides share them in vertex order (n // sides each, one more
    for the first n % sides, at least one), sampled geometrically in l with c
    linear in l, or uniformly in c where l is constant, so that by dilation
    covariance a side's N links are one overlap at the unit box, and the side
    adds -N Arg of it."""
    sides, total = len(path.segments), 0.0
    for i, ((l0, c0), (l1, c1)) in enumerate(path.segments):
        links, dl, dc = max(n // sides + (i < n % sides), 1), l1 - l0, c1 - c0
        # l_j+1 / l_j - 1, to which (l1/l0) ** (1/N) - 1 loses digits as dl -> 0
        try:
            g = math.expm1(log_ratio(l0, l1) / links)
        except OverflowError:
            g = math.inf
        c = dc / (l0 * links) if dl == 0 else (dc / dl) * g
        # a link that grows or shrinks l beyond the float range ends at a box of length inf or 0: no overlap
        ov = state_overlap(m, 1.0 + g, c) if -1.0 < g < math.inf else 0j
        size = abs(ov)
        if size < 1e-6:
            raise MeshTooCoarseError(f"neighboring states of level n = {m.n} overlap only |<.|.>| = {size:.2e}; "
                                     f"refine the mesh or shrink the loop")
        total -= links * cmath.phase(ov)
    return path.orientation * total


def overlap_order(path: ParameterPath) -> int:
    """The chain's order in 1/mesh: 2 where every side is axis-aligned, 1
    where any side moves l and c together."""
    return 2 if all(l0 == l1 or c0 == c1 for (l0, c0), (l1, c1) in path.segments) else 1


def loop_phase_overlap_meshes(m: Mode, path: ParameterPath, meshes) -> list[float]:
    """Gauge-invariant discrete loop phases from neighboring-state overlaps,
    one per mesh in `meshes`, in the order given.

    The loop is sampled at `mesh` links and the phase is the lifted
    -Arg prod_j <psi(p_j)|psi(p_j+1)>; multiplying any sampled state by a
    phase cancels between the two factors it enters, so the product is
    exactly gauge invariant.  A chain costs one overlap per side at any
    mesh.  Every mesh is checked before the first chain runs.
    """
    if any(not 8 <= mesh <= sys.float_info.max for mesh in meshes):
        raise ValueError("mesh must be at least 8 and within the float range")
    return [_chain_phase(m, path, mesh) for mesh in meshes]


# ---------------------------------------------------------------------------
# refinement toward a regulator's limit

# err_est is SAFETY times a sample's distance to the refined limit: an
# asymptotic sample needs about 1, and over 88500 seeded loops (|n| <= 10,
# meshes 48 to 4096, up to 300 times too coarse) none needed more than 8.4
SAFETY = 10.0
# the most the order fitted to the last three samples may stray from the expected one
ORDER_SLACK = 0.5


def _log_abs_expm1(x: float) -> float:
    """ln |e^x - 1| for x != 0, without overflow at large x."""
    return math.log(abs(math.expm1(x))) if x < 700.0 else x + math.log1p(-math.exp(-x))


def refine(params, values, order):
    """Refine samples a(e) = a* + C e^order + ... of a regulator e -> 0 (the
    interior step, the cutoff width, 1/mesh) to (limit, fitted_order, err_est,
    converged).  `params` are finite, positive and strictly decreasing at any
    ratios, `values` the phases there, lifted: folding a chain whole turns off
    back onto the last sample's branch can fake a converging sequence.

    The limit is the last sample plus its Richardson step at `order`, or the
    last sample where the last two agree to rounding.  Three or more samples
    also fit the order of the last three (nan where they fit none).  One
    sample, last two differences of opposite signs, or a fitted order more
    than ORDER_SLACK from `order` have not converged: the limit is the last
    sample and every err_est inf.  Otherwise err_est holds, per sample, SAFETY
    times its distance to the limit, at least the rounding floor
    1e-12 max(|a|, 1); it bounds the sample's error, and the last the limit's.
    """
    eps, a = [float(e) for e in params], [float(v) for v in values]
    if not eps or len(eps) != len(a):
        raise ValueError("need one value per parameter, and at least one of each")
    if not all(0 < e < math.inf for e in eps) or any(e1 >= e0 for e0, e1 in zip(eps, eps[1:])):
        raise ValueError("params must be finite, positive and strictly decreasing")
    floor = 1e-12 * max(max(map(abs, a)), 1.0)
    limit, fitted, converged = a[-1], math.nan, len(a) > 1
    if converged and abs(a[-1] - a[-2]) >= floor:
        d1 = a[-1] - a[-2]
        if len(a) > 2:
            d0, l1, l2 = a[-2] - a[-3], log_ratio(eps[-2], eps[-3]), log_ratio(eps[-1], eps[-2])
            if d0 != 0 and (d0 > 0) == (d1 > 0):
                # the q at which e^q steps in the ratio d0 : d1 over the three
                # parameters, ln(d0/d1) = ln |expm1(q l1) / expm1(-q l2)|, rising in q
                target, lo, hi = math.log(abs(d0)) - math.log(abs(d1)), -8.0, 16.0
                for _ in range(60):
                    fitted = 0.5 * (lo + hi)
                    below = _log_abs_expm1(fitted * l1) - _log_abs_expm1(-fitted * l2) < target
                    lo, hi = (fitted, hi) if below else (lo, fitted)
            converged = abs(fitted - order) <= ORDER_SLACK
        if converged:
            # d1 rho / (1 - rho) at rho = (e_last / e_prev)^order
            x = order * log_ratio(eps[-1], eps[-2])
            limit = a[-1] + d1 * math.exp(-x) / -math.expm1(-x)
    if not converged:
        return a[-1], fitted, [math.inf] * len(a), False
    return limit, fitted, [max(SAFETY * abs(v - limit), floor) for v in a], True
