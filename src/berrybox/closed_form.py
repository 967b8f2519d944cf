"""Closed forms of the dilation-invariant eta family, on the standard library.

For eta away from +/-1 the box [c - l/2, c + l/2] has the simple levels

    k_n = 2 n pi + 2 arctan|(1 - eta)/(1 + eta)|,  alpha = Arg((1 + eta)/(1 - eta)),
    phi_n(x) = sin(k_n x) + exp(i alpha) cos(k_n x) on [-1/2, 1/2],
    lambda_n = k_n^2 / (2 m l^2),

with the Berry connection a = (k/l) sin(alpha) dc, its curvature
f_lc = k sin(alpha)/l^2 and the loop phase -k sin(alpha) times the loop
integral of dc/l.  Each is a few `math`/`cmath` calls, so this module imports
no numpy; the connection oracles, the generic solver and the propagator call
these same functions.

The unit box is the one frame: a box is its length l (`require_length`), and
every state the oracles integrate is two plane waves at one wavenumber in the
box coordinate u = (x - c)/l (`PlaneWaves`): a level phi_n (`Mode.waves`) or
the degenerate pair sqrt(2) cos(ku), sqrt(2) sin(ku) (`degenerate_waves`).
One closed form, `window_integral`, integrates conj(psi_a) psi_b over a
window, psi_a at the unit box and psi_b at any box (l, c); another,
`weak_form`, gives the matrices of p and x o p between such states at the
unit box, which the propagator, the degenerate connection check and the
mollified oracle read.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .boundary import Eta, as_eta, require_mass

__all__ = [
    "DegenerateEtaError",
    "require_length",
    "Mode",
    "PlaneWaves",
    "alpha_of",
    "wavenumber",
    "mode",
    "eigenvalue",
    "degenerate_wavenumber",
    "degenerate_waves",
    "window_integral",
    "weak_form",
    "connection_analytic",
    "loop_phase_analytic",
    "curvature",
]


class DegenerateEtaError(ValueError):
    """Raised when eta = +/-1 is passed to the nondegenerate machinery."""


def require_length(l) -> float:
    """Validate and return a box length: a finite number > 0."""
    l = float(l)
    if not (l > 0 and math.isfinite(l)):
        raise ValueError(f"box length must be finite and positive, not {l}")
    return l


def _nondegenerate(eta) -> Eta:
    eta = as_eta(eta)
    if eta.degenerate:
        raise DegenerateEtaError(
            "eta = +/-1 has a doubly degenerate spectrum; use the degenerate basis"
        )
    return eta


def alpha_of(eta) -> float:
    """Phase angle Arg((1 + eta)/(1 - eta)) in (-pi, pi].

    eta = inf gives pi; real eta gives 0 or pi (the time-reversal-invariant
    members, where `Mode.sin_alpha` is exactly 0).  eta = +/-1 is rejected.
    """
    eta = _nondegenerate(eta)
    if eta.infinite:
        return math.pi
    return cmath.phase((1.0 + eta.value) / (1.0 - eta.value))


def _finite_wavenumber(k_of) -> float:
    """The wavenumber k_of() of a level; ValueError where its index is beyond
    the float range (too large to convert, or k = inf)."""
    try:
        k = k_of()
    except OverflowError:
        k = math.inf
    if not math.isfinite(k):
        raise ValueError("the level index is beyond the float range: its wavenumber is not finite")
    return k


def wavenumber(n: int, eta) -> float:
    """Closed-form wavenumber k_n = 2 n pi + 2 arctan|(1-eta)/(1+eta)|.

    The arctan branch lies in (0, pi/2) for every nondegenerate eta, so the
    map n -> k_n over the integers is injective.
    """
    eta = _nondegenerate(eta)
    if eta.infinite:
        ratio = 1.0
    else:
        ratio = abs((1.0 - eta.value) / (1.0 + eta.value))
    return _finite_wavenumber(lambda: 2.0 * math.pi * n + 2.0 * math.atan(ratio))


class Mode:
    """One nondegenerate eigenlevel: index n, wavenumber k, angle alpha.

    Modes compare by identity; their states (`waves`) compare by value, so
    a rebuilt mode window's states hit `weak_form`'s cache."""

    def __init__(self, n: int, eta: Eta, k: float, alpha: float):
        self.n, self.eta, self.k, self.alpha = n, eta, k, alpha

    @property
    def sin_alpha(self) -> float:
        """sin(alpha); exactly 0 for real and infinite eta, not sin(pi) = 1.2e-16."""
        return 0.0 if self.eta.infinite or self.eta.value.imag == 0 else math.sin(self.alpha)

    @functools.cached_property
    def waves(self) -> "PlaneWaves":
        """phi = sin(ku) + e^{i alpha} cos(ku) as the plane waves e^{+-iku}, with
        amplitudes (e^{i alpha} -+ i)/2; e^{i alpha} is exactly real for real
        and infinite eta (`sin_alpha`).  Built once per Mode."""
        e = complex(math.cos(self.alpha), self.sin_alpha)
        return PlaneWaves(self.k, (e - 1j) / 2.0, (e + 1j) / 2.0)


def mode(n: int, eta) -> Mode:
    """Build the Mode record for level n of the family member eta."""
    eta = _nondegenerate(eta)
    return Mode(n=int(n), eta=eta, k=wavenumber(n, eta), alpha=alpha_of(eta))


def eigenvalue(k: float, l: float = 1.0, mass: float = 1.0) -> float:
    """Dispersion lambda = k^2 / (2 m l^2) of a simple (`Mode.k`) or degenerate
    (`degenerate_wavenumber`) level; translations are isospectral.

    Products, not `**`, so that a square out of the float range is inf or 0
    rather than an OverflowError: where l^2 or m l^2 overflows (l = 1e160,
    mass = 1e300), lambda underflows to 0.  Raises ValueError when lambda is
    not finite: where k^2 overflows, or 2 m l^2 is too small for it
    (l = 1e-170, or a subnormal mass)."""
    mass, l = require_mass(mass), require_length(l)
    scale = 2.0 * mass * (l * l)
    lam = k * k / scale if scale else math.inf
    if not math.isfinite(lam):
        raise ValueError(f"lambda = k^2/(2 m l^2) is not finite at k = {k}, l = {l}, mass = {mass}: "
                         f"k^2 is beyond the float range or 2 m l^2 too small for it")
    return lam


def degenerate_wavenumber(eta: int, n: int) -> float:
    """Wavenumber of the doubly degenerate level: 2 pi n (eta=+1) or (2n+1) pi (eta=-1)."""
    if eta == 1:
        if n < 1:
            raise ValueError("eta=+1 degenerate levels require n >= 1")
        return _finite_wavenumber(lambda: 2.0 * math.pi * n)
    if eta == -1:
        if n < 0:
            raise ValueError("eta=-1 degenerate levels require n >= 0")
        return _finite_wavenumber(lambda: (2 * n + 1) * math.pi)
    raise ValueError("degenerate basis exists only for eta = +1 or -1")


class PlaneWaves(namedtuple("PlaneWaves", "k plus minus")):
    """The state psi(u) = plus e^{iku} + minus e^{-iku} in the box coordinate
    u = (x - c)/l; at the box (l, c) it is l^-1/2 psi((x - c)/l).  A tuple,
    so equal states hash alike."""

    __slots__ = ()

    def at(self, u: float):
        """psi(u) and psi'(u)."""
        e = cmath.exp(1j * (self.k * u))
        ep, em = self.plus * e, self.minus * e.conjugate()
        return ep + em, 1j * self.k * (ep - em)


def degenerate_waves(eta: int, n: int):
    """The orthonormal pair sqrt(2) cos(ku), sqrt(2) sin(ku) spanning the n-th
    degenerate eigenspace at eta = +1 or -1 (`degenerate_wavenumber`)."""
    k, r = degenerate_wavenumber(eta, n), math.sqrt(0.5)
    return PlaneWaves(k, complex(r, 0.0), complex(r, 0.0)), PlaneWaves(k, complex(0.0, -r), complex(0.0, r))


def window_integral(a: PlaneWaves, b: PlaneWaves, lo: float, hi: float, l: float = 1.0, c: float = 0.0) -> complex:
    """Int_lo^hi conj(psi_a) psi_b dx for the state a at the unit box and b at
    the box (l, c), each extended smoothly past its walls; x is the unit box's
    coordinate u.  By dilation covariance (x = ca + la u), states at the boxes
    (la, ca) and (lb, cb) give this over [(lo - ca)/la, (hi - ca)/la] at
    (lb/la, (cb - ca)/la).

    The integrand is four plane waves e^{i(w x + p)}, each integrating to
    e^{i(w mid + p)} (hi - lo) sin(z)/z at z = w (hi - lo)/2, which stays
    accurate as w -> 0, where neighbouring loop points of nearly equal l sit.
    The terms are summed in conjugate pairs first, which keeps the integral
    of two real functions exactly real.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ua, ub = a.k * mid, b.k * (mid - c) / l
    wa, wb = a.k, b.k / l

    def term(s, t, amp_a, amp_b):  # plane wave s of psi_a, conjugated, times plane wave t of psi_b
        z = half * (t * wb - s * wa)
        return amp_a.conjugate() * amp_b * cmath.exp(1j * (t * ub - s * ua)) * (math.sin(z) / z if z else 1.0)

    pairs = ((term(1.0, 1.0, a.plus, b.plus) + term(-1.0, -1.0, a.minus, b.minus))
             + (term(1.0, -1.0, a.plus, b.minus) + term(-1.0, 1.0, a.minus, b.plus)))
    return 2.0 * half * pairs / math.sqrt(l)


@functools.lru_cache(maxsize=8)
def weak_form(states):
    """Hermitian matrices (p, x o p) between the `PlaneWaves` of the tuple
    `states` at the unit box, in the symmetrized (weak) form

        -(i/2) Int_{-1/2}^{1/2} u^j (conj(a) b' - conj(a') b) du,

    j = 0 for p and j = 1 for x o p = (xp + px)/2, each a tuple of rows of
    complex numbers, Hermitian for every pair of states.  The wavenumbers
    must differ by multiples of 2 pi, so that the plane waves lie on one
    lattice +-k0 + 2 pi Z, as a mode window's and a degenerate pair's do.

    Plane waves s, t = +-1 of a and b meet with the weight
    (t k_b + s k_a)/2 conj(a_s) b_t times Int u^j e^{iwu} du at
    w = t k_b - s k_a.  Same-sign waves sit 2 pi m apart, m = (k_b - k_a)/2 pi,
    so they reach p only at m = 0, and x o p through
    -i (k_a + k_b)(-1)^m / (4 pi m) elsewhere.  Opposite-sign waves carry
    sin(z)/z and i (sin z - z cos z)/(2 z^2) at z = (k_a + k_b)/2, the latter
    by its series where it cancels; both stay accurate as k_b -> -k_a, near
    eta = +-1.  Built once per tuple of states, and shared by every caller.
    """
    p, xp = [], []
    for ka, a_plus, a_minus in states:
        ap, am = a_plus.conjugate(), a_minus.conjugate()
        prow, xrow = [], []
        for kb, bp, bm in states:
            z, d = 0.5 * (ka + kb), 0.5 * (kb - ka)
            sin_z = math.sin(z)
            if abs(z) < 0.05:
                odd = 0.5j * z * (1.0 / 3.0 - z * z * (1.0 / 30.0 - z * z * (1.0 / 840.0 - z * z / 45360.0)))
            else:
                odd = 0.5j * (sin_z - z * math.cos(z)) / (z * z)
            # opposite-sign waves, then same-sign ones
            cross_pm, cross_mp = ap * bm, am * bp
            pv = d * (sin_z / z if z else 1.0) * (cross_mp - cross_pm)
            xv = d * odd * (cross_mp + cross_pm)
            m = round(d / math.pi)
            if m:
                xv -= 0.5j * z * (-1.0) ** m / (math.pi * m) * (ap * bp + am * bm)
            else:
                pv += z * (ap * bp - am * bm)
            prow.append(pv)
            xrow.append(xv)
        p.append(tuple(prow))
        xp.append(tuple(xrow))
    return tuple(p), tuple(xp)


def connection_analytic(m: Mode):
    """Closed-form connection at the unit box: (F_l, F_c) = (0, k sin(alpha)),
    so a_l = 0 and a_c = (k/l) sin(alpha) at a box of length l.

    Real and infinite eta have sin(alpha) = 0 exactly (`Mode.sin_alpha`), and
    the connection vanishes: time-reversal-invariant boundary conditions carry
    no geometric phase.
    """
    return 0.0, m.k * m.sin_alpha


def loop_phase_analytic(m: Mode, path) -> float:
    """Loop phase of the closed-form connection around the loop
    `ParameterPath` path: F_l multiplies the loop integral of dl/l, which
    vanishes, so Phi = -F_c times that of dc/l (`ParameterPath.dc_over_l`).
    For the counterclockwise rectangle [l1, l2] x [c1, c2],
    Phi = k (1/l1 - 1/l2)(c2 - c1) sin(alpha).
    """
    _, f_c = connection_analytic(m)
    return -f_c * path.dc_over_l()


def curvature(m: Mode, l: float) -> float:
    """Curvature two-form coefficient f_lc = (k/l^2) sin(alpha) at the box
    length l, which must be finite and positive.

    This is F_c = k sin(alpha) (`connection_analytic`) times the hyperbolic
    area density 1/l^2 of the (l, c) half-plane, and is exactly 0 for real
    and infinite eta.  Raises ValueError where f_lc is not finite: where l^2
    is too small for k sin(alpha), or underflows to 0 (l = 1e-170).
    """
    l = require_length(l)
    # l * l, as numpy squares an array: l ** 2 calls pow, which rounds a few
    # squares in ten thousand differently
    square = l * l
    f_lc = connection_analytic(m)[1] / square if square else math.inf
    if not math.isfinite(f_lc):
        raise ValueError(f"f_lc = k sin(alpha)/l^2 is not finite at l = {l}: l^2 is too small for it")
    return f_lc
