"""Closed forms of the dilation-invariant eta family, on the standard library.

For eta away from +/-1 the box [c - l/2, c + l/2] has the simple levels

    k_n = 2 n pi + 2 arctan|(1 - eta)/(1 + eta)|,  alpha = Arg((1 + eta)/(1 - eta)),
    phi_n(x) = sin(k_n x) + exp(i alpha) cos(k_n x) on [-1/2, 1/2],
    lambda_n = k_n^2 / (2 m l^2),

with the Berry connection a = (k/l) sin(alpha) dc, its curvature
f_lc = k sin(alpha)/l^2 and the loop phase -k sin(alpha) times the loop
integral of dc/l.  Each is a few `math`/`cmath` calls, so this module imports
no numpy; the array evaluators, the connection oracles, the generic solver
and the propagator call these same functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .boundary import Eta, as_eta, require_mass

__all__ = [
    "DegenerateEtaError",
    "Geometry",
    "Mode",
    "alpha_of",
    "wavenumber",
    "mode",
    "eigenvalue",
    "degenerate_wavenumber",
    "connection_analytic",
    "loop_phase_analytic",
    "curvature",
]


class DegenerateEtaError(ValueError):
    """Raised when eta = +/-1 is passed to the nondegenerate machinery."""


@dataclass(frozen=True)
class Geometry:
    """A box in the (l, c) half-plane: length l > 0 and center c."""

    l: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        l, c = float(self.l), float(self.c)
        if not (l > 0 and math.isfinite(l)):
            raise ValueError(f"box length must be finite and positive, not {l}")
        if not math.isfinite(c):
            raise ValueError(f"box center must be finite, not {c}")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "c", c)

    @property
    def left(self) -> float:
        return self.c - 0.5 * self.l

    @property
    def right(self) -> float:
        return self.c + 0.5 * self.l


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
    return 2.0 * math.pi * n + 2.0 * math.atan(ratio)


@dataclass(frozen=True)
class Mode:
    """One nondegenerate eigenlevel: index n, wavenumber k, angle alpha."""

    n: int
    eta: Eta
    k: float
    alpha: float

    @property
    def sin_alpha(self) -> float:
        """sin(alpha); exactly 0 for real and infinite eta, not sin(pi) = 1.2e-16."""
        return 0.0 if self.eta.infinite or self.eta.value.imag == 0 else math.sin(self.alpha)


def mode(n: int, eta) -> Mode:
    """Build the Mode record for level n of the family member eta."""
    eta = _nondegenerate(eta)
    return Mode(n=int(n), eta=eta, k=wavenumber(n, eta), alpha=alpha_of(eta))


def eigenvalue(k: float, l: float = 1.0, mass: float = 1.0) -> float:
    """Dispersion lambda = k^2 / (2 m l^2) of a simple (`Mode.k`) or degenerate
    (`degenerate_wavenumber`) level; translations are isospectral."""
    return k ** 2 / (2.0 * require_mass(mass) * Geometry(l).l ** 2)


def degenerate_wavenumber(eta: int, n: int) -> float:
    """Wavenumber of the doubly degenerate level: 2 pi n (eta=+1) or (2n+1) pi (eta=-1)."""
    if eta == 1:
        if n < 1:
            raise ValueError("eta=+1 degenerate levels require n >= 1")
        return 2.0 * math.pi * n
    if eta == -1:
        if n < 0:
            raise ValueError("eta=-1 degenerate levels require n >= 0")
        return (2 * n + 1) * math.pi
    raise ValueError("degenerate basis exists only for eta = +1 or -1")


def connection_analytic(m: Mode):
    """Closed-form connection at the unit box: (F_l, F_c) = (0, k sin(alpha)),
    so a_l = 0 and a_c = (k/l) sin(alpha) at a box of length l.

    Real and infinite eta have sin(alpha) = 0 exactly (`Mode.sin_alpha`), and
    the connection vanishes: time-reversal-invariant boundary conditions carry
    no geometric phase.
    """
    return 0.0, m.k * m.sin_alpha


def _require_closed(path):
    if not path.closed:
        raise ValueError("loop phase requires a closed parameter path")


def loop_phase_analytic(m: Mode, path) -> float:
    """Loop phase of the closed-form connection around the closed
    `ParameterPath` path: F_l multiplies the loop integral of dl/l, which
    vanishes, so Phi = -F_c times that of dc/l (`ParameterPath.dc_over_l`).
    For the counterclockwise rectangle [l1, l2] x [c1, c2],
    Phi = k (1/l1 - 1/l2)(c2 - c1) sin(alpha).
    """
    _require_closed(path)
    _, f_c = connection_analytic(m)
    return -f_c * path.dc_over_l()


def curvature(m: Mode, l: float) -> float:
    """Curvature two-form coefficient f_lc = (k/l^2) sin(alpha) at the box
    length l, which must be finite and positive.

    This is F_c = k sin(alpha) (`connection_analytic`) times the hyperbolic
    area density 1/l^2 of the (l, c) half-plane, and is exactly 0 for real
    and infinite eta.
    """
    l = Geometry(l).l
    # l * l, as numpy squares an array: l ** 2 calls pow, which rounds a few
    # squares in ten thousand differently
    return connection_analytic(m)[1] / (l * l)
