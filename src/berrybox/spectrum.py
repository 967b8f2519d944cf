"""A generic eigensolver for the box with arbitrary U(2) boundary conditions.

It finds the levels and eigenfunctions of any self-adjoint wall condition
without the closed forms of `closed_form`, and so serves throughout the
tests, and in `spectrum --check generic`, as an independent cross-check of
them.  For a self-adjoint condition the determinant of the 2x2 boundary
residual is a constant phase times one real secular function of the energy E,

    F(E) = a C S + b C^2 + c E S^2 + d E S C,  C = cos(q/2), S = sin(q/2)/q,
    E = q^2,

so eigenvalues are its sign changes, bracketed on a grid in t with E = t|t|
and bisected with numpy alone.  A cell where |F| dips without changing sign
holds two close simple roots if F changes sign at the dip's extremum, or one
doubly degenerate level if the residual matrix vanishes there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import require_mass, require_unitary
from .closed_form import Geometry
from .quadrature import GridFunction, oscillatory_rule

__all__ = ["RootSearchError", "EigenLevel", "generic_spectrum"]


class RootSearchError(RuntimeError):
    """Raised when the transcendental eigenvalue search fails to converge."""


@dataclass(frozen=True)
class EigenLevel:
    """An eigenvalue with its provenance and, optionally, a sampled eigenfunction."""

    lam: float
    geometry: Geometry
    mass: float
    eigenfunction: GridFunction | None = None
    multiplicity: int = 1


# ---------------------------------------------------------------------------
# generic eigensolver for arbitrary U(2) boundary conditions


def _cos_sinc(e):
    """C = cos(q/2) and S = sin(q/2)/q at energy e = q^2; both are entire in e."""
    q = np.sqrt(np.asarray(e, dtype=complex))
    return np.cos(q / 2.0), 0.5 * np.sinc(q / (2.0 * np.pi))


def _residual_matrix(cols, e):
    """Columns (I - U)(psi(a), psi(b)) - i(I + U)(-psi'(a), psi'(b)) for psi = cos(qx),
    sin(qx)/q, e = q^2, on [a, b] = [-1/2, 1/2], over the norm of the endpoint data;
    `cols` holds (I - U) and (I + U) applied to (1, 1), then to (-1, 1)."""
    am, ap, bm, bp = cols
    c, s = _cos_sinc(e)
    m = np.column_stack([c * am + 1j * e * s * ap, s * bm - 1j * c * bp])
    return m / np.sqrt(4.0 * abs(c) ** 2 + 2.0 * abs(e * s) ** 2 + 2.0 * abs(s) ** 2)


def _secular_parts(u):
    """`cols` of `_residual_matrix` and the real (a, b, c, d) of the secular function."""
    cols = [(np.eye(2) + sign * u) @ v for v in ([1.0, 1.0], [-1.0, 1.0]) for sign in (-1.0, 1.0)]
    am, ap, bm, bp = cols
    det = lambda x, y: x[0] * y[1] - x[1] * y[0]
    z = np.array([det(am, bm), -1j * det(am, bp), 1j * det(ap, bm), det(ap, bp)])
    return cols, (z * np.exp(-0.5j * np.angle(det(u[:, 0], u[:, 1])))).real


def _bisect(fun, lo, hi):
    """Shrink every bracket [lo, hi] of a sign change of `fun` to adjacent floats."""
    lo_pos = fun(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            return mid
        f = fun(mid)
        right = live & ((f > 0) == lo_pos) & (f != 0)
        lo = np.where(right | (live & (f == 0)), mid, lo)
        hi = np.where(live & ~right, mid, hi)


def _roots(cols, coef, t_max):
    """Ascending (t, multiplicity) of the eigenvalues E = t|t| with -60 < t < t_max."""
    a, b, c, d = coef

    def secular(t, h=0.0):  # F(E + h); with h = 1e-20 i, Im F has the sign of F'(E)
        e = t * np.abs(t) + h
        cc, s = _cos_sinc(e)
        return a * cc * s + b * cc * cc + e * s * (c * s + d * cc)

    f, df = (lambda t: secular(t).real), (lambda t: secular(t, 1e-20j).imag)
    t = np.arange(-60.0, t_max, np.pi / 16.0)
    ft = f(t)
    grows = ft * df(t) > 0
    change = (ft[:-1] > 0) != (ft[1:] > 0)
    dip = ~change & ~grows[:-1] & grows[1:]
    lo, hi = t[:-1][dip], t[1:][dip]
    tx = _bisect(df, lo, hi)
    split = (f(tx) > 0) != (ft[:-1][dip] > 0)
    simple = _bisect(f, np.concatenate([t[:-1][change], lo[split], tx[split]]),
                     np.concatenate([t[1:][change], tx[split], hi[split]]))
    double = [x for x in tx[~split]
              if np.linalg.svd(_residual_matrix(cols, x * abs(x)), compute_uv=False)[0] < 1e-6]
    return sorted([(x, 1) for x in simple] + [(x, 2) for x in double])


def _eigenfunctions(cols, t, mult):
    """Orthonormal eigenfunctions from the null space of the residual matrix,
    each with its largest sample real and positive."""
    e = t * abs(t)
    vh = np.linalg.svd(_residual_matrix(cols, e))[2]
    q = np.sqrt(complex(e))
    nodes, weights = oscillatory_rule(-0.5, 0.5, 2.0 * max(t, np.pi))
    basis = np.array([np.cos(q * nodes), nodes * np.sinc(q * nodes / np.pi)])
    functions = []
    for v in vh[::-1][:mult]:
        f = v.conj() @ basis
        for g in functions:
            f = f - np.sum(weights * np.conj(g.values) * f) * g.values
        f = f / np.sqrt(np.sum(weights * np.abs(f) ** 2))
        j = int(np.argmax(np.abs(f)))
        functions.append(GridFunction(nodes=nodes, values=f * (np.abs(f[j]) / f[j]), weights=weights))
    return functions


def generic_spectrum(u, count: int, mass: float = 1.0, geometry: Geometry | None = None):
    """Lowest eigenvalues of the box for an arbitrary U(2) boundary condition.

    In the basis c(x) = cos(qx), s(x) = sin(qx)/q, E = q^2, entire in E and so
    valid for E < 0, E = 0 and E > 0 alike, the boundary condition is a 2x2
    residual matrix M(E) whose determinant is sqrt(det U) times the real
    secular function (Kostrykin and Schrader, J. Phys. A 32, 595 (1999))

        F(E) = a C S + b C^2 + c E S^2 + d E S C,  C = cos(q/2), S = sin(q/2)/q.

    F is sampled at E = t|t|, t from -60 to (count + 3) pi in steps of pi/16
    (the top doubles until `count` levels are found), and each sign change is
    bisected to adjacent floats.  Where |F| dips without a sign change, its
    extremum (a root of the complex-step F') holds two simple roots if F
    changes sign there, or one double level if M vanishes there; its two
    entries get orthonormal eigenfunctions from the two null vectors of M.

    Returns `count` EigenLevels in ascending order, lambda = E / (2 m l^2),
    each with a unit-norm eigenfunction sampled on a quadrature grid of
    [-1/2, 1/2].  Raises RootSearchError if the scan cannot bracket `count`
    eigenvalues.
    """
    u = np.asarray(require_unitary(u))
    if count < 1:
        raise ValueError("count must be >= 1")
    if geometry is None:
        geometry = Geometry(1.0, 0.0)
    mass = require_mass(mass)
    cols, coef = _secular_parts(u)
    t_max = (count + 3) * np.pi
    for _attempt in range(4):
        roots = _roots(cols, coef, t_max)
        if sum(mult for _, mult in roots) >= count:
            break
        t_max *= 2.0
    else:
        raise RootSearchError(f"found only {sum(mult for _, mult in roots)} eigenvalues "
                              f"with -60 < t < {t_max / 2.0:.1f}, E = t|t|; requested {count}")
    levels = []
    for t, mult in roots:
        if len(levels) >= count:
            break
        levels += [EigenLevel(lam=t * abs(t) / (2.0 * mass * geometry.l ** 2), geometry=geometry,
                              mass=mass, eigenfunction=fn, multiplicity=mult)
                   for fn in _eigenfunctions(cols, t, mult)]
    return levels[:count]
