"""Spectrum and eigenfunctions of the box with dilation-invariant walls.

After mapping the moving box [c - l/2, c + l/2] to the reference interval
I = [-1/2, 1/2], the Hamiltonian becomes p^2/(2 m l^2) on the fixed domain
carrying the eta-family boundary conditions.  For eta away from +/-1 the
spectrum is simple, with

    k_n = 2 n pi + 2 arctan|(1 - eta)/(1 + eta)|,  n in Z,
    alpha = Arg((1 + eta)/(1 - eta)),
    phi_n(x) = sin(k_n x) + exp(i alpha) cos(k_n x),
    lambda_n = k_n^2 / (2 m l^2).

The closed forms live here together with the degenerate eta = +/-1 bases and
a generic eigensolver for arbitrary U(2) boundary conditions, used throughout
the tests as an independent cross-check of the closed forms.  For a
self-adjoint condition the determinant of the 2x2 boundary residual is a
constant phase times one real secular function of the energy E,

    F(E) = a C S + b C^2 + c E S^2 + d E S C,  C = cos(q/2), S = sin(q/2)/q,
    E = q^2,

so eigenvalues are its sign changes, bracketed on a grid in t with E = t|t|
and bisected with numpy alone.  A cell where |F| dips without changing sign
holds two close simple roots if F changes sign at the dip's extremum, or one
doubly degenerate level if the residual matrix vanishes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryData, Eta, as_eta, require_mass, require_unitary
from .quadrature import GridFunction, oscillatory_rule

__all__ = [
    "DegenerateEtaError",
    "RootSearchError",
    "Geometry",
    "Mode",
    "EigenLevel",
    "alpha_of",
    "wavenumber",
    "mode",
    "eigenfunction_fixed",
    "eigenfunction_fixed_dx",
    "eigenfunction_physical",
    "extension_physical",
    "extension_physical_grad",
    "mode_boundary_data",
    "eigenvalue",
    "degenerate_wavenumber",
    "degenerate_basis",
    "generic_spectrum",
]


class DegenerateEtaError(ValueError):
    """Raised when eta = +/-1 is passed to the nondegenerate machinery."""


class RootSearchError(RuntimeError):
    """Raised when the transcendental eigenvalue search fails to converge."""


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

    eta = inf gives pi; real eta gives 0 or pi (sin alpha = 0, the
    time-reversal-invariant members).  eta = +/-1 is rejected.
    """
    eta = _nondegenerate(eta)
    if eta.infinite:
        return np.pi
    return float(np.angle((1.0 + eta.value) / (1.0 - eta.value)))


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
    return 2.0 * np.pi * n + 2.0 * np.arctan(ratio)


@dataclass(frozen=True)
class Mode:
    """One nondegenerate eigenlevel: index n, wavenumber k, angle alpha."""

    n: int
    eta: Eta
    k: float
    alpha: float


def mode(n: int, eta) -> Mode:
    """Build the Mode record for level n of the family member eta."""
    eta = _nondegenerate(eta)
    return Mode(n=int(n), eta=eta, k=wavenumber(n, eta), alpha=alpha_of(eta))


def eigenfunction_fixed(m: Mode, x):
    """Normalized eigenfunction sin(kx) + exp(i alpha) cos(kx) on [-1/2, 1/2].

    The sin/cos cross term integrates to zero on the symmetric interval, so
    the expression has unit L2 norm without any extra constant.
    """
    x = np.asarray(x, dtype=float)
    return np.sin(m.k * x) + np.exp(1j * m.alpha) * np.cos(m.k * x)


def eigenfunction_fixed_dx(m: Mode, x):
    """Spatial derivative of the fixed-interval eigenfunction."""
    x = np.asarray(x, dtype=float)
    return m.k * (np.cos(m.k * x) - np.exp(1j * m.alpha) * np.sin(m.k * x))


def extension_physical(m: Mode, g: Geometry, x):
    """Smooth whole-line extension l**-0.5 phi_n((x - c)/l) of the eigenfunction.

    This is the closed-form trig expression evaluated on all of R; the
    physical eigenfunction is its restriction to the box.
    """
    x = np.asarray(x, dtype=float)
    return eigenfunction_fixed(m, (x - g.c) / g.l) / np.sqrt(g.l)


def extension_physical_grad(m: Mode, g: Geometry, x):
    """Parameter gradient (d/dl, d/dc) of the smooth extension at fixed x."""
    return _extension_jet(m, g.l, g.c, x)[1:]


def _extension_jet(m: Mode, l, c, x):
    """The smooth extension and its gradient (d/dl, d/dc) at fixed x.

    l and c may be arrays that broadcast against x, one box per entry.
    """
    x = np.asarray(x, dtype=float)
    u = (x - c) / l
    inv_sqrt = 1.0 / np.sqrt(l)
    val = eigenfunction_fixed(m, u)
    der = eigenfunction_fixed_dx(m, u)
    d_dc = -inv_sqrt * der / l
    d_dl = -0.5 * inv_sqrt * val / l - inv_sqrt * der * u / l
    return val / np.sqrt(l), d_dl, d_dc


def eigenfunction_physical(m: Mode, g: Geometry, x):
    """Eigenfunction transported to the box [c - l/2, c + l/2]; zero outside.

    Unit L2(R) norm: the transport x -> l**-0.5 phi((x - c)/l) is unitary.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= g.left) & (x <= g.right)
    return np.where(inside, extension_physical(m, g, x), 0.0 + 0.0j)


def mode_boundary_data(m: Mode, g: Geometry | None = None) -> BoundaryData:
    """Endpoint data of the eigenfunction, on I or on a physical box."""
    if g is None:
        g = Geometry(1.0, 0.0)
    ends = np.array([g.left, g.right])
    vals = extension_physical(m, g, ends)
    ders = (
        eigenfunction_fixed_dx(m, (ends - g.c) / g.l) / g.l ** 1.5
    )
    return BoundaryData(vals[0], vals[1], ders[0], ders[1])


def eigenvalue(m: Mode, g: Geometry, mass: float = 1.0) -> float:
    """Dispersion lambda = k^2 / (2 m l^2); translations are isospectral."""
    return m.k ** 2 / (2.0 * require_mass(mass) * g.l ** 2)


@dataclass(frozen=True)
class EigenLevel:
    """An eigenvalue with its provenance and, optionally, a sampled eigenfunction."""

    lam: float
    geometry: Geometry
    mass: float
    eigenfunction: GridFunction | None = None
    multiplicity: int = 1


def degenerate_wavenumber(eta: int, n: int) -> float:
    """Wavenumber of the doubly degenerate level: 2 pi n (eta=+1) or (2n+1) pi (eta=-1)."""
    if eta == 1:
        if n < 1:
            raise ValueError("eta=+1 degenerate levels require n >= 1")
        return 2.0 * np.pi * n
    if eta == -1:
        if n < 0:
            raise ValueError("eta=-1 degenerate levels require n >= 0")
        return (2 * n + 1) * np.pi
    raise ValueError("degenerate basis exists only for eta = +1 or -1")


def degenerate_basis(eta: int, n: int, x):
    """Orthonormal pair spanning the n-th degenerate eigenspace on [-1/2, 1/2].

    Returns (sqrt(2) cos(kx), sqrt(2) sin(kx)) with k = 2 pi n for eta = +1
    (periodic) and k = (2n+1) pi for eta = -1 (antiperiodic).
    """
    k = degenerate_wavenumber(eta, n)
    x = np.asarray(x, dtype=float)
    root2 = np.sqrt(2.0)
    return root2 * np.cos(k * x), root2 * np.sin(k * x)


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
    u = require_unitary(u)
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
