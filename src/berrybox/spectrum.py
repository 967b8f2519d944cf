"""A generic eigensolver for the box with arbitrary U(2) boundary conditions.

It finds the levels and eigenfunctions of any self-adjoint wall condition
without the closed forms of `closed_form` (it shares only the dispersion
lambda = E / (2 m l^2)), and so serves throughout the tests, and in
`spectrum --check generic`, as an independent cross-check of them.  For a
self-adjoint condition the determinant of the 2x2 boundary residual is a
constant phase times one real secular function of the energy E,

    F(E) = a C S + b C^2 + c E S^2 + d E S C,  C = cos(q/2), S = sin(q/2)/q,
    E = q^2,

so eigenvalues are its sign changes, bracketed on a grid in t with E = t|t|
and bisected, one scalar at a time on `cmath`.  A cell where |F| dips
without changing sign holds two close simple roots if F changes sign at the
dip's extremum, or one doubly degenerate level if the residual matrix
vanishes there.  The scan starts at or below t = -60, at a floor under every
level of U (`_scan_floor`), as walls near Dirichlet bind states near
t = -2/eps at an eigenphase pi + eps.  The module imports no numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .boundary import require_mass, require_unitary
from .closed_form import eigenvalue, require_length

__all__ = ["RootSearchError", "EigenLevel", "generic_spectrum"]


class RootSearchError(RuntimeError):
    """Raised when the transcendental eigenvalue search fails to converge."""


EigenLevel = namedtuple("EigenLevel", "lam multiplicity t coefficients")
EigenLevel.__doc__ = """An eigenvalue, its multiplicity and the root it was found at.

At the unit box the level sits at E = t|t| and its eigenfunction is
v0 cos(qu) + v1 sin(qu)/q, q^2 = E, with (v0, v1) = `coefficients`, a
unit null vector of the residual matrix.  The two entries of a double
level take (1, 0) and (0, 1): cos(qu) and sin(qu)/q, of opposite parity.
"""


# ---------------------------------------------------------------------------
# generic eigensolver for arbitrary U(2) boundary conditions


def _cos_sinc(e):
    """C = cos(q/2) and S = sin(q/2)/q at energy e = q^2, entire in e; below t = -60,
    as cosh(|q|/2) overflows from t = -1420 on, both times 2 e^{-|q|/2}, which
    leaves the sign of F and the normalized residual matrix as they are."""
    q = cmath.sqrt(e)
    if e.real < -3600.0:
        kappa = -1j * q
        w = cmath.exp(-kappa)
        return 1.0 + w, (1.0 - w) / kappa
    return cmath.cos(q / 2.0), (cmath.sin(q / 2.0) / q if q else 0.5)


def _residual_matrix(cols, e):
    """Rows of the 2x2 matrix with columns (I - U)(psi(a), psi(b)) - i(I + U)(-psi'(a), psi'(b))
    for psi = cos(qx), sin(qx)/q, e = q^2, on [a, b] = [-1/2, 1/2], over the norm of the
    endpoint data; `cols` holds (I - U) and (I + U) applied to (1, 1), then to (-1, 1)."""
    am, ap, bm, bp = cols
    c, s = _cos_sinc(e)
    scale = math.sqrt(4.0 * abs(c) ** 2 + 2.0 * abs(e * s) ** 2 + 2.0 * abs(s) ** 2)
    return tuple(((c * am[i] + 1j * e * s * ap[i]) / scale, (s * bm[i] - 1j * c * bp[i]) / scale) for i in (0, 1))


def _largest_singular_value(m) -> float:
    """sigma_max of a 2x2 matrix: the larger root of s^4 - |M|_F^2 s^2 + |det M|^2."""
    (p, q), (r, s) = m
    fro = abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2 + abs(s) ** 2
    det = abs(p * s - q * r)
    return math.sqrt(0.5 * (fro + math.sqrt(max(fro * fro - 4.0 * det * det, 0.0))))


def _null_vector(m):
    """Unit x with M x = 0 for a 2x2 M of rank one: orthogonal to the conjugate
    of M's larger row."""
    p, q = max(m, key=lambda row: abs(row[0]) ** 2 + abs(row[1]) ** 2)
    norm = math.hypot(abs(p), abs(q))
    return q / norm, -p / norm


def _secular_parts(u):
    """`cols` of `_residual_matrix` and the real (a, b, c, d) of the secular function."""

    def apply(sign, v):  # (I + sign U) v
        return tuple(((i == 0) + sign * u[i][0]) * v[0] + ((i == 1) + sign * u[i][1]) * v[1] for i in (0, 1))

    cols = [apply(sign, v) for v in ((1.0, 1.0), (-1.0, 1.0)) for sign in (-1.0, 1.0)]
    am, ap, bm, bp = cols
    det = lambda x, y: x[0] * y[1] - x[1] * y[0]
    z = (det(am, bm), -1j * det(am, bp), 1j * det(ap, bm), det(ap, bp))
    phase = cmath.exp(-0.5j * cmath.phase(u[0][0] * u[1][1] - u[1][0] * u[0][1]))
    return cols, tuple((zi * phase).real for zi in z)


def _bisect(fun, lo, hi):
    """Shrink the bracket [lo, hi] of a sign change of `fun` to adjacent floats."""
    lo_pos = fun(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f = fun(mid)
        if f == 0:
            return mid
        if (f > 0) == lo_pos:
            lo = mid
        else:
            hi = mid


def _scan_floor(u) -> float:
    """t = -sqrt(4 rho^2 + 2 rho), at or below every level E = t|t| of the walls U:
    rho = max(0, -tan(theta_j/2)) over U's eigenvalues lam_j = e^{i theta_j} != -1,
    tan(theta/2) = 2 Im lam / |1 + lam|^2.  The walls add sum_j tan(theta_j/2) |c_j|^2
    >= -rho (|psi(a)|^2 + |psi(b)|^2) to |psi'|^2, and |psi(x)|^2 <= (1 + 1/delta) |psi|^2
    + delta |psi'|^2 at delta = 1/(2 rho) bounds the sum by -(4 rho^2 + 2 rho) |psi|^2."""
    (p, q), (r, s) = u
    mean, root = 0.5 * (p + s), cmath.sqrt((0.5 * (p - s)) ** 2 + q * r)
    rho = max([0.0] + [-2.0 * lam.imag / abs(1.0 + lam) / abs(1.0 + lam) for lam in (mean + root, mean - root)
                       if lam != -1.0])
    return -math.sqrt(4.0 * rho * rho + 2.0 * rho)


def _roots(cols, coef, t_min, t_max):
    """Ascending (t, multiplicity) of the eigenvalues E = t|t| with t_min < t < t_max."""
    a, b, c, d = coef

    def secular(t, h=0.0):  # F(E + h); with h = 1e-20 i, Im F has the sign of F'(E)
        e = t * abs(t) + h
        cc, s = _cos_sinc(e)
        return a * cc * s + b * cc * cc + e * s * (c * s + d * cc)

    f, df = (lambda t: secular(t).real), (lambda t: secular(t, 1e-20j).imag)
    # delta = (-60 + pi/16) + 60, not pi/16: the grid points of np.arange(-60, t_max, pi/16),
    # which the array solver scanned, so that both bisect the same brackets
    delta = (-60.0 + math.pi / 16.0) + 60.0
    t = [-60.0 + i * delta for i in range(math.ceil((t_max + 60.0) / (math.pi / 16.0)))]
    # below -60, down to t_min, sixteen points per doubling of |t|: a pi/16 grid
    # to the t = -2e6 of an eigenphase pi + 1e-6 would take 10^7 points
    t[:0] = [-60.0 * 2.0 ** (i / 16.0) for i in range(math.ceil(16.0 * math.log2(t_min / -60.0)), 0, -1)]
    ft = [f(x) for x in t]
    grows = [fx * df(x) > 0 for x, fx in zip(t, ft)]
    simple, double = [], []
    for i in range(len(t) - 1):
        lo, hi = t[i], t[i + 1]
        if (ft[i] > 0) != (ft[i + 1] > 0):
            simple.append(_bisect(f, lo, hi))
        elif not grows[i] and grows[i + 1]:  # |F| dips: its extremum tx splits the cell
            tx = _bisect(df, lo, hi)
            if (f(tx) > 0) != (ft[i] > 0):
                simple += [_bisect(f, lo, tx), _bisect(f, tx, hi)]
            elif _largest_singular_value(_residual_matrix(cols, tx * abs(tx))) < 1e-6:
                double.append(tx)
    return sorted([(x, 1) for x in simple] + [(x, 2) for x in double])


def generic_spectrum(u, count: int, mass: float = 1.0, l: float = 1.0):
    """Lowest eigenvalues of the box for an arbitrary U(2) boundary condition.

    In the basis c(x) = cos(qx), s(x) = sin(qx)/q, E = q^2, entire in E and so
    valid for E < 0, E = 0 and E > 0 alike, the boundary condition is a 2x2
    residual matrix M(E) whose determinant is sqrt(det U) times the real
    secular function (Kostrykin and Schrader, J. Phys. A 32, 595 (1999))

        F(E) = a C S + b C^2 + c E S^2 + d E S C,  C = cos(q/2), S = sin(q/2)/q.

    F is sampled at E = t|t|, t from -60 to (count + 3) pi in steps of pi/16,
    and below -60 at sixteen points per doubling of |t| down to the floor
    `_scan_floor`, -sqrt(4 rho^2 + 2 rho), under every level of U; the scan
    runs once, and each sign change is bisected to adjacent floats.  The Dirichlet
    (Friedrichs) extension is the largest self-adjoint one (Reed and Simon,
    Methods of Modern Mathematical Physics II, Thm X.23), so level j of any
    wall condition lies at or below t = (j + 1) pi, and a wider scan could
    find no level the first one missed.  Where |F| dips without a sign
    change, its extremum (a root of the complex-step F') holds two simple
    roots if F changes sign there, or one double level if M vanishes there
    (its largest singular value is below 1e-6).  A simple level takes the null vector of
    M as its `EigenLevel.coefficients`.

    Returns `count` EigenLevels in ascending order, lambda = E / (2 m l^2)
    (`closed_form.eigenvalue` with the sign of E) at the box length l.  Raises RootSearchError
    if the scan brackets fewer than `count` eigenvalues.
    """
    u = require_unitary(u)
    if count < 1:
        raise ValueError("count must be >= 1")
    mass, l = require_mass(mass), require_length(l)
    cols, coef = _secular_parts(u)
    t_min, t_max = min(_scan_floor(u), -60.0), (count + 3) * math.pi
    if not t_min > -1e150:  # E = t|t| leaves the float range
        raise RootSearchError("the walls may bind a level below E = -1e300, beyond the float range")
    roots = _roots(cols, coef, t_min, t_max)
    found = sum(mult for _, mult in roots)
    if found < count:
        raise RootSearchError(f"found only {found} eigenvalues with {t_min:.1f} < t < {t_max:.1f}, E = t|t|; "
                              f"requested {count}")
    levels = []
    for t, mult in roots:
        if len(levels) >= count:
            break
        vectors = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)] if mult == 2 else [_null_vector(_residual_matrix(cols, t * abs(t)))]
        lam = math.copysign(eigenvalue(t, l, mass), t)
        levels += [EigenLevel(lam=lam, multiplicity=mult, t=t, coefficients=v) for v in vectors]
    return levels[:count]
