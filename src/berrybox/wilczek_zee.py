"""Matrix-valued connection and holonomy for the degenerate eta = +/-1 levels.

At eta = +1 (periodic walls) the levels with indices n and -n coalesce; at
eta = -1 (antiperiodic) n pairs with -n-1.  On the real cos/sin basis of a
degenerate eigenspace the connection one-form is

    A = i <phi_a | d phi_b> = (k_n / l) sigma_2 dc,

a commuting family, so the Cartan curvature reduces to the exterior
derivative and the loop holonomy is a rotation exp(i theta sigma_2): the
U(2) transport is real orthogonal, i.e. essentially Abelian, as forced by
the time-reversal invariance of these two boundary conditions.  The plane
waves phi_I +/- i phi_II diagonalize the connection globally with one
parameter-independent change of basis.

Because the connection commutes with itself along any loop, the holonomy is
exp(i theta sigma_2) with theta = k_n times the loop integral of dc/l, the
same closed-form integral that gives the scalar Berry phase (Wilczek and
Zee, PRL 52, 2111 (1984)).  That is the plane rotation [[cos theta,
sin theta], [-sin theta, cos theta]], evaluated once, in that closed form,
with no matrix exponential routine and no mesh.  Every matrix is a tuple of
two rows, as in `boundary`, so the module runs on the standard library.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .closed_form import degenerate_wavenumber, degenerate_waves, require_length, weak_form
from .paths import ParameterPath

__all__ = [
    "SIGMA2",
    "ConnectionCheckError",
    "MatrixConnection",
    "Holonomy",
    "wz_connection",
    "connection_from_basis",
    "wz_curvature",
    "wz_holonomy",
    "diagonalize_in_plane_waves",
]

SIGMA2 = ((0j, -1j), (1j, 0j))
_ZERO = ((0j, 0j), (0j, 0j))


def _scaled(x: float, m) -> tuple:
    return tuple(tuple(x * v for v in row) for row in m)


def _product(a, b) -> tuple:
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)) for i in (0, 1))


def _dagger(m) -> tuple:
    return tuple(tuple(m[j][i].conjugate() for j in (0, 1)) for i in (0, 1))


def _deviation(a, b) -> float:
    """max |a_ij - b_ij|."""
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class ConnectionCheckError(RuntimeError):
    """Raised when the recomputation from the explicit basis disagrees with the closed form."""


MatrixConnection = namedtuple("MatrixConnection", "coeff_l coeff_c")
MatrixConnection.__doc__ = "Hermitian coefficient matrices of the matrix one-form A_l dl + A_c dc."

Holonomy = namedtuple("Holonomy", "matrix eigenphases")
Holonomy.__doc__ = """Loop transport exp(i theta sigma_2) and its eigenphases (-|w|, |w|),
w = theta reduced to [-pi, pi]."""


def connection_from_basis(eta: int, n: int) -> MatrixConnection:
    """Matrix connection l A at the unit box, recomputed from the explicit
    basis; the connection at a box of length l is this over l.

    phi_I = sqrt(2/l) cos(k u), phi_II = sqrt(2/l) sin(k u) with
    u = (x - c)/l.  Every integrand <phi_a | d phi_b> dx scales as 1/l at
    fixed u, so the integrals run once over the unit box in u, where the
    (l, c) gradients are d_l phi = -phi/2 - u phi' and d_c phi = -phi'.  The
    connection is i times the anti-Hermitian part of <phi_a | d phi_b>, which
    is what the interior-derivative prescription keeps: the weak forms of
    x o p and p between the pair (`closed_form.weak_form`), the generators of
    dilations and translations, in closed form at the same cost at every
    level.
    """
    p, xp = weak_form(degenerate_waves(eta, n))
    return MatrixConnection(coeff_l=xp, coeff_c=p)


def wz_connection(eta: int, n: int, l: float) -> MatrixConnection:
    """Closed-form matrix connection A_l = 0, A_c = (k_n / l) sigma_2 at the box length l.

    The connection is dilation covariant, so the check runs once,
    at the unit box: `connection_from_basis` must agree with k_n sigma_2
    entrywise to 1e-8, or to 8 ulps of k_n where that is wider (beyond
    |n| ~ 1.3e6, where the recomputation rounds 1-2 ulps off), or
    ConnectionCheckError is raised.  Checked at l itself, the absolute gate
    would meet rounding of entries of size k_n / l.
    """
    k, l = degenerate_wavenumber(eta, n), require_length(l)
    unit = connection_from_basis(eta, n)
    worst = max(_deviation(unit.coeff_l, _ZERO), _deviation(unit.coeff_c, _scaled(k, SIGMA2)))
    if worst > max(1e-8, 8.0 * math.ulp(k)):
        raise ConnectionCheckError(
            f"recomputed connection deviates from the closed form by {worst:.3e}"
        )
    return MatrixConnection(coeff_l=_ZERO, coeff_c=_scaled(k / l, SIGMA2))


def wz_curvature(eta: int, n: int, l: float) -> tuple:
    """Curvature coefficient (k_n / l^2) sigma_2 of the degenerate connection at l.

    The commutator term [A_l, A_c] vanishes identically, since A_l = 0 (A has
    only a dc component), so the curvature is the exterior derivative alone;
    the sign convention pairs it with the scalar-case density
    +k sin(alpha)/l^2, i.e. the value returned is -d/dl of the dc coefficient.
    Raises ValueError where k_n / l^2 is not finite: where l^2 is too small
    for k_n, or underflows to 0 (l = 1e-170).
    """
    k, l = degenerate_wavenumber(eta, n), require_length(l)
    try:
        square = l ** 2
    except OverflowError:  # pow raises where l^2 overflows, and k_n / l^2 underflows to 0
        square = math.inf
    f = k / square if square else math.inf
    if not math.isfinite(f):
        raise ValueError(f"the curvature k_n / l^2 is not finite at l = {l}: l^2 is too small for it")
    return _scaled(f, SIGMA2)


def _exp_i_sigma2(theta: float) -> tuple:
    """exp(i theta sigma_2) = cos(theta) I + i sin(theta) sigma_2, a plane rotation."""
    c, s = math.cos(theta), math.sin(theta)
    return ((c, s), (-s, c))


# the one matrix exponential of the holonomy, under the name instrumentation
# wraps to count holonomies; the function itself stays private, so that
# wrapping every public function does not count each call twice
expm = _exp_i_sigma2


def wz_holonomy(eta: int, n: int, path: ParameterPath) -> Holonomy:
    """Holonomy exp(i theta sigma_2) of the connection around the loop `path`.

    Every value of the connection is a multiple of sigma_2, so the path
    ordering is immaterial and theta = k_n times the loop integral of dc/l
    (`ParameterPath.dc_over_l`); for the standard counterclockwise rectangle
    theta = -k_n (1/l1 - 1/l2)(c2 - c1).  In the real cos/sin basis the
    matrix is a plane rotation (real orthogonal).
    """
    k = degenerate_wavenumber(eta, n)
    theta = k * path.dc_over_l()
    if not math.isfinite(theta):
        raise ValueError(f"the holonomy angle k_n times the loop integral of dc/l is {theta} at level n = {n} "
                         f"on the loop through {path.vertices[0]}: not finite")
    w = abs(math.remainder(theta, 2.0 * math.pi))
    return Holonomy(matrix=expm(theta), eigenphases=(-w, w))


def diagonalize_in_plane_waves(conn: MatrixConnection):
    """Diagonalize the dc coefficient in the plane-wave combinations.

    The change of basis sends (phi_I, phi_II) to (phi_I + i phi_II,
    phi_I - i phi_II)/sqrt(2), i.e. to exp(+-ikx) up to phase; it
    diagonalizes sigma_2 once and for all, so the same unitary works at
    every point of the (l, c) half-plane (the bundle is trivial).

    Returns (diagonal matrix, change-of-basis unitary Q) with the convention
    diag = Q^dagger A_c Q.
    """
    r = math.sqrt(0.5)
    q = ((complex(r), complex(r)), (1j * r, -1j * r))
    return _product(_product(_dagger(q), conn.coeff_c), q), q
