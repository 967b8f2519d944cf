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
with no matrix exponential routine and no mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import Geometry, degenerate_wavenumber, degenerate_waves, window_integral
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

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class ConnectionCheckError(RuntimeError):
    """Raised when the recomputation from the explicit basis disagrees with the closed form."""


@dataclass(frozen=True)
class MatrixConnection:
    """Hermitian coefficient matrices of the matrix one-form A_l dl + A_c dc."""

    coeff_l: np.ndarray
    coeff_c: np.ndarray


@dataclass(frozen=True)
class Holonomy:
    """Loop transport exp(i theta sigma_2) and its eigenphases (-|w|, |w|),
    w = theta reduced to [-pi, pi]."""

    matrix: np.ndarray
    eigenphases: tuple[float, float]


def connection_from_basis(eta: int, n: int) -> MatrixConnection:
    """Matrix connection l A at the unit box, recomputed from the explicit
    basis; the connection at a box of length l is this over l.

    phi_I = sqrt(2/l) cos(k u), phi_II = sqrt(2/l) sin(k u) with
    u = (x - c)/l.  Every integrand <phi_a | d phi_b> dx scales as 1/l at
    fixed u, so the integrals run once over the unit box in u, where the
    (l, c) gradients are d_l phi = -phi/2 - u phi' and d_c phi = -phi', and
    each is a plane-wave integral in closed form (`window_integral`), at the
    same cost at every level.  The raw matrices pick up a real diagonal from
    the norm flowing through the moving walls; only their anti-Hermitian part
    is the connection (times i), which is what the interior-derivative
    prescription keeps.
    """
    basis = degenerate_waves(eta, n)
    # raw[0] = <phi_a | d_l phi_b>, raw[1] = <phi_a | d_c phi_b>
    raw = np.array([[[-0.5 * window_integral(a, b, -0.5, 0.5) - window_integral(a, b.derivative(), -0.5, 0.5, 1)
                      for b in basis] for a in basis],
                    [[-window_integral(a, b.derivative(), -0.5, 0.5) for b in basis] for a in basis]])
    connection = 1j * 0.5 * (raw - raw.transpose(0, 2, 1))  # i times the anti-Hermitian part
    return MatrixConnection(coeff_l=connection[0], coeff_c=connection[1])


def wz_connection(eta: int, n: int, g: Geometry) -> MatrixConnection:
    """Closed-form matrix connection A_l = 0, A_c = (k_n / l) sigma_2.

    The connection is dilation covariant, so the check runs once,
    at the unit box: `connection_from_basis` must agree with k_n sigma_2
    entrywise to 1e-8, or ConnectionCheckError is raised.  Checked at g
    itself, the absolute gate would meet rounding of entries of size k_n / l.
    """
    k = degenerate_wavenumber(eta, n)
    unit = connection_from_basis(eta, n)
    worst = max(np.max(np.abs(unit.coeff_l)), np.max(np.abs(unit.coeff_c - k * SIGMA2)))
    if worst > 1e-8:
        raise ConnectionCheckError(
            f"recomputed connection deviates from the closed form by {worst:.3e}"
        )
    return MatrixConnection(coeff_l=np.zeros((2, 2), dtype=complex), coeff_c=(k / g.l) * SIGMA2)


def wz_curvature(eta: int, n: int, g: Geometry) -> np.ndarray:
    """Curvature coefficient (k_n / l^2) sigma_2 of the degenerate connection.

    The commutator term [A_l, A_c] vanishes identically, since A_l = 0 (A has
    only a dc component), so the curvature is the exterior derivative alone;
    the sign convention pairs it with the scalar-case density
    +k sin(alpha)/l^2, i.e. the value returned is -d/dl of the dc coefficient.
    """
    k = degenerate_wavenumber(eta, n)
    return (k / g.l ** 2) * SIGMA2


def _exp_i_sigma2(theta: float) -> np.ndarray:
    """exp(i theta sigma_2) = cos(theta) I + i sin(theta) sigma_2, a plane rotation."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


# the one matrix exponential of the holonomy, under the name instrumentation
# wraps to count holonomies; the function itself stays private, so that
# wrapping every public function does not count each call twice
expm = _exp_i_sigma2


def wz_holonomy(eta: int, n: int, path: ParameterPath) -> Holonomy:
    """Holonomy exp(i theta sigma_2) of the connection around a closed loop.

    Every value of the connection is a multiple of sigma_2, so the path
    ordering is immaterial and theta = k_n times the loop integral of dc/l
    (`ParameterPath.dc_over_l`); for the standard counterclockwise rectangle
    theta = -k_n (1/l1 - 1/l2)(c2 - c1).  In the real cos/sin basis the
    matrix is a plane rotation (real orthogonal).
    """
    k = degenerate_wavenumber(eta, n)
    if not path.closed:
        raise ValueError("holonomy requires a closed path")
    theta = k * path.dc_over_l()
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
    q = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
    diag = q.conj().T @ conn.coeff_c @ q
    return diag, q
