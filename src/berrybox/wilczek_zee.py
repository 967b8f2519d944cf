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

Each step of the path-ordered holonomy is exp(i theta sigma_2) with theta
real, which is the plane rotation [[cos theta, sin theta], [-sin theta,
cos theta]]; it is evaluated in that closed form, with no matrix
exponential routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ParameterPath
from .quadrature import oscillatory_rule
from .spectrum import Geometry, degenerate_wavenumber

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
    """Raised when the quadrature recomputation disagrees with the closed form."""


@dataclass(frozen=True)
class MatrixConnection:
    """Hermitian coefficient matrices of the matrix one-form A_l dl + A_c dc."""

    coeff_l: np.ndarray
    coeff_c: np.ndarray
    geometry: Geometry
    eta: int
    n: int


@dataclass(frozen=True)
class Holonomy:
    """Path-ordered loop transport: 2x2 unitary plus diagnostics."""

    matrix: np.ndarray
    eigenphases: tuple[float, float]
    mesh: int
    err_estimate: float


def _require_degenerate(eta: int) -> int:
    if eta not in (1, -1):
        raise ValueError("matrix connection exists only for eta = +1 or -1")
    return eta


def _basis_physical_and_grad(eta: int, n: int, g: Geometry, x):
    """Degenerate basis on the box plus its analytic (l, c) gradients.

    phi_I = sqrt(2/l) cos(k u), phi_II = sqrt(2/l) sin(k u) with
    u = (x - c)/l; the gradients follow from the chain rule.
    """
    k = degenerate_wavenumber(eta, n)
    u = (x - g.c) / g.l
    amp = np.sqrt(2.0 / g.l)
    cos, sin = np.cos(k * u), np.sin(k * u)
    phi = (amp * cos, amp * sin)
    d_dc = (amp * (k / g.l) * sin, -amp * (k / g.l) * cos)
    d_dl = (
        amp * (-cos / (2.0 * g.l) + (k * u / g.l) * sin),
        amp * (-sin / (2.0 * g.l) - (k * u / g.l) * cos),
    )
    return phi, d_dl, d_dc


def connection_from_basis(eta: int, n: int, g: Geometry) -> MatrixConnection:
    """Matrix connection recomputed by quadrature from the explicit basis.

    The raw matrices <phi_a | d phi_b> pick up a real diagonal from the norm
    flowing through the moving walls; only their anti-Hermitian part is the
    connection (times i), which is what the interior-derivative prescription
    keeps.
    """
    _require_degenerate(eta)
    k = degenerate_wavenumber(eta, n)
    x, w = oscillatory_rule(g.left, g.right, 2.0 * k / g.l)
    phi, d_dl, d_dc = _basis_physical_and_grad(eta, n, g, x)

    def coeff(grads):
        raw = np.array(
            [[np.sum(w * np.conj(phi[a]) * grads[b]) for b in range(2)] for a in range(2)]
        )
        return 1j * 0.5 * (raw - raw.conj().T)

    return MatrixConnection(
        coeff_l=coeff(d_dl), coeff_c=coeff(d_dc), geometry=g, eta=eta, n=n
    )


def wz_connection(eta: int, n: int, g: Geometry, verify: bool = True) -> MatrixConnection:
    """Closed-form matrix connection A_l = 0, A_c = (k_n / l) sigma_2.

    With verify=True the coefficients are recomputed from the basis by
    quadrature and must agree entrywise to 1e-8.
    """
    _require_degenerate(eta)
    k = degenerate_wavenumber(eta, n)
    closed = MatrixConnection(
        coeff_l=np.zeros((2, 2), dtype=complex),
        coeff_c=(k / g.l) * SIGMA2,
        geometry=g,
        eta=eta,
        n=n,
    )
    if verify:
        numeric = connection_from_basis(eta, n, g)
        worst = max(
            np.max(np.abs(numeric.coeff_l - closed.coeff_l)),
            np.max(np.abs(numeric.coeff_c - closed.coeff_c)),
        )
        if worst > 1e-8:
            raise ConnectionCheckError(
                f"quadrature connection deviates from the closed form by {worst:.3e}"
            )
    return closed


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
# wraps to count the steps
expm = _exp_i_sigma2


def _holonomy_matrix(eta: int, n: int, path: ParameterPath, mesh: int) -> np.ndarray:
    k = degenerate_wavenumber(eta, n)
    u = np.eye(2, dtype=complex)
    s = np.arange(mesh + 1) / mesh
    _, c = path.points(s)
    l_mid, _ = path.points(0.5 * (s[:-1] + s[1:]))
    for lj, c0, c1 in zip(l_mid.tolist(), c[:-1].tolist(), c[1:].tolist()):
        # A_l = 0, so only dc moves the frame: exp(i (k / l) sigma_2 dc)
        step = expm((k / lj) * (c1 - c0))
        u = step @ u
    return u


def wz_holonomy(eta: int, n: int, path: ParameterPath, mesh: int) -> Holonomy:
    """Path-ordered product of exp(i A delta) around a closed loop.

    Every increment is proportional to sigma_2, so the ordering is immaterial
    and the result is exp(i theta sigma_2) with
    theta = -k_n (1/l1 - 1/l2)(c2 - c1) for the standard counterclockwise
    rectangle; the eigenphases come in a +/- pair either way.  In the real
    cos/sin basis the matrix is a plane rotation (real orthogonal).
    """
    _require_degenerate(eta)
    if not path.closed:
        raise ValueError("holonomy requires a closed path")
    if mesh < 8:
        raise ValueError("mesh must be at least 8")
    u = _holonomy_matrix(eta, n, path, mesh)
    coarse = _holonomy_matrix(eta, n, path, max(mesh // 2, 4))
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    phases_c = np.sort(np.angle(np.linalg.eigvals(coarse)))
    err = float(np.max(np.abs(np.angle(np.exp(1j * (phases - phases_c))))))
    return Holonomy(matrix=u, eigenphases=(float(phases[0]), float(phases[1])), mesh=mesh, err_estimate=err)


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
