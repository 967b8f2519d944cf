"""Self-adjoint boundary conditions for the kinetic operator on an interval.

The Hamiltonian -psi''/(2m) on a box [a, b] is symmetric but not
self-adjoint on smooth functions vanishing near the walls; each self-adjoint
extension is labelled by a 2x2 unitary acting on endpoint data via the
Cayley-type condition

    (I - U) (psi(a), psi(b))^T = i (I + U) (-psi'(a), psi'(b))^T.

This module implements that parametrization, the dilation-invariant
one-complex-parameter subfamily

    psi(a) = eta psi(b),   conj(eta) psi'(a) = psi'(b),

and the boundary-form bookkeeping (endpoint traces, sesquilinear defect of
self-adjointness) used throughout the rest of the package to verify it.
All operations are pure functions on small immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Eta",
    "ETA_INF",
    "as_eta",
    "BoundaryData",
    "BCClass",
    "eta_to_unitary",
    "classify_unitary",
    "bc_residual",
    "boundary_form",
    "triple_identity_defect",
    "dilation_transport",
    "compliant_data",
    "boundary_traces",
    "require_unitary",
    "require_mass",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Eta:
    """Extended complex parameter of the dilation-invariant family.

    Finite values select psi(a) = eta psi(b), conj(eta) psi'(a) = psi'(b).
    The point at infinity (``ETA_INF``) is the limit psi(b) = 0, psi'(a) = 0.
    """

    value: complex = 0j
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", 0j)
        else:
            v = complex(self.value)
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError("finite eta must have finite real and imaginary parts")
            object.__setattr__(self, "value", v)

    @property
    def degenerate_sign(self) -> int | None:
        """+1 or -1 when eta is that value to within 1e-14, else None.

        This is the one test of degeneracy in the package: at eta = +1 or -1
        the spectrum is doubly degenerate.
        """
        if not self.infinite:
            for sign in (1, -1):
                if abs(self.value - sign) < 1e-14:
                    return sign
        return None

    @property
    def degenerate(self) -> bool:
        """True for eta = +1 or -1, where the spectrum is doubly degenerate."""
        return self.degenerate_sign is not None

    def __complex__(self) -> complex:
        if self.infinite:
            raise ValueError("eta is the point at infinity")
        return self.value

    def __str__(self) -> str:
        return "inf" if self.infinite else str(self.value)


ETA_INF = Eta(infinite=True)


def as_eta(eta) -> Eta:
    """Coerce a complex number, float('inf'), or "inf" into an Eta."""
    if isinstance(eta, Eta):
        return eta
    if isinstance(eta, str):
        if eta.strip().lower() in ("inf", "infinity"):
            return ETA_INF
        raise ValueError(f"cannot interpret {eta!r} as a boundary parameter")
    if isinstance(eta, float) and np.isinf(eta):
        return ETA_INF
    return Eta(complex(eta))


@dataclass(frozen=True)
class BoundaryData:
    """Endpoint data (psi(a), psi(b), psi'(a), psi'(b)) of a wave function."""

    va: complex
    vb: complex
    da: complex
    db: complex

    def __post_init__(self):
        for name in ("va", "vb", "da", "db"):
            z = complex(getattr(self, name))
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
                raise ValueError(f"boundary datum {name} is not finite")
            object.__setattr__(self, name, z)

    def values(self) -> np.ndarray:
        return np.array([self.va, self.vb])

    def outward_derivatives(self) -> np.ndarray:
        """(-psi'(a), psi'(b)): derivatives along the outward normals."""
        return np.array([-self.da, self.db])


def boundary_traces(d: BoundaryData):
    """Endpoint combinations value -/+ i * outward derivative.

    Returns the pair (incoming, outgoing); a data set belongs to the
    extension labelled by U exactly when outgoing = U @ incoming.
    """
    vals = d.values()
    outs = d.outward_derivatives()
    return vals + 1j * outs, vals - 1j * outs


def require_unitary(u, tol: float = 1e-9) -> np.ndarray:
    """Validate and return a 2x2 unitary as a complex ndarray."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"boundary unitary must be 2x2, got shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def require_mass(mass) -> float:
    """Validate and return a particle mass: a finite number > 0."""
    mass = float(mass)
    if not (mass > 0 and math.isfinite(mass)):
        raise ValueError(f"mass must be finite and positive, not {mass}")
    return mass


def eta_to_unitary(eta) -> np.ndarray:
    """Boundary unitary of the dilation-invariant family member eta.

    The matrix is Hermitian as well as unitary (the family is involutive).
    eta = inf is the limit diag(1, -1), i.e. psi(b) = 0 and psi'(a) = 0.
    """
    eta = as_eta(eta)
    if eta.infinite:
        return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    e = eta.value
    den = 1.0 + abs(e) ** 2
    return np.array(
        [
            [(abs(e) ** 2 - 1.0) / den, 2.0 * e / den],
            [2.0 * np.conj(e) / den, (1.0 - abs(e) ** 2) / den],
        ]
    )


@dataclass(frozen=True)
class BCClass:
    """Classification of a boundary unitary.

    kind is one of 'dirichlet', 'neumann', 'periodic', 'antiperiodic',
    'eta', 'other'; eta is set whenever the matrix belongs to the
    one-parameter family (periodic/antiperiodic carry eta = +/-1).
    """

    kind: str
    eta: Eta | None = None

    @property
    def dilation_invariant(self) -> bool:
        # the dilation-invariant set is the eta family plus pure Dirichlet/Neumann
        return self.eta is not None or self.kind in ("dirichlet", "neumann")


def classify_unitary(u, tol: float = 1e-9) -> BCClass:
    """Match a boundary unitary against the named conditions and the eta family.

    Matching is entrywise within `tol`; anything else is labelled 'other'
    (still a valid self-adjoint extension, e.g. Robin-type mixing).
    """
    u = require_unitary(u, tol=tol)
    eye = np.eye(2)
    if np.allclose(u, -eye, atol=tol):
        return BCClass("dirichlet")
    if np.allclose(u, eye, atol=tol):
        return BCClass("neumann")
    if np.allclose(u, SIGMA1, atol=tol):
        return BCClass("periodic", Eta(1.0))
    if np.allclose(u, -SIGMA1, atol=tol):
        return BCClass("antiperiodic", Eta(-1.0))
    # family inversion: u01 / (1 - u00) recovers eta; u00 -> 1 is the infinite limit
    if abs(1.0 - u[0, 0]) < tol:
        if np.allclose(u, eta_to_unitary(ETA_INF), atol=tol):
            return BCClass("eta", ETA_INF)
        return BCClass("other")
    cand = Eta(u[0, 1] / (1.0 - u[0, 0]))
    if np.allclose(u, eta_to_unitary(cand), atol=tol):
        return BCClass("eta", cand)
    return BCClass("other")


def bc_residual(u, d: BoundaryData) -> float:
    """Euclidean norm of (I-U)(psi(a),psi(b))^T - i(I+U)(-psi'(a),psi'(b))^T.

    Zero exactly when the data satisfy the boundary condition labelled by U;
    equal to |outgoing - U incoming| in terms of the endpoint traces.
    """
    u = require_unitary(u)
    eye = np.eye(2)
    r = (eye - u) @ d.values() - 1j * (eye + u) @ d.outward_derivatives()
    return float(np.linalg.norm(r))


def boundary_form(psi: BoundaryData, phi: BoundaryData, mass: float = 1.0) -> complex:
    """Sesquilinear boundary form <H psi|phi> - <psi|H phi> from endpoint data.

    Integration by parts reduces it to (1/2m) [conj(psi) phi' - conj(psi') phi]
    evaluated at b minus at a.  It vanishes whenever both data sets satisfy a
    common self-adjoint boundary condition.
    """
    mass = require_mass(mass)
    at_b = np.conj(psi.vb) * phi.db - np.conj(psi.db) * phi.vb
    at_a = np.conj(psi.va) * phi.da - np.conj(psi.da) * phi.va
    return (at_b - at_a) / (2.0 * mass)


def triple_identity_defect(psi: BoundaryData, phi: BoundaryData) -> float:
    """Defect of <in_psi|in_phi> - <out_psi|out_phi> = 2i Gamma(psi, phi).

    The identity between the endpoint traces and the boundary form holds
    exactly in the 2m = 1 convention, which is fixed here; it is an algebraic
    identity, so the defect must vanish for arbitrary data.
    """
    in_psi, out_psi = boundary_traces(psi)
    in_phi, out_phi = boundary_traces(phi)
    lhs = np.vdot(in_psi, in_phi) - np.vdot(out_psi, out_phi)
    return float(abs(lhs - 2j * boundary_form(psi, phi, mass=0.5)))


def dilation_transport(d: BoundaryData, scale: float, shift: float = 0.0) -> BoundaryData:
    """Endpoint data of x -> scale**-0.5 * psi((x - shift)/scale).

    The transported interval is scale*[a, b] + shift; values pick up
    scale**-0.5 and derivatives scale**-1.5, so membership in the eta family
    is preserved with the same eta (the scale factors cancel in both
    conditions).  The data themselves do not depend on the shift.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    sv = scale ** -0.5
    sd = scale ** -1.5
    return BoundaryData(sv * d.va, sv * d.vb, sd * d.da, sd * d.db)


def compliant_data(eta, free_value: complex, free_derivative: complex) -> BoundaryData:
    """Boundary data satisfying the eta-family condition, from its free values.

    For finite eta the free values are (psi(b), psi'(a)); for eta = inf they
    are (psi(a), psi'(b)) since the condition pins psi(b) = 0, psi'(a) = 0.
    """
    eta = as_eta(eta)
    if eta.infinite:
        return BoundaryData(va=free_value, vb=0.0, da=0.0, db=free_derivative)
    e = eta.value
    return BoundaryData(
        va=e * free_value,
        vb=free_value,
        da=free_derivative,
        db=np.conj(e) * free_derivative,
    )
