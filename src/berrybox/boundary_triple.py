"""Boundary-triple identities of the self-adjoint boundary conditions.

Endpoint data (psi(a), psi(b), psi'(a), psi'(b)) of a wave function, their
traces value +/- i * outward derivative, the residual of a boundary condition
on them, the sesquilinear boundary form <H psi|phi> - <psi|H phi> and the
identity that ties it to the traces, and the dilations that keep the eta
family.  They verify `boundary`'s parametrization; no command runs them.
Plain Python on complex numbers, as in `boundary`.
"""

from __future__ import annotations

import cmath
import math

from .boundary import as_eta, require_mass, require_unitary

__all__ = [
    "BoundaryData",
    "bc_residual",
    "boundary_form",
    "triple_identity_defect",
    "dilation_transport",
    "compliant_data",
    "boundary_traces",
]


class BoundaryData:
    """Endpoint data (psi(a), psi(b), psi'(a), psi'(b)) of a wave function."""

    __slots__ = ("va", "vb", "da", "db")

    def __init__(self, va: complex, vb: complex, da: complex, db: complex):
        for name, z in (("va", va), ("vb", vb), ("da", da), ("db", db)):
            z = complex(z)
            if not cmath.isfinite(z):
                raise ValueError(f"boundary datum {name} is not finite")
            setattr(self, name, z)


def boundary_traces(d: BoundaryData):
    """Endpoint combinations value +/- i * outward derivative (-psi'(a), psi'(b)).

    Returns the pair (incoming, outgoing) of (at a, at b) tuples; a data set
    belongs to the extension labelled by U exactly when outgoing = U @ incoming.
    """
    return (d.va - 1j * d.da, d.vb + 1j * d.db), (d.va + 1j * d.da, d.vb - 1j * d.db)


def bc_residual(u, d: BoundaryData) -> float:
    """Euclidean norm of (I-U)(psi(a),psi(b))^T - i(I+U)(-psi'(a),psi'(b))^T.

    Zero exactly when the data satisfy the boundary condition labelled by U;
    equal to |outgoing - U incoming| in terms of the endpoint traces.
    """
    u = require_unitary(u)
    incoming, outgoing = boundary_traces(d)
    return math.hypot(*(abs(outgoing[i] - u[i][0] * incoming[0] - u[i][1] * incoming[1]) for i in (0, 1)))


def boundary_form(psi: BoundaryData, phi: BoundaryData, mass: float = 1.0) -> complex:
    """Sesquilinear boundary form <H psi|phi> - <psi|H phi> from endpoint data.

    Integration by parts reduces it to (1/2m) [conj(psi) phi' - conj(psi') phi]
    evaluated at b minus at a.  It vanishes whenever both data sets satisfy a
    common self-adjoint boundary condition.
    """
    mass = require_mass(mass)
    at_b = psi.vb.conjugate() * phi.db - psi.db.conjugate() * phi.vb
    at_a = psi.va.conjugate() * phi.da - psi.da.conjugate() * phi.va
    return (at_b - at_a) / (2.0 * mass)


def triple_identity_defect(psi: BoundaryData, phi: BoundaryData) -> float:
    """Defect of <in_psi|in_phi> - <out_psi|out_phi> = 2i Gamma(psi, phi).

    The identity between the endpoint traces and the boundary form holds
    exactly in the 2m = 1 convention, which is fixed here; it is an algebraic
    identity, so the defect must vanish for arbitrary data.
    """
    in_psi, out_psi = boundary_traces(psi)
    in_phi, out_phi = boundary_traces(phi)
    lhs = sum(a.conjugate() * b - c.conjugate() * d for a, b, c, d in zip(in_psi, in_phi, out_psi, out_phi))
    return abs(lhs - 2j * boundary_form(psi, phi, mass=0.5))


def dilation_transport(d: BoundaryData, scale: float) -> BoundaryData:
    """Endpoint data of x -> scale**-0.5 * psi((x - c)/scale), for any shift c.

    The transported interval is scale*[a, b] + c; values pick up
    scale**-0.5 and derivatives scale**-1.5, so membership in the eta family
    is preserved with the same eta (the scale factors cancel in both
    conditions).  The data themselves do not depend on the shift c.
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
        db=e.conjugate() * free_derivative,
    )
