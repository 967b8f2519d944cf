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
All operations are pure functions on small immutable values: complex numbers
and 2x2 matrices as tuples of two rows, so the module needs no numpy.
"""

from __future__ import annotations

import cmath
import math

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


class Eta:
    """Extended complex parameter of the dilation-invariant family.

    Finite values select psi(a) = eta psi(b), conj(eta) psi'(a) = psi'(b).
    The point at infinity (``ETA_INF``) is the limit psi(b) = 0, psi'(a) = 0.
    Two Etas are equal when their value and infinite flag are.
    """

    __slots__ = ("value", "infinite")

    def __init__(self, value: complex = 0j, infinite: bool = False):
        if infinite:
            value = 0j
        else:
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValueError("finite eta must have finite real and imaginary parts")
        self.value, self.infinite = value, infinite

    def __eq__(self, other):
        if other.__class__ is not Eta:
            return NotImplemented
        return (self.value, self.infinite) == (other.value, other.infinite)

    def __hash__(self):
        return hash((self.value, self.infinite))

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
    """Coerce a number or the text 'a+bi' into an Eta; float('inf') and the
    text 'inf' are the point at infinity.

    Raises ValueError for anything else that is not a complex number with
    finite parts."""
    if isinstance(eta, Eta):
        return eta
    text = eta.strip().lower() if isinstance(eta, str) else None
    if text in ("inf", "infinity") or eta == float("inf"):
        return ETA_INF
    try:
        return Eta(complex(text.replace("i", "j")) if text is not None else eta)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse eta {eta!r}: use 'a+bi' or 'inf'") from exc


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


def require_unitary(u, tol: float = 1e-9) -> tuple:
    """Validate a 2x2 unitary (nested sequences or an array) with finite
    entries; return it as a tuple of two rows of complex numbers."""
    try:
        u = tuple(tuple(complex(v) for v in row) for row in u)
    except TypeError:
        u = None
    if u is None or len(u) != 2 or any(len(row) != 2 for row in u):
        raise ValueError("boundary unitary must be 2x2")
    if not all(cmath.isfinite(v) for row in u for v in row):
        raise ValueError("boundary unitary entries must be finite")
    # max |(U^H U - I)_ij|; written `not <=` so that a NaN defect fails too
    defect = max(abs(u[0][i].conjugate() * u[0][j] + u[1][i].conjugate() * u[1][j] - (i == j))
                 for i in (0, 1) for j in (0, 1))
    if not defect <= tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def require_mass(mass) -> float:
    """Validate and return a particle mass: a finite number > 0."""
    mass = float(mass)
    if not (mass > 0 and math.isfinite(mass)):
        raise ValueError(f"mass must be finite and positive, not {mass}")
    return mass


def eta_to_unitary(eta) -> tuple:
    """Boundary unitary (two rows of complex) of the dilation-invariant family member eta.

    The matrix is Hermitian as well as unitary (the family is involutive).
    eta = inf is the limit diag(1, -1), i.e. psi(b) = 0 and psi'(a) = 0.
    """
    eta = as_eta(eta)
    if eta.infinite:
        return ((1 + 0j, 0j), (0j, -1 + 0j))
    e = eta.value
    den = 1.0 + abs(e) ** 2
    return (
        (complex((abs(e) ** 2 - 1.0) / den), 2.0 * e / den),
        (2.0 * e.conjugate() / den, complex((1.0 - abs(e) ** 2) / den)),
    )


class BCClass:
    """Classification of a boundary unitary.

    kind is one of 'dirichlet', 'neumann', 'periodic', 'antiperiodic',
    'eta', 'other'; eta is set whenever the matrix belongs to the
    one-parameter family (periodic/antiperiodic carry eta = +/-1).
    """

    __slots__ = ("kind", "eta")

    def __init__(self, kind: str, eta: Eta | None = None):
        self.kind, self.eta = kind, eta

    @property
    def dilation_invariant(self) -> bool:
        # the dilation-invariant set is the eta family plus pure Dirichlet/Neumann
        return self.eta is not None or self.kind in ("dirichlet", "neumann")


_NAMED = (  # matched in this order
    ("dirichlet", ((-1, 0), (0, -1)), None),
    ("neumann", ((1, 0), (0, 1)), None),
    ("periodic", ((0, 1), (1, 0)), Eta(1.0)),
    ("antiperiodic", ((0, -1), (-1, 0)), Eta(-1.0)),
)


def _matches(u, v, tol: float) -> bool:
    return all(abs(a - b) <= tol for ru, rv in zip(u, v) for a, b in zip(ru, rv))


def classify_unitary(u, tol: float = 1e-9) -> BCClass:
    """Match a boundary unitary against the named conditions and the eta family.

    U matches a matrix V when |U_ij - V_ij| <= tol for every entry: an
    absolute tolerance, with no relative part.  Anything else is labelled
    'other' (still a valid self-adjoint extension, e.g. Robin-type mixing).
    """
    u = require_unitary(u, tol=tol)
    for kind, named, eta in _NAMED:
        if _matches(u, named, tol):
            return BCClass(kind, eta)
    # family inversion: u01 / (1 - u00) recovers eta; u00 -> 1 is the infinite limit
    cand = ETA_INF if abs(1.0 - u[0][0]) < tol else Eta(u[0][1] / (1.0 - u[0][0]))
    if _matches(u, eta_to_unitary(cand), tol):
        return BCClass("eta", cand)
    return BCClass("other")


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
        db=e.conjugate() * free_derivative,
    )
