"""Self-adjoint boundary conditions for the kinetic operator on an interval.

The Hamiltonian -psi''/(2m) on a box [a, b] is symmetric but not
self-adjoint on smooth functions vanishing near the walls; each self-adjoint
extension is labelled by a 2x2 unitary acting on endpoint data via the
Cayley-type condition

    (I - U) (psi(a), psi(b))^T = i (I + U) (-psi'(a), psi'(b))^T.

This module implements that parametrization, the dilation-invariant
one-complex-parameter subfamily

    psi(a) = eta psi(b),   conj(eta) psi'(a) = psi'(b),

and its classification.  The boundary-form bookkeeping that verifies it
(endpoint traces, sesquilinear defect of self-adjointness) is in
`boundary_triple`, which no command loads.  All operations are pure
functions on small immutable values: complex numbers and 2x2 matrices as
tuples of two rows, so the module needs no numpy.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "Eta",
    "ETA_INF",
    "as_eta",
    "BCClass",
    "eta_to_unitary",
    "classify_unitary",
    "require_unitary",
    "require_mass",
]

# the absolute entrywise tolerance of the unitarity check and of matching a
# boundary unitary against a named condition or an eta-family member
TOL = 1e-9


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
            # abs(eta) must be finite too: it raises OverflowError beyond the float range
            if not (cmath.isfinite(value) and math.hypot(value.real, value.imag) < math.inf):
                raise ValueError("finite eta must have finite real and imaginary parts and modulus")
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
        raise ValueError(f"cannot parse eta {eta!r}: use 'a+bi' with a finite modulus, or 'inf'") from exc


def require_unitary(u) -> tuple:
    """Validate a 2x2 unitary (nested sequences or an array) with finite
    entries, to within `TOL` entrywise in U^H U - I; return it as a tuple of
    two rows of complex numbers."""
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
    if not defect <= TOL:
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
    if abs(e) > 1e150:
        # |eta|^2 would overflow: the member of 1/conj(eta) has the same
        # off-diagonal and the opposite diagonal
        (a, b), (c, d) = eta_to_unitary(1.0 / e.conjugate())
        return ((-a, b), (c, -d))
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


def _matches(u, v) -> bool:
    return all(abs(a - b) <= TOL for ru, rv in zip(u, v) for a, b in zip(ru, rv))


def classify_unitary(u) -> BCClass:
    """Match a boundary unitary against the named conditions and the eta family.

    U matches a matrix V when |U_ij - V_ij| <= TOL for every entry: an
    absolute tolerance, with no relative part.  Anything else is labelled
    'other' (still a valid self-adjoint extension, e.g. Robin-type mixing).
    """
    u = require_unitary(u)
    for kind, named, eta in _NAMED:
        if _matches(u, named):
            return BCClass(kind, eta)
    # family inversion: u01 / (1 - u00) recovers eta; u00 -> 1 is the infinite limit
    cand = ETA_INF if abs(1.0 - u[0][0]) < TOL else Eta(u[0][1] / (1.0 - u[0][0]))
    if _matches(u, eta_to_unitary(cand)):
        return BCClass("eta", cand)
    return BCClass("other")
