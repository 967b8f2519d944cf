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
a generic transcendental eigensolver for arbitrary U(2) boundary conditions,
used throughout the tests as an independent cross-check of the closed forms.
That solver's root scan is the only code in the package that uses scipy
(`scipy.optimize.minimize_scalar`); it imports it on first use, so importing
the package loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryData, Eta, as_eta, require_unitary
from .quadrature import GridFunction, oscillatory_rule, panel_rule

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
    "eigenlevel",
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
        if not self.l > 0:
            raise ValueError("box length must be positive")
        object.__setattr__(self, "l", float(self.l))
        object.__setattr__(self, "c", float(self.c))

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
    x = np.asarray(x, dtype=float)
    u = (x - g.c) / g.l
    inv_sqrt = 1.0 / np.sqrt(g.l)
    val = eigenfunction_fixed(m, u)
    der = eigenfunction_fixed_dx(m, u)
    d_dc = -inv_sqrt * der / g.l
    d_dl = -0.5 * inv_sqrt * val / g.l - inv_sqrt * der * u / g.l
    return d_dl, d_dc


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
    if not mass > 0:
        raise ValueError("mass must be positive")
    return m.k ** 2 / (2.0 * mass * g.l ** 2)


@dataclass(frozen=True)
class EigenLevel:
    """An eigenvalue with its provenance and, optionally, a sampled eigenfunction."""

    lam: float
    geometry: Geometry
    mass: float
    mode: Mode | None = None
    eigenfunction: GridFunction | None = None
    multiplicity: int = 1


def eigenlevel(m: Mode, g: Geometry, mass: float = 1.0) -> EigenLevel:
    return EigenLevel(lam=eigenvalue(m, g, mass), geometry=g, mass=mass, mode=m)


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
# generic transcendental eigensolver for arbitrary U(2) boundary conditions


def _residual_matrix(u, vals, ders):
    """Columns: boundary-condition residual of each basis solution.

    vals[j] = (psi_j(a), psi_j(b)), ders[j] = (-psi_j'(a), psi_j'(b)).
    """
    eye = np.eye(2)
    cols = [(eye - u) @ v - 1j * (eye + u) @ d for v, d in zip(vals, ders)]
    return np.column_stack(cols)


def _oscillatory_data(k):
    e = np.exp(1j * k / 2.0)
    vals = [np.array([1 / e, e]), np.array([e, 1 / e])]
    ders = [
        np.array([-1j * k / e, 1j * k * e]),
        np.array([1j * k * e, -1j * k / e]),
    ]
    return vals, ders


def _hyperbolic_data(kappa):
    ch, sh = np.cosh(kappa / 2.0), np.sinh(kappa / 2.0)
    vals = [np.array([ch, ch]), np.array([-sh, sh])]
    ders = [
        np.array([kappa * sh, kappa * sh]),
        np.array([-kappa * ch, kappa * ch]),
    ]
    return vals, ders


def _zero_energy_data():
    vals = [np.array([1.0, 1.0]), np.array([-0.5, 0.5])]
    ders = [np.array([0.0, 0.0]), np.array([-1.0, 1.0])]
    return [v.astype(complex) for v in vals], [d.astype(complex) for d in ders]


def _singular_values(u, data_of, t):
    vals, ders = data_of(t)
    m = _residual_matrix(u, vals, ders)
    scale = max(np.linalg.norm(np.concatenate(vals + ders)), 1e-30)
    return np.linalg.svd(m, compute_uv=False) / scale


def _polish_vertex(fun, t0, delta):
    """One parabola-vertex step on the squared singular value.

    Near a root (simple or double) the squared smallest singular value is a
    parabola c^2 (t - t0)^2, so the vertex of the sampled parabola recovers
    the root to roughly the arithmetic noise floor.
    """
    f0, fp, fm = fun(t0), fun(t0 + delta), fun(t0 - delta)
    curv = fp - 2.0 * f0 + fm
    if curv <= 0:
        return t0
    return t0 - 0.5 * delta * (fp - fm) / curv


def _root_in_window(u, data_of, fun, lo, hi, root_tol, mult_tol):
    # imported here so that `import berrybox` never loads scipy
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    t0 = float(res.x)
    if _singular_values(u, data_of, t0)[-1] > 1e-4:
        return None  # shallow dip, not a root
    for delta in (1e-5, 1e-8):
        t0 = _polish_vertex(fun, t0, delta)
    sv = _singular_values(u, data_of, t0)
    if sv[-1] >= root_tol:
        return None
    return t0, (2 if sv[0] < mult_tol else 1)


def _scan_branch(u, data_of, grid, root_tol, mult_tol):
    """Locate zeros of the smallest scaled singular value along a grid.

    Local minima of the scan are bracketed by their grid neighbors, refined
    with bounded Brent minimization of the squared singular value, and then
    polished with two parabola-vertex steps (Brent alone stalls around
    |dt| ~ 1e-8, which is not enough for 1e-9-relative eigenvalues).  Each
    bracket is rescanned once with the accepted root masked out, so a pair
    of nearby simple roots in one bracket (deep double-well bound states)
    is still resolved.  Returns (t_root, multiplicity) pairs.
    """
    s = np.array([_singular_values(u, data_of, t)[-1] for t in grid])
    fun = lambda t: _singular_values(u, data_of, t)[-1] ** 2
    roots = []

    def accept(candidate):
        if candidate is None:
            return None
        t0, mult = candidate
        if any(abs(t0 - r) < 1e-7 for r, _ in roots):
            return None
        roots.append((t0, mult))
        return t0

    for i in range(len(grid)):
        left = s[i - 1] if i > 0 else np.inf
        right = s[i + 1] if i + 1 < len(grid) else np.inf
        if not (s[i] <= left and s[i] <= right):
            continue
        lo = grid[i - 1] if i > 0 else grid[0]
        hi = grid[i + 1] if i + 1 < len(grid) else grid[-1]
        if hi <= lo:
            continue
        t0 = accept(_root_in_window(u, data_of, fun, lo, hi, root_tol, mult_tol))
        if t0 is None:
            continue
        # companion sweep: a second simple root may hide in the same bracket
        fine = np.linspace(lo, hi, 81)
        guard = 2.5 * (fine[1] - fine[0])
        fine = fine[np.abs(fine - t0) > guard]
        if fine.size < 3:
            continue
        vals = np.array([_singular_values(u, data_of, t)[-1] for t in fine])
        for j in np.argsort(vals)[:2]:
            if vals[j] > 2e-2:
                break
            w_lo = fine[j - 1] if j > 0 else lo
            w_hi = fine[j + 1] if j + 1 < fine.size else hi
            if accept(_root_in_window(u, data_of, fun, w_lo, w_hi, root_tol, mult_tol)) is not None:
                break
    return roots


def _eigenfunction_grid(u, data_of, t, basis_fns, wavenumber_hint):
    """Orthonormal eigenfunctions from the null space of the residual matrix."""
    vals, ders = data_of(t)
    m = _residual_matrix(u, vals, ders)
    scale = max(np.linalg.norm(np.concatenate(vals + ders)), 1e-30)
    _, sv, vh = np.linalg.svd(m / scale)
    nodes, weights = oscillatory_rule(-0.5, 0.5, wavenumber_hint)
    functions = []
    kept = []
    for idx in (1, 0):
        if sv[idx] > 1e-6:
            continue
        coeff = vh[idx].conj()
        f = coeff[0] * basis_fns[0](nodes) + coeff[1] * basis_fns[1](nodes)
        # project out previously accepted vectors, then normalize
        for gdone in kept:
            f = f - np.sum(weights * np.conj(gdone) * f) * gdone
        nrm = np.sqrt(np.sum(weights * np.abs(f) ** 2))
        if nrm < 1e-8:
            continue
        f = f / nrm
        # deterministic phase: largest sample real positive
        j = int(np.argmax(np.abs(f)))
        f = f * (np.abs(f[j]) / f[j])
        kept.append(f)
        functions.append(GridFunction(nodes=nodes, values=f, weights=weights))
    return functions


def generic_spectrum(u, count: int, mass: float = 1.0, geometry: Geometry | None = None):
    """Lowest eigenvalues of the box for an arbitrary U(2) boundary condition.

    The general solution A e^{ikx} + B e^{-ikx} (or the hyperbolic branch
    A cosh + B sinh for negative energies, and A + Bx at zero energy) is
    inserted into the boundary condition; eigenvalues are zeros of the
    resulting 2x2 determinant condition, located by scanning k in steps of
    pi/4 plus a dedicated negative-energy sweep.  Bound states below the
    box continuum exist for some unitaries and would be missed without the
    hyperbolic scan.

    Parameters
    ----------
    u : 2x2 unitary boundary condition.
    count : number of eigenvalues requested (levels repeat by multiplicity).
    mass, geometry : physical scale; lambda = k^2 / (2 m l^2).

    Returns
    -------
    list of EigenLevel, ordered by ascending eigenvalue, each carrying a
    normalized eigenfunction sampled on a quadrature grid of the reference
    interval.

    Raises
    ------
    RootSearchError if the scan cannot bracket `count` eigenvalues.
    """
    u = require_unitary(u)
    if count < 1:
        raise ValueError("count must be >= 1")
    if geometry is None:
        geometry = Geometry(1.0, 0.0)
    if not mass > 0:
        raise ValueError("mass must be positive")
    energy_scale = 1.0 / (2.0 * mass * geometry.l ** 2)
    root_tol, mult_tol = 1e-8, 1e-6

    found = []  # (lam, eigenfunctions, multiplicity)

    # negative-energy branch: fine near zero, then coarse out to deep binding
    hyp_grid = np.concatenate([np.geomspace(1e-3, 0.5, 12), np.arange(0.5, 60.0, 0.25)])
    for kappa, mult in _scan_branch(u, lambda t: _hyperbolic_data(t), hyp_grid, root_tol, mult_tol):
        fns = _eigenfunction_grid(
            u,
            _hyperbolic_data,
            kappa,
            (lambda x, q=kappa: np.cosh(q * x) + 0j, lambda x, q=kappa: np.sinh(q * x) + 0j),
            wavenumber_hint=2.0 * np.pi,
        )
        found.append((-(kappa ** 2) * energy_scale, fns, mult))

    # zero-energy candidate (constant/linear solutions)
    sv0 = _singular_values(u, lambda _t: _zero_energy_data(), 0.0)
    if sv0[-1] < root_tol:
        fns = _eigenfunction_grid(
            u,
            lambda _t: _zero_energy_data(),
            0.0,
            (lambda x: np.ones_like(x) + 0j, lambda x: x + 0j),
            wavenumber_hint=2.0 * np.pi,
        )
        found.append((0.0, fns, 2 if sv0[0] < mult_tol else 1))

    # oscillatory branch, extending the window until enough levels are found
    k_max = (count + 3) * np.pi
    for _attempt in range(4):
        osc_grid = np.concatenate(
            [np.geomspace(1e-3, np.pi / 4.0, 10)[:-1], np.arange(np.pi / 4.0, k_max, np.pi / 4.0)]
        )
        osc = []
        for k0, mult in _scan_branch(u, lambda t: _oscillatory_data(t), osc_grid, root_tol, mult_tol):
            if k0 < 1e-4:
                continue  # zero-energy candidate handles the k -> 0 limit
            fns = _eigenfunction_grid(
                u,
                _oscillatory_data,
                k0,
                (lambda x, q=k0: np.exp(1j * q * x), lambda x, q=k0: np.exp(-1j * q * x)),
                wavenumber_hint=2.0 * k0,
            )
            osc.append((k0 ** 2 * energy_scale, fns, mult))
        total = sum(m for _, _, m in found) + sum(m for _, _, m in osc)
        if total >= count:
            found.extend(osc)
            break
        k_max *= 2.0
    else:
        raise RootSearchError(
            f"found only {total} eigenvalues scanning k in (0, {k_max:.1f}] "
            f"with step pi/4 plus the hyperbolic branch; requested {count}"
        )

    levels = []
    for lam, fns, mult in sorted(found, key=lambda item: item[0]):
        if mult == 2 and len(fns) == 1:
            fns = fns * 2  # root polish resolved only one null vector; reuse it
        for j in range(mult):
            fn = fns[j] if j < len(fns) else (fns[0] if fns else None)
            levels.append(
                EigenLevel(
                    lam=lam,
                    geometry=geometry,
                    mass=mass,
                    eigenfunction=fn,
                    multiplicity=mult,
                )
            )
    if len(levels) < count:
        raise RootSearchError(
            f"requested {count} levels but resolved only {len(levels)}"
        )
    return levels[:count]
