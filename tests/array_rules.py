"""Numpy quadrature rules, sampled functions and the dilation-commutator
check, which the tests use as independent references for the package's
closed forms and its standard-library wall-strip rule (`berry._strip_rule`)."""

import functools
import math

import numpy as np

from berrybox.closed_form import curvature

# the Gauss-Legendre order of every panel
ORDER = 16


@functools.lru_cache(maxsize=None)
def reference_rule(order: int):
    """numpy's Gauss-Legendre rule on [-1, 1] (`leggauss`) as read-only
    arrays, shared between callers."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_rule(a: float, b: float, panels: int, order: int = ORDER):
    """Composite Gauss-Legendre rule on [a, b] split into equal panels, as
    arrays (nodes, weights); nodes are strictly increasing."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    xg, wg = reference_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


def oscillatory_rule(a: float, b: float, wavenumber: float, order: int = ORDER):
    """Panel rule sized for trigonometric integrands exp(i*wavenumber*x).

    At least four panels per wavelength (64+ nodes per wavelength at the
    default order), which is well past the accuracy knee of Gauss-Legendre
    for oscillatory integrands.
    """
    cycles = abs(wavenumber) * (b - a) / (2.0 * math.pi)
    return panel_rule(a, b, max(2, math.ceil(4.0 * cycles) + 2), order=order)


def curvature_flux(m, l1: float, l2: float, c1: float, c2: float) -> float:
    """Int f_lc dl dc over [l1, l2] x [c1, c2], l1 < l2, of `closed_form.curvature`
    by the Gauss rule of 8 panels in l; f_lc does not depend on c.  By
    Stokes it equals the counterclockwise rectangle's loop phase."""
    nodes, weights = panel_rule(l1, l2, 8)
    return sum(w * curvature(m, l) for l, w in zip(nodes.tolist(), weights.tolist())) * (c2 - c1)


class GridFunction:
    """Complex samples of a function on a fixed quadrature grid.

    Invariants: at least two strictly increasing nodes, positive weights,
    matching array lengths.
    """

    def __init__(self, nodes, values, weights):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=complex)
        weights = np.asarray(weights, dtype=float)
        if nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes.shape != values.shape or nodes.shape != weights.shape:
            raise ValueError("nodes, values and weights must have equal shapes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        self.nodes, self.values, self.weights = nodes, values, weights

    def inner(self, other: "GridFunction") -> complex:
        """L2 inner product <self|other>, conjugate-linear in self."""
        if not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions live on different grids")
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))


def commutator_defect(sample: GridFunction) -> float:
    """Grid norm of ([x o p, p] - i p) applied to a test function.

    x o p = (xp + px)/2 is the dilation generator; the identity
    [x o p, p] = i p is checked with second-order central differences, so
    the defect decays like the squared grid step.  The sample must be
    smooth and supported away from the grid edges.
    """
    x, f = sample.nodes, sample.values
    steps = np.diff(x)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-10, atol=0.0):
        raise ValueError("commutator check needs a uniform grid")
    edge = max(5, int(0.02 * x.size))
    tail = max(np.max(np.abs(f[:edge])), np.max(np.abs(f[-edge:])))
    if tail > 1e-10 * max(np.max(np.abs(f)), 1e-300):
        raise ValueError("test function support touches the grid boundary")

    def ddx(arr):
        return (arr[2:] - arr[:-2]) / (2.0 * h)

    def momentum(arr):
        return -1j * ddx(arr)

    def dilation(arr, nodes):
        return -1j * (nodes[1:-1] * ddx(arr) + 0.5 * arr[1:-1])

    pf = momentum(f)                      # on x[1:-1]
    xpf = dilation(f, x)                  # on x[1:-1]
    lhs = dilation(pf, x[1:-1]) - momentum(xpf)   # on x[2:-2]
    rhs = 1j * pf[1:-1]
    return float(np.sqrt(h * np.sum(np.abs(lhs - rhs) ** 2)))
