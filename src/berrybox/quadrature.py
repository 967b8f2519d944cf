"""Composite Gauss-Legendre rules and sampled functions on quadrature grids.

The Gauss-Legendre rule on [-1, 1] is built once per order on the standard
library (`gauss_legendre`) and mapped affinely onto every panel, as floats
(`panel_nodes`) or as arrays; numpy is imported only inside the array
functions, and their cached rule is read-only, so no caller can corrupt the
rule another caller gets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = ["gauss_legendre", "reference_rule", "panel_nodes", "panel_rule", "oscillatory_rule", "GridFunction"]

DEFAULT_ORDER = 16


def _legendre(order: int, x: float):
    """P_order(x) and P_order'(x) by the three-term recurrence."""
    p, prev = x, 1.0
    for j in range(1, order):
        p, prev = ((2 * j + 1) * x * p - j * prev) / (j + 1), p
    return p, order * (x * p - prev) / ((x - 1.0) * (x + 1.0))


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Gauss-Legendre (nodes, weights) on [-1, 1] as tuples of floats, nodes
    increasing, built once per order.

    Each positive root is Newton's method on the Legendre recurrence from
    cos(pi (i + 3/4)/(order + 1/2)), run one step past a 1e-10 correction
    (convergence is quadratic), and its weight is 2/((1 - x^2) P'(x)^2); the
    rule is mirrored about 0, with the node 0 for an odd order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    half = []
    for i in range(order // 2):
        x, dx = math.cos(math.pi * (i + 0.75) / (order + 0.5)), 1.0
        for _ in range(100):
            p, dp = _legendre(order, x)
            x -= p / dp
            if abs(dx) <= 1e-10:
                break
            dx = p / dp
        dp = _legendre(order, x)[1]
        half.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    middle = [(0.0, 2.0 / _legendre(order, 0.0)[1] ** 2)] if order % 2 else []
    rule = [(-x, w) for x, w in half] + middle + [(x, w) for x, w in reversed(half)]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


@functools.lru_cache(maxsize=None)
def reference_rule(order: int):
    """`gauss_legendre` as read-only numpy arrays, shared between callers."""
    import numpy as np

    nodes, weights = (np.array(v) for v in gauss_legendre(order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_nodes(a: float, b: float, panels: int, order: int = DEFAULT_ORDER):
    """`panel_rule` for scalar a < b, as a list of (node, weight) pairs."""
    xg, wg = gauss_legendre(order)
    step = (b - a) / panels
    edges = [a + i * step for i in range(panels)] + [b]
    return [(0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w)
            for lo, hi in zip(edges, edges[1:]) for x, w in zip(xg, wg)]


def panel_rule(a: float, b: float, panels: int, order: int = DEFAULT_ORDER):
    """Composite Gauss-Legendre rule on [a, b] split into equal panels, as
    arrays (nodes, weights); nodes are strictly increasing."""
    import numpy as np

    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    xg, wg = reference_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


def oscillatory_rule(a: float, b: float, wavenumber: float, order: int = DEFAULT_ORDER):
    """Panel rule sized for trigonometric integrands exp(i*wavenumber*x).

    At least four panels per wavelength (64+ nodes per wavelength at the
    default order), which is well past the accuracy knee of Gauss-Legendre
    for oscillatory integrands.
    """
    cycles = abs(wavenumber) * (b - a) / (2.0 * math.pi)
    return panel_rule(a, b, max(2, math.ceil(4.0 * cycles) + 2), order=order)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a fixed quadrature grid.

    Invariants: at least two strictly increasing nodes, positive weights,
    matching array lengths.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        import numpy as np

        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes.shape != values.shape or nodes.shape != weights.shape:
            raise ValueError("nodes, values and weights must have equal shapes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def inner(self, other: "GridFunction") -> complex:
        """L2 inner product <self|other>, conjugate-linear in self."""
        import numpy as np

        if not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions live on different grids")
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))

    def norm(self) -> float:
        import numpy as np

        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))
