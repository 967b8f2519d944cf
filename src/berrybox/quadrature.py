"""Composite Gauss-Legendre rules and sampled functions on quadrature grids.

The Gauss-Legendre reference rule on [-1, 1] is built once per order
(`reference_rule`) and mapped affinely onto every panel; the cached arrays
are read-only, so no caller can corrupt the rule another caller gets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["reference_rule", "panel_rule", "oscillatory_rule", "oscillatory_blocks", "GridFunction"]

DEFAULT_ORDER = 16
_BLOCK = 128  # panels per run of `oscillatory_blocks`: 2048 nodes, 16 kB per array


@functools.lru_cache(maxsize=None)
def reference_rule(order: int):
    """Gauss-Legendre (nodes, weights) on [-1, 1], built once per order.

    The arrays are shared between callers and therefore read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_rule(a, b, panels: int, order: int = DEFAULT_ORDER):
    """Composite Gauss-Legendre rule on [a, b] split into equal panels.

    Returns (nodes, weights); nodes are strictly increasing.  `a` and `b`
    may be arrays of one shape: each pair of entries then gets its own rule,
    along a new last axis.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    xg, wg = reference_rule(order)
    edges = np.linspace(a, b, panels + 1, axis=-1)
    half = 0.5 * np.diff(edges, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    nodes = (mid[..., None] + half[..., None] * xg).reshape(*a.shape, -1)
    weights = (half[..., None] * wg).reshape(*a.shape, -1)
    return nodes, weights


def _oscillatory_panels(a: float, b: float, wavenumber: float) -> int:
    cycles = abs(wavenumber) * (b - a) / (2.0 * np.pi)
    return max(2, int(np.ceil(4.0 * cycles)) + 2)


def oscillatory_rule(a: float, b: float, wavenumber: float, order: int = DEFAULT_ORDER):
    """Panel rule sized for trigonometric integrands exp(i*wavenumber*x).

    At least four panels per wavelength (64+ nodes per wavelength at the
    default order), which is well past the accuracy knee of Gauss-Legendre
    for oscillatory integrands.
    """
    return panel_rule(a, b, _oscillatory_panels(a, b, wavenumber), order=order)


def oscillatory_blocks(a: float, b: float, wavenumber: float):
    """`oscillatory_rule`'s panels, at most 128 at a time: yields the
    (nodes, weights) of each run of panels in turn, so a sum over the rule
    holds a bounded grid however large the wavenumber.  The run edges sit
    where `np.linspace` puts the rule's panel edges."""
    panels = _oscillatory_panels(a, b, wavenumber)
    step = (b - a) / panels
    for i in range(0, panels, _BLOCK):
        j = min(i + _BLOCK, panels)
        yield panel_rule(i * step + a, b if j == panels else j * step + a, j - i)


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
        if not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions live on different grids")
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))
