"""Composite Gauss-Legendre rules on the standard library.

The Gauss-Legendre rule on [-1, 1] is built once per order
(`gauss_legendre`) and mapped affinely onto every panel as (node, weight)
pairs of floats (`panel_nodes`).
"""

from __future__ import annotations

import functools
import math

__all__ = ["gauss_legendre", "panel_nodes"]

# the Gauss-Legendre order of every panel
ORDER = 16


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


def panel_nodes(a: float, b: float, panels: int):
    """Composite Gauss-Legendre rule of order `ORDER` on [a, b], a < b, split
    into equal panels, as a list of (node, weight) pairs with increasing
    nodes."""
    xg, wg = gauss_legendre(ORDER)
    step = (b - a) / panels
    edges = [a + i * step for i in range(panels)] + [b]
    return [(0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w)
            for lo, hi in zip(edges, edges[1:]) for x, w in zip(xg, wg)]
