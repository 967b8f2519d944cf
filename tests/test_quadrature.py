"""Gauss-Legendre rule, its cache and the panel rules built on it."""

import math

import numpy as np
import pytest

from array_rules import panel_rule, reference_rule
from berrybox.quadrature import gauss_legendre, panel_nodes


def test_gauss_legendre_matches_leggauss():
    # the nodes agree with numpy's to 1e-15; numpy's weights miss the rule's
    # defining property, exact even moments, by up to 1.1e-14 (and its own
    # weights by up to 5e-15 at order 41 against a 40-digit reference), so
    # the weights are held to that property instead
    for order in range(1, 65):
        x, w = gauss_legendre(order)
        xn, _ = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(np.array(x) - xn)) <= 1e-15, order
        assert list(x) == sorted(x) and x == tuple(-v for v in reversed(x)), order
        for j in range(order):
            moment = math.fsum(wi * xi ** (2 * j) for xi, wi in zip(x, w))
            assert abs(moment - 2.0 / (2 * j + 1)) <= 1e-15, (order, j)
    assert gauss_legendre(16) is gauss_legendre(16)
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_reference_rule_is_read_only_and_shared():
    x, w = reference_rule(16)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert reference_rule(16)[0] is x


def test_panel_rule_matches_direct_leggauss():
    # the rule of each panel is the reference rule mapped affinely, as arrays
    # and as the float pairs of `panel_nodes`
    xg, wg = reference_rule(12)
    assert (tuple(xg), tuple(wg)) == gauss_legendre(12)
    edges = np.linspace(-0.3, 1.7, 6)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes, weights = panel_rule(-0.3, 1.7, 5, order=12)
    assert np.array_equal(nodes, (mid[:, None] + half[:, None] * xg[None, :]).ravel())
    assert np.array_equal(weights, (half[:, None] * wg[None, :]).ravel())
    assert nodes.flags.writeable
    # `panel_nodes` is the rule of order ORDER = 16
    nodes, weights = panel_rule(-0.3, 1.7, 5)
    assert panel_nodes(-0.3, 1.7, 5) == list(zip(nodes.tolist(), weights.tolist()))
