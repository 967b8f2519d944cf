"""The numpy panel rules the tests compare against."""

import numpy as np
import pytest

from array_rules import panel_rule, reference_rule


def test_reference_rule_is_read_only_and_shared():
    x, w = reference_rule(16)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert reference_rule(16)[0] is x


def test_panel_rule_matches_direct_leggauss():
    # the rule of each panel is numpy's rule mapped affinely
    xg, wg = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(-0.3, 1.7, 6)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes, weights = panel_rule(-0.3, 1.7, 5, order=12)
    assert np.array_equal(nodes, (mid[:, None] + half[:, None] * xg[None, :]).ravel())
    assert np.array_equal(weights, (half[:, None] * wg[None, :]).ravel())
    assert nodes.flags.writeable
