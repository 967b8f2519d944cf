"""Parameter-path plumbing: closure, traversal, orientation."""

import numpy as np
import pytest

from berrybox import ParameterPath, rectangle_loop


def test_rectangle_loop_closed_and_oriented():
    path = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    assert path.vertices == ((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 0.0))
    g0 = path.point(0.0)
    assert (g0.l, g0.c) == (1.0, 0.0)
    # quarter way around: end of the first edge
    g = path.point(0.25)
    assert (g.l, g.c) == pytest.approx((2.0, 0.0))
    # a zero-area rectangle keeps its four sides
    assert len(rectangle_loop(1.0, 2.0, 0.5, 0.5).segments) == 4


def test_orientation_reversal():
    fwd = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    rev = rectangle_loop(1.0, 2.0, 0.0, 1.0, orientation=-1)
    for s in (0.1, 0.37, 0.85):
        a, b = fwd.point(s), rev.point(1.0 - s)
        assert (a.l, a.c) == pytest.approx((b.l, b.c))


def test_velocity_matches_finite_difference():
    path = ParameterPath([(1.0, 0.0), (2.0, 0.5), (1.5, -0.2)])
    eps = 1e-7
    for s in (0.2, 0.4, 0.8):
        vl, vc = path.velocity(s)
        gp, gm = path.point(s + eps), path.point(s - eps)
        assert vl == pytest.approx((gp.l - gm.l) / (2 * eps), abs=1e-6)
        assert vc == pytest.approx((gp.c - gm.c) / (2 * eps), abs=1e-6)


def test_positive_length_enforced():
    with pytest.raises(ValueError):
        ParameterPath([(1.0, 0.0), (-1.0, 0.0)])
    with pytest.raises(ValueError):
        rectangle_loop(0.0, 2.0, 0.0, 1.0)


def test_segments_are_vertex_pairs():
    # the loop closes itself: the first vertex is appended, and the closing side with it
    path = ParameterPath([(1, 0), (2, 0), (2, 1)], orientation=-1)
    assert path.vertices == ((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 0.0))
    assert path.segments == (((1.0, 0.0), (2.0, 0.0)), ((2.0, 0.0), (2.0, 1.0)), ((2.0, 1.0), (1.0, 0.0)))
    # s runs backwards through the same vertices, the closing side first
    g = path.point(1.0 / 6.0)
    assert (g.l, g.c) == pytest.approx((1.5, 0.5), rel=0.0, abs=1e-15)
    assert path.velocity(1.0 / 6.0) == (3.0, 3.0)
    g = path.point(0.5)
    assert (g.l, g.c) == (2.0, 0.5)
    assert path.velocity(0.5) == (0.0, -3.0)
    # a given closing vertex is not repeated
    assert ParameterPath(path.vertices).vertices == path.vertices


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_vertex_rejected(bad):
    # nan slipped past the l > 0 check, since nan <= 0 is false
    with pytest.raises(ValueError, match="finite"):
        ParameterPath([(1.0, 0.0), (2.0, bad), (1.5, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        rectangle_loop(1.0, 2.0, bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ParameterPath([(bad, 0.0)])


def test_point_loop():
    # a single vertex is a loop of one side that stays put
    loop = ParameterPath([(1.0, 0.3)])
    assert loop.segments == (((1.0, 0.3), (1.0, 0.3)),)
    g = loop.point(0.5)
    assert (g.l, g.c) == (1.0, 0.3)
    assert loop.velocity(0.5) == (0.0, 0.0) and loop.dc_over_l() == 0.0
    with pytest.raises(ValueError, match="at least one vertex"):
        ParameterPath([])


@pytest.mark.parametrize("orientation", [1, -1])
def test_point_lands_on_vertices_and_clamps(orientation):
    # s = i/n is vertex i (counted from the end when reversed), to rounding;
    # s outside [0, 1] is clamped to 0 or 1, exactly; the velocity is the
    # side's displacement times the side count and the orientation
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.uniform([0.3, -2.0], [3.0, 2.0], size=(int(rng.integers(2, 7)), 2))
        path = ParameterPath(pts, orientation=orientation)
        n = len(path.segments)
        verts = path.vertices if orientation > 0 else path.vertices[::-1]
        for i in range(n + 1):
            g = path.point(i / n)
            assert (g.l, g.c) == pytest.approx(verts[i], rel=0.0, abs=2e-15)
        assert path.point(-0.5) == path.point(0.0) and path.point(1.5) == path.point(1.0)
        for s in rng.uniform(0.0, 1.0, 40).tolist():
            i = min(int((s if orientation > 0 else 1.0 - s) * n), n - 1)
            (l0, c0), (l1, c1) = path.segments[i]
            assert path.velocity(s) == (n * orientation * (l1 - l0), n * orientation * (c1 - c0))
