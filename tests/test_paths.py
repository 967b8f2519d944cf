"""Parameter-path plumbing: closure, traversal, orientation."""

import math

import numpy as np
import pytest

from berrybox.paths import ParameterPath, log_ratio, rectangle_loop


def test_rectangle_loop_closed_and_oriented():
    path = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    assert path.vertices == ((1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 0.0))
    assert path.point(0.0) == (1.0, 0.0)
    # quarter way around: end of the first edge
    assert path.point(0.25) == pytest.approx((2.0, 0.0))
    # a zero-area rectangle keeps its four sides
    assert len(rectangle_loop(1.0, 2.0, 0.5, 0.5).segments) == 4


def test_orientation_reversal():
    fwd = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    rev = rectangle_loop(1.0, 2.0, 0.0, 1.0, orientation=-1)
    for s in (0.1, 0.37, 0.85):
        assert fwd.point(s) == pytest.approx(rev.point(1.0 - s))


def test_velocity_matches_finite_difference():
    path = ParameterPath([(1.0, 0.0), (2.0, 0.5), (1.5, -0.2)])
    eps = 1e-7
    for s in (0.2, 0.4, 0.8):
        vl, vc = path.velocity(s)
        (lp, cp), (lm, cm) = path.point(s + eps), path.point(s - eps)
        assert vl == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)
        assert vc == pytest.approx((cp - cm) / (2 * eps), abs=1e-6)


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
    assert path.point(1.0 / 6.0) == pytest.approx((1.5, 0.5), rel=0.0, abs=1e-15)
    assert path.velocity(1.0 / 6.0) == (3.0, 3.0)
    assert path.point(0.5) == (2.0, 0.5)
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
    assert loop.point(0.5) == (1.0, 0.3)
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
            assert path.point(i / n) == pytest.approx(verts[i], rel=0.0, abs=2e-15)
        assert path.point(-0.5) == path.point(0.0) and path.point(1.5) == path.point(1.0)
        for s in rng.uniform(0.0, 1.0, 40).tolist():
            i = min(int((s if orientation > 0 else 1.0 - s) * n), n - 1)
            (l0, c0), (l1, c1) = path.segments[i]
            assert path.velocity(s) == (n * orientation * (l1 - l0), n * orientation * (c1 - c0))


def test_log_ratio_keeps_log1p_and_leaves_it_only_where_it_fails():
    # log1p(dl/l0) keeps its digits as l1 -> l0, and is taken as it is
    # wherever dl/l0 is above -1 and finite
    rng = np.random.default_rng(29)
    for l0, l1 in rng.uniform(0.1, 10.0, (200, 2)).tolist() + [(1.0, 1.0 + 1e-12), (2.0, 2.0 - 1e-15)]:
        assert log_ratio(l0, l1) == math.log1p((l1 - l0) / l0)
    # l1 below about 1.1e-16 l0 rounds dl/l0 to -1, where log1p raised
    # "math domain error"; a ratio beyond the float range overflowed it to inf
    for l0, l1 in ((1.0, 1e-300), (1.0, 1e-17), (1e300, 1.0), (1e-300, 1e10), (5e-324, 1.0)):
        assert log_ratio(l0, l1) == pytest.approx(math.log(l1) - math.log(l0), rel=1e-15)


def test_dc_over_l_on_sides_beyond_the_log1p_range():
    # the side from l = 1 back to 1e-300 has dl/l0 = -1 in floats and dc = 0:
    # it adds 0, and the loop integral is 1/l2 - 1/l1 times dc
    for small in (1e-300, 1e-100, 1e-17):
        path = rectangle_loop(small, 1.0, 0.0, 1.0)
        assert path.dc_over_l() == pytest.approx(1.0 - 1.0 / small, rel=1e-15)
    # a sloped side adds dc ln(l1/l0)/dl, then (1e-300, 1) -> (1, 1) adds 0 and the closing side -1
    assert ParameterPath([(1.0, 0.0), (1e-300, 1.0), (1.0, 1.0)]).dc_over_l() == pytest.approx(
        math.log(1e-300) / (1e-300 - 1.0) - 1.0, rel=1e-15)
