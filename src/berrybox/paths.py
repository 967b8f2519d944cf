"""Closed polyline loops in the (l, c) half-plane, given by their vertices.

A loop is built from its vertices, closed back to the first, evaluated at
one s at a time (`point`, `velocity`) and integrated (`dc_over_l`) on the
standard library.  A point is the pair (l, c); a side's ln(l1/l0) is `log_ratio`.
"""

from __future__ import annotations

import math

__all__ = ["ParameterPath", "rectangle_loop", "log_ratio"]


def log_ratio(l0: float, l1: float) -> float:
    """ln(l1/l0): log1p((l1 - l0)/l0), which keeps its digits as l1 -> l0, unless
    that quotient rounds to -1 (l1 < 1.1e-16 l0) or overflows: ln(l1) - ln(l0)."""
    x = (l1 - l0) / l0
    return math.log1p(x) if -1.0 < x < math.inf else math.log(l1) - math.log(l0)


class ParameterPath:
    """Closed polyline through `vertices`, traversed over the global parameter s in [0, 1].

    The loop closes itself: the first vertex is appended when the last one
    differs, so a single vertex is a point loop.  Each side takes an equal
    share of s; orientation = -1 traverses the vertices backwards.  Every
    vertex must be finite with l > 0, which keeps l > 0 along the straight
    sides between them; integrals along a side (of dc/l, of dt/l^2) have
    closed forms.  `segments` holds the sides as (start, end) vertex pairs in
    vertex order.
    """

    __slots__ = ("vertices", "orientation", "segments")

    def __init__(self, vertices, orientation: int = 1):
        verts = tuple((float(l), float(c)) for l, c in vertices)
        if not verts:
            raise ValueError("a loop needs at least one vertex")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not all(math.isfinite(v) for vertex in verts for v in vertex):
            raise ValueError("path vertices must be finite")
        if min(l for l, _ in verts) <= 0:
            raise ValueError("path leaves the l > 0 half-plane")
        if len(verts) == 1 or verts[-1] != verts[0]:
            verts += verts[:1]
        self.vertices, self.orientation = verts, orientation
        self.segments = tuple(zip(verts[:-1], verts[1:]))

    def _locate(self, s: float):
        """The side (start, end) and the position t in [0, 1] along it at s."""
        if self.orientation < 0:
            s = 1.0 - s
        sigma = min(max(s, 0.0), 1.0) * len(self.segments)
        i = min(int(sigma), len(self.segments) - 1)
        return self.segments[i], sigma - i

    def dc_over_l(self) -> float:
        """Line integral of dc/l along the path, in closed form.

        Along a straight side it is dc ln(l1/l0)/dl (dc/l0 when dl = 0).
        The sides are summed in vertex order and the orientation is applied
        to the sum.  Around a loop this one integral sets both the scalar
        Berry phase and the degenerate holonomy angle.
        """
        total = 0.0
        for (l0, c0), (l1, c1) in self.segments:
            dl, dc = l1 - l0, c1 - c0
            total += dc / l0 if dl == 0 else dc * log_ratio(l0, l1) / dl
        return self.orientation * total

    def point(self, s: float) -> tuple[float, float]:
        """The box (l, c) at the parameter s."""
        ((l0, c0), (l1, c1)), t = self._locate(s)
        return l0 + (l1 - l0) * t, c0 + (c1 - c0) * t

    def velocity(self, s: float) -> tuple[float, float]:
        """d(l, c)/ds at s, including the side-count and orientation factors."""
        ((l0, c0), (l1, c1)), _ = self._locate(s)
        factor = len(self.segments) * self.orientation
        return factor * (l1 - l0), factor * (c1 - c0)


def rectangle_loop(l1: float, l2: float, c1: float, c2: float, orientation: int = 1) -> ParameterPath:
    """Axis-aligned rectangle (l1, c1) -> (l2, c1) -> (l2, c2) -> (l1, c2) -> close.

    orientation = +1 is counterclockwise in the (l, c) plane with l drawn
    horizontally; -1 reverses the traversal.  The closing vertex is given, so
    that a zero-area rectangle keeps its four sides.
    """
    return ParameterPath([(l1, c1), (l2, c1), (l2, c2), (l1, c2), (l1, c1)], orientation)
