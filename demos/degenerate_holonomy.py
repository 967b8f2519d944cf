#!/usr/bin/env python3
"""Matrix-valued transport on the doubly degenerate levels.

Periodic (eta = +1) and antiperiodic (eta = -1) walls pair levels up, so
the loop transport becomes a 2x2 unitary.  Time reversal survives for
these two boundary conditions and forces the transport to be a plane
rotation exp(i theta sigma2): genuinely matrix-valued, yet Abelian.  The
plane-wave combinations diagonalize it once and for all, at every point of
the parameter half-plane.
"""

import math

from berrybox.paths import rectangle_loop
from berrybox.wilczek_zee import (
    connection_from_basis,
    diagonalize_in_plane_waves,
    wz_connection,
    wz_curvature,
    wz_holonomy,
)


def fmt_matrix(mat):
    rows = []
    for row in mat:
        rows.append("  [" + "  ".join(f"{z.real:+8.4f}{z.imag:+8.4f}i" for z in map(complex, row)) + "]")
    return "\n".join(rows)


def main():
    l = 1.0
    conn = wz_connection(1, 1, l)
    print("eta = +1, n = 1 (levels n and -n coalesce)")
    print("dc coefficient of the connection (closed form, k/l * sigma2):")
    print(fmt_matrix(conn.coeff_c))
    numeric = connection_from_basis(1, 1)  # l A at the unit box
    drift = max(abs(a / l - b) for ra, rb in zip(numeric.coeff_c, conn.coeff_c) for a, b in zip(ra, rb))
    print(f"recomputation from the basis deviates by {drift:.2e}")
    print("curvature coefficient (k/l^2 * sigma2):")
    print(fmt_matrix(wz_curvature(1, 1, l)))
    print()

    rect = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    print("holonomy around l: 1 -> 2, c: 0 -> 1 (theta = 2pi * 1/2 = pi)")
    hol = wz_holonomy(1, 1, rect)
    print(fmt_matrix(hol.matrix))
    print(f"eigenphases: {hol.eigenphases[0]:+.6f}, {hol.eigenphases[1]:+.6f}"
          f"   (theta = k times the loop integral of dc/l = {2.0 * math.pi * rect.dc_over_l():+.6f})")
    print(f"largest imaginary part in the cos/sin basis: {max(abs(complex(z).imag) for row in hol.matrix for z in row):.1e}")
    print()

    quarter = rectangle_loop(1.0, 2.0, 0.0, 0.25)
    hol = wz_holonomy(1, 1, quarter)
    print("same loop with c: 0 -> 1/4 (theta = pi/4): a genuine rotation")
    print(fmt_matrix(hol.matrix))
    print()

    diag, q = diagonalize_in_plane_waves(conn)
    print("plane-wave combinations (phi_I +- i phi_II)/sqrt(2) diagonalize A_c:")
    print(fmt_matrix(diag))
    print("with the geometry-independent basis change")
    print(fmt_matrix(q))


if __name__ == "__main__":
    main()
