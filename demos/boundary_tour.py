#!/usr/bin/env python3
"""Tour of the self-adjoint boundary conditions of a particle in a box.

Every 2x2 unitary U labels one way to make the kinetic operator
self-adjoint on the interval; a one-complex-parameter slice of them (the
dilation-invariant family) is what survives when the walls are allowed to
move.  This script prints the named members, recovers eta from the matrix,
checks that a dilation of the box keeps compliant data compliant (so the
moving walls keep the motion unitary), and spot-checks the boundary-triple
identity that underpins the whole classification.  It runs on the standard library: each matrix is a tuple of
rows.
"""

import cmath
import random

from berrybox.boundary import ETA_INF, classify_unitary, eta_to_unitary
from berrybox.boundary_triple import (
    BoundaryData,
    bc_residual,
    compliant_data,
    dilation_transport,
    triple_identity_defect,
)


def show(label, u):
    info = classify_unitary(u)
    eta = "-" if info.eta is None else str(info.eta)
    print(f"{label:<22} kind={info.kind:<13} eta={eta:<22} "
          f"dilation-invariant={info.dilation_invariant}")


def main():
    print("named boundary conditions")
    print("-" * 72)
    show("U = -I", ((-1, 0), (0, -1)))
    show("U = +I", ((1, 0), (0, 1)))
    show("U = sigma1", ((0, 1), (1, 0)))
    show("U = -sigma1", ((0, -1), (-1, 0)))
    show("U(eta = i)", eta_to_unitary(1j))
    show("U(eta = 0)", eta_to_unitary(0.0))
    show("U(eta = inf)", eta_to_unitary(ETA_INF))
    show("Robin-type mix", ((cmath.exp(0.6j), 0), (0, 1)))

    print()
    print("eta-family membership: data built from the two free endpoint values")
    print("-" * 72)
    for eta in (1j, 0.5 - 0.25j, ETA_INF):
        d = compliant_data(eta, 0.8 - 0.3j, 1.1 + 0.7j)
        r = bc_residual(eta_to_unitary(eta), d)
        print(f"eta={str(eta):<12} residual of compliant data: {r:.2e}")
    # the family is dilation invariant: data moved to the box s [a, b] + 0.3 still comply
    # (endpoint data do not depend on the shift)
    worst = 0.0
    for eta in (1j, 0.5 - 0.25j, ETA_INF):
        for s in (0.5, 2.0, 7.0):
            moved = dilation_transport(compliant_data(eta, 0.8 - 0.3j, 1.1 + 0.7j), s)
            worst = max(worst, bc_residual(eta_to_unitary(eta), moved))
    print(f"largest residual after dilations x -> s x + 0.3, s = 0.5, 2, 7: {worst:.2e}")

    print()
    print("boundary-triple identity <in|in> - <out|out> = 2i Gamma (2m = 1)")
    print("-" * 72)
    rng = random.Random(1)

    def draw():
        return BoundaryData(*(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)))

    worst = 0.0
    for _ in range(200):
        psi, phi = draw(), draw()
        worst = max(worst, triple_identity_defect(psi, phi))
    print(f"worst defect over 200 random data pairs: {worst:.2e}")


if __name__ == "__main__":
    main()
