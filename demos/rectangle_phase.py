#!/usr/bin/env python3
"""The rectangle loop phase, four independent ways.

A box of length l centered at c carries the boundary condition eta = i.
Dragging (l, c) counterclockwise around the rectangle [1, 2] x [0, 1] and
bringing the ground state back should imprint the geometric phase

    Phi = k (1/l1 - 1/l2)(c2 - c1) sin(alpha) = pi/4.

The closed form, the interior-derivative prescription, the mollified
embedding, and the derivative-free overlap product must all agree on this
number; their convergence behavior is tabulated below and optionally drawn
into an SVG.
"""

import sys

from berrybox.berry import (connection_interior, connection_mollified, loop_phase_overlap_meshes, overlap_order,
                            refine)
from berrybox.closed_form import loop_phase_analytic, mode
from berrybox.paths import rectangle_loop
from berrybox.svgplot import line_plot


def main(svg_path=None):
    eta = 2j   # cos(alpha) != 0, so no prescription is trivially exact
    m = mode(0, eta)
    rect = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    exact = loop_phase_analytic(m, rect)
    print(f"eta = {eta}, level n = 0, rectangle l: 1 -> 2, c: 0 -> 1")
    print(f"closed-form loop phase: {exact:.12f}")
    print()
    # each prescription gives the connection F/l; around the loop its phase is
    # -F_c times the loop integral of dc/l
    dc_over_l = rect.dc_over_l()

    print("interior prescription (finite differences inside the box)")
    steps = [1e-3, 5e-4, 2.5e-4]
    # connection_interior takes the step relative to l / (1 + |k|)
    phases = [-connection_interior(m, h * (1.0 + abs(m.k)))[1] * dc_over_l for h in steps]
    # second order in the step
    for h, phase, estimate in zip(steps, phases, refine(steps, phases, 2)[2]):
        print(f"  h/l = {h:.1e}   phase = {phase:.12f}   error = {abs(phase - exact):.2e}   err_est = {estimate:.2e}")

    print("mollified embedding (smoothed box edge of width eps * l)")
    eps_list = [0.2, 0.1, 0.05, 0.025]
    phases = [-connection_mollified(m, eps)[1] * dc_over_l for eps in eps_list]
    for eps, phase in zip(eps_list, phases):
        print(f"  eps/l = {eps:<6} phase = {phase:.12f}   error = {abs(phase - exact):.2e}")
    # refine bounds each sample's error (err_est) or reports inf; the order it
    # fits is nan where the samples agree to rounding, as they do here
    limit, order, errs, _ = refine(eps_list, phases, 1)
    print(f"  extrapolated: {limit:.12f}   err_est = {errs[-1]:.2e}   (fitted order {order:.1f})")

    print("overlap product (no derivatives at all)")
    meshes = [32, 64, 128, 256, 512]
    phases = loop_phase_overlap_meshes(m, rect, meshes)
    # the sides are axis-aligned, so the chain is second order in 1/mesh
    _, order, estimates, _ = refine([1.0 / n for n in meshes], phases, overlap_order(rect))
    errs = [abs(phase - exact) for phase in phases]
    for mesh, phase, err, estimate in zip(meshes, phases, errs, estimates):
        print(f"  mesh = {mesh:<5} phase = {phase:.12f}   error = {err:.2e}   err_est = {estimate:.2e}")
    print(f"  fitted order {order:.2f}")

    if svg_path:
        line_plot(
            [
                {"x": meshes, "y": [max(e, 1e-16) for e in errs], "label": "overlap |error|"},
                {"x": meshes, "y": [errs[0] * meshes[0] ** 2 / mm ** 2 for mm in meshes],
                 "label": "second-order reference", "dashed": True},
            ],
            title="overlap loop-phase convergence",
            xlabel="mesh (links around the loop)",
            ylabel="|phase - closed form|",
            path=svg_path,
            logx=True,
            logy=True,
        )
        print(f"wrote {svg_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
