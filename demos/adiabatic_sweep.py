#!/usr/bin/env python3
"""Watching the geometric phase emerge from slow wall motion.

Nothing here knows about connections or curvature: the moving-frame
Schrodinger equation is integrated around the rectangle loop, the
dynamical phase is subtracted, and the remainder is compared against the
closed-form pi/4.  The residual falls off like 1/T as the traversal slows
down, which is the adiabatic theorem doing its job.
"""

import sys

from berrybox.adiabatic import Schedule, propagate
from berrybox.closed_form import loop_phase_analytic, mode
from berrybox.paths import rectangle_loop
from berrybox.svgplot import line_plot


def main(svg_path=None):
    eta = 1j
    rect = rectangle_loop(1.0, 2.0, 0.0, 1.0)
    target = loop_phase_analytic(mode(0, eta), rect)
    print(f"closed-form loop phase: {target:.9f}")
    print()
    print(f"{'T':>7} {'total':>12} {'dynamical':>14} {'geometric':>12} "
          f"{'error':>10} {'fidelity':>10}")
    t_list = [25.0, 50.0, 100.0, 200.0]
    errs = []
    for T in t_list:
        rep = propagate(Schedule(rect, T, int(100 * T)), start_mode=0, eta=eta, window=12)
        err = abs(rep.geometric_phase - target)
        errs.append(err)
        print(f"{T:7.0f} {rep.total_phase:12.6f} {rep.dynamical_phase:14.4f} "
              f"{rep.geometric_phase:12.6f} {err:10.2e} {rep.fidelity:10.6f}")
    ratios = ", ".join(f"{b/a:.3f}" for a, b in zip(errs[:-1], errs[1:]))
    print(f"\nerror ratios per T-doubling: {ratios}  (1/T law gives 0.5)")

    if svg_path:
        inv_t = [1.0 / T for T in t_list][::-1]
        line_plot(
            [
                {"x": inv_t, "y": errs[::-1], "label": "|geometric - closed form|"},
                {"x": inv_t, "y": [errs[-1] * it / inv_t[0] for it in inv_t],
                 "label": "O(1/T) reference", "dashed": True},
            ],
            title="adiabatic extraction of the loop phase",
            xlabel="1/T",
            ylabel="phase error",
            path=svg_path,
            logx=True,
            logy=True,
        )
        print(f"wrote {svg_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
