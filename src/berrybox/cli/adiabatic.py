"""`berrybox adiabatic`: slow-traversal phase sweep over T (CSV [+ SVG])."""

from __future__ import annotations

import math

from ..boundary import as_eta, require_mass
from . import UsageError, _LOOP_FLAGS, _csv, _fmt, _loop

# the widest mode window, N: each loop side diagonalizes a (2N + 1) x (2N + 1)
# matrix in pure Python, O(N^3), and the default four-T sweep takes 3.5-3.8 s at
# N = 64 (5.8 s at N = 72) on 2 cores
MAX_WINDOW = 64


def _float_list(text):
    return [float(v) for v in text.split(",")]


FLAGS = {
    "--plot": {"default": None, "help": "write an SVG convergence plot to this path"},
    "--eta": {},
    "--mass": {"type": float},
    "--n": {"type": int},
    **_LOOP_FLAGS,
    "--T-list": {"type": _float_list},
    "--window": {"type": int, "help": "mode window half-width N"},
    "--resolution": {"type": int, "help": "at least 100; kept in the resolved config, while no output depends on it"},
}


def run(cfg, args):
    eta = as_eta(cfg["eta"])
    if eta.degenerate:
        raise UsageError("adiabatic propagation requires nondegenerate eta")
    n = int(cfg["n"])
    window = int(cfg["window"])
    if window > MAX_WINDOW:
        raise UsageError(f"the mode window half-width is at most {MAX_WINDOW}, not {window}")
    mass = require_mass(cfg["mass"])
    resolution = int(cfg["resolution"])
    path = _loop(cfg, args)
    t_list = [float(t) for t in cfg["T_list"]]
    if not t_list:
        raise UsageError("T_list must not be empty")
    from ..adiabatic import Schedule, propagate

    schedules = [Schedule(path, T, resolution) for T in t_list]
    reports = [propagate(sched, n, eta, window, mass) for sched in schedules]
    rows = [
        (_fmt(T), _fmt(r.total_phase), _fmt(r.dynamical_phase), _fmt(r.geometric_phase),
         _fmt(r.fidelity), "1" if r.adiabatic_warning else "0")
        for T, r in zip(t_list, reports)
    ]
    text = _csv("T,total,dynamical,geometric,fidelity,warn", rows)
    if not args.plot:
        return text, None, None
    from .. import svgplot
    from ..closed_form import loop_phase_analytic, mode

    reference = loop_phase_analytic(mode(n, eta), path)
    # phases are defined mod 2 pi: each error is the distance on the circle
    errs = [max(abs(math.remainder(r.geometric_phase - reference, 2.0 * math.pi)), 1e-16) for r in reports]
    inv_t, errs = zip(*sorted(zip((1.0 / T for T in t_list), errs), key=lambda p: p[0]))
    series = [
        {"x": inv_t, "y": errs, "label": "|geometric - analytic|"},
        {"x": inv_t, "y": [errs[0] * x / inv_t[0] for x in inv_t], "label": "O(1/T) reference", "dashed": True},
    ]
    plot = svgplot.line_plot(series, title="adiabatic convergence", xlabel="1/T", ylabel="phase error",
                             logx=True, logy=True)
    return text, plot, None
