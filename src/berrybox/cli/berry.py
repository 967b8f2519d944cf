"""`berrybox berry`: loop phases by one or more prescriptions (CSV [+ SVG])."""

from __future__ import annotations

import math

from ..boundary import as_eta
from . import UsageError, _LOOP_FLAGS, _csv, _fmt, _linspace, _loop, _round9

_BERRY_METHODS = ("analytic", "interior", "mollified", "overlap")


FLAGS = {
    "--plot": {"default": None, "help": "write an SVG convergence plot to this path"},
    "--tol": {"type": float, "default": None, "help": "cross-method disagreement tolerance (exit 3 beyond it)"},
    "--eta": {},
    "--n": {"type": int},
    **_LOOP_FLAGS,
    "--method": {"exclusive": True, "help": "comma list of analytic,interior,mollified,overlap or 'all'"},
    "--curvature-map": {"exclusive": True, "dest": "method", "action": "store_const", "const": "curvature-map",
                        "help": "sample f_lc over the loop bounding box"},
    "--mesh": {"type": int},
}


# each prescription's regulator samples, which `refine` takes to 0: the interior
# steps relative to l/(1 + |k|), the library's default scale, and the mollifier
# widths relative to l, three or more at one ratio so that the order is fitted
_INTERIOR_STEPS = (1e-4, 5e-5)
_MOLLIFIER_WIDTHS = (0.2, 0.1, 0.05, 0.025)


def _berry_phase_rows(m, path, methods, cfg):
    """Per-method convergence rows, each method's final phase, the analytic
    phase, and the (x, unrounded phases) of the overlap and mollified rows,
    x being the mesh or 1/eps, which --plot draws.  Every err_est of a
    refining method is `refine`'s, at the order the method converges at."""
    # the closed form and every oracle run on the standard library
    from ..closed_form import loop_phase_analytic

    rows, finals, curves = [], {}, {}
    analytic = loop_phase_analytic(m, path)
    # an oracle's phase is -F_c, of its connection F at the unit box, times the loop integral of dc/l
    dc_over_l = path.dc_over_l()
    if "analytic" in methods:
        rows.append(("analytic", "", "", "", _fmt(analytic), ""))
        finals["analytic"] = analytic
    if "interior" in methods:
        from ..berry import connection_interior, refine

        phases = [-connection_interior(m, h)[1] * dc_over_l for h in _INTERIOR_STEPS]
        errs = refine(_INTERIOR_STEPS, phases, 2)[2]
        rows.extend(("interior", "", "", _fmt(h), _fmt(p), _fmt(e)) for h, p, e in zip(_INTERIOR_STEPS, phases, errs))
        finals["interior"] = phases[-1]
    if "mollified" in methods:
        from ..berry import connection_mollified, refine

        phases = [-connection_mollified(m, eps)[1] * dc_over_l for eps in _MOLLIFIER_WIDTHS]
        limit, _, errs, _ = refine(_MOLLIFIER_WIDTHS, phases, 1)
        rows.extend(("mollified", "", _fmt(eps), "", _fmt(p), _fmt(e))
                    for eps, p, e in zip(_MOLLIFIER_WIDTHS, phases, errs))
        rows.append(("mollified", "", _fmt(0.0), "", _fmt(limit), _fmt(errs[-1])))
        finals["mollified"] = limit
        curves["mollified"] = ([1.0 / e for e in _MOLLIFIER_WIDTHS], phases)
    if "overlap" in methods:
        from ..berry import loop_phase_overlap_meshes, overlap_order, refine

        mesh = int(cfg["mesh"])
        # a floor of 16 keeps the coarsest chain away from degenerate
        # samplings where neighboring boxes stop overlapping
        meshes = sorted({max(mesh // 4, 16), max(mesh // 2, 16), max(mesh, 16)})
        phases = loop_phase_overlap_meshes(m, path, meshes)
        errs = refine([1.0 / n for n in meshes], phases, overlap_order(path))[2]
        rows.extend(("overlap", str(n), "", "", _fmt(p), _fmt(e)) for n, p, e in zip(meshes, phases, errs))
        finals["overlap"] = phases[-1]
        curves["overlap"] = (meshes, phases)
    return rows, finals, analytic, curves


def run(cfg, args):
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be a finite number >= 0, not {args.tol}")
    eta = as_eta(cfg["eta"])
    if eta.degenerate:
        raise UsageError("eta = +/-1 is degenerate; use the wz subcommand")
    if cfg["mesh"] < 1:
        raise UsageError("mesh must be a positive integer")
    methods = list(_BERRY_METHODS)
    if cfg["method"] not in ("all", "curvature-map"):
        methods = [s.strip() for s in str(cfg["method"]).split(",")]
        bad = [s for s in methods if s not in _BERRY_METHODS]
        if bad:
            raise UsageError(f"unknown berry method(s): {bad}")
    from ..closed_form import curvature, mode

    m = mode(int(cfg["n"]), eta)
    path = _loop(cfg, args)

    if cfg["method"] == "curvature-map":
        if cfg["loop"]["type"] != "rectangle":
            raise UsageError("the curvature map samples a rectangle loop's bounding box")
        if args.plot or args.tol is not None:
            raise UsageError("--plot and --tol apply to loop phases, not to the curvature map")
        lo_l, hi_l = sorted((cfg["loop"]["l1"], cfg["loop"]["l2"]))
        lo_c, hi_c = sorted((cfg["loop"]["c1"], cfg["loop"]["c2"]))
        grid = int(cfg["mesh"]) if int(cfg["mesh"]) <= 64 else 5
        ls, cs = _linspace(lo_l, hi_l, grid), _linspace(lo_c, hi_c, grid)
        rows = [(_fmt(l), _fmt(c), _fmt(f)) for l, f in zip(ls, [curvature(m, l) for l in ls]) for c in cs]
        return _csv("l,c,f_lc", rows), None, None

    rows, finals, analytic, curves = _berry_phase_rows(m, path, methods, cfg)
    plot = mismatch = None
    if args.plot:
        from .. import svgplot

        # the errors of the 9-digit phases the CSV holds, floored at about half a
        # unit of their last digit: the plot draws the CSV, not rounding noise
        reference = _round9(analytic)
        floor = 5e-9 * max(abs(reference), 1.0)
        labels = {"overlap": "overlap |error|", "mollified": "mollified |error| vs 1/eps"}
        series = [{"x": curves[k][0], "y": [max(abs(_round9(p) - reference), floor) for p in curves[k][1]],
                   "label": label} for k, label in labels.items() if k in curves]
        if not series:
            series.append({"x": [1, 10], "y": [abs(reference)] * 2, "label": "analytic phase"})
            plot = svgplot.line_plot(series, title="loop phase", xlabel="mesh", ylabel="phase")
        else:
            series.append({"x": series[0]["x"], "y": [floor] * len(series[0]["x"]),
                           "label": "analytic reference", "dashed": True})
            plot = svgplot.line_plot(series, title="loop-phase convergence", xlabel="mesh / inverse width",
                                     ylabel="|phase - analytic|", logx=True, logy=True)

    if args.tol is not None:
        # phases are defined mod 2 pi: compare each method with the analytic
        # phase on the circle
        devs = {k: abs(math.remainder(v - analytic, 2.0 * math.pi)) for k, v in finals.items() if k != "analytic"}
        worst = max(devs.values(), default=0.0)
        if worst > args.tol:
            mismatch = (f"oracle disagreement {worst:.3e} exceeds tolerance {args.tol:.3e} "
                        f"against analytic={analytic:.9e}: "
                        + ", ".join(f"{k}={finals[k]:.9e} (off by {d:.3e})" for k, d in devs.items()))
    return _csv("method,mesh,eps,h,phase,err_est", rows), plot, mismatch
