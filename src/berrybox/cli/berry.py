"""`berrybox berry`: loop phases by one or more prescriptions (CSV [+ SVG])."""

from __future__ import annotations

import math

from ..boundary import as_eta
from . import UsageError, _LOOP_FLAGS, _csv, _fmt, _linspace, _loop, _round9

_BERRY_METHODS = ("analytic", "interior", "mollified", "overlap")


FLAGS = {
    "--plot": {"default": None, "help": "write an SVG convergence plot to this path"},
    "--tol": {"type": float, "default": None,
              "help": "cross-method disagreement tolerance (exit 3 beyond it, or where a method does not converge)"},
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
    """Per-method convergence rows, each refining method's limit, which --tol
    compares, the analytic phase, the (x, unrounded phases) --plot draws, and
    the methods whose samples `refine` refused (every err_est inf, the limit
    the last sample): one loop runs each entry of the oracle table once."""
    from ..closed_form import loop_phase_analytic

    rows, limits, curves, refused = [], {}, {}, []
    analytic = loop_phase_analytic(m, path)
    if "analytic" in methods:
        rows.append(("analytic", "", "", "", _fmt(analytic), ""))
    if set(methods) == {"analytic"}:  # the closed form alone imports no oracle
        return rows, limits, analytic, curves, refused
    from ..berry import connection_interior, connection_mollified, loop_phase_overlap_meshes, overlap_order, refine

    # a connection's phase is -F_c, of F at the unit box, times the loop integral of dc/l
    dc_over_l = path.dc_over_l()

    def connection(oracle):
        return lambda regulators: [-oracle(m, r)[1] * dc_over_l for r in regulators]

    # a floor of 16 keeps the coarsest chain off samplings where boxes stop overlapping
    meshes = sorted({max(int(cfg["mesh"]) // d, 16) for d in (4, 2, 1)})
    # each refining oracle, in the order of its rows: the CSV cells (mesh, eps, h) of
    # a regulator sample, its samples, `refine`'s parameter of a sample and expected
    # order, the lifted phases at the samples, whether the limit gets a row at
    # regulator 0, and the x --plot draws for a sample (None: no curve)
    oracles = {
        "interior": (lambda h: ("", "", _fmt(h)), _INTERIOR_STEPS, float, 2,
                     connection(connection_interior), False, None),
        "mollified": (lambda eps: ("", _fmt(eps), ""), _MOLLIFIER_WIDTHS, float, 1,
                      connection(connection_mollified), True, lambda eps: 1.0 / eps),
        "overlap": (lambda mesh: (str(mesh), "", ""), meshes, lambda mesh: 1.0 / mesh, overlap_order(path),
                    lambda ns: loop_phase_overlap_meshes(m, path, ns), False, lambda mesh: mesh),
    }
    for name, (cells, samples, param, order, phases_at, limit_row, plot_x) in oracles.items():
        if name not in methods:
            continue
        phases = phases_at(samples)
        limit, _, errs, converged = refine([param(s) for s in samples], phases, order)
        rows.extend((name, *cells(s), _fmt(p), _fmt(e)) for s, p, e in zip(samples, phases, errs))
        if limit_row:
            rows.append((name, *cells(0.0), _fmt(limit), _fmt(errs[-1])))
        limits[name] = limit
        if not converged:
            refused.append(name)
        if plot_x:
            curves[name] = ([plot_x(s) for s in samples], phases)
    return rows, limits, analytic, curves, refused


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

    rows, limits, analytic, curves, refused = _berry_phase_rows(m, path, methods, cfg)
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
        # phases are defined mod 2 pi: compare each method's limit with the analytic
        # phase on the circle; a refused refinement bounds nothing, so it fails too
        devs = {k: abs(math.remainder(v - analytic, 2.0 * math.pi)) for k, v in limits.items()}
        worst = max(devs.values(), default=0.0)
        lines = [f"{k} did not converge: refine refused its samples, so every {k} err_est is inf" for k in refused]
        if worst > args.tol:
            lines.insert(0, f"oracle disagreement {worst:.3e} exceeds tolerance {args.tol:.3e} "
                            f"against analytic={analytic:.9e}: "
                            + ", ".join(f"{k}={limits[k]:.9e} (off by {d:.3e})" for k, d in devs.items()))
        mismatch = "; ".join(lines) or None
    return _csv("method,mesh,eps,h,phase,err_est", rows), plot, mismatch
