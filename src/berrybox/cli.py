"""Batch command-line interface.

Subcommands::

    berrybox bc         classify a boundary condition (JSON)
    berrybox spectrum   tabulate the closed-form spectrum (CSV)
    berrybox berry      loop phases by one or more prescriptions (CSV [+ SVG])
    berrybox wz         degenerate matrix connection and holonomy (JSON)
    berrybox adiabatic  slow-traversal phase sweep over T (CSV [+ SVG])

Each subcommand has one dict of defaults (`_DEFAULTS`), which is the list of
the config keys it reads: --config (JSON) may set only those keys, and each
flag given overrides the key it maps to.  Every run with --out also writes
that dict, resolved, to <out>.config.json so the run can be reproduced from
that file alone.  All subcommands take --config and --out; berry and
adiabatic also take --plot, and berry takes --tol.
Floating-point output is scientific with 9 significant digits, with no -0,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

# every command parses eta or a unitary; each imports the rest of the package
# where it uses it, and numpy only with `adiabatic`, the one module that runs
# on arrays: every other command, and every usage error, loads no numpy
from .boundary import Eta, as_eta, classify_unitary, eta_to_unitary, require_mass, require_unitary

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# `spectrum --check generic` exits 3 where |lambda_numeric / lambda - 1| exceeds
# this; the generic solver bisects to adjacent floats and meets the closed form
# to 1e-13, or 1.1e-10 at eta = 1 - 1e-6
GENERIC_CHECK_TOL = 1e-9

# the most levels one `spectrum` table lists (about 50 MB of CSV)
MAX_LEVELS = 10 ** 6

_LOOP = {"type": "rectangle", "l1": 1.0, "l2": 2.0, "c1": 0.0, "c2": 1.0, "orientation": 1}
_LOOP_RECT_KEYS = set(_LOOP)
_LOOP_POLY_KEYS = {"type", "points", "orientation"}

# the config keys each subcommand reads, with their defaults; the parser's
# config-key flags are named after (or mapped onto) these keys
_DEFAULTS = {
    "bc": {"eta": "0+1i", "unitary": None},
    "spectrum": {"eta": "0+1i", "mass": 1.0, "n": 0, "geometry": {"l": 1.0, "c": 0.0}, "method": "all"},
    "berry": {"eta": "0+1i", "n": 0, "loop": _LOOP, "method": "all", "mesh": 256,
              "eps_list": [0.2, 0.1, 0.05, 0.025], "h": None},
    "wz": {"eta": "-1", "n": 0, "loop": _LOOP, "mesh": 256},
    "adiabatic": {"eta": "0+1i", "mass": 1.0, "n": 0, "loop": _LOOP,
                  "T_list": [25.0, 50.0, 100.0, 200.0], "window": 8, "resolution": 4000},
}

_BERRY_METHODS = ("analytic", "interior", "mollified", "overlap")


class UsageError(ValueError):
    """Invalid input: reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# formatting


def _fmt(x: float, sign: str = "") -> str:
    # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return f"{float(x) + 0.0:{sign}.8e}"


def _round9(x: float) -> float:
    return float(_fmt(x))


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{_fmt(z.real)}{_fmt(z.imag, '+')}i"


def _fmt_matrix(m) -> list:
    return [[_fmt_complex(v) for v in row] for row in m]


def _eta_text(eta: Eta) -> str:
    if eta.infinite:
        return "inf"
    return _fmt_complex(eta.value)


def _parse_complex_entry(v) -> complex:
    if isinstance(v, str):
        return complex(v.strip().lower().replace("i", "j"))
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise UsageError(f"cannot parse matrix entry {v!r}")


def parse_unitary(matrix) -> tuple:
    """Parse a 2x2 matrix given as JSON text or nested lists; entries may be
    numbers, 'a+bi' strings, or [re, im] pairs."""
    if isinstance(matrix, str):
        try:
            matrix = json.loads(matrix)
        except json.JSONDecodeError as exc:
            raise UsageError(f"unitary is not valid JSON: {exc}") from exc
    try:
        rows = [[_parse_complex_entry(v) for v in row] for row in matrix]
        return require_unitary(rows)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# config plumbing


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


# the JSON value each config key takes, checked before any value is used
_VALUE_TYPES = {
    "eta": (lambda v: isinstance(v, str) or _number(v), "a string 'a+bi' or 'inf', or a number"),
    "unitary": (lambda v: v is None or isinstance(v, (str, list)), "a 2x2 matrix, as nested lists or JSON text"),
    "mass": (_number, "a number"),
    "n": (_integer, "an integer"),
    "geometry": (lambda v: isinstance(v, dict) and set(v) == {"l", "c"} and all(map(_number, v.values())),
                 "an object with numbers l and c"),
    "loop": (lambda v: isinstance(v, dict) and v.get("type") in ("rectangle", "polyline"),
             "an object with 'type' rectangle or polyline"),
    "method": (lambda v: isinstance(v, str), "a string"),
    "mesh": (_integer, "an integer"),
    "eps_list": (_numbers, "a list of numbers"),
    "h": (lambda v: v is None or _number(v), "a number or null"),
    "T_list": (_numbers, "a list of numbers"),
    "window": (_integer, "an integer"),
    "resolution": (_integer, "an integer"),
}
_SPECTRUM_N = (lambda v: _integer(v) or (isinstance(v, list) and len(v) == 2 and all(map(_integer, v))),
               "an integer or a [min, max] pair of integers")


def _validate_config(raw: dict, command: str) -> dict:
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    keys = _DEFAULTS[command]
    unknown = set(raw) - set(keys)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}; this subcommand reads {sorted(keys)}")
    for key, value in raw.items():
        valid, what = _SPECTRUM_N if (command, key) == ("spectrum", "n") else _VALUE_TYPES[key]
        if not valid(value):
            raise UsageError(f"config key {key!r} must be {what}, not {json.dumps(value)}")
    if "loop" in raw:
        loop = raw["loop"]
        bad = set(loop) - (_LOOP_RECT_KEYS if loop["type"] == "rectangle" else _LOOP_POLY_KEYS)
        if bad:
            raise UsageError(f"unknown loop keys: {sorted(bad)}")
    return raw


def _resolve(args) -> dict:
    """The subcommand's defaults, updated by its config file, then by the flags given."""
    cfg = dict(_DEFAULTS[args.command])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg.update(_validate_config(json.load(fh), args.command))
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
    # flags default to argparse.SUPPRESS, so vars(args) holds only those given
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    return cfg


def _loop(cfg, args) -> "ParameterPath":
    """Apply --loop-rect and --orientation to cfg["loop"], then build the loop."""
    from .paths import polyline_path, rectangle_loop

    flags = vars(args)
    if "loop_rect" in flags:
        l1, l2, c1, c2 = flags["loop_rect"]
        cfg["loop"] = {"type": "rectangle", "l1": l1, "l2": l2, "c1": c1, "c2": c2, "orientation": 1}
    if "orientation" in flags:
        cfg["loop"] = {**cfg["loop"], "orientation": flags["orientation"]}
    loop = cfg["loop"]
    try:
        if loop["type"] == "rectangle":
            return rectangle_loop(
                float(loop["l1"]), float(loop["l2"]), float(loop["c1"]), float(loop["c2"]),
                orientation=int(loop.get("orientation", 1)),
            )
        return polyline_path(loop["points"], close=True, orientation=int(loop.get("orientation", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid loop definition: {exc}") from exc


def _write_output(out_path, text: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_resolved_config(out_path, cfg: dict):
    if not out_path:
        return
    # a zero given with a minus sign is written as 0.0, as in every output
    plain = json.loads(json.dumps(cfg), parse_float=lambda text: float(text) + 0.0)
    with open(f"{out_path}.config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(plain, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def _linspace(lo, hi, num: int) -> list:
    """np.linspace(lo, hi, num) in plain floats, bit for bit: lo + i*step with
    step = (hi - lo)/(num - 1), the last point hi; where the step underflows
    to 0, numpy forms (i/(num - 1))*(hi - lo) instead of i*step."""
    lo, hi = float(lo), float(hi)
    delta, div = hi - lo, num - 1
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    points = [(i / div * delta if step == 0 else i * step) + lo for i in range(num)]
    points[-1] = hi
    return points


# ---------------------------------------------------------------------------
# subcommands


def cmd_bc(args) -> int:
    cfg = _resolve(args)
    # the config keeps the matrix as given: a 9-digit copy is off by up to 5e-9,
    # beyond the 1e-9 match, and may rerun to another eta, to 'other' or to exit 2
    if cfg["unitary"] is not None:
        u = parse_unitary(cfg["unitary"])
    else:
        u = eta_to_unitary(as_eta(cfg["eta"]))
    info = classify_unitary(u)
    doc = {
        "eta": _eta_text(info.eta) if info.eta is not None else None,
        "unitary": _fmt_matrix(u),
        "classification": info.kind,
        "dilation_invariant": info.dilation_invariant,
    }
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_resolved_config(args.out, cfg)
    return EXIT_OK


def _spectrum_rows_degenerate(eta_pm, ns, mass, geom):
    from .closed_form import degenerate_wavenumber, eigenvalue

    rows = []
    for n in ns:
        if (eta_pm == 1 and n < 1) or (eta_pm == -1 and n < 0):
            continue
        k = degenerate_wavenumber(eta_pm, n)
        rows.append((str(n), _fmt(k), "nan", _fmt(eigenvalue(k, geom.l, mass))))
    return rows


def cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    flags = vars(args)
    n = cfg["n"]
    if isinstance(n, int):
        n = [0, n] if n >= 0 else [n, 0]
    cfg["n"] = [flags.get("n_min", n[0]), flags.get("n_max", n[1])]
    cfg["geometry"] = {key: flags.get(key, value) for key, value in cfg["geometry"].items()}
    if cfg["method"] not in ("all", "generic"):
        raise UsageError(f"spectrum method must be 'all' or 'generic', not {cfg['method']!r}")
    n_lo, n_hi = int(cfg["n"][0]), int(cfg["n"][1])
    if n_hi < n_lo:
        raise UsageError("empty level range")
    if n_hi - n_lo >= MAX_LEVELS:
        raise UsageError(f"a level range holds at most {MAX_LEVELS} levels")
    mass = require_mass(cfg["mass"])
    from .closed_form import Geometry, eigenvalue, mode

    geom = Geometry(float(cfg["geometry"]["l"]), float(cfg["geometry"]["c"]))
    eta = as_eta(cfg["eta"])

    header = "n,k,alpha,lambda"
    pm = eta.degenerate_sign
    if pm is not None:
        if cfg["method"] == "generic":
            raise UsageError("the generic check covers nondegenerate eta only")
        rows = _spectrum_rows_degenerate(pm, range(n_lo, n_hi + 1), mass, geom)
        _write_output(args.out, _csv(header, rows))
        _write_resolved_config(args.out, cfg)
        return EXIT_OK

    ns = list(range(n_lo, n_hi + 1))
    modes = [mode(n, eta) for n in ns]
    lams = [eigenvalue(m.k, geom.l, mass) for m in modes]
    rows = [
        (str(m.n), _fmt(m.k), _fmt(m.alpha), _fmt(lam))
        for m, lam in zip(modes, lams)
    ]
    if cfg["method"] == "generic":
        header += ",lambda_numeric"
        # the requested n-range need not be the lowest levels; solve deep
        # enough to cover it, then pair each row with the nearest root
        from .spectrum import generic_spectrum

        kmax = max(abs(m.k) for m in modes)
        count = math.ceil(kmax / math.pi) + 3
        levels = generic_spectrum(eta_to_unitary(eta), count=count, mass=mass, geometry=geom)
        numeric = [min((lv.lam for lv in levels), key=lambda v: abs(v - lam)) for lam in lams]
        rows = [r + (_fmt(v),) for r, v in zip(rows, numeric)]
    _write_output(args.out, _csv(header, rows))
    _write_resolved_config(args.out, cfg)
    if cfg["method"] == "generic":
        # lambda underflows to 0 where m l^2 overflows
        devs = [abs(v / lam - 1.0) if lam else abs(v) for lam, v in zip(lams, numeric)]
        worst = max(devs)
        if worst > GENERIC_CHECK_TOL:
            i = devs.index(worst)
            print(f"generic check disagreement {worst:.3e} exceeds tolerance {GENERIC_CHECK_TOL:.0e} at n={ns[i]}: "
                  f"lambda={lams[i]:.9e}, lambda_numeric={numeric[i]:.9e}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _berry_phase_rows(m, path, methods, cfg):
    """Per-method convergence rows, each method's final phase, the analytic
    phase, and the (x, unrounded phases) of the overlap and mollified rows,
    x being the mesh or 1/eps, which --plot draws."""
    # the closed form and every oracle run on the standard library
    from .closed_form import loop_phase_analytic

    rows, finals, curves = [], {}, {}
    analytic = loop_phase_analytic(m, path)
    if "analytic" in methods:
        rows.append(("analytic", "", "", "", _fmt(analytic), ""))
        finals["analytic"] = analytic
    if "interior" in methods:
        from .berry import loop_phase_interior

        h0 = cfg["h"] if cfg["h"] is not None else 1e-4
        prev = None
        for h in (h0, h0 / 2.0):
            # the step is relative to l / (1 + |k|), the library's default scale
            phase = loop_phase_interior(m, path, h)
            err = "" if prev is None else _fmt(abs(phase - prev))
            rows.append(("interior", "", "", _fmt(h), _fmt(phase), err))
            prev = phase
        finals["interior"] = prev
    if "mollified" in methods:
        from .berry import loop_phase_mollified_sweep, power_law_extrapolate

        eps_list = [float(e) for e in cfg["eps_list"]]
        phases = loop_phase_mollified_sweep(m, path, eps_list)
        rows.extend(("mollified", "", _fmt(eps), "", _fmt(phase), "") for eps, phase in zip(eps_list, phases))
        limit, order = power_law_extrapolate(eps_list, phases)
        # without a positive order the limit is the last sample, and the last step its error scale
        err = abs(limit - phases[-1]) if order > 0 else abs(phases[-1] - phases[-2])
        rows.append(("mollified", "", _fmt(0.0), "", _fmt(limit), _fmt(err)))
        finals["mollified"] = limit
        curves["mollified"] = ([1.0 / e for e in eps_list], phases)
    if "overlap" in methods:
        from .berry import loop_phase_overlap_meshes

        mesh = int(cfg["mesh"])
        # floor of 16 keeps the internal half-mesh error estimate away from
        # degenerate samplings where neighboring boxes stop overlapping
        meshes = sorted({max(mesh // 4, 16), max(mesh // 2, 16), max(mesh, 16)})
        results = loop_phase_overlap_meshes(m, path, meshes)
        for res in results:
            rows.append(("overlap", str(res.mesh), "", "", _fmt(res.phase), _fmt(res.err_estimate)))
        finals["overlap"] = results[-1].phase
        curves["overlap"] = (meshes, [res.phase for res in results])
    return rows, finals, analytic, curves


def cmd_berry(args) -> int:
    cfg = _resolve(args)
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
    from .closed_form import curvature, mode

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
        _write_output(args.out, _csv("l,c,f_lc", rows))
        _write_resolved_config(args.out, cfg)
        return EXIT_OK

    if "mollified" in methods:
        from .berry import require_geometric

        try:
            require_geometric(cfg["eps_list"])
        except ValueError as exc:
            raise UsageError(f"eps_list: {exc}") from None
    if "interior" in methods and cfg["h"] is not None:
        from .berry import require_interior_step

        require_interior_step(m, cfg["h"])  # ValueError: exit 2 before any output
    rows, finals, analytic, curves = _berry_phase_rows(m, path, methods, cfg)
    _write_output(args.out, _csv("method,mesh,eps,h,phase,err_est", rows))
    _write_resolved_config(args.out, cfg)

    if args.plot:
        from . import svgplot

        # the errors of the 9-digit phases the CSV holds, floored at about half a
        # unit of their last digit: the plot draws the CSV, not rounding noise
        reference = _round9(analytic)
        floor = 5e-9 * max(abs(reference), 1.0)
        labels = {"overlap": "overlap |error|", "mollified": "mollified |error| vs 1/eps"}
        series = [{"x": curves[k][0], "y": [max(abs(_round9(p) - reference), floor) for p in curves[k][1]],
                   "label": label} for k, label in labels.items() if k in curves]
        if not series:
            series.append({"x": [1, 10], "y": [abs(reference)] * 2, "label": "analytic phase"})
            svgplot.line_plot(series, title="loop phase", xlabel="mesh", ylabel="phase", path=args.plot)
        else:
            series.append({"x": series[0]["x"], "y": [floor] * len(series[0]["x"]),
                           "label": "analytic reference", "dashed": True})
            svgplot.line_plot(series, title="loop-phase convergence", xlabel="mesh / inverse width",
                              ylabel="|phase - analytic|", path=args.plot, logx=True, logy=True)

    if args.tol is not None:
        # phases are defined mod 2 pi: compare each method with the analytic
        # phase on the circle
        devs = {k: abs(math.remainder(v - analytic, 2.0 * math.pi)) for k, v in finals.items() if k != "analytic"}
        worst = max(devs.values(), default=0.0)
        if worst > args.tol:
            print(
                f"oracle disagreement {worst:.3e} exceeds tolerance {args.tol:.3e} "
                f"against analytic={analytic:.9e}: "
                + ", ".join(f"{k}={finals[k]:.9e} (off by {d:.3e})" for k, d in devs.items()),
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_wz(args) -> int:
    cfg = _resolve(args)
    pm = as_eta(cfg["eta"]).degenerate_sign
    if pm is None:
        raise UsageError("wz requires eta = 1 or eta = -1")
    n = int(cfg["n"])
    path = _loop(cfg, args)
    # the holonomy is in closed form; mesh is checked and echoed, and sets no number
    mesh = int(cfg["mesh"])
    if mesh < 8:
        raise UsageError("mesh must be at least 8")
    from .wilczek_zee import (ConnectionCheckError, diagonalize_in_plane_waves, wz_connection, wz_curvature,
                              wz_holonomy)

    g0 = path.point(0.0)
    try:
        conn = wz_connection(pm, n, g0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except ConnectionCheckError as exc:
        print(f"berrybox: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    curv = wz_curvature(pm, n, g0)
    hol = wz_holonomy(pm, n, path)
    diag, q = diagonalize_in_plane_waves(conn)
    doc = {
        "eta": pm,
        "n": n,
        "geometry": {"l": _round9(g0.l), "c": _round9(g0.c)},
        "connection": {"coeff_l": _fmt_matrix(conn.coeff_l), "coeff_c": _fmt_matrix(conn.coeff_c)},
        "curvature": _fmt_matrix(curv),
        "holonomy": _fmt_matrix(hol.matrix),
        "eigenphases": [_round9(p) for p in hol.eigenphases],
        "mesh": mesh,
        "err_estimate": 0.0,
        "diagonal_connection": _fmt_matrix(diag),
        "basis_change": _fmt_matrix(q),
        "offdiag_residue": _round9(abs(diag[0][1]) + abs(diag[1][0])),
    }
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_resolved_config(args.out, cfg)
    return EXIT_OK


def cmd_adiabatic(args) -> int:
    cfg = _resolve(args)
    eta = as_eta(cfg["eta"])
    if eta.degenerate:
        raise UsageError("adiabatic propagation requires nondegenerate eta")
    n = int(cfg["n"])
    window = int(cfg["window"])
    mass = require_mass(cfg["mass"])
    resolution = int(cfg["resolution"])
    path = _loop(cfg, args)
    t_list = [float(t) for t in cfg["T_list"]]
    if not t_list:
        raise UsageError("T_list must not be empty")
    from .adiabatic import Schedule, propagate

    schedules = [Schedule(path, T, resolution) for T in t_list]
    reports = [propagate(sched, n, eta, window, mass) for sched in schedules]

    rows = [
        (_fmt(T), _fmt(r.total_phase), _fmt(r.dynamical_phase), _fmt(r.geometric_phase),
         _fmt(r.fidelity), "1" if r.adiabatic_warning else "0")
        for T, r in zip(t_list, reports)
    ]
    _write_output(args.out, _csv("T,total,dynamical,geometric,fidelity,warn", rows))
    _write_resolved_config(args.out, cfg)

    if args.plot:
        from . import svgplot
        from .closed_form import loop_phase_analytic, mode

        reference = loop_phase_analytic(mode(n, eta), path)
        errs = [max(abs(r.geometric_phase - reference), 1e-16) for r in reports]
        inv_t, errs = zip(*sorted(zip((1.0 / T for T in t_list), errs), key=lambda p: p[0]))
        series = [
            {"x": inv_t, "y": errs, "label": "|geometric - analytic|"},
            {"x": inv_t, "y": [errs[0] * x / inv_t[0] for x in inv_t], "label": "O(1/T) reference", "dashed": True},
        ]
        svgplot.line_plot(series, title="adiabatic convergence", xlabel="1/T",
                          ylabel="phase error", path=args.plot, logx=True, logy=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _subcommand(sub, name: str, fn, summary: str):
    """Subparser with --config and --out; a flag added without an explicit
    default is absent from the parsed namespace unless given."""
    sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    # a token that starts like a negative number ('-0.5+0.2i', '-1e-3') is a
    # value, not an option: `--eta -0.5+0.2i` parses as `--eta=-0.5+0.2i` does
    sp._negative_number_matcher = re.compile(r"-\.?\d")
    sp.add_argument("--config", default=None, help="JSON config file holding only this subcommand's keys")
    sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
    sp.set_defaults(fn=fn)
    return sp


def _add_loop(sp):
    sp.add_argument("--loop-rect", nargs=4, type=float, metavar=("L1", "L2", "C1", "C2"),
                    help="rectangle loop, counterclockwise unless --orientation -1")
    sp.add_argument("--orientation", type=int, choices=[1, -1], help="orientation of the loop, however given")


def _float_list(text):
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="berrybox", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "bc", cmd_bc, "classify a boundary condition")
    sp.add_argument("--eta", help="family parameter 'a+bi' or 'inf'")
    sp.add_argument("--unitary", help="2x2 matrix as JSON, e.g. '[[0,1],[1,0]]'")

    sp = _subcommand(sub, "spectrum", cmd_spectrum, "tabulate the spectrum")
    sp.add_argument("--eta")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--l", type=float, help="box length")
    sp.add_argument("--c", type=float, help="box center")
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--check", dest="method", choices=["generic"],
                    help="append an independent numeric column (exit 3 where it departs from lambda)")

    sp = _subcommand(sub, "berry", cmd_berry, "loop phases and curvature maps")
    sp.add_argument("--plot", default=None, help="write an SVG convergence plot to this path")
    sp.add_argument("--tol", type=float, default=None, help="cross-method disagreement tolerance (exit 3 beyond it)")
    sp.add_argument("--eta")
    sp.add_argument("--n", type=int)
    _add_loop(sp)
    what = sp.add_mutually_exclusive_group()
    what.add_argument("--method", help="comma list of analytic,interior,mollified,overlap or 'all'")
    what.add_argument("--curvature-map", dest="method", action="store_const", const="curvature-map",
                      help="sample f_lc over the loop bounding box")
    sp.add_argument("--mesh", type=int)
    sp.add_argument("--eps-list", type=_float_list)
    sp.add_argument("--h", type=float, help="interior finite-difference step, relative to l/(1+|k|)")

    sp = _subcommand(sub, "wz", cmd_wz, "degenerate matrix connection and holonomy")
    sp.add_argument("--eta")
    sp.add_argument("--n", type=int)
    _add_loop(sp)
    sp.add_argument("--mesh", type=int)

    sp = _subcommand(sub, "adiabatic", cmd_adiabatic, "slow-traversal phase sweep")
    sp.add_argument("--plot", default=None, help="write an SVG convergence plot to this path")
    sp.add_argument("--eta")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--n", type=int)
    _add_loop(sp)
    sp.add_argument("--T-list", type=_float_list)
    sp.add_argument("--window", type=int, help="mode window half-width N")
    sp.add_argument("--resolution", type=int, help="states per traversal sampled for the norm and edge diagnostics")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # UsageError included
        print(f"berrybox: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
