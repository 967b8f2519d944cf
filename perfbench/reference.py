"""Closed-form references and per-command output checks.

Nothing here calls berrybox: the references come from the formulas of the
paper (PAPER.md) and are compared with the files a command wrote.

* loop phase, counterclockwise rectangle: k (1/l1 - 1/l2)(c2 - c1) sin(alpha);
  a polyline segment from (la, ca) to (lb, cb) adds
  -k sin(alpha) (dc/dl) ln(lb/la) (or -k sin(alpha) dc/l when dl = 0);
* spectrum: lambda_n = k_n^2 / (2 m l^2);
* degenerate holonomy: eigenphases +-theta, theta = k (1/l1 - 1/l2)(c2 - c1).

Phases are compared on the circle.  Computed phases and numeric eigenvalues
are held to the acceptance gate's tolerances (tests/test_acceptance.py,
criteria 3, 4, 5, 7 and 8); closed-form columns the program only formats are
held to the rounding of its 9-significant-digit output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

from workloads import perimeter, wavenumber

TWO_PI = 2.0 * math.pi

# acceptance-gate tolerances, by criterion
TOL_SPECTRUM_REL = 1e-9          # 3: closed form vs generic solver, relative
TOL_INTERIOR = 1e-6              # 4: interior connection, per unit path length
TOL_MOLLIFIED = 1e-4             # 4: mollified connection, per unit path length
TOL_OVERLAP = 1e-3               # 5: overlap loop phase at the finest mesh
TOL_HOLONOMY = 1e-6              # 7: degenerate holonomy eigenphases
TOL_HOLONOMY_IMAG = 1e-10        # 7: holonomy is real orthogonal
TOL_ADIABATIC = 0.01 * math.pi / 4.0  # 8: geometric phase at the largest T
MIN_FIDELITY = 0.99              # 8: return fidelity at every T

# Known defects of the program at the commit that defined this benchmark.
# The workloads' draws stay clear of them; workloads.PROBES holds one fixed
# command per defect, which run.py --trace 1 runs and reports.  A workload
# command failing in one of these ways still counts as failed but does not
# make the run incorrect.  Any other failure does.
KNOWN_DEFECTS = {
    "interior-step": "berry's interior rows use a finite-difference step that does not shrink "
                     "with k, so only the interior row misses its gate at higher |n|",
    "plot-mesh-floor": "berry --plot with mesh below 16 floors the plot mesh at 8 and exits 2 "
                       "after writing the CSV",
    "generic-missed-level": "spectrum --check generic: generic_spectrum misses levels when eta is "
                            "near +-1 (a small k_0 or nearly paired levels), so lambda_numeric is "
                            "paired with the wrong root while the closed-form columns are right",
}


def _q(x: float) -> float:
    """Half a unit in the 9th significant digit of the output format."""
    return 5.0e-9 * abs(x) + 1e-300


def phase_err(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


def alpha(eta) -> float:
    if eta == "inf":
        return math.pi
    e = complex(*eta)
    z = (1.0 + e) / (1.0 - e)
    return math.atan2(z.imag, z.real)


def loop_phase(n: int, eta, vertices, orientation: int) -> float:
    """Closed-form Berry phase of the closed polygon through `vertices`."""
    coeff = wavenumber(n, eta) * math.sin(alpha(eta))
    total = 0.0
    for (la, ca), (lb, cb) in zip(vertices, vertices[1:] + vertices[:1]):
        if lb == la:
            total += (cb - ca) / la
        else:
            total += (cb - ca) / (lb - la) * math.log(lb / la)
    return -orientation * coeff * total


def _cplx(text: str) -> complex:
    return complex(text.strip().lower().replace("i", "j"))


@dataclass
class Check:
    """Outcome of checking one command.  `errors` holds phase errors (rad)."""

    ok: bool = True
    reason: str = ""
    known: str | None = None
    errors: dict = field(default_factory=dict)

    def fail(self, reason: str, known: str | None = None):
        if self.ok:
            self.ok, self.reason, self.known = False, reason, known
        elif known is None:
            self.known = None
        return self


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_berry(cmd, rc, stderr, wd, res: Check):
    p = cmd.params
    if rc != 0:
        if (rc == 2 and cmd.plot and p["mesh"] < 16 and "refine the mesh" in stderr
                and os.path.exists(os.path.join(wd, cmd.out))):
            return res.fail(f"exit 2 after writing the CSV: {stderr.strip()[:120]}", "plot-mesh-floor")
        return res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
    header, rows = _read_csv(os.path.join(wd, cmd.out))
    if header != ["method", "mesh", "eps", "h", "phase", "err_est"]:
        return res.fail(f"unexpected header {header}")
    by = {}
    for r in rows:
        by.setdefault(r[0], []).append(r)
    methods = p.get("methods") or (("analytic", "interior", "mollified", "overlap") if p["mesh"] else ("analytic",))
    expected = {m: c for m, c in (("analytic", 1), ("interior", 2), ("mollified", 5)) if m in methods}
    for method, count in expected.items():
        if len(by.get(method, [])) != count:
            return res.fail(f"{method}: {len(by.get(method, []))} rows, expected {count}")
    if "overlap" in methods and (not by.get("overlap") or int(by["overlap"][-1][1]) != max(p["mesh"], 16)):
        return res.fail("overlap rows missing or not ending at the requested mesh")
    if "mollified" in methods and float(by["mollified"][-1][2]) != 0.0:
        return res.fail("mollified rows do not end with the eps -> 0 limit")
    if set(by) != set(methods):
        return res.fail(f"methods {sorted(by)}, expected {sorted(methods)}")
    ref = loop_phase(p["n"], p["eta"], p["vertices"], p["orientation"])
    # a per-point connection tolerance bounds the loop phase by tol * perimeter
    length = perimeter(p["vertices"])
    gates = {"analytic": 1e-12 * (1.0 + abs(ref)), "interior": TOL_INTERIOR * length,
             "mollified": TOL_MOLLIFIED * length, "overlap": TOL_OVERLAP}
    failing = []
    for method, rws in by.items():
        value = float(rws[-1][4])
        err = phase_err(value, ref)
        res.errors[method] = err
        if not err <= gates[method] + _q(value):
            failing.append(f"{method} off by {err:.3e} (gate {gates[method]:.1e})")
    if failing:
        known = "interior-step" if len(failing) == 1 and failing[0].startswith("interior") else None
        res.fail("; ".join(failing), known)
    if cmd.plot:
        with open(os.path.join(wd, cmd.plot), encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            res.fail("plot is not an SVG document")
    return res


def _check_adiabatic(cmd, rc, stderr, wd, res: Check):
    p = cmd.params
    if rc != 0:
        return res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
    header, rows = _read_csv(os.path.join(wd, cmd.out))
    if header != ["T", "total", "dynamical", "geometric", "fidelity", "warn"]:
        return res.fail(f"unexpected header {header}")
    if [float(r[0]) for r in rows] != p["T_list"]:
        return res.fail("T column differs from the requested T list")
    ref = loop_phase(p["n"], p["eta"], p["vertices"], p["orientation"])
    for r in rows:
        total, dyn, geo, fid = (float(v) for v in r[1:5])
        if phase_err(geo, total - dyn) > 1e-12 + _q(total) + _q(dyn) + _q(geo):
            return res.fail(f"geometric != total - dynamical at T={r[0]}")
        if not fid > MIN_FIDELITY or r[5] != "0":
            return res.fail(f"fidelity {fid:.4f} (warn {r[5]}) at T={r[0]}")
    final = max(rows, key=lambda r: float(r[0]))
    err = phase_err(float(final[3]), ref)
    res.errors["adiabatic"] = err
    if not err <= TOL_ADIABATIC:
        res.fail(f"geometric phase off by {err:.3e} at T={final[0]}")
    return res


def _check_wz(cmd, rc, stderr, wd, res: Check):
    p = cmd.params
    if rc != 0:
        return res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
    with open(os.path.join(wd, cmd.out), encoding="utf-8") as fh:
        doc = json.load(fh)
    keys = {"eta", "n", "geometry", "connection", "curvature", "holonomy", "eigenphases", "mesh",
            "err_estimate", "diagonal_connection", "basis_change", "offdiag_residue"}
    if set(doc) != keys or doc["mesh"] != p["mesh"]:
        return res.fail("unexpected wz document")
    (l1, c1), (l2, _), (_, c2), _ = p["vertices"]
    k = math.pi * (2 * p["n"] + (p["eta"] == -1))
    theta = k * (1.0 / l1 - 1.0 / l2) * (c2 - c1)
    err = max(min(phase_err(ph, theta), phase_err(ph, -theta)) for ph in doc["eigenphases"])
    res.errors["wz"] = err
    if not err <= TOL_HOLONOMY + _q(math.pi):
        res.fail(f"holonomy eigenphases off by {err:.3e}")
    hol = [[_cplx(v) for v in row] for row in doc["holonomy"]]
    if max(abs(v.imag) for row in hol for v in row) > TOL_HOLONOMY_IMAG:
        res.fail("holonomy is not real")
    coeff = [[_cplx(v) for v in row] for row in doc["connection"]["coeff_c"]]
    want = k / l1
    if abs(coeff[0][1] + 1j * want) > 1e-9 * want + _q(want) or abs(coeff[1][0] - 1j * want) > 1e-9 * want + _q(want):
        res.fail("connection coefficient differs from (k/l) sigma_2")
    return res


def _check_spectrum(cmd, rc, stderr, wd, res: Check):
    p = cmd.params
    if rc != 0:
        return res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
    header, rows = _read_csv(os.path.join(wd, cmd.out))
    want_header = ["n", "k", "alpha", "lambda"] + (["lambda_numeric"] if p["generic"] else [])
    if header != want_header or [int(r[0]) for r in rows] != list(range(p["n_min"], p["n_max"] + 1)):
        return res.fail("unexpected spectrum table layout")
    a = alpha(p["eta"])
    for r in rows:
        k = wavenumber(int(r[0]), p["eta"])
        lam = k * k / (2.0 * p["mass"] * p["l"] ** 2)
        vals = [float(v) for v in r[1:]]
        if abs(vals[0] - k) > 1e-12 * (1 + abs(k)) + _q(k) or abs(vals[1] - a) > 1e-12 + _q(a):
            return res.fail(f"k or alpha wrong at n={r[0]}")
        if abs(vals[2] - lam) > 1e-12 * lam + _q(lam):
            return res.fail(f"lambda wrong at n={r[0]}")
        if p["generic"] and abs(vals[3] - lam) > TOL_SPECTRUM_REL * lam + _q(lam):
            return res.fail(f"generic solver off by {abs(vals[3] - lam) / lam:.2e} (relative) at n={r[0]}",
                            "generic-missed-level")
    return res


def _bc_doc(cmd, rc, stderr, wd, res):
    if rc != 0:
        res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
        return None
    with open(os.path.join(wd, cmd.out), encoding="utf-8") as fh:
        doc = json.load(fh)
    if set(doc) != {"classification", "dilation_invariant", "eta", "unitary"}:
        res.fail("unexpected bc document")
        return None
    return doc


def _check_bc(cmd, rc, stderr, wd, res: Check):
    doc = _bc_doc(cmd, rc, stderr, wd, res)
    if doc is None:
        return res
    p = cmd.params
    if cmd.kind == "bc_named":
        want_eta = {"periodic": 1.0, "antiperiodic": -1.0}.get(p["kind"])
        got_eta = None if doc["eta"] is None else _cplx(doc["eta"])
        if doc["classification"] != p["kind"] or not doc["dilation_invariant"] or got_eta != want_eta:
            res.fail(f"classified as {doc['classification']} (eta {doc['eta']})")
        return res
    eta = complex(*p["eta"])
    if doc["classification"] != "eta" or not doc["dilation_invariant"] or doc["eta"] is None:
        return res.fail(f"classified as {doc['classification']}")
    if abs(_cplx(doc["eta"]) - eta) > 1e-9 * abs(eta) + _q(abs(eta)):
        return res.fail(f"eta {doc['eta']} differs from {eta}")
    # the printed unitary must encode psi(a) = eta psi(b), conj(eta) psi'(a) = psi'(b):
    # (I - U)(eta, 1) = 0 and (I + U)(-1, conj eta) = 0
    u = [[_cplx(v) for v in row] for row in doc["unitary"]]
    for sign, vec in ((-1.0, (eta, 1.0)), (1.0, (-1.0, eta.conjugate()))):
        for i in range(2):
            resid = vec[i] + sign * (u[i][0] * vec[0] + u[i][1] * vec[1])
            if abs(resid) > 1e-7 * (1 + abs(eta)):
                return res.fail("unitary does not encode the eta boundary condition")
    return res


def _check_curvature(cmd, rc, stderr, wd, res: Check):
    p = cmd.params
    if rc != 0:
        return res.fail(f"exit code {rc}: {stderr.strip()[:200]}")
    header, rows = _read_csv(os.path.join(wd, cmd.out))
    g = p["grid"]
    if header != ["l", "c", "f_lc"] or len(rows) != g * g:
        return res.fail("unexpected curvature map layout")
    (l1, c1), (l2, _), (_, c2), _ = p["vertices"]
    coeff = wavenumber(p["n"], p["eta"]) * math.sin(alpha(p["eta"]))
    for i, r in enumerate(rows):
        l = l1 + (l2 - l1) * (i // g) / (g - 1)
        c = c1 + (c2 - c1) * (i % g) / (g - 1)
        f = coeff / l ** 2
        lv, cv, fv = (float(v) for v in r)
        if abs(lv - l) > 1e-12 + _q(l) or abs(cv - c) > 1e-12 + _q(c) or abs(fv - f) > 1e-12 * (1 + abs(f)) + _q(f):
            return res.fail(f"curvature map wrong at row {i}")
    return res


def _check_invalid(cmd, rc, stderr, wd, res: Check):
    if rc != 2:
        return res.fail(f"invalid input exited {rc}, expected 2")
    if os.path.exists(os.path.join(wd, cmd.out)) or os.path.exists(os.path.join(wd, cmd.out + ".config.json")):
        return res.fail("invalid input left an output file")
    return res


_CHECKS = {
    "berry": _check_berry, "adiabatic": _check_adiabatic, "wz": _check_wz, "spectrum": _check_spectrum,
    "bc_eta": _check_bc, "bc_named": _check_bc, "bc_family": _check_bc, "curvature": _check_curvature,
    "invalid": _check_invalid,
}


def check(cmd, rc: int, stderr: str, workdir: str) -> Check:
    """Check exit code, output schema and values of one finished command."""
    res = Check()
    try:
        return _CHECKS[cmd.kind](cmd, rc, stderr, workdir, res)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return res.fail(f"unreadable output: {type(exc).__name__}: {exc}")
