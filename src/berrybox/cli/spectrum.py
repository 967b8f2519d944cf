"""`berrybox spectrum`: tabulate the closed-form spectrum (CSV)."""

from __future__ import annotations

from ..boundary import as_eta, eta_to_unitary, require_mass
from . import UsageError, _csv, _fmt

# `spectrum --check generic` exits 3 where |lambda_numeric / lambda - 1| exceeds
# this; the generic solver bisects to adjacent floats and meets the closed form
# to 1e-13, or 1.1e-10 at eta = 1 - 1e-6
GENERIC_CHECK_TOL = 1e-9

# the most levels one `spectrum` table lists (about 50 MB of CSV)
MAX_LEVELS = 10 ** 6


FLAGS = {
    "--eta": {},
    "--mass": {"type": float},
    "--l": {"type": float, "help": "box length"},
    "--n-min": {"type": int},
    "--n-max": {"type": int},
    "--check": {"dest": "method", "choices": ["generic"],
                "help": "append an independent numeric column (exit 3 where it departs from lambda)"},
}


def run(cfg, args):
    flags = vars(args)
    n = cfg["n"]
    if isinstance(n, int):
        n = [0, n] if n >= 0 else [n, 0]
    cfg["n"] = [flags.get("n_min", n[0]), flags.get("n_max", n[1])]
    if cfg["method"] not in ("all", "generic"):
        raise UsageError(f"spectrum method must be 'all' or 'generic', not {cfg['method']!r}")
    n_lo, n_hi = int(cfg["n"][0]), int(cfg["n"][1])
    if n_hi < n_lo:
        raise UsageError("empty level range")
    if n_hi - n_lo >= MAX_LEVELS:
        raise UsageError(f"a level range holds at most {MAX_LEVELS} levels")
    mass = require_mass(cfg["mass"])
    from ..closed_form import degenerate_wavenumber, eigenvalue, mode, require_length

    l = require_length(cfg["l"])
    eta = as_eta(cfg["eta"])

    header = "n,k,alpha,lambda"
    pm = eta.degenerate_sign
    if pm is not None:
        if cfg["method"] == "generic":
            raise UsageError("the generic check covers nondegenerate eta only")
        # the paired levels start at n = 1 for eta = +1 and at n = 0 for eta = -1
        ks = [(n, degenerate_wavenumber(pm, n)) for n in range(max(n_lo, (pm + 1) // 2), n_hi + 1)]
        return _csv(header, [(str(n), _fmt(k), "nan", _fmt(eigenvalue(k, l, mass))) for n, k in ks]), None, None

    ns = list(range(n_lo, n_hi + 1))
    modes = [mode(n, eta) for n in ns]
    lams = [eigenvalue(m.k, l, mass) for m in modes]
    rows = [(str(m.n), _fmt(m.k), _fmt(m.alpha), _fmt(lam)) for m, lam in zip(modes, lams)]
    if cfg["method"] != "generic":
        return _csv(header, rows), None, None
    # k_n = 2 n pi + theta with theta in (0, pi), so row n is generic level
    # j = 2n for n >= 0 and j = -2n - 1 for n < 0
    from ..spectrum import generic_spectrum

    js = [2 * n if n >= 0 else -2 * n - 1 for n in ns]
    found = generic_spectrum(eta_to_unitary(eta), count=max(js) + 1, mass=mass, l=l)
    numeric = [found[j].lam for j in js]
    rows = [r + (_fmt(v),) for r, v in zip(rows, numeric)]
    # lambda underflows to 0 where m l^2 overflows
    devs = [abs(v / lam - 1.0) if lam else abs(v) for lam, v in zip(lams, numeric)]
    worst = max(devs)
    i = devs.index(worst)
    mismatch = (f"generic check disagreement {worst:.3e} exceeds tolerance {GENERIC_CHECK_TOL:.0e} at n={ns[i]}: "
                f"lambda={lams[i]:.9e}, lambda_numeric={numeric[i]:.9e}") if worst > GENERIC_CHECK_TOL else None
    return _csv(header + ",lambda_numeric", rows), None, mismatch
