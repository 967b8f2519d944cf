"""`berrybox spectrum`: tabulate the closed-form spectrum (CSV)."""

from __future__ import annotations

import bisect
import math
import sys

from ..boundary import as_eta, eta_to_unitary, require_mass
from . import (EXIT_MISMATCH, EXIT_OK, UsageError, _csv, _fmt, _resolve, _write_output,
               _write_resolved_config)

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


def _spectrum_rows_degenerate(eta_pm, ns, mass, l):
    from ..closed_form import degenerate_wavenumber, eigenvalue

    rows = []
    for n in ns:
        if (eta_pm == 1 and n < 1) or (eta_pm == -1 and n < 0):
            continue
        k = degenerate_wavenumber(eta_pm, n)
        rows.append((str(n), _fmt(k), "nan", _fmt(eigenvalue(k, l, mass))))
    return rows


def _nearest(found, lam):
    """The entry of ascending `found` nearest lam, the lower on a tie: what
    `min(found, key=lambda v: abs(v - lam))` returns, by bisection."""
    i = bisect.bisect_left(found, lam)
    return min(found[max(i - 1, 0):i + 1], key=lambda v: abs(v - lam))


def run(args) -> int:
    cfg = _resolve(args)
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
    from ..closed_form import eigenvalue, mode, require_length

    l = require_length(cfg["l"])
    eta = as_eta(cfg["eta"])

    header = "n,k,alpha,lambda"
    pm = eta.degenerate_sign
    if pm is not None:
        if cfg["method"] == "generic":
            raise UsageError("the generic check covers nondegenerate eta only")
        rows = _spectrum_rows_degenerate(pm, range(n_lo, n_hi + 1), mass, l)
        _write_output(args.out, _csv(header, rows))
        _write_resolved_config(args.out, cfg)
        return EXIT_OK

    ns = list(range(n_lo, n_hi + 1))
    modes = [mode(n, eta) for n in ns]
    lams = [eigenvalue(m.k, l, mass) for m in modes]
    rows = [
        (str(m.n), _fmt(m.k), _fmt(m.alpha), _fmt(lam))
        for m, lam in zip(modes, lams)
    ]
    if cfg["method"] == "generic":
        header += ",lambda_numeric"
        # the requested n-range need not be the lowest levels; solve deep
        # enough to cover it, then pair each row with the nearest root
        from ..spectrum import generic_spectrum

        kmax = max(abs(m.k) for m in modes)
        count = math.ceil(kmax / math.pi) + 3
        found = [lv.lam for lv in generic_spectrum(eta_to_unitary(eta), count=count, mass=mass, l=l)]
        numeric = [_nearest(found, lam) for lam in lams]
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
