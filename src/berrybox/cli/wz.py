"""`berrybox wz`: degenerate matrix connection and holonomy (JSON)."""

from __future__ import annotations

import json

from ..boundary import as_eta
from . import UsageError, _LOOP_FLAGS, _fmt_matrix, _loop, _round9


FLAGS = {"--eta": {}, "--n": {"type": int}, **_LOOP_FLAGS, "--mesh": {"type": int}}


def run(cfg, args):
    pm = as_eta(cfg["eta"]).degenerate_sign
    if pm is None:
        raise UsageError("wz requires eta = 1 or eta = -1")
    n = int(cfg["n"])
    path = _loop(cfg, args)
    # the holonomy is in closed form; mesh is checked and echoed, and sets no number
    mesh = int(cfg["mesh"])
    if mesh < 8:
        raise UsageError("mesh must be at least 8")
    from ..wilczek_zee import (ConnectionCheckError, diagonalize_in_plane_waves, wz_connection, wz_curvature,
                               wz_holonomy)

    l0, c0 = path.point(0.0)
    try:
        conn = wz_connection(pm, n, l0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except ConnectionCheckError as exc:  # nothing is written
        return None, None, f"berrybox: {exc}"
    curv = wz_curvature(pm, n, l0)
    hol = wz_holonomy(pm, n, path)
    diag, q = diagonalize_in_plane_waves(conn)
    doc = {
        "eta": pm,
        "n": n,
        "geometry": {"l": _round9(l0), "c": _round9(c0)},
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", None, None
