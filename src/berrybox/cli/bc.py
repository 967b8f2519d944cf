"""`berrybox bc`: classify a boundary condition (JSON)."""

from __future__ import annotations

import json

from ..boundary import Eta, as_eta, classify_unitary, eta_to_unitary, require_unitary
from . import UsageError, _fmt_complex, _fmt_matrix


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


FLAGS = {
    "--eta": {"help": "family parameter 'a+bi' or 'inf'"},
    "--unitary": {"help": "2x2 matrix as JSON, e.g. '[[0,1],[1,0]]'"},
}


def run(cfg, args):
    # the config keeps the matrix as given: a 9-digit copy is off by up to 5e-9,
    # beyond the 1e-9 match, and may rerun to another eta, to 'other' or to exit 2
    if cfg["unitary"] is not None:
        u = parse_unitary(cfg["unitary"])
    else:
        u = eta_to_unitary(as_eta(cfg["eta"]))
    info = classify_unitary(u)
    doc = {
        "eta": _eta_text(info.eta) if info.eta is not None else None,
        # 17 digits, every double's own: passed back as --unitary, the matrix
        # meets the 1e-9 unitarity and classification checks as it did here
        "unitary": _fmt_matrix(u, 17),
        "classification": info.kind,
        "dilation_invariant": info.dilation_invariant,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", None, None
