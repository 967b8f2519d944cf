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
adiabatic also take --plot, and berry takes --tol.  An option is spelt out
in full: argparse's prefix abbreviations are off.
Each subcommand's flag table (`FLAGS`) and handler (`run`) are this
package's module of its name (`berrybox.cli.bc`, ...), and a process imports
only the one it runs.  `main` reads a valid command from that table alone,
into the namespace argparse would return; argparse, built from the same
tables by `berrybox.cli.argparser`, runs only for --help and for argv the
table reading declines, so help, usage errors and exit codes are argparse's.
Handlers compute and `main` writes.  `run(cfg, args)` returns the output
text (None where nothing may be written), the SVG text of --plot (or None)
and the stderr line of a failed cross-check (or None).  `main` alone
resolves the config, writes the output (to stdout without --out),
<out>.config.json and the plot, and exits 2 on invalid input or a path it
cannot write, leaving no file of the run, and 3 on a mismatch, after the
writes.  Floating-point output is scientific with 9 significant digits, with no -0,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3

_LOOP = {"type": "rectangle", "l1": 1.0, "l2": 2.0, "c1": 0.0, "c2": 1.0, "orientation": 1}
_LOOP_RECT_KEYS = set(_LOOP)
_LOOP_POLY_KEYS = {"type", "points", "orientation"}

# the config keys each subcommand reads, with their defaults; the parser's
# config-key flags are named after (or mapped onto) these keys
_DEFAULTS = {
    "bc": {"eta": "0+1i", "unitary": None},
    "spectrum": {"eta": "0+1i", "mass": 1.0, "n": 0, "l": 1.0, "method": "all"},
    "berry": {"eta": "0+1i", "n": 0, "loop": _LOOP, "method": "all", "mesh": 256},
    "wz": {"eta": "-1", "n": 0, "loop": _LOOP, "mesh": 256},
    "adiabatic": {"eta": "0+1i", "mass": 1.0, "n": 0, "loop": _LOOP,
                  "T_list": [25.0, 50.0, 100.0, 200.0], "window": 8, "resolution": 4000},
}

# each subcommand's summary, in the order --help lists them; its flag table
# (`FLAGS`) and its handler (`run`) live in this package's module of the same
# name, which only a process that runs or builds the subcommand imports
_SUMMARIES = {
    "bc": "classify a boundary condition",
    "spectrum": "tabulate the spectrum",
    "berry": "loop phases and curvature maps",
    "wz": "degenerate matrix connection and holonomy",
    "adiabatic": "slow-traversal phase sweep",
}


class UsageError(ValueError):
    """Invalid input: reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# formatting


def _fmt(x: float, sign: str = "", digits: int = 9) -> str:
    # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return f"{float(x) + 0.0:{sign}.{digits - 1}e}"


def _round9(x: float) -> float:
    return float(_fmt(x))


def _fmt_complex(z: complex, digits: int = 9) -> str:
    z = complex(z)
    return f"{_fmt(z.real, '', digits)}{_fmt(z.imag, '+', digits)}i"


def _fmt_matrix(m, digits: int = 9) -> list:
    return [[_fmt_complex(v, digits) for v in row] for row in m]


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
    "l": (_number, "a number"),
    "loop": (lambda v: isinstance(v, dict) and v.get("type") in ("rectangle", "polyline"),
             "an object with 'type' rectangle or polyline"),
    "method": (lambda v: isinstance(v, str), "a string"),
    "mesh": (_integer, "an integer"),
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
    # a flag without a table default is in vars(args) only when given
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg)
    return cfg


def _loop(cfg, args) -> "ParameterPath":
    """Apply --loop-rect and --orientation to cfg["loop"], then build the loop."""
    from ..paths import ParameterPath, rectangle_loop

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
        return ParameterPath(loop["points"], orientation=int(loop.get("orientation", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid loop definition: {exc}") from exc


def _write(args, cfg: dict, text: str, plot):
    """Write a run's files, --out, <out>.config.json and --plot, then its output
    to stdout where --out is not given.  A path that cannot be written exits 2
    with a message naming its option, and leaves no file of the run behind."""
    files = []
    if args.out:
        # a zero given with a minus sign is written as 0.0, as in every output
        plain = json.loads(json.dumps(cfg), parse_float=lambda text: float(text) + 0.0)
        files += [("--out", args.out, text),
                  ("--out", f"{args.out}.config.json", json.dumps(plain, indent=2, sort_keys=True) + "\n")]
    if plot is not None:
        files.append(("--plot", args.plot, plot))
    written = []
    for option, path, body in files:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                written.append(path)
                fh.write(body)
        except OSError as exc:
            for done in written:
                os.remove(done)
            raise UsageError(f"cannot write {option} {path}: {exc.strerror or exc}") from exc
    if not args.out:
        sys.stdout.write(text)


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
# parser


# every subcommand's flags besides its own table's: each defaults to None, while
# a flag of the table without a "default" is absent from the namespace unless given
_COMMON_FLAGS = {
    "--config": {"default": None, "help": "JSON config file holding only this subcommand's keys"},
    "--out": {"default": None, "help": "output path (stdout when omitted)"},
}

# the loop flags of berry, wz and adiabatic
_LOOP_FLAGS = {
    "--loop-rect": {"nargs": 4, "type": float, "metavar": ("L1", "L2", "C1", "C2"),
                    "help": "rectangle loop, counterclockwise unless --orientation -1"},
    "--orientation": {"type": int, "choices": [1, -1], "help": "orientation of the loop, however given"},
}

# a token that starts like a negative number ('-0.5+0.2i', '-1e-3') is a value,
# not an option: `--eta -0.5+0.2i` parses as `--eta=-0.5+0.2i` does
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _parse(argv):
    """The namespace argparse returns for argv, read from the subcommand's flag
    table, or None where argparse may do anything else: print help, reject
    argv, or read it by a rule this reading leaves out.  Each table entry holds
    argparse's own keywords (`build_parser` passes them on), and "exclusive"
    marks the subcommand's one mutually exclusive group."""
    if not argv or argv[0] not in _SUMMARIES:
        return None
    # an import through __import__, unlike importlib's, shows in -X importtime
    module = __import__(f"{__name__}.{argv[0]}", fromlist=["run"])
    table = {**_COMMON_FLAGS, **module.FLAGS}
    dests = {flag: spec.get("dest", flag[2:].replace("-", "_")) for flag, spec in table.items()}
    ns = {"command": argv[0], "fn": module.run}
    ns.update((dests[flag], spec["default"]) for flag, spec in table.items() if "default" in spec)
    exclusive = set()
    i = 1
    while i < len(argv):
        flag, eq, explicit = argv[i].partition("=")
        spec = table.get(flag)
        if spec is None:
            return None
        arity = 0 if spec.get("action") == "store_const" else spec.get("nargs", 1)
        if eq:
            values = [explicit]
            if arity != 1:
                return None
        else:
            values = argv[i + 1:i + 1 + arity]
            # argparse takes '-' alone, and no other token that starts with '-', as a value
            if len(values) < arity or any(v[:1] == "-" != v and not _NEGATIVE_NUMBER.match(v) for v in values):
                return None
            i += arity
        i += 1
        try:
            values = [spec.get("type", str)(v) for v in values]
        except (TypeError, ValueError):  # what argparse reports as an invalid value
            return None
        if "choices" in spec and any(v not in spec["choices"] for v in values):
            return None
        if spec.get("exclusive"):
            exclusive.add(flag)
            if len(exclusive) > 1:
                return None
        value = spec["const"] if arity == 0 else values if "nargs" in spec else values[0]
        ns[dests[flag]] = value
    return SimpleNamespace(**ns)


def build_parser(command: str | None = None) -> "argparse.ArgumentParser":
    """argparse's parser of `command` alone, built from the flag tables, which
    imports only that subcommand's module; with no known command (--help, a
    misspelt or a missing one), the parser of every subcommand.  `main` runs it
    only where `_parse` declines argv."""
    from .argparser import build

    return build(command)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        # --help, or argv argparse rejects (or reads where `_parse` does not):
        # argparse prints and exits as it always has
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = _resolve(args)
        text, plot, mismatch = args.fn(cfg, args)
        if text is not None:
            _write(args, cfg, text, plot)
    except ValueError as exc:  # UsageError included
        print(f"berrybox: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if mismatch is not None:
        print(mismatch, file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK
