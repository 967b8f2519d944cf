"""The command-line contract, fuzzed: every command exits 0, 2 or 3.

Each subcommand's options are drawn from a small grammar that favours the
ends of the float range (+-0, subnormals, 1e+-300, 1.7e308, inf, nan, huge
integers) and eta in degenerate, near-degenerate and huge forms.  Every
command runs in process through `cli.main`, in a temporary directory of its
own, with a seeded `random.Random`.  The contract:

* the exit code is 0, 2 or 3, and 3 only from a cross-check (`--tol`,
  `--check`, or `wz`'s connection check);
* no exception escapes `main` (which would be a traceback and exit 1);
* exit 2 writes no file, and its message names the offending input.

Commands that broke the contract are kept below as named cases.  The same
commands, each also with its options in `--flag=value` form, check that the
flag tables read argv as argparse does: `main` parses a command from its
subcommand's table and falls back to argparse only where that reading
declines, which must be argv that argparse rejects.
"""

import contextlib
import functools
import io
import os
import random
import re

import pytest

from berrybox.cli import _parse, build_parser, main

_FLOATS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "1e-9", "0.5", "1", "-1", "2.5", "1e300", "1.7e308",
           "-1.7e308", "inf", "-inf", "nan"]
_INTS = ["-2", "0", "1", "3", "7", "65", "-65", "1000000", str(10 ** 400), "x"]
_ETAS = ["1", "-1", "1+1e-15i", "-1-1e-15i", "0+1i", "0.3+0.6i", "0.5", "-2", "inf", "0", "1e300+1e300i",
         "1.7e308+1.7e308i", "5e-324i", "nan", "1+nani", "garbage"]

# the words an exit-2 message may use to name each option
_NAMES = {
    "--eta": ("eta",), "--unitary": ("unitary", "matrix"), "--n": ("n", "level", "wavenumber"),
    "--n-min": ("n", "level", "range"), "--n-max": ("n", "level", "range"), "--mass": ("mass",),
    "--l": ("l", "box length"), "--check": ("check",), "--method": ("method",), "--mesh": ("mesh",),
    "--tol": ("tol",), "--loop-rect": ("loop", "side", "l", "box"),
    "--orientation": ("orientation",), "--T-list": ("T", "T_list"), "--window": ("window",),
    "--resolution": ("resolution",), "--curvature-map": ("curvature map",), "--plot": ("plot",),
}


def _float_list(rng):
    return ",".join(rng.choice(_FLOATS) for _ in range(rng.randint(1, 3)))


def _loop(rng):
    return ["--loop-rect", *(rng.choice(_FLOATS + ["1.5", "2"] * 4) for _ in range(4))]


def _draw(rng):
    """One argv: a subcommand and a few of its options, each drawn from the grammar."""
    command = rng.choice(["bc", "spectrum", "berry", "wz", "adiabatic"])
    if command == "bc":
        options = [["--eta", rng.choice(_ETAS)]] if rng.random() < 0.8 else [
            ["--unitary", "[[%s, 0], [0, %s]]" % (rng.choice(_FLOATS), rng.choice(_FLOATS))]]
    elif command == "spectrum":
        # a valid range stays short: a million levels (the bound) would take minutes
        n_max = [n for n in _INTS if n != "1000000"]
        options = [["--eta", rng.choice(_ETAS)], ["--n-min", rng.choice(_INTS[:5])], ["--n-max", rng.choice(n_max)],
                   ["--mass", rng.choice(_FLOATS)], ["--l", rng.choice(_FLOATS)], ["--check", "generic"]]
    elif command == "berry":
        methods = ["all", "analytic", "interior", "mollified", "overlap", "analytic,overlap"]
        options = [["--eta", rng.choice(_ETAS)], ["--n", rng.choice(_INTS)], ["--mesh", rng.choice(_INTS)],
                   ["--method", rng.choice(methods)], ["--tol", rng.choice(_FLOATS)],
                   _loop(rng), ["--orientation", rng.choice(["1", "-1", "0"])], ["--curvature-map"]]
    elif command == "wz":
        options = [["--eta", rng.choice(_ETAS)], ["--n", rng.choice(_INTS)], ["--mesh", rng.choice(_INTS)],
                   _loop(rng)]
    else:
        # the window stays small: the solve is O(N^3) in pure Python
        options = [["--eta", rng.choice(_ETAS)], ["--n", rng.choice(["0", "1", "-2", "9"])],
                   ["--T-list", _float_list(rng)], ["--window", rng.choice(["1", "2", "3", "0", "-1", "65"])],
                   ["--mass", rng.choice(_FLOATS)], _loop(rng)]
    chosen = rng.sample(options, rng.randint(1, min(4, len(options))))
    return [command] + [token for option in chosen for token in option]


def _run(argv, directory):
    """(exit code, stderr, files left) of one command run in `directory`."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv) + ["--out", "o.out"])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return code, err.getvalue(), sorted(os.listdir(directory))
    finally:
        os.chdir(cwd)


def _check_contract(argv, directory):
    code, err, files = _run(argv, directory)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 3:
        assert "--tol" in argv or "--check" in argv or argv[0] == "wz", (argv, err)
    if code == 2:
        assert files == [], (argv, files, err)
        given = [token.split("=")[0] for token in argv[1:] if token.startswith("--")]
        words = {word for option in given for word in _NAMES[option]} | {argv[0]}
        assert any(re.search(rf"(?<![A-Za-z_]){re.escape(word)}(?![A-Za-z_])", err) for word in words), (argv, err)
        assert not err.strip().endswith(": math domain error"), (argv, err)
    return code, err


# each of these broke the contract: an OverflowError squaring |eta| (exit 1),
# a ZeroDivisionError where T/sides underflowed (exit 1; berry's interior
# step h/(1 + |k|) did too, which the library test of `connection_interior`
# now covers), a bare "math domain error" from an infinite angle or phase
# (exit 2), a slow side whose generator entries all sat near the smallest
# normal float, where QL did not converge (exit 2, "moves too fast"), and a
# --plot path in a missing directory, which raised out of main after the
# table and its config were written (exit 1)
_FOUND = [
    pytest.param(["bc", "--eta=1e300+1e300i"], 0, id="bc-eta-1e300"),
    pytest.param(["spectrum", "--eta=1e300+1e300i", "--check", "generic"], 0, id="spectrum-generic-eta-1e300"),
    pytest.param(["wz", "--eta", "-1", "--n", "65", "--loop-rect", "1e308", "1e-9", "1.05", "1e308"], 2,
                 id="wz-infinite-angle"),
    pytest.param(["adiabatic", "--T-list=5e-324", "--window=2"], 2, id="adiabatic-T-subnormal"),
    pytest.param(["adiabatic", "--T-list=1.7e308", "--window=2"], 2, id="adiabatic-T-huge"),
    pytest.param(["adiabatic", "--mass", "1e300", "--T-list", "1.7e308"], 0, id="adiabatic-mass-1e300-T-huge"),
    pytest.param(["berry", "--method", "analytic", "--plot", "missing/p.svg"], 2, id="berry-plot-missing-directory"),
    pytest.param(["adiabatic", "--T-list", "2", "--window", "2", "--plot", "missing/p.svg"], 2,
                 id="adiabatic-plot-missing-directory"),
]


@pytest.mark.parametrize("argv, code", _FOUND)
def test_found_commands_keep_the_contract(tmp_path, argv, code):
    assert _check_contract(argv, tmp_path)[0] == code


def test_found_messages_name_their_input(tmp_path):
    expected = {"wz": r"level n = 65 on the loop", "adiabatic": r"\bT = "}
    for param in _FOUND:
        argv, code = param.values
        if code == 2:
            directory = tmp_path / param.id
            directory.mkdir()
            want = r"cannot write --plot missing/p\.svg" if "--plot" in argv else expected[argv[0]]
            assert re.search(want, _run(argv, directory)[1]), param.id


def test_fuzzed_commands_keep_the_contract(tmp_path):
    rng = random.Random(20151)
    codes = []
    for j in range(1200):
        argv = _draw(rng)
        directory = tmp_path / str(j)
        directory.mkdir()
        codes.append(_check_contract(argv, directory)[0])
    # the grammar reaches both outcomes often
    assert codes.count(0) > 100 and codes.count(2) > 100


# ---------------------------------------------------------------------------
# the flag tables read argv as argparse does


@functools.lru_cache(maxsize=None)
def _argparse(command):
    return build_parser(command)


def _same(a, b):
    """Equal values of one type, NaN equal to NaN, lists element by element."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _check_parsers_agree(argv):
    """Whether the flag tables read argv: if so, into the namespace argparse
    returns (`fn` included); if not, argparse exits on it."""
    parser = _argparse(argv[0] if argv else None)
    parsed = _parse(argv)
    if parsed is None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        return False
    got, want = vars(parsed), vars(parser.parse_args(argv))
    assert got.keys() == want.keys() and all(_same(got[k], want[k]) for k in got), (argv, got, want)
    return True


def _joined(argv):
    """argv with each option and the value after it written `--flag=value`
    (the first of --loop-rect's four, which argparse rejects)."""
    joined, i = list(argv[:1]), 1
    while i < len(argv):
        if argv[i].startswith("--") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return joined


# what the grammar does not draw: help, a missing, misspelt or repeated
# option, values that look like options, and the mutually exclusive pair;
# the tables read the first list and decline the second
_EDGES_READ = [
    ["berry", "--eta=-x"], ["berry", "--eta="], ["berry", "--eta", "-.5"], ["berry", "--eta", "-"],
    ["berry", "--n", "1", "--n", "2"], ["berry", "--curvature-map", "--curvature-map"], ["berry", "--tol", "-1e-3"],
    ["spectrum", "--n-min", "1_0"], ["adiabatic", "--T-list", "-1,2"], ["bc", "--unitary", "[[1, 0], [0, 1]]"],
    ["bc", "--out", "-1", "--config", "x=y"],
]
_EDGES_DECLINED = [
    [], ["--help"], ["berry", "-h"], ["wz", "--help"], ["bcc"], ["berry", "berry"], ["berry", "--"],
    ["berry", "--eta"], ["berry", "--eta", "--n", "1"], ["berry", "--eta", "-x"], ["berry", "--et", "1"],
    ["berry", "--method", "all", "--curvature-map"], ["berry", "--curvature-map=1"],
    ["berry", "--loop-rect", "1", "2", "3"], ["berry", "--loop-rect", "1", "2", "-3", "-inf"],
    ["berry", "--loop-rect=1", "2", "3", "4"], ["berry", "--orientation", "0"],
    ["spectrum", "--check", "generic", "--check=none"], ["adiabatic", "--T-list", ""],
]


def test_flag_tables_parse_as_argparse_does():
    rng = random.Random(20151)
    drawn = [_draw(rng) for _ in range(1200)] + [param.values[0] for param in _FOUND]
    read = [_check_parsers_agree(form) for argv in drawn for form in (argv, _joined(argv))]
    # both outcomes are common: the joined --loop-rect form, values such as
    # -inf that argparse takes for options, integers such as "x" and the
    # orientation 0 decline
    assert read.count(True) > 1500 and read.count(False) > 300
    assert [_check_parsers_agree(argv) for argv in _EDGES_READ + _EDGES_DECLINED] == \
        [True] * len(_EDGES_READ) + [False] * len(_EDGES_DECLINED)
