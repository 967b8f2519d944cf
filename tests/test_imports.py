"""Importing the package, and every command, loads no scipy; none needs it.
Importing it first sets one BLAS thread unless the caller chose a count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berrybox

SRC = str(Path(berrybox.__file__).resolve().parent.parent)

# runs `main(argv)` with argv from the command line, then prints the loaded
# scipy modules as JSON
_PROBE = """
import json, sys
from berrybox.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _scipy_modules_after(*argv, prelude=""):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", prelude + _PROBE, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return modules


def test_import_loads_no_scipy():
    assert _scipy_modules_after() == []


@pytest.mark.parametrize("argv", [
    ["bc", "--eta", "0+1i"],
    ["spectrum", "--eta", "0.5+0.5i", "--n-min", "-1", "--n-max", "2"],
    ["berry", "--eta", "0+1i", "--method", "analytic"],
    pytest.param(["spectrum", "--eta", "0+1i", "--n-max", "1", "--check", "generic"], id="spectrum-generic"),
    ["wz", "--eta", "1", "--n", "1", "--mesh", "16"],
    ["adiabatic", "--eta", "0+1i", "--T-list", "2", "--window", "2", "--resolution", "100"],
], ids=lambda argv: argv[0])
def test_command_loads_no_scipy(tmp_path, argv):
    assert _scipy_modules_after(*argv, "--out", str(tmp_path / "out")) == []


def test_generic_check_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    modules = _scipy_modules_after("spectrum", "--eta", "0+1i", "--n-max", "3", "--check", "generic",
                                   "--out", str(tmp_path / "out"), prelude="import sys; sys.modules['scipy'] = None")
    assert modules == ["scipy"]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# imports berrybox (after `prelude`), then prints the BLAS variables, the
# process's thread count (None off Linux) and whether numpy links OpenBLAS
_THREAD_PROBE = """
import json, os
import berrybox, numpy
try:
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
except OSError:
    threads = None
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except TypeError:  # numpy < 1.26 prints its config only
    blas = ""
print(json.dumps([{v: os.environ.get(v) for v in %r}, threads, "openblas" in blas.lower()]))
""" % (_BLAS_VARS,)


def _blas_state_after_import(prelude="", **given):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(given, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", prelude + _THREAD_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_sets_one_blas_thread():
    env, threads, openblas = _blas_state_after_import()
    assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "1"}
    if threads is None or not openblas:
        pytest.skip("thread count is checked on Linux with OpenBLAS-backed numpy")
    assert threads == 1


@pytest.mark.parametrize("given", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=lambda given: next(iter(given)))
def test_caller_blas_setting_wins(given):
    env, _, _ = _blas_state_after_import(**given)
    assert env == {**dict.fromkeys(_BLAS_VARS), **given}


def test_numpy_imported_first_keeps_its_setting():
    env, _, _ = _blas_state_after_import(prelude="import numpy\n")
    assert env == dict.fromkeys(_BLAS_VARS)
