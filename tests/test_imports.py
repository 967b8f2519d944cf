"""Importing the package, and every command, loads no scipy; none needs it."""

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
