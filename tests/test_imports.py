"""Importing the package, and every command, loads no scipy; none needs it.
`import berrybox` loads no submodule and no numpy, and each command loads
only the package modules it runs.  Importing the package first sets one
BLAS thread unless the caller chose a count."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berrybox

SRC = str(Path(berrybox.__file__).resolve().parent.parent)

# imports berrybox, then runs `main(argv)` with argv from the command line,
# or imports every submodule when that argv is --every-module, or does no
# more when it is empty; then prints the exit code, the loaded scipy and
# berrybox modules and whether numpy is loaded, as JSON
_PROBE = """
import importlib, json, pkgutil, sys
import berrybox
code = 0
if sys.argv[1:] == ["--every-module"]:
    for info in pkgutil.iter_modules(berrybox.__path__):
        if info.name != "__main__":
            importlib.import_module("berrybox." + info.name)
elif sys.argv[1:]:
    from berrybox.cli import main
    code = main(sys.argv[1:])
loaded = lambda top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
print(json.dumps([code, loaded("scipy"), loaded("berrybox"), "numpy" in sys.modules]))
"""


def _run_probe(probe, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(*argv, prelude=""):
    """(scipy modules, berrybox modules, whether numpy is loaded) after `_PROBE`."""
    code, scipy, own, numpy = _run_probe(prelude + _PROBE, *argv)
    assert code == 0
    return scipy, own, numpy


def _own(*modules):
    return sorted(["berrybox", "berrybox.boundary", "berrybox.cli"] + [f"berrybox.{m}" for m in modules])


def test_import_loads_no_scipy():
    scipy, own, _ = _modules_after("--every-module")
    assert scipy == []
    assert "berrybox.adiabatic" in own and "berrybox.svgplot" in own


def test_import_loads_no_numpy():
    assert _modules_after() == ([], ["berrybox"], False)


def test_unknown_attribute_imports_nothing():
    prelude = """
import berrybox
for name in ("cli", "spectrum", "no_such_name"):
    try:
        getattr(berrybox, name)
    except AttributeError:
        continue
    raise SystemExit(f"berrybox.{name} resolved before its import")
"""
    assert _modules_after(prelude=prelude) == ([], ["berrybox"], False)


@pytest.mark.parametrize("argv, own", [
    pytest.param(["bc", "--eta", "0+1i"], _own(), id="bc"),
    pytest.param(["spectrum", "--eta", "0.5+0.5i", "--n-min", "-1", "--n-max", "2"],
                 _own("quadrature", "spectrum"), id="spectrum"),
    pytest.param(["berry", "--eta", "0+1i", "--method", "analytic"],
                 _own("quadrature", "spectrum", "paths", "berry"), id="berry"),
    pytest.param(["spectrum", "--eta", "0+1i", "--n-max", "1", "--check", "generic"],
                 _own("quadrature", "spectrum"), id="spectrum-generic"),
    pytest.param(["wz", "--eta", "1", "--n", "1", "--mesh", "16"],
                 _own("quadrature", "spectrum", "paths", "wilczek_zee"), id="wz"),
    pytest.param(["adiabatic", "--eta", "0+1i", "--T-list", "2", "--window", "2", "--resolution", "100"],
                 _own("quadrature", "spectrum", "paths", "adiabatic"), id="adiabatic"),
])
def test_command_loads_no_scipy(tmp_path, argv, own):
    # each command also loads only the berrybox modules it runs
    assert _modules_after(*argv, "--out", str(tmp_path / "out"))[:2] == ([], own)


@pytest.mark.parametrize("argv", [
    pytest.param(["--method", "overlap,fourier"], id="method"),
    pytest.param(["--mesh", "0"], id="mesh"),
])
def test_berry_checks_its_options_before_any_work(tmp_path, argv):
    # an unknown method or a mesh below 1 exits 2 before the level or the
    # loop is built: only the modules that parse the options are loaded
    code, scipy, own, _ = _run_probe(_PROBE, "berry", "--eta", "0+1i", *argv, "--out", str(tmp_path / "out"))
    assert (code, scipy, own) == (2, [], _own())
    assert not (tmp_path / "out").exists()


def test_generic_check_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    scipy, _, _ = _modules_after("spectrum", "--eta", "0+1i", "--n-max", "3", "--check", "generic",
                                 "--out", str(tmp_path / "out"), prelude="import sys; sys.modules['scipy'] = None")
    assert scipy == ["scipy"]


# the names the package exported when it imported every submodule eagerly
_EXPORTED = {
    "boundary": "ETA_INF BCClass BoundaryData Eta as_eta bc_residual boundary_form boundary_traces "
                "classify_unitary compliant_data dilation_transport eta_to_unitary triple_identity_defect",
    "quadrature": "GridFunction oscillatory_rule panel_rule reference_rule",
    "spectrum": "DegenerateEtaError EigenLevel Geometry Mode RootSearchError alpha_of degenerate_basis "
                "degenerate_wavenumber eigenfunction_fixed eigenfunction_fixed_dx eigenfunction_physical "
                "eigenvalue extension_physical extension_physical_grad generic_spectrum mode "
                "mode_boundary_data wavenumber",
    "paths": "ParameterPath point_loop polyline_path rectangle_corners rectangle_loop",
    "berry": "LoopPhaseResult MeshTooCoarseError commutator_defect connection_analytic connection_interior "
             "connection_mollified curvature loop_phase_analytic loop_phase_connection loop_phase_interior "
             "loop_phase_mollified_sweep loop_phase_overlap_meshes power_law_extrapolate require_geometric "
             "require_interior_step standard_mollifier state_overlaps stokes_defect",
    "wilczek_zee": "ConnectionCheckError Holonomy MatrixConnection connection_from_basis "
                   "diagonalize_in_plane_waves wz_connection wz_curvature wz_holonomy",
    "adiabatic": "PhaseReport Schedule generator mode_window propagate weak_form_matrix",
}

# imports berrybox, then takes the modules of the JSON {module: names} given
# in dependency order: imports each module's names from the package, and
# prints the berrybox modules that import loaded and whether each name is
# the submodule's object, both imported and read as an attribute
_RESOLVE_PROBE = """
import json, sys
import berrybox
steps = []
for module, names in json.loads(sys.argv[1]).items():
    before, ns = set(sys.modules), {}
    exec(f"from berrybox import {', '.join(names)}", ns)
    sub = sys.modules["berrybox." + module]
    same = all(ns[n] is getattr(sub, n) is getattr(berrybox, n) for n in names)
    steps.append([sorted(m for m in set(sys.modules) - before if m.startswith("berrybox.")), same])
print(json.dumps(steps))
"""


def test_exported_names_load_their_submodule_on_first_read():
    exported = {module: names.split() for module, names in _EXPORTED.items()}
    steps = _run_probe(_RESOLVE_PROBE, json.dumps(exported))
    assert steps == [[[f"berrybox.{module}"], True] for module in exported]
    assert set(berrybox.__all__) >= {name for names in exported.values() for name in names}


def test_package_exports_are_the_submodules_all():
    # the package's name table is each submodule's __all__, in order
    for module, names in berrybox._EXPORTS.items():
        assert names.split() == importlib.import_module(f"berrybox.{module}").__all__, module
    assert berrybox.__all__ == [name for names in berrybox._EXPORTS.values() for name in names.split()]


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
