"""Importing the package, and every command, loads no scipy; none needs it.
`import berrybox` loads no submodule and no numpy, and each command loads
only the package modules it runs: of the CLI, the front `berrybox.cli` and
the module of the one subcommand run, and never the boundary-triple
identities, which no command runs.  No command loads numpy: `bc`, every
usage error, `spectrum` (its generic check included), `wz`, every `berry`
command (each method, --plot and the curvature map included) and
`adiabatic` run on the standard library alone, and load neither
`dataclasses` nor `inspect`.  A valid command, or one that exits 2 from its
handler, loads no `argparse`, `gettext` or `locale` either: only --help and
argv that argparse rejects build its parser (`berrybox.cli.argparser`)."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import berrybox

SRC = str(Path(berrybox.__file__).resolve().parent.parent)

# imports berrybox, then runs `main(argv)` with argv from the command line
# (an argparse error's SystemExit gives the exit code), or imports every
# submodule when that argv is --every-module, or does no more when it is
# empty; then prints the exit code, the loaded scipy and berrybox modules,
# whether numpy is loaded, which of dataclasses and inspect are, and which of
# argparse, gettext and locale are, as JSON; the probe's own imports load none
# of these
_PROBE = """
import importlib, json, pkgutil, sys
import berrybox
code = 0
if sys.argv[1:] == ["--every-module"]:
    for info in pkgutil.walk_packages(berrybox.__path__, "berrybox."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
elif sys.argv[1:]:
    from berrybox.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = lambda top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
print(json.dumps([code, loaded("scipy"), loaded("berrybox"), "numpy" in sys.modules,
                  [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
"""


def _run_probe(probe, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(*argv, prelude=""):
    """(scipy modules, berrybox modules, whether numpy is loaded, which of
    dataclasses and inspect are, which of argparse, gettext and locale are)
    after `_PROBE`."""
    code, scipy, own, numpy, introspection, parsing = _run_probe(prelude + _PROBE, *argv)
    assert code == 0
    return scipy, own, numpy, introspection, parsing


def _own(command, *modules):
    """The package modules `command` loads: the CLI front and the command's
    own module, `boundary`, and `modules`."""
    return sorted(["berrybox", "berrybox.boundary", "berrybox.cli", f"berrybox.cli.{command}"]
                  + [f"berrybox.{m}" for m in modules])


_COMMANDS = ("bc", "spectrum", "berry", "wz", "adiabatic")


def test_import_loads_no_scipy():
    scipy, own, *_ = _modules_after("--every-module")
    assert scipy == []
    assert {"berrybox.adiabatic", "berrybox.svgplot", "berrybox.boundary_triple"} <= set(own)
    assert {f"berrybox.cli.{command}" for command in _COMMANDS} <= set(own)


def test_import_loads_no_numpy():
    assert _modules_after() == ([], ["berrybox"], False, [], [])


def test_unknown_attribute_imports_nothing():
    prelude = """
import berrybox
for name in ("cli", "spectrum", "mode", "no_such_name"):
    try:
        getattr(berrybox, name)
    except AttributeError:
        continue
    raise SystemExit(f"berrybox.{name} resolved before its import")
"""
    assert _modules_after(prelude=prelude) == ([], ["berrybox"], False, [], [])


# the 2x2 matrices of the benchmark's bc commands: a named one, and a family
# member's entries as [re, im] pairs at full precision
_BC_FAMILY = "[[[-0.6, 0], [0.48, 0.64]], [[0.48, -0.64], [0.6, 0]]]"


_POLYLINE = {"loop": {"type": "polyline", "points": [[1, 0], [1.3, 0.05], [1.1, 0.2]], "orientation": -1}}
_CLOSED_FORMS = _own("berry", "closed_form", "paths")
_ORACLES = _own("berry", "closed_form", "paths", "berry")


@pytest.mark.parametrize("argv, config, own", [
    pytest.param(["bc", "--eta", "0+1i"], None, _own("bc"), id="bc"),
    pytest.param(["bc", "--unitary", "[[-1,0],[0,-1]]"], None, _own("bc"), id="bc-unitary-named"),
    pytest.param(["bc", "--unitary", _BC_FAMILY], None, _own("bc"), id="bc-unitary-family"),
    pytest.param(["spectrum", "--eta", "0.5+0.5i", "--n-min", "-1", "--n-max", "2"], None,
                 _own("spectrum", "closed_form"), id="spectrum"),
    pytest.param(["spectrum", "--eta", "1", "--n-max", "2"], None, _own("spectrum", "closed_form"),
                 id="spectrum-degenerate"),
    pytest.param(["berry", "--eta", "0+1i", "--method", "analytic"], None, _CLOSED_FORMS, id="berry"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--n", "1", "--method", "analytic"], _POLYLINE, _CLOSED_FORMS,
                 id="berry-polyline"),
    pytest.param(["berry", "--eta", "0+1i", "--method", "analytic", "--tol", "0"], None, _CLOSED_FORMS,
                 id="berry-tol"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--n", "2", "--curvature-map", "--mesh", "5"], None,
                 _CLOSED_FORMS, id="curvature-map"),
    pytest.param(["spectrum", "--eta", "0+1i", "--n-max", "1", "--check", "generic"], None,
                 _own("spectrum", "closed_form", "spectrum"), id="spectrum-generic"),
    pytest.param(["spectrum", "--eta", "0.3+0.6i", "--n-min", "-3", "--n-max", "3", "--check", "generic"], None,
                 _own("spectrum", "closed_form", "spectrum"), id="spectrum-generic-negative-levels"),
    pytest.param(["wz", "--eta", "1", "--n", "1", "--mesh", "16"], None,
                 _own("wz", "closed_form", "paths", "wilczek_zee"), id="wz"),
    pytest.param(["wz", "--eta", "-1", "--n", "2", "--mesh", "16"], _POLYLINE,
                 _own("wz", "closed_form", "paths", "wilczek_zee"), id="wz-polyline"),
    pytest.param(["adiabatic", "--eta", "0+1i", "--T-list", "2", "--window", "2", "--resolution", "100"], None,
                 _own("adiabatic", "closed_form", "paths", "adiabatic"), id="adiabatic"),
    pytest.param(["berry", "--eta", "0+1i", "--method", "overlap", "--mesh", "16"], None, _ORACLES,
                 id="berry-overlap"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--n", "1", "--method", "all", "--mesh", "16"], None, _ORACLES,
                 id="berry-all"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--n", "1", "--loop-rect", "1", "1.3", "0", "0.2", "--method", "all",
                  "--mesh", "64", "--tol", "1e-3", "--plot", "berry.svg"], None, sorted(_ORACLES + ["berrybox.svgplot"]),
                 id="berry-all-plot"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--n", "1", "--method", "all", "--mesh", "64"], _POLYLINE, _ORACLES,
                 id="berry-all-polyline"),
])
def test_command_loads_no_scipy(tmp_path, argv, config, own):
    # each command also loads only the berrybox modules it runs, and no
    # numpy.  Of the CLI it loads the front and its own module, never another
    # command's, nor the boundary-triple module.  The package's records are
    # plain classes and namedtuples, so no command loads dataclasses or inspect.
    # The flag tables read every valid command, so none loads argparse
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    scipy, loaded, numpy_loaded, introspection, parsing = _modules_after(*argv, "--out", str(tmp_path / "out"))
    assert (scipy, loaded, numpy_loaded, introspection, parsing) == ([], own, False, [], [])
    assert [m for m in loaded if m.startswith("berrybox.cli.") or m == "berrybox.boundary_triple"] == \
        [f"berrybox.cli.{argv[0]}"]


# the usage errors of the benchmark's quick workload, and an option argparse
# rejects: each exits 2 having loaded only `boundary`, the CLI front and the
# command's own module, and no numpy, dataclasses or inspect.  The first six
# parse from the flag table and load no argparse; only the option argparse
# rejects builds its parser, which loads `berrybox.cli.argparser` too
@pytest.mark.parametrize("argv", [
    ["berry", "--eta", "1", "--n", "0"],
    ["wz", "--eta=0.3000+0.5000i", "--n", "1"],
    ["spectrum", "--eta=0.2000+0.9000i", "--n-min", "3", "--n-max", "1"],
    ["berry", "--eta=0.0000+1.0000i", "--method", "overlap,fourier"],
    ["adiabatic", "--eta=-1", "--T-list", "25,50"],
    ["bc", "--unitary", "[[1,2],[3,4]]"],
    ["spectrum", "--no-such-option"],
], ids=["berry-degenerate", "wz-nondegenerate", "spectrum-empty-range", "berry-method", "adiabatic-degenerate",
        "bc-nonunitary", "argparse"])
def test_usage_error_loads_no_numpy(tmp_path, argv):
    rejected = "--no-such-option" in argv
    own = sorted(_own(argv[0]) + ["berrybox.cli.argparser"] * rejected)
    parsing = ["argparse", "gettext", "locale"] if rejected else []
    assert _run_probe(_PROBE, *argv, "--out", str(tmp_path / "out")) == [2, [], own, False, [], parsing]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["bcc", "--eta", "1"], ["--no-such-option"]], ids=["misspelt", "option"])
def test_usage_error_without_a_command_loads_no_library_module(tmp_path, argv):
    # argparse rejects these before any subcommand runs: the parser holds
    # every subcommand's flags, so each command module loads, and nothing
    # they would run
    own = sorted(["berrybox", "berrybox.boundary", "berrybox.cli", "berrybox.cli.argparser"]
                 + [f"berrybox.cli.{c}" for c in _COMMANDS])
    assert _run_probe(_PROBE, *argv, "--out", str(tmp_path / "out")) == [2, [], own, False, [],
                                                                          ["argparse", "gettext", "locale"]]


@pytest.mark.parametrize("argv", [
    pytest.param(["--method", "overlap,fourier"], id="method"),
    pytest.param(["--mesh", "0"], id="mesh"),
])
def test_berry_checks_its_options_before_any_work(tmp_path, argv):
    # an unknown method or a mesh below 1 exits 2 before the level or the
    # loop is built: only the modules that parse the options are loaded
    probe = _run_probe(_PROBE, "berry", "--eta", "0+1i", *argv, "--out", str(tmp_path / "out"))
    assert probe == [2, [], _own("berry"), False, [], []]
    assert not (tmp_path / "out").exists()


def test_generic_check_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    scipy, *_ = _modules_after("spectrum", "--eta", "0+1i", "--n-max", "3", "--check", "generic",
                               "--out", str(tmp_path / "out"), prelude="import sys; sys.modules['scipy'] = None")
    assert scipy == ["scipy"]


def _bound(stmt) -> set:
    """The names a top-level statement defines: a def's or class's name, or
    the root name of each assignment target (`X.__doc__ = ...` defines X)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    roots = set()
    for target in targets:
        while isinstance(target, (ast.Attribute, ast.Subscript)):
            target = target.value
        if isinstance(target, ast.Name):
            roots.add(target.id)
    return roots


def _readers(path) -> set:
    """The names the code of a module reads, as a name, an attribute or an
    import, each outside the top-level statement that defines it; a string,
    such as a docstring or an entry of `__all__`, reads no name."""
    read = set()
    for stmt in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                here.update(alias.name for alias in node.names)
        read |= here - _bound(stmt)
    return read


def test_every_exported_name_is_read_by_the_package_or_a_demo():
    # ROADMAP item 12: the library holds what the commands and the demos
    # run.  Each name of a submodule's `__all__` is read by the package's
    # code outside its own definition, or imported by a demo; `stokes_defect`
    # and `point_loop` were read by tests alone, and `dilation_transport`
    # before the boundary tour printed its dilation check
    package = Path(berrybox.__file__).resolve().parent
    read = set().union(*(_readers(path) for path in package.rglob("*.py")))
    demos = package.parent.parent / "demos"
    assert demos.is_dir(), demos
    for path in demos.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "berrybox":
                read.update(alias.name for alias in node.names)
    # importing `__main__` would run the CLI on pytest's argv
    modules = [importlib.import_module(info.name) for info in pkgutil.walk_packages(berrybox.__path__, "berrybox.")
               if not info.name.endswith(".__main__")]
    exported = [name for module in modules for name in getattr(module, "__all__", ())]
    assert exported
    assert [name for name in exported if name not in read] == []

