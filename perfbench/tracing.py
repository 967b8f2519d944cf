"""In-process traced run: per-layer spans around the calls into berrybox.

Every public function of every berrybox module is wrapped under each name
that binds it (modules import with `from .x import y`, so one function can
be bound in several namespaces), as are `ParameterPath.point` and
`ParameterPath.velocity`.  The numpy and scipy calls a layer makes (`eigh`,
`svd`, `leggauss`, `expm`) are wrapped too and named after the calling
module.  A span records name, start, end, parent, command and thread; spans
opened in a worker thread with no open span of their own take the command's
span as parent.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the durations of its children in
the same thread, so time a command spends waiting on its thread pool stays
in the command's own layer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import shutil
import sys
import threading
import time
import types
from array import array

import numpy as np

import reference

EVAL_FUNCTIONS = ("eigenfunction_fixed", "eigenfunction_fixed_dx", "eigenfunction_physical",
                  "extension_physical", "extension_physical_grad")
LOOP_PHASE_FUNCTIONS = ("loop_phase_analytic", "loop_phase_connection", "loop_phase_overlap")
ROOT = "bench.command"


class Tracer:
    """Span store shared by every wrapper; safe to use from several threads."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end, self.aux = array("d"), array("d"), array("d")
        self.name, self.parent, self.cmd, self.thread = array("i"), array("i"), array("i"), array("i")
        self.diag = {"fidelity_min": 1.0, "edge_weight_max": 0.0, "norm_drift_max": 0.0}
        self.command = -1
        self.command_span = -1
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def open(self, name_id: int) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.command_span
        ident = threading.get_ident()
        with self._lock:
            tid = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.start)
            self.start.append(time.perf_counter())
            self.end.append(math.nan)
            self.aux.append(0.0)
            self.name.append(name_id)
            self.parent.append(parent)
            self.cmd.append(self.command)
            self.thread.append(tid)
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def record(self, key: str, value: float, better):
        with self._lock:
            self.diag[key] = better(self.diag[key], value)

    def arrays(self) -> dict:
        out = {k: np.frombuffer(getattr(self, k), dtype=np.float64 if k in ("start", "end", "aux") else np.int32).copy()
               for k in ("start", "end", "aux", "name", "parent", "cmd", "thread")}
        out["names"] = np.array(self.names)
        return out


def _wrap(tracer: Tracer, fn, name: str, hook=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            tracer.aux[idx] = hook(args, result)
        return result

    return traced


def _wrap_by_caller(tracer: Tracer, fn, short: str):
    """Wrap a numpy/scipy function; spans are named after the calling berrybox module."""
    ids: dict[str, int] = {}

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not caller.startswith("berrybox."):
            return fn(*args, **kwargs)
        nid = ids.get(caller)
        if nid is None:
            nid = ids[caller] = tracer.name_id(f"{caller[len('berrybox.'):]}.{short}")
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _propagate_hook(tracer):
    def hook(args, report):
        tracer.record("fidelity_min", report.fidelity, min)
        tracer.record("edge_weight_max", report.edge_weight, max)
        tracer.record("norm_drift_max", report.norm_drift, max)
        schedule = args[0]
        nseg = len(schedule.path.segments)
        return float(nseg * math.ceil(schedule.resolution / nseg))
    return hook


def install(tracer: Tracer) -> list:
    """Wrap berrybox's public functions and the numeric calls it makes.

    Returns the list of (owner, attribute, original) needed to undo it.
    """
    import berrybox.paths
    import berrybox.wilczek_zee

    hooks = {
        "quadrature.panel_rule": lambda args, res: float(len(res[0])),
        "berry.state_overlap": lambda args, res: abs(res),
        "adiabatic.propagate": _propagate_hook(tracer),
    }
    for fn in EVAL_FUNCTIONS:
        hooks[f"spectrum.{fn}"] = lambda args, res: float(np.size(args[-1]))
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "berrybox" or name.startswith("berrybox."))]
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__.startswith("berrybox.") and not obj.__name__.startswith("_")
                    and id(obj) not in wrappers):
                name = f"{obj.__module__[len('berrybox.'):]}.{obj.__name__}"
                wrappers[id(obj)] = _wrap(tracer, obj, name, hooks.get(name))
    patches = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    for meth in ("point", "velocity"):
        orig = berrybox.paths.ParameterPath.__dict__[meth]
        patches.append((berrybox.paths.ParameterPath, meth, orig))
        setattr(berrybox.paths.ParameterPath, meth, _wrap(tracer, orig, f"paths.ParameterPath.{meth}"))
    for owner, attr in ((np.linalg, "eigh"), (np.linalg, "svd"), (np.polynomial.legendre, "leggauss")):
        orig = getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, _wrap_by_caller(tracer, orig, attr))
    orig = berrybox.wilczek_zee.expm
    patches.append((berrybox.wilczek_zee, "expm", orig))
    berrybox.wilczek_zee.expm = _wrap(tracer, orig, "wilczek_zee.expm")
    return patches


def uninstall(patches):
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def _run_inprocess(main, cmd, workdir: str):
    """Run one command through cli.main in `workdir`; returns (rc, stderr)."""
    for name, text in cmd.configs:
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        os.chdir(cwd)
    return rc, err.getvalue()


def _layer_metrics(tracer: Tracer) -> dict:
    a = tracer.arrays()
    names = list(a["names"])
    n = a["start"].size
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    same = np.zeros(n, dtype=bool)
    same[has_parent] = a["thread"][parent[has_parent]] == a["thread"][has_parent]
    child = np.bincount(parent[same], weights=dur[same], minlength=n)
    self_t = dur - child
    name_of = np.array(names, dtype=object)[a["name"]]
    layer_of = np.array([s.split(".", 1)[0] for s in name_of], dtype=object)
    parent_name = np.where(has_parent, name_of[np.maximum(parent, 0)], "")

    def named(*wanted):
        return np.isin(name_of, wanted)

    def count(m):
        return int(np.count_nonzero(m))

    def total(m, values):
        return float(values[m].sum())

    def layer_self(layer):
        return total(layer_of == layer, self_t)

    # outermost calls only: evaluations and loop phases nest within their group
    eval_names = [f"spectrum.{f}" for f in EVAL_FUNCTIONS]
    outer_eval = named(*eval_names) & ~np.isin(parent_name, eval_names)
    loop_names = [f"berry.{f}" for f in LOOP_PHASE_FUNCTIONS]
    outer_loop = named(*loop_names) & ~np.isin(parent_name, loop_names)
    overlap = named("berry.state_overlap")
    prop = named("adiabatic.propagate")
    return {
        "cli.self_s": layer_self("cli"),
        "svgplot.self_s": layer_self("svgplot"),
        "paths.point_calls": count(named("paths.ParameterPath.point")),
        "paths.self_s": layer_self("paths"),
        "quadrature.rule_calls": count(named("quadrature.panel_rule")),
        "quadrature.nodes": int(total(named("quadrature.panel_rule"), a["aux"])),
        "quadrature.leggauss_calls": count(np.array([s.endswith(".leggauss") for s in name_of], dtype=bool)),
        "quadrature.self_s": layer_self("quadrature"),
        "spectrum.eval_calls": count(outer_eval),
        "spectrum.eval_points": int(total(outer_eval, a["aux"])),
        "spectrum.eval_self_s": total(named(*eval_names), self_t),
        "spectrum.generic_calls": count(named("spectrum.generic_spectrum")),
        "spectrum.generic_s": total(named("spectrum.generic_spectrum"), dur),
        "spectrum.svd_calls": count(named("spectrum.svd")),
        "berry.loop_phase_calls": count(outer_loop),
        "berry.overlap_calls": count(overlap),
        "berry.overlap_self_s": total(named("berry.state_overlap", "berry.loop_phase_overlap"), self_t),
        "berry.interior_calls": count(named("berry.connection_interior")),
        "berry.interior_self_s": total(named("berry.connection_interior"), self_t),
        "berry.mollified_calls": count(named("berry.connection_mollified")),
        "berry.mollified_self_s": total(named("berry.connection_mollified"), self_t),
        "berry.min_abs_overlap": float(a["aux"][overlap].min()) if overlap.any() else 1.0,
        "wilczek_zee.holonomy_s": total(named("wilczek_zee.wz_holonomy"), dur),
        "wilczek_zee.expm_calls": count(named("wilczek_zee.expm")),
        "adiabatic.propagate_s": total(prop, dur),
        "adiabatic.steps": int(total(prop, a["aux"])),
        "adiabatic.eigh_calls": count(named("adiabatic.eigh")),
        "adiabatic.eigh_self_s": total(named("adiabatic.eigh"), self_t),
        "adiabatic.hamiltonian_self_s": total(named("adiabatic.effective_hamiltonian"), self_t),
        "adiabatic.fidelity_min": tracer.diag["fidelity_min"],
        "adiabatic.edge_weight_max": tracer.diag["edge_weight_max"],
        "adiabatic.norm_drift_max": tracer.diag["norm_drift_max"],
    }


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def traced_run(cmds, workdir: str, spans_path: str):
    """Untraced, traced, untraced and reproducibility passes over `cmds`.

    Returns (per-layer metrics, checks of the traced pass).
    """
    from berrybox import cli

    def untraced_pass():
        plain = _fresh(os.path.join(workdir, "plain"))
        t0 = time.perf_counter()
        for cmd in cmds:
            _run_inprocess(cli.main, cmd, plain)
        return time.perf_counter() - t0

    untraced = untraced_pass()

    traced_dir = _fresh(os.path.join(workdir, "traced"))
    tracer = Tracer()
    root = tracer.name_id(ROOT)
    patches = install(tracer)
    results = []
    try:
        t0 = time.perf_counter()
        for i, cmd in enumerate(cmds):
            tracer.command = i
            tracer.command_span = -1
            tracer.command_span = tracer.open(root)
            try:
                results.append(_run_inprocess(cli.main, cmd, traced_dir))
            finally:
                tracer.close(tracer.command_span)
        traced = time.perf_counter() - t0
    finally:
        uninstall(patches)
    # untraced passes on both sides of the traced one, so that warm-up and
    # drift do not land in the overhead
    untraced = 0.5 * (untraced + untraced_pass())
    np.savez(spans_path, **tracer.arrays())

    checks = [reference.check(cmd, rc, err, traced_dir) for cmd, (rc, err) in zip(cmds, results)]

    # rerun each written output from its resolved config and compare bytes
    repro_dir = _fresh(os.path.join(workdir, "repro"))
    mismatch = 0
    for cmd, (rc, _err) in zip(cmds, results):
        out = os.path.join(traced_dir, cmd.out)
        if rc != 0 or not os.path.exists(out + ".config.json"):
            continue
        shutil.copy(out + ".config.json", os.path.join(repro_dir, "repro.config.json"))
        rerun = type(cmd)((cmd.argv[0], "--config", "repro.config.json", "--out", cmd.out), cmd.kind, cmd.params, cmd.out)
        rc2, _ = _run_inprocess(cli.main, rerun, repro_dir)
        with open(out, "rb") as fa:
            same = rc2 == 0 and os.path.exists(os.path.join(repro_dir, cmd.out))
            if same:
                with open(os.path.join(repro_dir, cmd.out), "rb") as fb:
                    same = fa.read() == fb.read()
        mismatch += not same

    metrics = _layer_metrics(tracer)
    metrics["cli.repro_mismatch"] = mismatch
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.start)
    return metrics, checks
