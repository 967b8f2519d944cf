"""berrybox benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {oracles,adiabatic,quick} --seed N \
        --seconds S --trace {0,1}

--trace 0 (end to end).  One closed loop with a single client: each command
of the workload runs as its own `python -m berrybox` process, started only
after the previous one ended, with the caller's environment plus `src` on
PYTHONPATH (BLAS thread variables are recorded, never set).  The commands
run in order and then again, round after round, until the next one would
end past --seconds; every command runs at least once.  A fixed reference
task (calibrate.py: interpreter, numpy/scipy import, Python and numpy work
on one thread, no berrybox) runs as its own process before the first
command and after every command, so each command execution sits between two
reference runs.  Metrics:

    wall_s       sum over commands of the median wall time of the command's
                 process (the batch's wall time), counted from process start
    cpu_s        the same for user + system CPU time of the process
    wall_rel     sum over commands of the median, over executions, of the
                 command's wall time over the mean wall time of the two
                 reference runs around it
    cpu_rel      the same for CPU time
    peak_rss_mb  largest resident set of any command process
    setup_s      median wall time of six fresh `python -c "import berrybox"`,
                 three before the commands and three after them

wall_rel, cpu_rel, setup_s and peak_rss_mb go into the result line: the host
this was tuned on changed speed by a third within minutes and by a tenth
within seconds, which moves a command and the reference runs next to it
alike, so the paired ratios stay steady while program changes move only the
numerator.  wall_s, cpu_s, the median reference time, the worst phase error
and the failed fraction are printed above it.

--trace 1 (per layer).  `python -X importtime` in fresh processes for the
import metrics, then in-process passes over one round of commands through
`berrybox.cli.main`: untraced, traced (see tracing.py), untraced again, and
a rerun of every output from its `<out>.config.json`.  trace.overhead_s is
the traced pass's wall time minus the mean of the untraced ones.

Every output is checked against the closed forms in reference.py.
`attempted` counts command executions, `failed` those whose check failed;
`correct` is false when any failure is not one of reference.KNOWN_DEFECTS,
or when the generator does not reproduce its command list from the seed.
The workloads' draws stay clear of the known defects; --trace 1 first runs
one fixed probe command per defect (workloads.PROBES) and reports how many
still fail as defects.known_failing (a probe failing another way also makes
`correct` false).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_rel": "ratio", "cpu_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
RAW = {"wall_s": "s", "cpu_s": "s", "calibrate_s": "s", "phase_err_max": "rad", "fail_frac": "ratio"}
PER_LAYER = {
    "import.berrybox_s": "s", "import.scipy_s": "s",
    "cli.self_s": "s", "cli.repro_mismatch": "count",
    "svgplot.self_s": "s",
    "paths.point_calls": "count", "paths.self_s": "s",
    "quadrature.rule_calls": "count", "quadrature.nodes": "count", "quadrature.leggauss_calls": "count",
    "quadrature.self_s": "s",
    "spectrum.eval_calls": "count", "spectrum.eval_points": "count", "spectrum.eval_self_s": "s",
    "spectrum.generic_calls": "count", "spectrum.generic_s": "s", "spectrum.svd_calls": "count",
    "berry.loop_phase_calls": "count", "berry.overlap_calls": "count", "berry.overlap_self_s": "s",
    "berry.interior_calls": "count", "berry.interior_self_s": "s",
    "berry.mollified_calls": "count", "berry.mollified_self_s": "s", "berry.min_abs_overlap": "ratio",
    "wilczek_zee.holonomy_s": "s", "wilczek_zee.expm_calls": "count",
    "adiabatic.propagate_s": "s", "adiabatic.steps": "count", "adiabatic.eigh_calls": "count",
    "adiabatic.eigh_self_s": "s", "adiabatic.hamiltonian_self_s": "s",
    "adiabatic.fidelity_min": "ratio", "adiabatic.edge_weight_max": "ratio", "adiabatic.norm_drift_max": "ratio",
    "trace.overhead_s": "s",
    "phase_err_max": "rad", "fail_frac": "ratio",
    "defects.known_failing": "count",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment(seed: int) -> dict:
    """Machine and library facts the numbers depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas,
        "seed": seed,
    }


def run_process(argv, cwd, env):
    """Run one child to completion; returns (rc, wall_s, cpu_s, maxrss_mb, stderr)."""
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stderr


def calibrate(cwd, env) -> tuple[float, float]:
    """(wall_s, cpu_s) of one run of the reference task."""
    rc, wall, cpu, _, stderr = run_process([sys.executable, str(CALIBRATE)], cwd, env)
    if rc != 0:
        raise RuntimeError(f"calibrate.py failed: {stderr.strip()[-300:]}")
    return wall, cpu


def measure_setup(env, cwd) -> list:
    """Wall times of SETUP_REPEATS fresh `import berrybox` processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        rc, wall, _, _, err = run_process([sys.executable, "-c", "import berrybox"], cwd, env)
        if rc != 0:
            raise RuntimeError(f"import berrybox failed: {err.strip()[-300:]}")
        times.append(wall)
    return times


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(text: str) -> tuple[float, float]:
    """(berrybox, scipy) cumulative import seconds from `-X importtime` output.

    scipy's share is the sum over scipy modules whose importer is not itself
    a scipy module, so nested scipy imports are not counted twice.
    """
    entries = [(len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6) for m in map(_IMPORT_LINE.match, text.splitlines()) if m]
    berrybox_s = scipy_s = 0.0
    # children are listed before their importer, one level deeper
    for i, (depth, name, cum) in enumerate(entries):
        if name == "berrybox":
            berrybox_s = cum
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy_s += cum
    return berrybox_s, scipy_s


def measure_imports(env, cwd) -> tuple[float, float]:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import berrybox"], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"import berrybox failed: {proc.stderr.strip()[-300:]}")
        samples.append(import_times(proc.stderr))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def generator_reproducible(workload: str, seed: int) -> bool:
    """Same seed, same commands; another seed, other draws."""
    first = [c.key() for c in workloads.generate(workload, seed)]
    again = [c.key() for c in workloads.generate(workload, seed)]
    other = [c.key() for c in workloads.generate(workload, seed + 1)]
    return first == again and first != other


def _clear_outputs(cmd, wd):
    for name in (cmd.out, f"{cmd.out}.config.json", cmd.plot):
        if name and os.path.exists(os.path.join(wd, name)):
            os.remove(os.path.join(wd, name))


def end_to_end(cmds, seconds: float, wd: str, env):
    """Closed-loop rounds over `cmds`; returns (metrics, checks, runs per command)."""
    for cmd in cmds:
        for name, text in cmd.configs:
            with open(os.path.join(wd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    base = [sys.executable, "-m", "berrybox"]
    # per command and execution: its (wall, cpu) and the mean (wall, cpu) of the two reference runs around it
    runs = [[] for _ in cmds]
    peak = 0.0
    checks = []
    deadline = time.perf_counter() + seconds
    before = calibrate(wd, env)
    calib = [before]
    i = 0
    while True:
        j = i % len(cmds)
        if i >= len(cmds) and time.perf_counter() + statistics.median(r[0] + r[2] for r in runs[j]) > deadline:
            break
        cmd = cmds[j]
        _clear_outputs(cmd, wd)
        rc, wall, cpu, rss, stderr = run_process(base + list(cmd.argv), wd, env)
        after = calibrate(wd, env)
        calib.append(after)
        ref_wall, ref_cpu = 0.5 * (before[0] + after[0]), 0.5 * (before[1] + after[1])
        runs[j].append((wall, cpu, ref_wall, ref_cpu))
        before = after
        peak = max(peak, rss)
        checks.append(reference.check(cmd, rc, stderr, wd))
        i += 1
    metrics = {
        "wall_rel": sum(statistics.median(w / rw for w, _, rw, _ in r) for r in runs),
        "cpu_rel": sum(statistics.median(c / rcpu for _, c, _, rcpu in r) for r in runs),
        "peak_rss_mb": peak,
        "wall_s": sum(statistics.median(x[0] for x in r) for r in runs),
        "cpu_s": sum(statistics.median(x[1] for x in r) for r in runs),
        "calibrate_s": statistics.median(c[0] for c in calib),
    }
    return metrics, checks, [len(r) for r in runs]


def probe_defects(wd: str, env):
    """Run workloads.PROBES; returns (probes still failing as expected, unexpected outcomes, lines)."""
    base = [sys.executable, "-m", "berrybox"]
    still = unexpected = 0
    lines = []
    for label, cmd in workloads.PROBES:
        _clear_outputs(cmd, wd)
        rc, _, _, _, stderr = run_process(base + list(cmd.argv), wd, env)
        res = reference.check(cmd, rc, stderr, wd)
        if res.ok:
            lines.append(f"  probe [{label}] no longer fails")
        elif res.known == label:
            still += 1
            lines.append(f"  probe [{label}] still fails: {res.reason}")
        else:
            unexpected += 1
            lines.append(f"  probe [{label}] fails unexpectedly: {res.reason}")
    return still, unexpected, lines


def summarize(cmds, checks):
    """(failed, unknown failures, worst phase error, failure lines)."""
    failed = [(c, r) for c, r in zip(cmds, checks) if not r.ok]
    unknown = [(c, r) for c, r in failed if r.known is None]
    worst = max((e for r in checks for e in r.errors.values()), default=0.0)
    lines = [f"  FAIL [{r.known or 'unexpected'}] {' '.join(c.argv)}: {r.reason}" for c, r in failed]
    return len(failed), len(unknown), worst, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its current child (see run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "berrybox" / "__init__.py").is_file():
        print(f"perfbench: no berrybox sources under {SRC}; run from the root of a berrybox checkout",
              file=sys.stderr)
        return 1

    env = _env()
    wd = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        info = environment(args.seed)
        print("environment " + json.dumps(info, sort_keys=True), flush=True)
        reproducible = generator_reproducible(args.workload, args.seed)
        cmds = workloads.generate(args.workload, args.seed)
        print(f"workload {args.workload}: {len(cmds)} commands; {workloads.WHY[args.workload]}", flush=True)
        probe_unexpected = 0
        if args.trace:
            import tracing

            sys.path.insert(0, str(SRC))
            known_failing, probe_unexpected, probe_lines = probe_defects(str(wd), env)
            print("\n".join(probe_lines), flush=True)
            berrybox_s, scipy_s = measure_imports(env, str(wd))
            layer, checks = tracing.traced_run(cmds, str(wd), str(OUT / f"spans-{args.workload}-{args.seed}.npz"))
            layer["import.berrybox_s"], layer["import.scipy_s"] = berrybox_s, scipy_s
            layer["defects.known_failing"] = known_failing
            print(f"traced {layer['trace.spans']} spans", flush=True)
            names = PER_LAYER
            executed = cmds
        else:
            setup = measure_setup(env, str(wd))
            layer, checks, runs = end_to_end(cmds, args.seconds, str(wd), env)
            layer["setup_s"] = statistics.median(setup + measure_setup(env, str(wd)))
            print(f"executions per command: {runs}", flush=True)
            names = END_TO_END
            executed = [cmds[i % len(cmds)] for i in range(len(checks))]
        failed, unknown, worst, lines = summarize(executed, checks)
        layer["phase_err_max"] = worst
        layer["fail_frac"] = failed / len(checks)
        for line in lines:
            print(line)
        for name, unit in {**names, **({} if args.trace else RAW)}.items():
            print(f"  {name:32s} {layer[name]:.6g} {unit}")
        result = {
            "correct": reproducible and unknown == 0 and probe_unexpected == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in names.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(wd, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
