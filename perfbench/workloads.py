"""Seeded command generators for the three benchmark workloads.

`generate(workload, seed)` is a pure function of its arguments: it draws
from its own `random.Random` seeded with the workload name and the seed, so
the same pair always yields the same command list and the program never
sees the seed.  Each `Command` carries the argv given to `berrybox`, the
config files that argv refers to, and the parameters its output is checked
against (see `reference.py`).  The draws are stratified: every seed gets the
same mix of levels, loop kinds, windows and list lengths, so that two seeds
cost about the same and differ only in the continuous parameters.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("oracles", "adiabatic", "quick")

WHY = {
    "oracles": "berry --method all over drawn eta, levels, rectangles and polylines: "
               "time goes to quadrature, eigenfunction evaluation, the overlap chain and "
               "the --plot recompute, none to the propagator.",
    "adiabatic": "adiabatic sweeps at window 8 and 16: time goes to the propagator "
                 "(eigh, Hamiltonian assembly, path points) and the CLI thread pool; "
                 "quadrature and berry do almost no work.",
    "quick": "short bc, spectrum, wz and analytic berry commands plus invalid inputs: "
             "package import dominates each process, then the generic root scan; the "
             "berry and adiabatic hot paths stay idle.",
}


@dataclass(frozen=True)
class Command:
    """One `berrybox` invocation and what its output must satisfy.

    `argv` names files relative to the run's work directory: `out` is the
    primary output, `plot` the SVG (or None), `configs` maps config file
    names to their JSON text.  `kind` selects the check and `params` holds
    the drawn parameters the reference is computed from.
    """

    argv: tuple
    kind: str
    params: dict
    out: str
    plot: str | None = None
    configs: tuple = field(default_factory=tuple)

    def key(self) -> str:
        return json.dumps([self.argv, self.configs], sort_keys=True)


# ---------------------------------------------------------------------------
# drawing helpers


def _r4(x: float) -> float:
    """Round a draw so that its decimal text is the exact value checked."""
    return round(float(x), 4)


def _eta_text(eta) -> str:
    if eta == "inf":
        return "inf"
    return f"{eta[0]:.4f}{eta[1]:+.4f}i"


def _eta_draw(rng: random.Random, category: str):
    """(re, im) of a nondegenerate eta, or the string 'inf'.

    'circle' lies on |eta| = 1, 'off' has |eta| in [0.75, 0.9] or
    [1.1, 1.35]; both keep arg(eta) at least 0.45 rad away from 0 and pi,
    so eta stays away from +-1.  'real' is a real value away from +-1.
    """
    if category == "inf":
        return "inf"
    if category == "real":
        return (_r4(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.7)), 0.0)
    radius = 1.0
    if category == "off":
        radius = rng.uniform(0.75, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.35)
    theta = rng.uniform(0.45, math.pi - 0.45) * rng.choice([-1.0, 1.0])
    return (_r4(radius * math.cos(theta)), _r4(radius * math.sin(theta)))


def _eta_gapped(rng: random.Random, category: str):
    """(re, im) of an eta whose ground wavenumber k_0 lies in [0.8, pi - 0.8].

    Drawn through the Cayley parametrization eta = (z - 1)/(z + 1),
    z = exp(i alpha) / tan(k_0 / 2): 'circle' has alpha = +-pi/2 (|eta| = 1),
    'off' has |alpha| drawn away from pi/2.  Near k_0 = 0 or pi, that is eta
    near +-1, the generic root scan misses levels (reference.KNOWN_DEFECTS),
    which run.py probes on its own.
    """
    k0 = rng.uniform(0.8, math.pi - 0.8)
    if category == "circle":
        a = 0.5 * math.pi
    else:
        a = rng.uniform(0.5, 1.3) if rng.random() < 0.5 else rng.uniform(math.pi - 1.3, math.pi - 0.5)
    z = complex(math.cos(a), rng.choice([-1.0, 1.0]) * math.sin(a)) / math.tan(0.5 * k0)
    e = (z - 1.0) / (z + 1.0)
    return (_r4(e.real), _r4(e.imag))


def wavenumber(n: int, eta) -> float:
    """k_n = 2 n pi + 2 arctan|(1 - eta)/(1 + eta)| (eta = inf: ratio 1)."""
    if eta == "inf":
        ratio = 1.0
    else:
        e = complex(*eta)
        ratio = abs((1.0 - e) / (1.0 + e))
    return 2.0 * math.pi * n + 2.0 * math.atan(ratio)


def _loop_draw(rng: random.Random, k: float, polyline: bool):
    """Closed loop whose c-extent is a drawn number of radians of winding.

    The c-extent is `winding * l_min / |k|`, so the loop phase and the
    overlap-chain error stay of the same size at every level; the l-extent
    is a drawn fraction of l_min.  Returns the vertices, counterclockwise.
    """
    lmin = _r4(rng.uniform(0.7, 1.4))
    dl = rng.uniform(0.15, 0.9) * lmin
    winding = rng.uniform(0.5, 3.0)
    dc = min(winding * lmin / max(abs(k), 1.0), 1.2)
    c0 = rng.uniform(-0.5, 0.5)
    if not polyline:
        l1, l2 = lmin, _r4(lmin + dl)
        c1, c2 = _r4(c0), _r4(c0 + dc)
        return [(l1, c1), (l2, c1), (l2, c2), (l1, c2)]
    # star-shaped polygon around the centre: angles sorted, so it is simple
    # and counterclockwise in the (l, c) plane
    count = rng.randint(3, 5)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
    while min(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2 * math.pi])) < 0.8:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
    # half the rectangle's size: the overlap chain converges only at first
    # order on sloped sides, so polylines need a finer mesh per unit size
    lc, cc = lmin + 0.5 * dl, c0 + 0.5 * dc
    pts = []
    for a in angles:
        rad = rng.uniform(0.8, 1.0)
        pts.append((_r4(lc + 0.25 * dl * rad * math.cos(a)), _r4(cc + 0.25 * dc * rad * math.sin(a))))
    return pts


def _loop_size(mesh: int, k: float, polyline: bool) -> float:
    """Loop size (perimeter / l_min) that an overlap mesh resolves at wavenumber k.

    The overlap chain converges at second order on rectangles and only at
    first order on polylines, whose sloped sides move l and c together.  Both
    power laws were fitted to the finest-mesh error of drawn loops; at this
    size the error stays near 4e-4, inside the 1e-3 gate of criterion 5.
    """
    if polyline:
        return mesh / (300.0 * math.sqrt(1.0 + abs(k)))
    return mesh / (30.0 * (1.0 + abs(k)) ** (2.0 / 3.0))


def _scaled(vertices, size: float):
    """The loop scaled about its lower-left corner to perimeter / l_min = size."""
    l0 = min(p[0] for p in vertices)
    c0 = min(p[1] for p in vertices)
    f = size * l0 / perimeter(vertices)
    return [(_r4(l0 + f * (l - l0)), _r4(c0 + f * (c - c0))) for l, c in vertices]


def perimeter(vertices) -> float:
    """Sum of |dl| + |dc| around the closed polygon through `vertices`."""
    return sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for a, b in zip(vertices, vertices[1:] + vertices[:1]))


def _loop_args(vertices, orientation: int, polyline: bool, config_name: str):
    """argv fragment and config files describing the loop."""
    if not polyline:
        (l1, c1), (l2, _), (_, c2), _ = vertices
        argv = ["--loop-rect", repr(l1), repr(l2), repr(c1), repr(c2), "--orientation", str(orientation)]
        return argv, ()
    cfg = {"loop": {"type": "polyline", "points": [list(p) for p in vertices], "orientation": orientation}}
    return ["--config", config_name], ((config_name, json.dumps(cfg, sort_keys=True)),)


# ---------------------------------------------------------------------------
# workloads


def _oracles(rng: random.Random):
    # each slot fixes a level, an overlap mesh and --plot; the loop is drawn
    # at the size that mesh resolves, so every seed does about the same work.
    # eta categories and loop kinds are shuffled over the slots: every seed
    # has one inf, one real eta and three polylines.  Levels stop at |n| = 5:
    # above it the CLI's k-independent interior step (reference.KNOWN_DEFECTS)
    # fails on some draws, and run.py probes that defect on its own
    slots = [(0, 48, False), (0, 64, True), (1, 96, False), (2, 128, False),
             (3, 160, False), (3, 256, True), (4, 192, False), (5, 224, False)]
    etas = ["circle", "circle", "circle", "off", "off", "off", "inf", "real"]
    polys = [False] * 5 + [True] * 3
    for lst in (etas, polys):
        rng.shuffle(lst)
    cmds = []
    for i, ((absn, mesh, plot), cat, poly) in enumerate(zip(slots, etas, polys)):
        n = absn * rng.choice([-1, 1])
        eta = _eta_draw(rng, cat)
        k = wavenumber(n, eta)
        verts = _scaled(_loop_draw(rng, k, poly), _loop_size(mesh, k, poly))
        orientation = rng.choice([-1, 1])
        loop_argv, configs = _loop_args(verts, orientation, poly, f"o{i}.loop.json")
        out = f"o{i}.csv"
        argv = ["berry", f"--eta={_eta_text(eta)}", "--n", str(n), "--method", "all",
                "--mesh", str(mesh), *loop_argv, "--out", out]
        plot_name = f"o{i}.svg" if plot else None
        if plot:
            argv += ["--plot", plot_name]
        params = {"eta": eta, "n": n, "vertices": verts, "orientation": orientation, "mesh": mesh}
        cmds.append(Command(tuple(argv), "berry", params, out, plot_name, configs))
    return cmds


def _adiabatic(rng: random.Random):
    # (window, number of T values, polyline, eta category); the cost of a
    # command depends on these and on the resolution, so every seed costs the
    # same.  At most three T values: each is a pool thread running threaded
    # BLAS on two cores, and four made the wall time swing with host load
    slots = [(8, 2, False, "circle"), (8, 3, True, "off"), (8, 3, False, "circle"), (16, 2, True, "off")]
    cmds = []
    for i, (window, count, poly, cat) in enumerate(slots):
        eta = _eta_draw(rng, cat)
        n = rng.choice([-1, 0, 0, 1])
        k = wavenumber(n, eta)
        verts = _loop_draw(rng, k, poly)
        orientation = rng.choice([-1, 1])
        # T >= 50 keeps the return fidelity above the 0.99 of criterion 8
        t_max = rng.choice([400.0, 500.0, 600.0])
        rest = sorted(rng.sample([50.0, 75.0, 100.0, 150.0, 200.0], count - 1))
        t_list = rest + [t_max]
        rng.shuffle(t_list)
        loop_argv, configs = _loop_args(verts, orientation, poly, f"a{i}.loop.json")
        out = f"a{i}.csv"
        argv = ["adiabatic", f"--eta={_eta_text(eta)}", "--n", str(n),
                "--T-list", ",".join(f"{t:g}" for t in t_list), "--window", str(window),
                "--resolution", "2000", *loop_argv, "--out", out]
        params = {"eta": eta, "n": n, "vertices": verts, "orientation": orientation,
                  "T_list": t_list, "window": window}
        cmds.append(Command(tuple(argv), "adiabatic", params, out, None, configs))
    return cmds


def _family_unitary(eta):
    """Unitary with (eta, 1) as +1 eigenvector and (-1, conj eta) as -1 eigenvector.

    Derived from the boundary condition psi(a) = eta psi(b),
    conj(eta) psi'(a) = psi'(b) in the Cayley form
    (I - U) v = i (I + U) d, v = (psi(a), psi(b)), d = (-psi'(a), psi'(b)).
    """
    e = complex(*eta)
    den = 1.0 + abs(e) ** 2
    return [[(abs(e) ** 2 - 1.0) / den, 2.0 * e / den], [2.0 * e.conjugate() / den, (1.0 - abs(e) ** 2) / den]]


_NAMED_UNITARIES = {
    "dirichlet": [[-1, 0], [0, -1]],
    "neumann": [[1, 0], [0, 1]],
    "periodic": [[0, 1], [1, 0]],
    "antiperiodic": [[0, -1], [-1, 0]],
}

# each leaves exit code 2 and no output file
_INVALID = [
    ["berry", "--eta", "1", "--n", "0"],
    ["wz", "--eta=0.3000+0.5000i", "--n", "1"],
    ["spectrum", "--eta=0.2000+0.9000i", "--n-min", "3", "--n-max", "1"],
    ["berry", "--eta=0.0000+1.0000i", "--method", "overlap,fourier"],
    ["adiabatic", "--eta=-1", "--T-list", "25,50"],
    ["bc", "--unitary", "[[1,2],[3,4]]"],
]


def _quick(rng: random.Random):
    cmds = []

    def add(argv, kind, params, out, configs=()):
        cmds.append(Command(tuple(argv + ["--out", out]), kind, params, out, None, tuple(configs)))

    eta = _eta_draw(rng, rng.choice(["circle", "off"]))
    add(["bc", f"--eta={_eta_text(eta)}"], "bc_eta", {"eta": eta}, "q0.json")
    name = rng.choice(sorted(_NAMED_UNITARIES))
    add(["bc", "--unitary", json.dumps(_NAMED_UNITARIES[name])], "bc_named", {"kind": name}, "q1.json")
    eta = _eta_draw(rng, rng.choice(["circle", "off"]))
    u = [[[z.real, z.imag] for z in row] for row in _family_unitary(eta)]
    add(["bc", "--unitary", json.dumps(u)], "bc_family", {"eta": eta, "unitary": u}, "q2.json")

    for i, (closed_only, size) in enumerate([(True, rng.randint(4, 8)), (False, rng.randint(6, 12)),
                                             (False, rng.randint(14, 20))]):
        cat = rng.choice(["circle", "off"])
        eta = _eta_draw(rng, cat) if closed_only else _eta_gapped(rng, cat)
        n_min = rng.randint(-8, 0)
        mass, box = _r4(rng.uniform(0.5, 2.0)), _r4(rng.uniform(0.5, 2.0))
        argv = ["spectrum", f"--eta={_eta_text(eta)}", "--n-min", str(n_min), "--n-max", str(n_min + size - 1),
                "--mass", repr(mass), "--l", repr(box)]
        if not closed_only:
            argv += ["--check", "generic"]
        add(argv, "spectrum", {"eta": eta, "n_min": n_min, "n_max": n_min + size - 1, "mass": mass,
                               "l": box, "generic": not closed_only}, f"q{3 + i}.csv")

    for i, pm in enumerate([1, -1]):
        n = rng.randint(1, 4) if pm == 1 else rng.randint(0, 3)
        verts = _loop_draw(rng, math.pi * (2 * n + (pm == -1)), False)
        orientation = rng.choice([-1, 1])
        mesh = rng.choice([16, 32, 64, 128])
        loop_argv, _ = _loop_args(verts, orientation, False, "")
        add(["wz", f"--eta={pm}", "--n", str(n), "--mesh", str(mesh), *loop_argv], "wz",
            {"eta": pm, "n": n, "vertices": verts, "orientation": orientation, "mesh": mesh}, f"q{6 + i}.json")

    eta = _eta_draw(rng, rng.choice(["circle", "off"]))
    n = rng.randint(-4, 4)
    poly = rng.random() < 0.5
    verts = _loop_draw(rng, wavenumber(n, eta), poly)
    orientation = rng.choice([-1, 1])
    loop_argv, configs = _loop_args(verts, orientation, poly, "q8.loop.json")
    add(["berry", f"--eta={_eta_text(eta)}", "--n", str(n), "--method", "analytic", *loop_argv],
        "berry", {"eta": eta, "n": n, "vertices": verts, "orientation": orientation, "mesh": None},
        "q8.csv", configs)

    eta = _eta_draw(rng, rng.choice(["circle", "off"]))
    n = rng.randint(-4, 4)
    verts = _loop_draw(rng, wavenumber(n, eta), False)
    grid = rng.randint(3, 8)
    loop_argv, _ = _loop_args(verts, 1, False, "")
    add(["berry", f"--eta={_eta_text(eta)}", "--n", str(n), "--curvature-map", "--mesh", str(grid), *loop_argv],
        "curvature", {"eta": eta, "n": n, "vertices": verts, "grid": grid}, "q9.csv")

    for j in rng.sample(range(len(_INVALID)), 2):
        add(list(_INVALID[j]), "invalid", {}, f"q{10 + len(cmds)}.out")
    return cmds


def _probes():
    """One fixed command per entry of reference.KNOWN_DEFECTS that shows it."""
    rect = [(1.0, 0.0), (1.2, 0.0), (1.2, 0.05), (1.0, 0.05)]
    tall = [(1.0, 0.0), (1.2, 0.0), (1.2, 1.5), (1.0, 1.5)]
    berry = {"eta": (0.0, 1.0), "orientation": 1}
    return (
        # the interior row misses its gate at n = 20 while analytic is exact
        ("interior-step", Command(
            ("berry", "--eta=0.0000+1.0000i", "--n", "20", "--method", "analytic,interior",
             "--loop-rect", "1.0", "1.2", "0.0", "0.05", "--out", "p0.csv"), "berry",
            {**berry, "n": 20, "vertices": rect, "mesh": None, "methods": ("analytic", "interior")}, "p0.csv")),
        # the plot's mesh-4 chain jumps a whole box height on the tall loop
        ("plot-mesh-floor", Command(
            ("berry", "--eta=0.0000+1.0000i", "--n", "0", "--method", "analytic,overlap", "--mesh", "12",
             "--loop-rect", "1.0", "1.2", "0.0", "1.5", "--out", "p1.csv", "--plot", "p1.svg"), "berry",
            {**berry, "n": 0, "vertices": tall, "mesh": 12, "methods": ("analytic", "overlap")}, "p1.csv", "p1.svg")),
        # k_0 = 0.61: the generic scan pairs level 0 with a wrong root
        ("generic-missed-level", Command(
            ("spectrum", "--eta=0.6620+0.4268i", "--n-min", "0", "--n-max", "5", "--check", "generic",
             "--mass", "1.0", "--l", "1.0", "--out", "p2.csv"), "spectrum",
            {"eta": (0.662, 0.4268), "n_min": 0, "n_max": 5, "mass": 1.0, "l": 1.0, "generic": True}, "p2.csv")),
    )


PROBES = _probes()


def generate(workload: str, seed: int) -> list:
    """Command list of `workload` for `seed`; a pure function of both."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"berrybox-bench:{workload}:{int(seed)}")
    return {"oracles": _oracles, "adiabatic": _adiabatic, "quick": _quick}[workload](rng)
