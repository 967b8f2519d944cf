"""Command-line interface: output formats, determinism, config round-trip."""

import argparse
import json
import pathlib
import re
import shlex
import subprocess
import sys
import threading
import warnings

import dataclasses

import numpy as np
import pytest

import berrybox.berry
import berrybox.cli
from berrybox import reference_rule
from berrybox.cli import main


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# bc


def test_bc_eta_named(tmp_path):
    out = tmp_path / "bc.json"
    assert run("bc", "--eta", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "periodic"
    assert doc["dilation_invariant"] is True
    assert run("bc", "--eta", "-1", "--out", str(out)) == 0
    assert json.loads(out.read_text())["classification"] == "antiperiodic"


def test_bc_unitary_roundtrip(tmp_path):
    out = tmp_path / "bc.json"
    assert run("bc", "--unitary", "[[0,1],[1,0]]", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "periodic"
    assert doc["eta"].startswith("1.00000000e+00")


def test_bc_invalid_inputs():
    assert run("bc", "--eta", "junk") == 2
    assert run("bc", "--unitary", "[[1,0.2],[0,1]]") == 2


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_table(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--eta", "0+1i", "--n-min", "0", "--n-max", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["n", "k", "alpha", "lambda"]
    n0 = [float(v) for v in rows[0]]
    n1 = [float(v) for v in rows[1]]
    assert n0 == pytest.approx([0, np.pi / 2, np.pi / 2, np.pi ** 2 / 8], abs=1e-7)
    assert n1 == pytest.approx([1, 2.5 * np.pi, np.pi / 2, (2.5 * np.pi) ** 2 / 2], abs=1e-6)


def test_spectrum_real_eta_alpha_zero(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--eta", "0", "--n-min", "0", "--n-max", "3", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert all(abs(float(r[2])) < 1e-14 for r in rows)


def test_spectrum_generic_check_column(tmp_path):
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--eta", "0+1i", "--n-min", "-2", "--n-max", "2",
               "--check", "generic", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header[-1] == "lambda_numeric"
    for r in rows:
        lam, lam_num = float(r[3]), float(r[4])
        assert lam_num == pytest.approx(lam, rel=1e-9)


def test_spectrum_degenerate(tmp_path):
    # eta = +-1 selects the paired-basis table by itself, so its config
    # reruns (the removed --degenerate flag was not a config key)
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--eta", "1", "--n-min", "0", "--n-max", "2", "--out", str(out)) == 0
    again = tmp_path / "again.csv"
    assert run("spectrum", "--config", str(tmp_path / "spec.csv.config.json"), "--out", str(again)) == 0
    assert again.read_bytes() == out.read_bytes()
    _, rows = read_csv(out)
    # n = 0 has no two-dimensional eigenspace at eta = +1
    assert [r[0] for r in rows] == ["1", "2"]
    assert float(rows[0][1]) == pytest.approx(2 * np.pi, abs=1e-7)
    assert rows[0][2] == "nan"


# ---------------------------------------------------------------------------
# berry


def test_berry_all_methods_agree(tmp_path):
    out = tmp_path / "berry.csv"
    assert run("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "all", "--mesh", "64", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["method", "mesh", "eps", "h", "phase", "err_est"]
    finals = {}
    for r in rows:
        finals[r[0]] = float(r[4])  # last row per method wins
    assert set(finals) == {"analytic", "interior", "mollified", "overlap"}
    values = list(finals.values())
    assert max(values) - min(values) < 1e-3
    # CSV carries 9 significant digits
    assert abs(abs(finals["analytic"]) - np.pi / 4) < 1e-8


def test_berry_real_eta_phases_vanish(tmp_path):
    out = tmp_path / "berry.csv"
    assert run("berry", "--eta", "0.5", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "all", "--mesh", "128", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert all(abs(float(r[4])) < 1e-4 for r in rows)


def test_berry_tol_gate_exit3(tmp_path):
    out = tmp_path / "berry.csv"
    code = run("berry", "--eta", "0+2i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "analytic,overlap", "--mesh", "64", "--tol", "1e-9",
               "--out", str(out))
    assert code == 3


def test_berry_tol_zero_is_the_strictest_valid_tolerance(tmp_path):
    assert run("berry", "--method", "analytic", "--tol", "0", "--out", str(tmp_path / "b.csv")) == 0


def test_berry_tol_compares_phases_on_the_circle(tmp_path):
    # overlap and analytic differ by 6 pi at n = 5; the raw spread exited 3
    out = tmp_path / "berry.csv"
    assert run("berry", "--n", "5", "--method", "all", "--tol", "1e-3", "--out", str(out)) == 0
    _, rows = read_csv(out)
    finals = {r[0]: float(r[4]) for r in rows}
    assert abs(finals["overlap"] - finals["analytic"]) > 1.0


def test_berry_tol_reports_real_disagreement(tmp_path, monkeypatch, capsys):
    real = berrybox.cli.loop_phase_overlap_meshes

    def shifted(m, path, meshes):
        return [dataclasses.replace(r, phase=r.phase + 0.1) for r in real(m, path, meshes)]

    argv = ("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
            "--method", "analytic,overlap", "--mesh", "64", "--tol", "1e-2", "--out", str(tmp_path / "b.csv"))
    assert run(*argv) == 0
    monkeypatch.setattr(berrybox.cli, "loop_phase_overlap_meshes", shifted)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert "overlap=" in err and "off by 1.0" in err


@pytest.mark.parametrize("n", [20, 50])
def test_berry_interior_step_shrinks_with_k(tmp_path, n):
    out = tmp_path / "interior.csv"
    assert run("berry", "--eta", "0+1i", "--n", str(n), "--method", "analytic,interior",
               "--loop-rect", "1.0", "1.2", "0.0", "0.05", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert [r[3] for r in rows[1:]] == ["1.00000000e-04", "5.00000000e-05"]
    err = abs(np.angle(np.exp(1j * (float(rows[-1][4]) - float(rows[0][4])))))
    # criterion 4 gates the connection at 1e-6 per unit path length, so the
    # loop phase of this rectangle (perimeter 0.5) within 5e-7
    assert err <= 1e-6 * 0.5


def test_berry_curvature_map(tmp_path):
    out = tmp_path / "map.csv"
    assert run("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--curvature-map", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["l", "c", "f_lc"]
    k = np.pi / 2
    for r in rows:
        l, c, f = (float(v) for v in r)
        assert f == pytest.approx(k / l ** 2, rel=1e-8)


def test_berry_plot(tmp_path):
    out = tmp_path / "berry.csv"
    svg = tmp_path / "conv.svg"
    assert run("berry", "--eta", "0+2i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "overlap", "--mesh", "64", "--out", str(out),
               "--plot", str(svg)) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "polyline" in text and "</svg>" in text


def test_berry_plot_small_mesh_draws_table_meshes(tmp_path, monkeypatch):
    # the plot used to floor its meshes at 8, below the table's 16, and the
    # 8-point half mesh of the tall loop has no neighbour overlap
    drawn = []
    real = berrybox.cli.svgplot.line_plot

    def capture(series, **kwargs):
        drawn.append(series)
        return real(series, **kwargs)

    monkeypatch.setattr(berrybox.cli.svgplot, "line_plot", capture)
    out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    assert run("berry", "--n", "0", "--method", "analytic,overlap", "--mesh", "12",
               "--loop-rect", "1.0", "1.2", "0.0", "1.5", "--out", str(out), "--plot", str(svg)) == 0
    _, rows = read_csv(out)
    meshes = [int(r[1]) for r in rows if r[0] == "overlap"]
    assert meshes == [16]
    assert [s["x"] for s in drawn[0] if s["label"] == "overlap |error|"] == [meshes]
    assert svg.read_text(encoding="utf-8").rstrip().endswith("</svg>")


def _count_calls(monkeypatch, owner, attr, counter):
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        counter[attr] = counter.get(attr, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_berry_plot_reuses_table_phases(tmp_path, monkeypatch):
    argv = ["berry", "--eta", "0.3+0.6i", "--n", "1", "--loop-rect", "1", "1.3", "0", "0.2",
            "--method", "all", "--mesh", "64", "--out", str(tmp_path / "b.csv")]
    counts = []
    for extra in ([], ["--plot", str(tmp_path / "b.svg")]):
        counter = {}
        with monkeypatch.context() as mp:
            _count_calls(mp, berrybox.cli, "loop_phase_connection", counter)
            _count_calls(mp, berrybox.berry, "loop_phase_connection", counter)
            _count_calls(mp, berrybox.berry, "_overlap_chain_phase", counter)
            assert run(*argv, *extra) == 0
        counts.append(counter)
    assert counts[0] == counts[1]
    assert counts[0]["_overlap_chain_phase"] == 4  # chains at 8, 16, 32 and 64 points


def test_berry_builds_each_gauss_rule_once(tmp_path, monkeypatch):
    calls = []
    real = np.polynomial.legendre.leggauss

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    reference_rule.cache_clear()
    try:
        assert run("berry", "--method", "all", "--mesh", "64", "--out", str(tmp_path / "b.csv"),
                   "--plot", str(tmp_path / "b.svg")) == 0
    finally:
        reference_rule.cache_clear()
    assert calls and len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# wz


def test_wz_holonomy_json(tmp_path):
    out = tmp_path / "wz.json"
    assert run("wz", "--eta", "1", "--n", "1", "--loop-rect", "1", "2", "0", "1",
               "--mesh", "128", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    hol = np.array([[complex(s.replace("i", "j")) for s in row] for row in doc["holonomy"]])
    assert np.max(np.abs(hol + np.eye(2))) < 1e-6
    assert sorted(abs(p) for p in doc["eigenphases"]) == pytest.approx([np.pi, np.pi], abs=1e-6)
    assert doc["offdiag_residue"] < 1e-12


def test_wz_zero_area_identity(tmp_path):
    out = tmp_path / "wz.json"
    assert run("wz", "--eta", "1", "--n", "1", "--loop-rect", "1", "2", "0.5", "0.5",
               "--mesh", "64", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    hol = np.array([[complex(s.replace("i", "j")) for s in row] for row in doc["holonomy"]])
    assert np.max(np.abs(hol - np.eye(2))) < 1e-12


def test_wz_rejects_nondegenerate(tmp_path):
    assert run("wz", "--eta", "0+1i", "--n", "1") == 2
    out = tmp_path / "wz.json"
    assert run("wz", "--eta", "0.3+0.5i", "--n", "1", "--out", str(out)) == 2
    assert not out.exists() and not (tmp_path / "wz.json.config.json").exists()


@pytest.mark.parametrize("near, exact", [("1.0000000000000002", "1"), ("-0.9999999999999998", "-1")])
def test_wz_accepts_eta_within_degeneracy_tolerance(tmp_path, near, exact):
    # berry rejects these eta as degenerate, so wz must take them
    assert run("berry", "--eta", near, "--method", "analytic") == 2
    a, b = tmp_path / "near.json", tmp_path / "exact.json"
    args = ("--n", "1", "--loop-rect", "1", "2", "0", "1", "--mesh", "32")
    assert run("wz", "--eta", near, *args, "--out", str(a)) == 0
    assert run("wz", "--eta", exact, *args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# adiabatic


def test_adiabatic_constant_loop(tmp_path):
    out = tmp_path / "adia.csv"
    assert run("adiabatic", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "1", "0", "0",
               "--T-list", "5,10", "--window", "4", "--resolution", "400",
               "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["T", "total", "dynamical", "geometric", "fidelity", "warn"]
    for r in rows:
        assert abs(float(r[3])) < 1e-9
        assert float(r[4]) == pytest.approx(1.0, abs=1e-9)
        assert r[5] == "0"


def test_adiabatic_propagates_in_order_on_calling_thread(monkeypatch, tmp_path):
    calls = []
    propagate = berrybox.cli.propagate

    def recording(schedule, *rest):
        calls.append((schedule.duration, threading.get_ident()))
        return propagate(schedule, *rest)

    monkeypatch.setattr(berrybox.cli, "propagate", recording)
    assert run("adiabatic", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "1.2", "0", "0.2",
               "--T-list", "6,2,4", "--window", "2", "--resolution", "100",
               "--out", str(tmp_path / "adia.csv")) == 0
    assert calls == [(6.0, threading.get_ident()), (2.0, threading.get_ident()), (4.0, threading.get_ident())]


def test_adiabatic_error_decreases(tmp_path):
    out = tmp_path / "adia.csv"
    assert run("adiabatic", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--T-list", "10,20,40", "--window", "6", "--resolution", "1600",
               "--out", str(out)) == 0
    _, rows = read_csv(out)
    errs = [abs(float(r[3]) - np.pi / 4) for r in rows]
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_adiabatic_real_eta_geometric_column(tmp_path):
    # vanishing curvature needs a very slow traversal before the 1/T tail
    # drops under 1e-3
    out = tmp_path / "adia.csv"
    assert run("adiabatic", "--eta", "0", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--T-list", "4000,8000", "--window", "5", "--resolution", "6000",
               "--out", str(out)) == 0
    _, rows = read_csv(out)
    geos = [abs(float(r[3])) for r in rows]
    assert geos[1] < geos[0]
    assert geos[1] < 1e-3


# ---------------------------------------------------------------------------
# determinism and config round-trip


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
            "--method", "analytic,overlap", "--mesh", "32")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# a unitary whose 9-digit copy reruns to an eta one digit off in the last place
_UNITARY = ("[[[0.18242147301324535, 0.0], [-0.5891470865466554, 0.7871646057828473]], "
            "[[-0.5891470865466554, -0.7871646057828473], [-0.18242147301324535, 0.0]]]")


@pytest.mark.parametrize("argv, keys, values", [
    pytest.param(("bc", "--unitary", _UNITARY), {"eta", "unitary"}, {"unitary": _UNITARY}, id="bc"),
    pytest.param(("spectrum", "--eta", "0.5+0.5i", "--mass", "1.3", "--l", "1.7", "--n-min", "-1", "--n-max", "2"),
                 {"eta", "mass", "n", "geometry", "method"},
                 {"mass": 1.3, "geometry": {"l": 1.7, "c": 0.0}, "n": [-1, 2]}, id="spectrum"),
    pytest.param(("berry", "--eta", "0.3+0.6i", "--n", "1", "--loop-rect", "1", "1.3", "0", "0.2",
                  "--orientation", "-1", "--method", "analytic,overlap", "--mesh", "32"),
                 {"eta", "n", "loop", "method", "mesh", "eps_list", "h"},
                 {"loop": {"type": "rectangle", "l1": 1.0, "l2": 1.3, "c1": 0.0, "c2": 0.2, "orientation": -1}},
                 id="berry"),
    pytest.param(("wz", "--eta", "-1", "--n", "0", "--loop-rect", "1", "2", "0", "1", "--mesh", "32"),
                 {"eta", "n", "loop", "mesh"}, {"mesh": 32}, id="wz"),
    # the default eta used to be 0+1i, which wz rejects
    pytest.param(("wz",), {"eta", "n", "loop", "mesh"}, {"eta": "-1", "n": 0}, id="wz-defaults"),
    pytest.param(("adiabatic", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "1.2", "0", "0.2",
                  "--T-list", "4,2", "--window", "2", "--resolution", "100"),
                 {"eta", "mass", "n", "loop", "T_list", "window", "resolution"}, {"T_list": [4.0, 2.0]},
                 id="adiabatic"),
])
def test_config_roundtrip(tmp_path, argv, keys, values):
    first = tmp_path / "first.out"
    again = tmp_path / "again.out"
    assert run(*argv, "--out", str(first)) == 0
    cfgfile = tmp_path / "first.out.config.json"
    cfg = json.loads(cfgfile.read_text())
    assert set(cfg) == keys
    assert {k: cfg[k] for k in values} == values
    assert run(argv[0], "--config", str(cfgfile), "--out", str(again)) == 0
    assert first.read_bytes() == again.read_bytes()


def test_spectrum_flags_override_config_components(tmp_path):
    # --n-min and --c used to replace the whole range and geometry, with
    # their own defaults (n max 5, l 1) in place of the config's values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "geometry": {"l": 2.0, "c": 0.5}}))
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--config", str(cfg), "--n-min", "1", "--c", "0", "--out", str(out)) == 0
    written = json.loads((tmp_path / "spec.csv.config.json").read_text())
    assert written["n"] == [1, 3]
    assert written["geometry"] == {"l": 2.0, "c": 0.0}
    assert [r[0] for r in read_csv(out)[1]] == ["1", "2", "3"]


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert run("spectrum", "--config", str(bad)) == 2


def exit_code(*argv):
    """Exit code of main(argv), including argparse's SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


_POLYGON = {"type": "polyline", "points": [[1.0, 0.0], [1.5, 0.0], [1.2, 0.4]]}
# a non-finite vertex used to pass the l > 0 check and exit 2 only by
# accident ("not closed", int(nan)), an infinite one after a RuntimeWarning
_NONFINITE_LOOPS = [
    pytest.param(argv + loop_argv, loop_config, id=f"{argv[0]}-{name}")
    for argv in (["berry"], ["wz", "--eta", "1", "--n", "1"], ["adiabatic"])
    for name, loop_argv, loop_config in (
        ("loop-rect-nan", ["--loop-rect", "1", "2", "nan", "1"], None),
        ("polyline-nan", [], {"loop": {**_POLYGON, "points": [[1.0, 0.0], [1.5, float("nan")], [1.2, 0.4]]}}),
        ("polyline-infinity", [], {"loop": {**_POLYGON, "points": [[1.0, 0.0], [float("inf"), 0.0], [1.2, 0.4]]}}),
    )
]


@pytest.mark.parametrize("argv, config", [
    pytest.param(["bc", "--seed", "1"], None, id="bc-seed"),
    pytest.param(["wz", "--eta", "1", "--n", "1", "--plot", "x.svg"], None, id="wz-plot"),
    pytest.param(["adiabatic", "--tol", "1e-3"], None, id="adiabatic-tol"),
    pytest.param(["spectrum", "--tol", "1"], None, id="spectrum-tol"),
    pytest.param(["spectrum", "--eta", "1", "--degenerate"], None, id="spectrum-degenerate"),
    pytest.param(["spectrum", "--eta", "-1", "--check", "generic"], None, id="spectrum-degenerate-generic"),
    pytest.param(["bc", "--plot", "x.svg"], None, id="bc-plot"),
    pytest.param(["berry", "--method", "analytic", "--curvature-map"], None, id="berry-method-and-map"),
    pytest.param(["berry", "--curvature-map", "--plot", "x.svg"], None, id="berry-map-plot"),
    pytest.param(["bc"], {"T_list": [1]}, id="bc-config-T_list"),
    pytest.param(["wz", "--eta", "1", "--n", "1"], {"method": "all"}, id="wz-config-method"),
    pytest.param(["spectrum"], {"seed": None}, id="spectrum-config-seed"),
    pytest.param(["spectrum"], {"method": "overlap"}, id="spectrum-config-berry-method"),
    pytest.param(["spectrum"], {"geometry": {"l": 2.0}}, id="spectrum-config-geometry-without-c"),
    pytest.param(["berry", "--curvature-map"], {"loop": _POLYGON}, id="berry-map-polyline"),
    # config values of the wrong JSON type used to crash with a traceback (exit 1)
    pytest.param(["spectrum"], {"n": 2.5}, id="spectrum-config-n-float"),
    pytest.param(["wz", "--eta", "1", "--n", "1"], {"mesh": [1]}, id="wz-config-mesh-list"),
    pytest.param(["adiabatic"], {"T_list": 5}, id="adiabatic-config-T_list-number"),
    pytest.param(["spectrum"], {"geometry": {"l": [2.0], "c": 0.0}}, id="spectrum-config-geometry-list"),
    # a nonpositive mesh used to collapse to one mesh-16 overlap row, or to
    # an empty curvature map
    pytest.param(["berry", "--method", "overlap", "--mesh", "-4"], None, id="berry-overlap-mesh-negative"),
    pytest.param(["berry", "--method", "overlap", "--mesh", "0"], None, id="berry-overlap-mesh-zero"),
    pytest.param(["berry", "--curvature-map", "--mesh", "0"], None, id="berry-map-mesh-zero"),
    pytest.param(["berry"], {"mesh": -1}, id="berry-config-mesh-negative"),
    *_NONFINITE_LOOPS,
    # a non-finite traversal time used to print a row of nan and -inf, and
    # a bad eps list to fail only after every width had been computed
    pytest.param(["adiabatic", "--T-list", "inf", "--window", "1", "--resolution", "100"], None, id="adiabatic-T-inf"),
    pytest.param(["adiabatic", "--T-list", "nan", "--window", "1", "--resolution", "100"], None, id="adiabatic-T-nan"),
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1,0.05,inf"], None, id="berry-eps-inf"),
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1"], None, id="berry-eps-two"),
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1,0.04"], None, id="berry-eps-ratio"),
    # a mass of 0 used to raise ZeroDivisionError in the degenerate table
    # (exit 1), a negative one to print negative levels, an infinite one
    # to print lambda = 0
    *[pytest.param(["spectrum", "--eta", eta, "--n-max", "2", "--mass", mass], None, id=f"spectrum-{name}-mass-{mass}")
      for name, eta in (("degenerate", "1"), ("nondegenerate", "0+1i")) for mass in ("0", "-1", "inf", "nan")],
    pytest.param(["spectrum", "--eta", "1", "--n-max", "2"], {"mass": -1}, id="spectrum-config-mass-negative"),
    pytest.param(["adiabatic", "--mass", "inf", "--T-list", "2", "--window", "1", "--resolution", "100"], None,
                 id="adiabatic-mass-inf"),
    # an infinite box length used to print lambda = 0, a non-finite center
    # to exit 0
    *[pytest.param(["spectrum", "--eta", eta, "--n-max", "2", flag, value], None, id=f"spectrum-{eta}-{flag[2:]}-{value}")
      for eta in ("1", "0+1i") for flag, value in (("--l", "inf"), ("--l", "nan"), ("--c", "nan"), ("--c", "inf"))],
    # --tol nan used to switch the check off (exit 0), a negative --tol to
    # report a disagreement (exit 3) when every oracle agrees
    pytest.param(["berry", "--method", "analytic,overlap", "--mesh", "16", "--tol", "nan"], None, id="berry-tol-nan"),
    pytest.param(["berry", "--method", "analytic,overlap", "--mesh", "16", "--tol", "-1"], None, id="berry-tol-negative"),
    pytest.param(["berry", "--method", "analytic", "--tol", "inf"], None, id="berry-tol-inf"),
])
def test_unread_or_invalid_option_exits_2_before_output(tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(*argv, "--out", "o.out") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config is not None else [])


@pytest.mark.parametrize("loop", [None, _POLYGON, {**_POLYGON, "orientation": -1}],
                         ids=["default", "polyline", "polyline-reversed"])
def test_orientation_flag_reverses_any_loop(tmp_path, loop):
    # --orientation used to apply only together with --loop-rect
    base = []
    if loop is not None:
        (tmp_path / "loop.json").write_text(json.dumps({"loop": loop}))
        base = ["--config", str(tmp_path / "loop.json")]
    out = tmp_path / "b.csv"
    phases = {}
    for orientation in ("1", "-1"):
        assert run("berry", "--method", "analytic", *base, "--orientation", orientation, "--out", str(out)) == 0
        phases[orientation] = float(read_csv(out)[1][0][4])
        assert json.loads((tmp_path / "b.csv.config.json").read_text())["loop"]["orientation"] == int(orientation)
    assert phases["1"] != 0.0
    assert phases["-1"] == -phases["1"]
    assert run("berry", "--method", "analytic", *base, "--out", str(out)) == 0
    unflagged = float(read_csv(out)[1][0][4])
    assert unflagged == phases["-1" if loop and loop.get("orientation") == -1 else "1"]


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "berrybox", "bc", "--eta", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "periodic"


# ---------------------------------------------------------------------------
# documentation


def _readme_command_section():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index("## Command line"):text.index("## Demos")]


def test_readme_commands_parse():
    # parse only: the documented command lines must stay valid for the parser
    section = _readme_command_section()
    block = section[section.index("```sh"):]
    block = block[:block.index("```", 5)]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in lines if words and words[0] == "berrybox"]
    assert {words[1] for words in commands} == set(berrybox.cli._DEFAULTS)
    parser = berrybox.cli.build_parser()
    for words in commands:
        parser.parse_args(words[1:])


def test_readme_lists_each_subcommand_options_and_keys():
    # the table rows read: | `name` | `--flag`, ... | `key`, ... |
    rows = {}
    for line in _readme_command_section().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in berrybox.cli._DEFAULTS:
            rows[cells[0].strip("`")] = [set(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]]
    parser = berrybox.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(rows) == set(berrybox.cli._DEFAULTS)
    for name, (flags, keys) in rows.items():
        parsed = {s for a in subparsers[name]._actions for s in a.option_strings} - {"-h", "--help", "--config", "--out"}
        assert flags == parsed, name
        assert keys == set(berrybox.cli._DEFAULTS[name]), name
