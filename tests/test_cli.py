"""Command-line interface: output formats, determinism, config round-trip."""

import argparse
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from array_propagator import propagate_arrays
import berrybox.adiabatic
import berrybox.berry
import berrybox.cli
import berrybox.cli.adiabatic
import berrybox.closed_form
import berrybox.svgplot
from berrybox.adiabatic import Schedule
from berrybox.paths import rectangle_loop
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


def test_bc_printed_unitary_reruns_to_the_same_document(tmp_path):
    # the unitary was printed at 9 digits, off by up to 5e-9 against the 1e-9
    # unitarity and classification checks: passed back as --unitary, 21 of
    # these 400 eta exited 2 ("matrix is not unitary"), and 146 more reran to
    # another document, an eta a digit away
    rng = random.Random(2015)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    for _ in range(400):
        eta = f"{rng.uniform(-3.0, 3.0):.4f}{rng.uniform(-3.0, 3.0):+.4f}i"
        assert run("bc", f"--eta={eta}", "--out", str(first)) == 0
        doc = json.loads(first.read_text())
        assert run("bc", "--unitary", json.dumps(doc["unitary"]), "--out", str(again)) == 0, eta
        assert json.loads(again.read_text()) == doc, eta


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


def test_spectrum_generic_check_catches_a_wrong_wavenumber(tmp_path, monkeypatch, capsys):
    # every closed-form level 0.01 off in k: the table alone exits 0, the
    # generic check exits 3 with one line on stderr, after writing the table
    argv = ("spectrum", "--eta", "0.3+0.6i", "--n-min", "-3", "--n-max", "3")
    assert run(*argv, "--check", "generic", "--out", str(tmp_path / "right.csv")) == 0
    wavenumber = berrybox.closed_form.wavenumber
    monkeypatch.setattr(berrybox.closed_form, "wavenumber", lambda n, eta: wavenumber(n, eta) + 0.01)
    assert run(*argv, "--out", str(tmp_path / "plain.csv")) == 0
    capsys.readouterr()
    out = tmp_path / "wrong.csv"
    assert run(*argv, "--check", "generic", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("generic check disagreement") and err.count("\n") == 1
    assert out.exists()


@pytest.mark.parametrize("relabel", [lambda n: n + 1, lambda n: -n - 1], ids=["level-n+1", "level-minus-n-1"])
def test_spectrum_generic_check_catches_a_wrong_label(tmp_path, monkeypatch, relabel):
    # each row holds another level's exact wavenumber: pairing each row with
    # its nearest root passed these (exit 0); row n is generic level 2n or
    # -2n - 1, whatever the closed form returns
    wavenumber = berrybox.closed_form.wavenumber
    monkeypatch.setattr(berrybox.closed_form, "wavenumber", lambda n, eta: wavenumber(relabel(n), eta))
    argv = ("spectrum", "--eta", "0.3+0.6i", "--n-min", "0", "--n-max", "4", "--check", "generic")
    assert run(*argv, "--out", str(tmp_path / "wrong.csv")) == 3


def test_spectrum_huge_box_underflows_lambda_to_zero(tmp_path):
    # l ** 2 raised OverflowError at l = 1e160 (exit 1); lambda underflows
    # to 0 there, as it does where m l^2 overflows
    for extra in ((), ("--check", "generic")):
        out = tmp_path / f"spec{len(extra)}.csv"
        assert run("spectrum", "--eta", "0.3+0.6i", "--n-min", "-1", "--n-max", "1", "--l", "1e160",
                   *extra, "--out", str(out)) == 0
        assert all(float(r) == 0.0 for row in read_csv(out)[1] for r in row[3:])


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


def test_berry_mollified_row_without_positive_order(tmp_path, monkeypatch):
    # growing differences over the last three widths: the eps = 0 row reports
    # the last sample, and its err_est inf, the sweep has not converged (it
    # read the last step, 2)
    # differences alternating in sign: the same (it read the last step, 0.5,
    # and before that 0 at order 8)
    # each width's phase is -F_c times the default loop's integral of dc/l, -1/2
    out = tmp_path / "berry.csv"
    dc_over_l = rectangle_loop(1.0, 2.0, 0.0, 1.0).dc_over_l()
    for phases, row in (([0.0, 0.0, 1.0, 3.0], ["", "3.00000000e+00", "inf"]),
                        ([0.0, 0.0, 1.0, 0.5], ["", "5.00000000e-01", "inf"])):
        f_c = iter([-phase / dc_over_l for phase in phases])
        monkeypatch.setattr(berrybox.berry, "connection_mollified", lambda m, eps: (0.0, next(f_c)))
        assert run("berry", "--method", "mollified", "--out", str(out)) == 0
        assert read_csv(out)[1][-1][3:] == row


def test_berry_overlap_err_est_bounds_the_coarse_chain_or_is_inf(tmp_path):
    # off the unit circle at n = 7 the chains at 16, 32 and 64 links step
    # 0.21 and then 0.55 toward a phase they miss by 2.74 at mesh 64; the
    # half-mesh difference read 0.55 there.  Refined, the steps fit no
    # second-order law, and every overlap err_est is inf
    out = tmp_path / "b.csv"
    assert run("berry", "--eta=0.3+0.6i", "--n", "7", "--mesh", "64", "--method", "all", "--out", str(out)) == 0
    rows = read_csv(out)[1]
    analytic = float(rows[0][4])
    overlap = [r for r in rows if r[0] == "overlap"]
    assert [r[1] for r in overlap] == ["16", "32", "64"]
    assert abs(math.remainder(float(overlap[-1][4]) - analytic, 2.0 * math.pi)) > 2.7
    assert all(r[5] == "inf" for r in overlap)
    # the interior and mollified rows converge, each err_est above its error
    for r in rows[1:]:
        if r[0] != "overlap":
            assert abs(float(r[4]) - analytic) <= float(r[5]) + 5e-9 * abs(analytic), r
    # --mesh 48 refines over 16, 24 and 48 links, unequal ratios; the chain is
    # exact on the circle's rectangles, so each err_est is the rounding floor
    assert run("berry", "--method", "overlap", "--mesh", "48", "--out", str(out)) == 0
    assert [(r[1], r[5]) for r in read_csv(out)[1]] == [(m, "1.00000000e-12") for m in ("16", "24", "48")]


def test_berry_real_eta_phases_vanish(tmp_path):
    out = tmp_path / "berry.csv"
    assert run("berry", "--eta", "0.5", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "all", "--mesh", "128", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert all(abs(float(r[4])) < 1e-4 for r in rows)


def test_outputs_hold_no_negative_zero_and_exact_zeros_at_eta_inf(tmp_path):
    cli = berrybox.cli
    assert (cli._fmt(-0.0), cli._fmt_complex(complex(-0.0, -0.0)), repr(cli._round9(-0.0))) == (
        "0.00000000e+00", "0.00000000e+00+0.00000000e+00i", "0.0")
    rect = ["--loop-rect", "1", "2", "0", "1"]
    for name, argv in (("real", ["berry", "--eta", "0.5", "--n", "1", *rect, "--method", "all", "--mesh", "64"]),
                       ("inf", ["berry", "--eta", "inf", "--n", "1", *rect, "--method", "all", "--mesh", "64"]),
                       ("map", ["berry", "--eta", "inf", "--n", "2", *rect, "--curvature-map", "--mesh", "3"]),
                       ("wz", ["wz", "--eta", "1", "--n", "1", "--loop-rect", "1", "1", "0", "1"])):
        assert run(*argv, "--out", str(tmp_path / name)) == 0
        assert not re.search(r"-0\.0+(?![0-9])", (tmp_path / name).read_text()), name
    assert read_csv(tmp_path / "inf")[1][0] == ["analytic", "", "", "", "0.00000000e+00", ""]
    assert {r[2] for r in read_csv(tmp_path / "map")[1]} == {"0.00000000e+00"}


_POLYLINE_NEG = {"loop": {"type": "polyline", "points": [[1.0, -0.0], [1.3, 0.05], [1.1, 0.2]]}}


@pytest.mark.parametrize("argv, config", [
    pytest.param(["berry", "--eta", "0+1i", "--loop-rect", "1", "2", "-0", "1", "--method", "analytic"], None,
                 id="berry-rect"),
    pytest.param(["berry", "--eta", "0+1i", "--method", "analytic"], _POLYLINE_NEG, id="berry-polyline"),
    pytest.param(["berry", "--eta", "0.3+0.6i", "--loop-rect", "1", "2", "-0.0", "1", "--curvature-map",
                  "--mesh", "3"], None, id="curvature-map"),
])
def test_resolved_config_holds_no_negative_zero(tmp_path, argv, config):
    # a zero given with a minus sign was echoed as -0.0 in <out>.config.json
    if config is not None:
        (tmp_path / "given.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "given.json")]
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(*argv, "--out", str(first)) == 0
    text = (tmp_path / "first.config.json").read_text()
    assert not re.search(r"-0\.0+(?![0-9])", text)
    assert run(argv[0], "--config", str(tmp_path / "first.config.json"), "--out", str(again)) == 0
    assert first.read_bytes() == again.read_bytes()
    assert (tmp_path / "again.config.json").read_text() == text


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (-0.0, 1.0), (-1.3, 0.7), (0.1, 0.3), (1e-3, 1e3), (2.5, 2.5),
                                    (0.0, 1.5e-323), (-7.25, -1e-9)])
def test_curvature_grid_is_np_linspace_bit_for_bit(lo, hi):
    # the curvature map builds its grid in plain floats, as np.linspace does
    for num in range(1, 65):
        assert np.array(berrybox.cli._linspace(lo, hi, num)).tobytes() == np.linspace(lo, hi, num).tobytes(), num


def test_two_files_of_one_run_on_one_path_exit_2_and_write_nothing(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"n": 1}\n')
    same = tmp_path / "same.out"
    # the SVG replaced the CSV, and the CSV the config it was read from (exit 0)
    assert run("berry", "--eta", "0.3+0.6i", "--n", "1", "--method", "all",
               "--out", str(same), "--plot", str(same)) == 2
    assert "--out" in capsys.readouterr().err
    assert run("berry", "--config", str(config), "--out", str(config), "--method", "analytic") == 2
    assert "--config" in capsys.readouterr().err
    # the check is main's, for every subcommand: one file spelt two ways, the
    # plot on --out's config, and the config as the plot
    for argv in (["--out", str(same), "--plot", str(tmp_path / "." / "same.out")],
                 ["--out", str(same), "--plot", f"{same}.config.json"],
                 ["--config", str(config), "--plot", str(config)]):
        assert run("adiabatic", *argv) == 2
        assert "are one file" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    assert config.read_text() == '{"n": 1}\n'
    # rerunning in place reads <out>.config.json before writing it
    assert run("berry", "--config", str(config), "--method", "analytic", "--out", str(same)) == 0
    written = (tmp_path / "same.out.config.json").read_bytes()
    assert run("berry", "--config", str(tmp_path / "same.out.config.json"), "--out", str(same)) == 0
    assert (tmp_path / "same.out.config.json").read_bytes() == written


def test_berry_tol_gate_exit3(tmp_path):
    out = tmp_path / "berry.csv"
    code = run("berry", "--eta", "0+2i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
               "--method", "analytic,overlap", "--mesh", "64", "--tol", "1e-9",
               "--out", str(out))
    assert code == 3


def test_berry_tol_zero_is_the_strictest_valid_tolerance(tmp_path):
    assert run("berry", "--method", "analytic", "--tol", "0", "--out", str(tmp_path / "b.csv")) == 0


def test_berry_tol_compares_phases_on_the_circle(tmp_path, monkeypatch):
    # the chain shifted by 6 pi, as the chain reduced to (-pi, pi] was at
    # n = 5: the raw spread exited 3
    real = berrybox.berry._chain_phase
    monkeypatch.setattr(berrybox.berry, "_chain_phase", lambda m, path, n: real(m, path, n) + 6.0 * np.pi)
    out = tmp_path / "berry.csv"
    assert run("berry", "--n", "5", "--method", "all", "--tol", "1e-3", "--out", str(out)) == 0
    _, rows = read_csv(out)
    finals = {r[0]: float(r[4]) for r in rows}
    assert abs(finals["overlap"] - finals["analytic"]) > 1.0


def _shifted_by_a_tenth(method):
    """(the name of the library function `method` runs, that function patched
    so that every phase it gives around the rectangle [1, 2] x [0, 1] is 0.1
    larger)."""
    if method == "overlap":
        real_chain = berrybox.berry.loop_phase_overlap_meshes
        return "loop_phase_overlap_meshes", lambda m, path, meshes: [p + 0.1 for p in real_chain(m, path, meshes)]
    name = f"connection_{method}"
    real = getattr(berrybox.berry, name)
    # a connection's phase is -F_c times the loop integral of dc/l
    shift = -0.1 / rectangle_loop(1.0, 2.0, 0.0, 1.0).dc_over_l()

    def shifted(m, regulator):
        f_l, f_c = real(m, regulator)
        return f_l, f_c + shift

    return name, shifted


@pytest.mark.parametrize("method", ["interior", "mollified", "overlap"])
def test_berry_tol_reports_real_disagreement(tmp_path, monkeypatch, capsys, method):
    # each oracle's limit is compared: a method off by 0.1 at every sample
    # is off by 0.1 in the limit too, and --tol names it alone
    argv = ("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "1", "2", "0", "1",
            "--method", "all", "--mesh", "64", "--tol", "1e-2", "--out", str(tmp_path / "b.csv"))
    assert run(*argv) == 0
    monkeypatch.setattr(berrybox.berry, *_shifted_by_a_tenth(method))
    assert run(*argv) == 3
    err = capsys.readouterr().err
    off = {name: re.search(rf"\b{name}=\S+ \(off by (\S+)\)", err) for name in ("interior", "mollified", "overlap")}
    assert all(off.values()), err
    assert abs(float(off[method][1]) - 0.1) < 1e-3, err
    assert all(float(found[1]) < 1e-2 for name, found in off.items() if name != method), err


def test_berry_tol_compares_each_methods_limit(tmp_path, capsys):
    # at n = 1 the last overlap sample is off by 4.6e-3 (exit 3 when --tol
    # compared it), and its limit, at fitted order 1.97, by 2.7e-5; at n = 3
    # the limit is still off by 4.0e-3
    argv = ("berry", "--eta=0.3+0.6i", "--method", "all", "--tol", "1e-3", "--out", str(tmp_path / "b.csv"))
    assert run(*argv, "--n", "1") == 0
    assert capsys.readouterr().err == ""
    assert run(*argv, "--n", "3") == 3
    err = capsys.readouterr().err
    assert "overlap=" in err and "off by 4.0" in err and "did not converge" not in err


def test_berry_tol_exits_3_when_refine_refuses_a_method(tmp_path, capsys):
    # the last overlap row is within 8.1e-4 of the closed form, so comparing
    # phases alone passed --tol 1e-3 (exit 0) while every overlap err_est
    # read inf: a refused refinement bounds nothing
    config = tmp_path / "it.json"
    config.write_text(json.dumps({"loop": {"type": "polyline",
                                           "points": [[1.2046, 0.5116], [2.0459, -0.499], [2.7744, 0.9656]]}}))
    out = tmp_path / "b.csv"
    argv = ("berry", "--config", str(config), "--eta=1.2409+1.6087i", "--n", "-1", "--method", "analytic,overlap")
    assert run(*argv, "--tol", "1e-3", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "overlap did not converge" in err and "disagreement" not in err
    rows = read_csv(out)[1]
    assert abs(float(rows[-1][4]) - float(rows[0][4])) < 1e-3
    assert all(r[5] == "inf" for r in rows if r[0] == "overlap")
    # without --tol nothing is cross-checked
    assert run(*argv, "--out", str(out)) == 0


def test_berry_interior_agrees_far_off_centre(tmp_path):
    # |c|/l = 1e7: the interior windows once formed x - c, lost digits and
    # exited 3, off by 3.6e-5 while the overlap row agreed to 1e-16
    out = tmp_path / "far.csv"
    assert run("berry", "--eta", "0+1i", "--n", "0", "--loop-rect", "0.0001", "0.0002", "1000", "1000.0001",
               "--method", "analytic,interior,overlap", "--mesh", "64", "--tol", "1e-6", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["analytic", "interior", "interior", "overlap", "overlap", "overlap"]
    # the CSV carries 9 significant digits
    assert all(abs(float(r[4]) - np.pi / 4.0) < 1e-8 for r in rows)


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


def _drawn_series(monkeypatch):
    """The list of the series lists `svgplot.line_plot` draws, one entry per plot."""
    drawn = []
    real = berrybox.svgplot.line_plot

    def capture(series, **kwargs):
        drawn.append(series)
        return real(series, **kwargs)

    monkeypatch.setattr(berrybox.svgplot, "line_plot", capture)
    return drawn


def test_berry_plot_small_mesh_draws_table_meshes(tmp_path, monkeypatch):
    # the plot used to floor its meshes at 8, below the table's 16, and the
    # 8-point half mesh of the tall loop has no neighbour overlap
    drawn = _drawn_series(monkeypatch)
    out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    assert run("berry", "--n", "0", "--method", "analytic,overlap", "--mesh", "12",
               "--loop-rect", "1.0", "1.2", "0.0", "1.5", "--out", str(out), "--plot", str(svg)) == 0
    _, rows = read_csv(out)
    meshes = [int(r[1]) for r in rows if r[0] == "overlap"]
    assert meshes == [16]
    assert [s["x"] for s in drawn[0] if s["label"] == "overlap |error|"] == [meshes]
    assert svg.read_text(encoding="utf-8").rstrip().endswith("</svg>")


def test_berry_plot_draws_overlap_errors_on_the_analytic_branch(tmp_path, monkeypatch):
    # the phase is 3.376, above pi: the chain reduced to (-pi, pi] wrote
    # -2.84 to -2.90 and drew errors of 6.21, 6.26 and 6.28, exiting 0
    drawn = _drawn_series(monkeypatch)
    out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    assert run("berry", "--eta=0.3+0.6i", "--n", "1", "--method", "analytic,overlap", "--plot", str(svg),
               "--tol", "1e-2", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert float(rows[0][4]) > np.pi
    [errors] = [s["y"] for s in drawn[0] if s["label"] == "overlap |error|"]
    assert len(errors) == 3 and max(errors) < 0.1


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
            _count_calls(mp, berrybox.berry, "connection_interior", counter)
            _count_calls(mp, berrybox.berry, "connection_mollified", counter)
            _count_calls(mp, berrybox.berry, "_chain_phase", counter)
            assert run(*argv, *extra) == 0
        counts.append(counter)
    assert counts[0] == counts[1]
    # the interior connection at h and h/2, the embedding once per width, in
    # the box coordinate, for all four sides, and the overlap chains at 16, 32
    # and 64 links, with no half-mesh chain for an error estimate
    assert counts[0] == {"connection_interior": 2, "connection_mollified": 4, "_chain_phase": 3}


def test_berry_plot_draws_the_csv_digits(tmp_path, monkeypatch):
    # the chain, mollified and analytic phases moved apart below the 9th
    # significant digit leave the CSV, and so the SVG, byte-identical: the plot
    # draws the CSV's digits, not the rounding noise of the mollified rows
    argv = ["berry", "--eta", "0.3+0.6i", "--n", "1", "--loop-rect", "1", "1.3", "0", "0.2",
            "--method", "all", "--mesh", "64"]
    hooked = ((berrybox.berry, "_chain_phase"), (berrybox.berry, "connection_mollified"),
              (berrybox.closed_form, "loop_phase_analytic"))
    outputs = []
    for shifts in ((0.0, 0.0, 0.0), (3e-15, -2e-15, 1e-15), (-2e-15, 3e-15, -3e-15)):
        with monkeypatch.context() as mp:
            for (owner, attr), shift in zip(hooked, shifts):
                def moved(*args, real=getattr(owner, attr), factor=1.0 + shift):
                    value = real(*args)
                    return tuple(v * factor for v in value) if isinstance(value, tuple) else value * factor

                mp.setattr(owner, attr, moved)
            out, svg = tmp_path / "b.csv", tmp_path / "b.svg"
            assert run(*argv, "--out", str(out), "--plot", str(svg)) == 0
        outputs.append((out.read_bytes(), svg.read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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


def test_wz_off_centre_box_matches_the_centred_loop(tmp_path):
    # |c|/l = 1e6: the connection check once lost digits in x - c and exited 1
    far, near = tmp_path / "far.json", tmp_path / "near.json"
    assert run("wz", "--eta", "1", "--n", "1", "--loop-rect", "0.001", "0.002", "1000", "1000.001",
               "--out", str(far)) == 0
    assert run("wz", "--eta", "1", "--n", "1", "--loop-rect", "0.001", "0.002", "-0.0005", "0.0005",
               "--out", str(near)) == 0
    got, want = (json.loads(p.read_text())["eigenphases"] for p in (far, near))
    # on the circle: theta = pi here, at the +-pi seam
    assert all(abs(np.angle(np.exp(1j * (a - b)))) < 1e-9 for a, b in zip(got, want))


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


def test_wz_failed_connection_check_exits_3(tmp_path, monkeypatch, capsys):
    # a recomputation that disagrees with the closed form is a real
    # disagreement: exit 3 with one line on stderr and no output, not a
    # traceback
    import berrybox.wilczek_zee as wz

    real = wz.connection_from_basis

    def shifted(eta, n):
        conn = real(eta, n)
        return wz.MatrixConnection(coeff_l=conn.coeff_l, coeff_c=tuple(tuple(v + 1e-6 for v in row)
                                                                         for row in conn.coeff_c))

    monkeypatch.setattr(wz, "connection_from_basis", shifted)
    out = tmp_path / "wz.json"
    assert run("wz", "--eta", "1", "--n", "1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("berrybox: recomputed connection deviates") and err.count("\n") == 1
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
    propagate = berrybox.adiabatic.propagate

    def recording(schedule, *rest):
        calls.append((schedule.duration, threading.get_ident()))
        return propagate(schedule, *rest)

    monkeypatch.setattr(berrybox.adiabatic, "propagate", recording)
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


def test_adiabatic_plot_compares_phases_on_the_circle(tmp_path, monkeypatch):
    # the analytic phase is 4.051 and the geometric phases -2.252 and -2.242:
    # the plot drew |geometric - analytic| = 6.30 and 6.29, not the errors
    # 0.0200 and 0.0102 that are left mod 2 pi
    drawn = _drawn_series(monkeypatch)
    out, svg = tmp_path / "adia.csv", tmp_path / "adia.svg"
    assert run("adiabatic", "--eta=0.3+0.6i", "--n", "1", "--loop-rect", "1", "2", "0", "1.2",
               "--T-list", "100,200", "--plot", str(svg), "--out", str(out)) == 0
    _, rows = read_csv(out)
    analytic = berrybox.closed_form.loop_phase_analytic(berrybox.closed_form.mode(1, 0.3 + 0.6j),
                                                        rectangle_loop(1.0, 2.0, 0.0, 1.2))
    assert analytic > 4 and all(float(r[3]) < -2 for r in rows)
    [errors] = [s["y"] for s in drawn[0] if s["label"] == "|geometric - analytic|"]
    # the series runs in increasing 1/T: T = 200, then T = 100
    assert errors == pytest.approx([0.0102, 0.0200], abs=2e-4)
    assert errors == pytest.approx([abs(math.remainder(float(r[3]) - analytic, 2 * math.pi)) for r in rows[::-1]],
                                   abs=1e-8)


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


@pytest.mark.parametrize("flag, value", [("--mass", "1e-200"), ("--mass", "1e-300"), ("--T-list", "1e-300"),
                                         ("--T-list", "1e200"), ("--T-list", "1e300")])
def test_adiabatic_at_the_ends_of_the_float_range(tmp_path, flag, value):
    # the Householder step formed 1/(norm (norm + |x0|)), which overflowed for
    # column norms above about 1e154 and underflowed below 1e-154: the first
    # two exited 1 with ArithmeticError (QL on NaN), the last two with
    # ZeroDivisionError; the default loop, level and window, against the
    # numpy propagator the standard-library one replaced
    out = tmp_path / "adia.csv"
    assert run("adiabatic", flag, value, "--out", str(out)) == 0
    mass = float(value) if flag == "--mass" else 1.0
    t_list = [float(value)] if flag == "--T-list" else [25.0, 50.0, 100.0, 200.0]
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == t_list
    for r, T in zip(rows, t_list):
        want = propagate_arrays(Schedule(rectangle_loop(1.0, 2.0, 0.0, 1.0), T), 0, 1j, 8, mass)
        assert r[2] == berrybox.cli._fmt(want.dynamical_phase)
        assert abs(math.remainder(float(r[3]) - want.geometric_phase, 2.0 * math.pi)) < 1e-8


@pytest.mark.parametrize("argv, code, message", [
    # dl/l0 rounds to -1 on the side from l = 1 to 1e-300: log1p(-1) exited 2
    # with the bare "math domain error"; the phase is -k sin(alpha) (1 - 1e300)
    pytest.param(["berry", "--loop-rect", "1e-300", "1", "0", "1", "--method", "analytic"], 0, "",
                 id="berry-analytic-l-1e-300"),
    pytest.param(["berry", "--loop-rect", "1e-300", "1", "0", "1", "--method", "all"], 2, "refine the mesh",
                 id="berry-all-l-1e-300"),
    # the first side shrinks l to 1e-300: each of its 4 links ends at a box of length 0 in floats
    pytest.param(["berry", "--loop-rect", "1", "1e-300", "0", "1", "--method", "overlap", "--mesh", "16"], 2,
                 "overlap only |<.|.>| = 0.00e+00; refine the mesh", id="berry-overlap-shrinking-side"),
    # the side at l = 1e-300 met log1p(-1) ("math domain error"), and behind it
    # l0 ** 2 underflowing to 0 (ZeroDivisionError); at l = 1e200 l0 ** 2
    # overflowed (OverflowError, exit 1), and kappa is inf
    pytest.param(["adiabatic", "--loop-rect", "1e-300", "1", "0", "1", "--T-list", "1"], 2,
                 "the loop side (l, c) = (1e-300, 1.0) -> (1e-300, 0.0) leaves the float range",
                 id="adiabatic-l-1e-300"),
    pytest.param(["adiabatic", "--loop-rect", "1e200", "2e200", "0", "1", "--T-list", "1"], 2,
                 "the loop side (l, c) = (1e+200, 0.0) -> (2e+200, 0.0) leaves the float range",
                 id="adiabatic-l-1e200"),
    # kappa = 2.2e307 is finite, but QL met inf within the generator (ArithmeticError, exit 1, then
    # exit 2); the generator is now built at a power-of-two scale near 1, so the side runs, and the
    # loop encloses the phase k (1/l1 - 1/l2)(c2 - c1) sin(alpha) = 5e-155, none in floats
    pytest.param(["adiabatic", "--loop-rect", "5e153", "6e153", "0", "1", "--T-list", "1"], 0, "",
                 id="adiabatic-l-5e153"),
])
def test_extreme_loop_sides_exit_0_or_2_with_a_message(tmp_path, capsys, argv, code, message):
    out = tmp_path / "o.csv"
    assert run(*argv, "--out", str(out)) == code
    err = capsys.readouterr().err
    assert "math domain error" not in err
    if code:
        assert err.startswith("berrybox: ") and message in err and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []
    elif argv[0] == "berry":
        assert err == ""
        assert read_csv(out)[1] == [["analytic", "", "", "", "1.57079633e+300", ""]]
    else:
        assert err == ""
        [(_, _, _, geometric, fidelity, warn)] = read_csv(out)[1]
        assert abs(float(geometric)) < 1e-12 and float(fidelity) > 0.9999 and warn == "0"


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
                 {"eta", "mass", "n", "l", "method"},
                 {"mass": 1.3, "l": 1.7, "n": [-1, 2]}, id="spectrum"),
    pytest.param(("berry", "--eta", "0.3+0.6i", "--n", "1", "--loop-rect", "1", "1.3", "0", "0.2",
                  "--orientation", "-1", "--method", "analytic,overlap", "--mesh", "32"),
                 {"eta", "n", "loop", "method", "mesh"},
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
    # --n-min used to replace the whole range, with its own default (n max 5)
    # in place of the config's value; --l sets the key l, as each flag sets its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "l": 2.0}))
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--config", str(cfg), "--n-min", "1", "--out", str(out)) == 0
    written = json.loads((tmp_path / "spec.csv.config.json").read_text())
    assert written["n"] == [1, 3]
    assert written["l"] == 2.0
    assert [r[0] for r in read_csv(out)[1]] == ["1", "2", "3"]
    assert run("spectrum", "--config", str(cfg), "--l", "0.5", "--out", str(out)) == 0
    assert json.loads((tmp_path / "spec.csv.config.json").read_text())["l"] == 0.5


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert run("spectrum", "--config", str(bad)) == 2


@pytest.mark.parametrize("argv, unknown", [
    # argparse's prefix matching ran these as --T-list 25 --window 2
    pytest.param(["adiabatic", "--T", "25", "--win", "2"], "--T 25 --win 2", id="adiabatic-prefixes"),
    pytest.param(["adiabatic", "--T", "25"], "--T 25", id="adiabatic-T"),
    # --c set the box center, which set no level; as a prefix it would be
    # ambiguous between --config and --check
    pytest.param(["spectrum", "--c", "0"], "--c 0", id="spectrum-c"),
    pytest.param(["berry", "--meth", "analytic"], "--meth analytic", id="berry-prefix"),
])
def test_options_take_no_abbreviations(tmp_path, monkeypatch, capsys, argv, unknown):
    monkeypatch.chdir(tmp_path)
    assert exit_code(*argv, "--out", "o.out") == 2
    assert capsys.readouterr().err.endswith(f"berrybox: error: unrecognized arguments: {unknown}\n")
    assert list(tmp_path.iterdir()) == []


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
    # l ** 2 underflowed: a ZeroDivisionError traceback (exit 1); a subnormal
    # mass printed lambda = inf with numpy warnings (exit 0)
    pytest.param(["spectrum", "--eta", "0.3+0.6i", "--l", "1e-170"], None, id="spectrum-l-underflow"),
    pytest.param(["spectrum", "--mass", "1e-320", "--check", "generic"], None, id="spectrum-generic-mass-subnormal"),
    pytest.param(["spectrum", "--eta", "1", "--n-max", "2", "--l", "1e-170"], None, id="spectrum-degenerate-l-underflow"),
    # l * l underflowed in the curvature: f_lc = inf printed (exit 0), or a
    # ZeroDivisionError traceback (exit 1); the loop phases at 1e-300 exit 2
    pytest.param(["berry", "--curvature-map", "--loop-rect", "1e-160", "1", "0", "1", "--mesh", "3"], None,
                 id="berry-map-l-1e-160"),
    pytest.param(["berry", "--curvature-map", "--loop-rect", "1e-300", "1", "0", "1", "--mesh", "3"], None,
                 id="berry-map-l-1e-300"),
    pytest.param(["wz", "--eta", "1", "--n", "1", "--loop-rect", "1e-300", "1", "0", "1"], None, id="wz-l-1e-300"),
    pytest.param(["berry", "--loop-rect", "1e-300", "1", "0", "1", "--method", "all"], None, id="berry-all-l-1e-300"),
    pytest.param(["spectrum", "--eta", "1", "--degenerate"], None, id="spectrum-degenerate"),
    pytest.param(["spectrum", "--eta", "-1", "--check", "generic"], None, id="spectrum-degenerate-generic"),
    pytest.param(["bc", "--plot", "x.svg"], None, id="bc-plot"),
    pytest.param(["berry", "--method", "analytic", "--curvature-map"], None, id="berry-method-and-map"),
    pytest.param(["berry", "--curvature-map", "--plot", "x.svg"], None, id="berry-map-plot"),
    pytest.param(["bc"], {"T_list": [1]}, id="bc-config-T_list"),
    pytest.param(["wz", "--eta", "1", "--n", "1"], {"method": "all"}, id="wz-config-method"),
    pytest.param(["spectrum"], {"seed": None}, id="spectrum-config-seed"),
    pytest.param(["spectrum"], {"method": "overlap"}, id="spectrum-config-berry-method"),
    # the box was the key geometry, {l, c}, until the center, which sets no
    # level, went: a config that holds it exits 2 as an unknown key
    pytest.param(["spectrum"], {"geometry": {"l": 2.0}}, id="spectrum-config-geometry-without-c"),
    pytest.param(["spectrum"], {"geometry": {"l": 2.0, "c": 0.0}}, id="spectrum-config-geometry"),
    pytest.param(["berry", "--curvature-map"], {"loop": _POLYGON}, id="berry-map-polyline"),
    # config values of the wrong JSON type used to crash with a traceback (exit 1)
    pytest.param(["spectrum"], {"n": 2.5}, id="spectrum-config-n-float"),
    pytest.param(["wz", "--eta", "1", "--n", "1"], {"mesh": [1]}, id="wz-config-mesh-list"),
    pytest.param(["adiabatic"], {"T_list": 5}, id="adiabatic-config-T_list-number"),
    pytest.param(["spectrum"], {"geometry": {"l": [2.0], "c": 0.0}}, id="spectrum-config-geometry-list"),
    pytest.param(["spectrum"], {"l": [2.0]}, id="spectrum-config-l-list"),
    # a nonpositive mesh used to collapse to one mesh-16 overlap row, or to
    # an empty curvature map
    pytest.param(["berry", "--method", "overlap", "--mesh", "-4"], None, id="berry-overlap-mesh-negative"),
    pytest.param(["berry", "--method", "overlap", "--mesh", "0"], None, id="berry-overlap-mesh-zero"),
    pytest.param(["berry", "--curvature-map", "--mesh", "0"], None, id="berry-map-mesh-zero"),
    pytest.param(["berry"], {"mesh": -1}, id="berry-config-mesh-negative"),
    *_NONFINITE_LOOPS,
    # a non-finite traversal time used to print a row of nan and -inf
    pytest.param(["adiabatic", "--T-list", "inf", "--window", "1", "--resolution", "100"], None, id="adiabatic-T-inf"),
    pytest.param(["adiabatic", "--T-list", "nan", "--window", "1", "--resolution", "100"], None, id="adiabatic-T-nan"),
    # a bad eps list used to fail only after every width had been computed, an
    # --h above the bound after the analytic row was written; the widths and
    # steps are fixed now, and --eps-list, --h and their keys exit 2 as unknown
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1,0.05,inf"], None, id="berry-eps-inf"),
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1"], None, id="berry-eps-two"),
    pytest.param(["berry", "--method", "mollified", "--eps-list", "0.2,0.1,0.04"], None, id="berry-eps-ratio"),
    pytest.param(["berry", "--method", "analytic,interior", "--h", "1"], None, id="berry-h-above-bound"),
    pytest.param(["berry", "--method", "interior", "--h", "0"], None, id="berry-h-zero"),
    pytest.param(["berry", "--method", "interior"], {"h": -1e-4}, id="berry-config-h-negative"),
    pytest.param(["berry", "--method", "interior", "--h", "nan"], None, id="berry-h-nan"),
    # a mass of 0 used to raise ZeroDivisionError in the degenerate table
    # (exit 1), a negative one to print negative levels, an infinite one
    # to print lambda = 0
    *[pytest.param(["spectrum", "--eta", eta, "--n-max", "2", "--mass", mass], None, id=f"spectrum-{name}-mass-{mass}")
      for name, eta in (("degenerate", "1"), ("nondegenerate", "0+1i")) for mass in ("0", "-1", "inf", "nan")],
    pytest.param(["spectrum", "--eta", "1", "--n-max", "2"], {"mass": -1}, id="spectrum-config-mass-negative"),
    pytest.param(["adiabatic", "--mass", "inf", "--T-list", "2", "--window", "1", "--resolution", "100"], None,
                 id="adiabatic-mass-inf"),
    # an infinite box length used to print lambda = 0, a non-finite center
    # to exit 0; --c is no option now
    *[pytest.param(["spectrum", "--eta", eta, "--n-max", "2", flag, value], None, id=f"spectrum-{eta}-{flag[2:]}-{value}")
      for eta in ("1", "0+1i") for flag, value in (("--l", "inf"), ("--l", "nan"), ("--c", "nan"), ("--c", "inf"))],
    # --tol nan used to switch the check off (exit 0), a negative --tol to
    # report a disagreement (exit 3) when every oracle agrees
    pytest.param(["berry", "--method", "analytic,overlap", "--mesh", "16", "--tol", "nan"], None, id="berry-tol-nan"),
    pytest.param(["berry", "--method", "analytic,overlap", "--mesh", "16", "--tol", "-1"], None, id="berry-tol-negative"),
    pytest.param(["berry", "--method", "analytic", "--tol", "inf"], None, id="berry-tol-inf"),
    # a 160-digit --n-max raised OverflowError building the level range;
    # a range is bounded at a million levels, checked before any work
    pytest.param(["spectrum", "--n-max", str(10 ** 160)], None, id="spectrum-n-max-160-digits"),
    pytest.param(["spectrum", "--n-min", "-1", "--n-max", "999999"], None, id="spectrum-range-above-bound"),
    pytest.param(["spectrum", "--eta", "1"], {"n": [1, 10 ** 160]}, id="spectrum-degenerate-config-n-160-digits"),
    # a 401-digit eta raised OverflowError in the library's parser
    pytest.param(["bc"], {"eta": 10 ** 400}, id="bc-config-eta-401-digits"),
    # a 401-digit level raised OverflowError converting it to a wavenumber
    # (exit 1 with a traceback); a level whose wavenumber is inf printed an
    # analytic phase of inf (exit 0)
    pytest.param(["berry", "--method", "analytic", "--n", str(10 ** 400)], None, id="berry-n-401-digits"),
    pytest.param(["wz", "--eta", "1", "--n", str(10 ** 400)], None, id="wz-n-401-digits"),
    pytest.param(["spectrum", "--n-min", str(10 ** 400), "--n-max", str(10 ** 400)], None,
                 id="spectrum-n-401-digits"),
    pytest.param(["spectrum", "--eta", "1", "--n-min", str(10 ** 400), "--n-max", str(10 ** 400)], None,
                 id="spectrum-degenerate-n-401-digits"),
    pytest.param(["berry", "--method", "analytic", "--n", str(3 * 10 ** 307)], None, id="berry-k-inf"),
    # a 401-digit mesh never finished walking the loop point by point, and
    # overflowed converting the links per side to a float
    pytest.param(["berry", "--method", "overlap", "--mesh", str(10 ** 400)], None, id="berry-mesh-401-digits"),
    pytest.param(["berry", "--method", "all"], {"mesh": 10 ** 400}, id="berry-config-mesh-401-digits"),
    # a window of 100000 asked numpy for 298 GiB (exit 1), one of 3000 ran
    # for minutes
    pytest.param(["adiabatic", "--window", str(berrybox.cli.adiabatic.MAX_WINDOW + 1), "--T-list", "2"], None,
                 id="adiabatic-window-above-bound"),
    pytest.param(["adiabatic"], {"window": 100000}, id="adiabatic-config-window-100000"),
    # a NaN entry used to pass the unitarity check with a RuntimeWarning
    pytest.param(["bc"], {"unitary": [[1, 0], [0, float("nan")]]}, id="bc-config-unitary-nan"),
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


@pytest.mark.parametrize("unitary, message", [
    pytest.param('[["nan", 0], [0, 1]]', "boundary unitary entries must be finite", id="nan"),
    pytest.param("[[Infinity, 0], [0, 1]]", "boundary unitary entries must be finite", id="infinity"),
    pytest.param("[[1, 0], [0]]", "boundary unitary must be 2x2", id="ragged"),
    pytest.param("[[1, 0], [0, 1], [0, 0]]", "boundary unitary must be 2x2", id="3x2"),
])
def test_bc_unitary_messages_name_the_fault(tmp_path, capsys, unitary, message):
    # the NaN matrix used to warn "invalid value encountered in scalar divide"
    # and fail later with an unrelated message; the ragged one got numpy's
    # "inhomogeneous shape" text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("bc", "--unitary", unitary, "--out", str(tmp_path / "o.json")) == 2
    assert capsys.readouterr() == ("", f"berrybox: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["bc", "--eta", "-0.5+0.2i"], id="bc"),
    pytest.param(["spectrum", "--eta", "-0.5+0.2i", "--n-max", "2"], id="spectrum"),
    # the domain scan's case, which argparse used to read as an option
    pytest.param(["berry", "--eta", "-0.999+0.0447i", "--method", "analytic,interior"], id="berry-domain-scan"),
    pytest.param(["wz", "--eta", "-1", "--n", "0", "--mesh", "16"], id="wz"),
    pytest.param(["adiabatic", "--eta", "-.5-2i", "--T-list", "2", "--window", "1", "--resolution", "100"],
                 id="adiabatic"),
])
def test_negative_eta_parses_with_a_space(tmp_path, argv):
    # `--eta -0.5+0.2i` used to exit 2 with "expected one argument"
    i = argv.index("--eta")
    glued = argv[:i] + [f"--eta={argv[i + 1]}"] + argv[i + 2:]
    assert run(*argv, "--out", str(tmp_path / "space")) == 0
    assert run(*glued, "--out", str(tmp_path / "equals")) == 0
    for suffix in ("", ".config.json"):
        assert (tmp_path / f"space{suffix}").read_bytes() == (tmp_path / f"equals{suffix}").read_bytes()
    assert json.loads((tmp_path / "space.config.json").read_text())["eta"] == argv[i + 1]


def test_berry_regulator_options_and_keys_exit_2(tmp_path, monkeypatch, capsys):
    # each prescription runs at its own fixed regulators: the interior steps
    # 1e-4 and 5e-5 relative to l/(1 + |k|), the cutoff widths 0.2 down to
    # 0.025 relative to l.  The options --h and --eps-list and the config keys
    # h and eps_list of earlier versions exit 2 before any work or output, and
    # the message names the option or the key
    counter = {}
    _count_calls(monkeypatch, berrybox.closed_form, "loop_phase_analytic", counter)
    monkeypatch.chdir(tmp_path)
    for argv, config, named in ((["--h", "1e-4"], None, "--h"),
                                (["--eps-list", "0.2,0.1,0.05"], None, "--eps-list"),
                                ([], {"h": 1e-4}, "'h'"),
                                ([], {"eps_list": [0.2, 0.1, 0.05]}, "'eps_list'")):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", "cfg.json"]
        assert exit_code("berry", "--method", "all", *argv, "--out", "b.csv") == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config is not None else [])
        (tmp_path / "cfg.json").unlink(missing_ok=True)
    assert counter == {}
    assert run("berry", "--method", "interior,mollified", "--out", "b.csv") == 0
    assert [(r[2], r[3]) for r in read_csv(tmp_path / "b.csv")[1]] == [
        ("", "1.00000000e-04"), ("", "5.00000000e-05"), *[(f"{e:.8e}", "") for e in (0.2, 0.1, 0.05, 0.025, 0.0)]]


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


@pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, "stdout"), (["bc", "--bogus"], 2, "stderr")],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_survive_optimize_2(argv, code, stream):
    # argparse's description came from the package docstring, which -OO strips
    # to None: both exited 1 with an AttributeError
    src = str(pathlib.Path(berrybox.cli.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-OO", "-m", "berrybox", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert getattr(proc, stream).startswith("usage: berrybox")


@pytest.mark.parametrize("out", ["missing/x.json", "."], ids=["missing-directory", "directory"])
def test_out_path_that_cannot_be_written_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys, out):
    # open() raised out of main: exit 1 with a traceback
    monkeypatch.chdir(tmp_path)
    assert run("bc", "--out", out) == 2
    assert re.fullmatch(rf"berrybox: cannot write --out {re.escape(out)}: .+\n", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


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


def _readme_table():
    """{subcommand: [its flags, its config keys]} from README's table, whose
    rows read: | `name` | `--flag`, ... | `key`, ... |"""
    rows = {}
    for line in _readme_command_section().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in berrybox.cli._DEFAULTS:
            rows[cells[0].strip("`")] = [set(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]]
    return rows


def test_readme_lists_each_subcommand_options_and_keys():
    rows = _readme_table()
    parser = berrybox.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(rows) == set(berrybox.cli._DEFAULTS)
    for name, (flags, keys) in rows.items():
        parsed = {s for a in subparsers[name]._actions for s in a.option_strings} - {"-h", "--help", "--config", "--out"}
        assert flags == parsed, name
        assert keys == set(berrybox.cli._DEFAULTS[name]), name


def test_help_lists_every_subcommand_and_each_subcommand_its_flags(capsys):
    # `berrybox --help` builds every subcommand; `berrybox CMD --help` builds
    # CMD's alone, and lists exactly README's flags for it
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^    (\w+) +\S", capsys.readouterr().out, re.M)
    assert listed == list(berrybox.cli._DEFAULTS)
    for name, (flags, _) in _readme_table().items():
        parser = berrybox.cli.build_parser(name)
        assert list(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices) == [name]
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        # an option line starts with two spaces; its flags precede the help text
        options = [line.strip().split("  ")[0] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  -")]
        shown = {flag for option in options for flag in re.findall(r"(?<![\w-])--?[a-zA-Z][\w-]*", option)}
        assert shown - {"-h", "--help", "--config", "--out"} == flags, name
