import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fockmz
from fockmz import cli, engine, experiments, fock
from fockmz.cli import fmt, main
from fockmz.dsl import parse

MZ_TEXT = """\
modes 2
param phi
source 0 1
bs 0 1
phase 0 phi
bs 0 1
"""


# fig1's front end plus a second analyser, heralded on mode 0 only
HERALDED_TEXT = """\
modes 4
param phi
source 0 2
source 2 1
bs 0 1
bs 0 2
bs 1 3
phase 2 phi
bs 2 3
phase 3 0.4
bs 1 3
herald 0 1
"""

UNHERALDED_TEXT = """\
modes 3
param phi
source 0 2
source 1 1
bs 0 1
phase 0 phi
mirror 1
bs 1 2
phase 2 0.3
bs 0 2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, fn):
    """Wrap fn in every fockmz module that holds it; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (fockmz, cli, engine, experiments):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(0.5) == "0.500000000000"
        assert fmt(1 / 3) == "0.333333333333"

    def test_no_scientific_notation_for_small_values(self):
        assert "e" not in fmt(1e-4)
        assert fmt(0.0) == "0.000000000000"

    def test_negative_values(self):
        assert fmt(-2 * math.sqrt(2)).startswith("-2.8284271247")


class TestRun:
    def test_single_preset_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--preset", "single",
                               "--param", "phi=0")
        assert code == 0
        assert "P1" in out and "1.00000000000" in out
        assert "P2" in out and "0.000000000000" in out

    def test_fig1_r11_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--preset", "fig1",
                               "--param", "phi=0")
        assert code == 0
        r11_line = next(line for line in out.splitlines() if "R11" in line)
        assert "0.000000000000" in r11_line

    def test_unbound_parameter_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--preset", "single")
        assert code == 2
        assert "phi" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.icd"
        bad.write_text("modes 2\nsource 0 1\nsplitter 0 1\n")
        code, _, err = run_cli(capsys, "run", "--circuit", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_zero_probability_herald_exit_3(self, tmp_path, capsys):
        f = tmp_path / "zero.icd"
        f.write_text("modes 2\nsource 0 2\nherald 1 3\n")
        code, _, err = run_cli(capsys, "run", "--circuit", str(f))
        assert code == 3

    def test_circuit_file_reduced_table(self, tmp_path, capsys):
        f = tmp_path / "mz.icd"
        f.write_text(MZ_TEXT)
        code, out, _ = run_cli(capsys, "run", "--circuit", str(f),
                               "--param", "phi=0", "--format", "csv")
        assert code == 0
        assert "p_0_1,1.00000000000" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", ""])
    def test_bad_phase_binding_exit_1(self, capsys, value):
        code, out, err = run_cli(capsys, "run", "--preset", "fig1",
                                 "--param", f"phi={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "phi" in err

    def test_bad_fixed_phase_in_scan_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--preset", "fig2",
                               "--param", "phi1", "--param", "phi2=nan")
        assert code == 1
        assert err.startswith("error: ")

    def test_formats_encode_identical_numbers(self, capsys):
        _, pretty, _ = run_cli(capsys, "run", "--preset", "sec4",
                               "--param", "phi=1.1", "--format", "pretty")
        _, csv, _ = run_cli(capsys, "run", "--preset", "sec4",
                            "--param", "phi=1.1", "--format", "csv")
        pretty_nums = {tok for tok in pretty.split() if tok[0].isdigit()}
        csv_nums = {cell for line in csv.splitlines()[1:]
                    for cell in [line.split(",")[1]]}
        assert pretty_nums == csv_nums


class TestCircuitFileOutput:
    """Circuit-file output bytes, recorded before circuit files shared the
    preset rate path."""

    def test_run_heralded_csv(self, tmp_path, capsys):
        f = tmp_path / "h.icd"
        f.write_text(HERALDED_TEXT)
        code, out, _ = run_cli(capsys, "run", "--circuit", str(f),
                               "--param", "phi=0.7", "--format", "csv")
        assert code == 0
        assert out == ("outcome,probability\n"
                       "herald,0.156250000000\n"
                       "p_2_0_0,0.0235590561481\n"
                       "p_1_1_0,0.118870247712\n"
                       "p_1_0_1,0.0129808601947\n"
                       "p_0_2_0,0.0830032857100\n"
                       "p_0_1_1,0.315123180868\n"
                       "p_0_0_2,0.446463369367\n")

    def test_run_heralded_pretty(self, tmp_path, capsys):
        f = tmp_path / "h.icd"
        f.write_text(HERALDED_TEXT)
        code, out, _ = run_cli(capsys, "run", "--circuit", str(f),
                               "--param", "phi=0.7")
        assert code == 0
        assert out == ("herald probability: 0.156250000000\n"
                       "  p_2_0_0  0.0235590561481\n"
                       "  p_1_1_0  0.118870247712\n"
                       "  p_1_0_1  0.0129808601947\n"
                       "  p_0_2_0  0.0830032857100\n"
                       "  p_0_1_1  0.315123180868\n"
                       "  p_0_0_2  0.446463369367\n")

    def test_run_unheralded_csv(self, tmp_path, capsys):
        f = tmp_path / "u.icd"
        f.write_text(UNHERALDED_TEXT)
        code, out, _ = run_cli(capsys, "run", "--circuit", str(f),
                               "--param", "phi=1.3", "--format", "csv")
        assert code == 0
        assert out == ("outcome,probability\n"
                       "herald,1.00000000000\n"
                       "p_3_0_0,0.176827865580\n"
                       "p_2_1_0,0.113477239975\n"
                       "p_2_0_1,0.0929609792758\n"
                       "p_1_2_0,0.121754821035\n"
                       "p_1_1_1,0.0625487340737\n"
                       "p_1_0_2,0.188362121835\n"
                       "p_0_3_0,0.0468750000000\n"
                       "p_0_2_1,0.0501201789653\n"
                       "p_0_1_2,0.0895990259516\n"
                       "p_0_0_3,0.0574740333092\n")

    @pytest.mark.parametrize("text, argv, head, digest", [
        (HERALDED_TEXT, ("--param", "phi", "--steps", "32"),
         "phi,p_2_0_0,p_1_1_0,p_1_0_1,p_0_2_0,p_0_1_1,p_0_0_2\n"
         "0.000000000000,0.0197423050508,0.0394846101017,0.100000000000,"
         "0.00000000000000000000000000000000493038065763,0.560515389898,"
         "0.280257694949\n",
         "745a601d4480c6f26667d93ba6c22bc65c6036f2603f8db4b82fea5027cc6b9c"),
        (UNHERALDED_TEXT, ("--steps", "40", "--start", "-1", "--stop", "2"),
         "phi,p_3_0_0,p_2_1_0,p_2_0_1,p_1_2_0,p_1_1_1,p_1_0_2,p_0_3_0,p_0_2_1,"
         "p_0_1_2,p_0_0_3\n"
         "-1.00000000000,0.185501725245,0.128108855179,0.0626089487231,"
         "0.103670334595,0.0212291793717,0.156734820334,0.0468750000000,"
         "0.0682046654050,0.116286965449,0.110779505698\n",
         "84627ae46e01e673b2cde1d5c8f0bd801a8e8b8bc57476121497fa69834677df"),
    ], ids=["heralded", "unheralded"])
    def test_scan_bytes(self, tmp_path, capsys, text, argv, head, digest):
        f = tmp_path / "c.icd"
        f.write_text(text)
        code, out, _ = run_cli(capsys, "scan", "--circuit", str(f), *argv)
        assert code == 0
        assert out.startswith(head)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_heralds_above_photon_number_exit_3(self, tmp_path, capsys):
        f = tmp_path / "over.icd"
        f.write_text("modes 3\nparam phi\nsource 0 1\nphase 0 phi\nherald 1 2\n")
        code, out, err = run_cli(capsys, "scan", "--circuit", str(f), "--param", "phi")
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("steps", [32, 45])
    def test_preset_scan_evolves_once_per_point(self, tmp_path, monkeypatch,
                                                capsys, steps):
        calls = count_calls(monkeypatch, engine.run_circuit)
        code, _, _ = run_cli(capsys, "scan", "--preset", "fig1", "--param", "phi",
                             "--steps", str(steps), "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert len(calls) == steps

    def test_circuit_file_scan_evolves_once_per_point(self, tmp_path, monkeypatch,
                                                      capsys):
        f = tmp_path / "h.icd"
        f.write_text(HERALDED_TEXT)
        calls = count_calls(monkeypatch, engine.run_circuit)
        code, _, _ = run_cli(capsys, "scan", "--circuit", str(f), "--steps", "32")
        assert code == 0
        assert len(calls) == 32

    @pytest.mark.parametrize("argv", [
        ("--preset", "ifm"),
        ("--preset", "fig2", "--param", "phi1=0.1", "--param", "phi2=0.2"),
    ])
    def test_run_evolves_once(self, monkeypatch, capsys, argv):
        calls = count_calls(monkeypatch, engine.run_circuit)
        code, _, _ = run_cli(capsys, "run", *argv)
        assert code == 0
        assert len(calls) == 1

    def test_preset_scan_builds_one_basis(self, tmp_path, monkeypatch, capsys):
        built = []
        original = fock.FockBasis.__post_init__

        def counted(self):
            built.append((self.modes, self.photons))
            original(self)

        monkeypatch.setattr(fock.FockBasis, "__post_init__", counted)
        code, _, _ = run_cli(capsys, "scan", "--preset", "fig3", "--param", "phi",
                             "--steps", "64", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert built == [(4, 5)]


class TestScan:
    def test_scan_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "--preset", "single",
                             "--param", "phi", "--steps", "64",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "phi,P1,P2"
        assert len(lines) == 65
        for line in lines[1:]:
            phi, p1, _ = line.split(",")
            assert abs(float(p1) - (1 + math.cos(float(phi))) / 2) <= 1e-9

    def test_scan_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "scan", "--preset", "fig1", "--param", "phi",
                    "--steps", "64", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_fig3_fivefold_three_oscillations(self, tmp_path, capsys):
        out_file = tmp_path / "fig3.csv"
        code, _, _ = run_cli(capsys, "scan", "--preset", "fig3", "--model",
                             "cascade", "--param", "phi", "--steps", "96",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        y = np.array([float(l.split(",")[1]) for l in lines[1:]])
        c = np.fft.fft(y) / len(y)
        assert np.argmax(np.abs(c[1:len(y) // 2])) + 1 == 3

    def test_scan_rejects_coarse_grid(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--preset", "single",
                             "--param", "phi", "--steps", "8")
        assert code == 1

    @pytest.mark.parametrize("bound", [("--stop", "inf"), ("--start", "nan"),
                                       ("--start=-inf",), ("--stop=1e308",),
                                       ("--start", "-inf")])
    def test_non_finite_range_exit_1(self, capsys, bound):
        # 1e308 is finite, but the grid point 63/64 of the way there is not
        code, out, err = run_cli(capsys, "scan", "--preset", "single", *bound)
        assert (code, out) == (1, "")
        assert err == "error: --start and --stop must give a finite range of radians\n"

    def test_scan_fig2_fixed_second_phase(self, tmp_path, capsys):
        out_file = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "scan", "--preset", "fig2",
                             "--param", "phi1", "--param", "phi2=0",
                             "--steps", "32", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "phi1,c15,c16,c25,c26,other"


class TestFit:
    def test_fit_fig1_scan(self, tmp_path, capsys):
        csv = tmp_path / "fig1.csv"
        run_cli(capsys, "scan", "--preset", "fig1", "--param", "phi",
                "--steps", "64", "--out", str(csv))
        code, out, _ = run_cli(capsys, "fit", str(csv), "R11")
        assert code == 0
        assert "harmonic   2" in out
        vis = float(next(l.split()[1] for l in out.splitlines()
                         if l.startswith("visibility")))
        assert vis >= 0.999

    def test_fit_single_scan(self, tmp_path, capsys):
        csv = tmp_path / "single.csv"
        run_cli(capsys, "scan", "--preset", "single", "--param", "phi",
                "--steps", "64", "--out", str(csv))
        code, out, _ = run_cli(capsys, "fit", str(csv), "P1")
        assert code == 0
        assert "harmonic   1" in out

    def test_fit_constant_column(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        rows = ["phi,flat"] + [f"{fmt(i * 0.1)},0.250000000000" for i in range(64)]
        csv.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(csv), "flat")
        assert code == 0
        assert "no dominant harmonic" in out

    def test_fit_empty_file_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        code, _, err = run_cli(capsys, "fit", str(csv), "R11")
        assert code == 1
        assert err.startswith("error: ")

    def test_fit_header_only_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "header.csv"
        csv.write_text("phi,R11\n")
        code, _, err = run_cli(capsys, "fit", str(csv), "R11")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("bad_row", ["0.5,abc", "abc,0.5", "0.5"])
    def test_fit_non_numeric_or_short_row_exit_1(self, tmp_path, capsys, bad_row):
        csv = tmp_path / "bad.csv"
        rows = ["phi,flat"] + [f"{fmt(i * 0.1)},0.25" for i in range(40)]
        rows[5] = bad_row
        csv.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", str(csv), "flat")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("column", [0, 1], ids=["grid", "values"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_fit_non_finite_cell_exit_1(self, tmp_path, capsys, column, value):
        # float() reads these; a NaN grid cell would pass the uniform-grid check
        csv = tmp_path / "bad.csv"
        rows = [[fmt(i * 0.1), "0.25"] for i in range(40)]
        rows[5][column] = value
        csv.write_text("phi,flat\n" + "".join(",".join(r) + "\n" for r in rows))
        assert run_cli(capsys, "fit", str(csv), "flat") == (
            1, "", f"error: {csv} has a non-finite cell\n")

    def test_fit_missing_column(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        run_cli(capsys, "scan", "--preset", "single", "--param", "phi",
                "--steps", "64", "--out", str(csv))
        code, _, err = run_cli(capsys, "fit", str(csv), "nope")
        assert code == 1
        assert "nope" in err


class TestSizeLimit:
    TEXT = "modes 40\nsource 0 12\n"  # C(51, 12) ~ 1.6e11 basis vectors

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(modes, photons):
            raise AssertionError("enumeration started past the size limit")
            yield  # pragma: no cover

        monkeypatch.setattr(fock, "_gen_occupations", refuse)

    @pytest.mark.parametrize("command", ["run", "scan", "validate"])
    def test_oversized_basis_exit_1(self, tmp_path, capsys, no_enumeration, command):
        f = tmp_path / "big.icd"
        f.write_text(self.TEXT)
        argv = [command, str(f)] if command == "validate" else [command, "--circuit", str(f)]
        if command == "scan":
            argv += ["--param", "phi"]
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "limit" in err


class TestValidate:
    def test_valid_preset_file(self, tmp_path, capsys):
        icd = tmp_path / "fig1.icd"
        run_cli(capsys, "run", "--preset", "fig1", "--param", "phi=0",
                "--emit-icd", str(icd))
        code, out, _ = run_cli(capsys, "validate", str(icd))
        assert code == 0
        assert out.startswith("OK: 4 modes, 3 photons, 5 elements")

    def test_out_of_range_herald(self, tmp_path, capsys):
        f = tmp_path / "bad.icd"
        f.write_text("modes 2\nsource 0 1\nherald 5 1\n")
        code, _, err = run_cli(capsys, "validate", str(f))
        assert code == 1
        assert "out of range" in err

    def test_unbound_parameter_validates_ok(self, tmp_path, capsys):
        f = tmp_path / "templ.icd"
        f.write_text(MZ_TEXT)
        code, out, _ = run_cli(capsys, "validate", str(f))
        assert code == 0
        assert "OK" in out

    def test_missing_file_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "/nonexistent/x.icd")
        assert code == 4

    @pytest.mark.parametrize("literal", ["1e400", "-inf", "+nan", "-1e999"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_finite_phase_literal_exit_1(self, tmp_path, capsys, command, literal):
        f = tmp_path / "nf.icd"
        f.write_text(f"modes 2\nsource 0 1\nphase 0 {literal}\n")
        argv = [command, str(f)] if command == "validate" else [command, "--circuit", str(f)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: line 3, column 9: phase must be a finite number "
                       f"of radians (near '{literal}')\n")


    @pytest.mark.parametrize("command", ["run", "scan", "validate"])
    def test_heralds_on_every_mode_exit_1(self, tmp_path, capsys, command):
        f = tmp_path / "all.icd"
        f.write_text("modes 2\nsource 0 1\nbs 0 1\nherald 0 1\nherald 1 0\n")
        argv = [command, str(f)] if command == "validate" else [command, "--circuit", str(f)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: line 5, column 8: heralds leave no free mode\n"


class TestChsh:
    def test_default_settings_maximal(self, capsys):
        code, out, _ = run_cli(capsys, "chsh")
        assert code == 0
        s_line = next(l for l in out.splitlines() if l.startswith("S ="))
        assert abs(float(s_line.split("=")[1]) - 2 * math.sqrt(2)) <= 1e-6

    def test_explicit_optimal_settings(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "0", "1.5707963267948966",
                               "-0.7853981633974483", "-2.356194490192345")
        assert code == 0
        assert "2.82842712475" in out

    def test_degenerate_settings(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "0.2", "0.2", "0.2", "0.2")
        assert code == 0
        s = float(next(l for l in out.splitlines()
                       if l.startswith("S =")).split("=")[1])
        assert s <= 2 + 1e-9

    def test_wrong_arity(self, capsys):
        code, _, _ = run_cli(capsys, "chsh", "0.1", "0.2")
        assert code == 1

    @pytest.mark.parametrize("angles", [("nan", "0", "0", "0"), ("0", "inf", "0", "0"),
                                        ("0", "0", "0", "-inf")])
    def test_non_finite_angle_exit_1(self, capsys, angles):
        code, out, err = run_cli(capsys, "chsh", "--", *angles)
        assert (code, out) == (1, "")
        assert err == "error: chsh angles must be finite numbers of radians\n"


class TestErrorSites:
    """Exit code, exact stderr line and empty stdout of each CLI error site."""

    @pytest.mark.parametrize("argv, code, message", [
        (("scan", "--preset", "fig2"), 2,
         "specify the swept parameter with --param NAME"),
        (("scan", "--preset", "fig2", "--param", "phi1"), 2,
         "unbound parameter 'phi2'"),
        (("chsh", "0.1", "0.2", "0.3"), 1, "chsh needs exactly four angles"),
        (("chsh", "0", "0", "0", "-inf"), 1,
         "chsh angles must be finite numbers of radians"),
        (("scan", "--preset", "single", "--param", "phi=0", "--param", "theta"), 1,
         "unknown parameter 'theta'"),
        (("scan", "--preset", "fig2", "--param", "phi", "--param", "phi2=0"), 1,
         "unknown parameter 'phi'"),
        (("run", "--preset", "ifm", "--param", "phi=1"), 1, "unknown parameter 'phi'"),
        (("run", "--preset", "single", "--param", "phi=0", "--param", "theta"), 1,
         "unknown parameter 'theta'"),
        (("run", "--preset", "single", "--param", "phi=0", "--param", "phi"), 1,
         "--param phi: run needs NAME=RADIANS"),
    ])
    def test_error_line(self, capsys, argv, code, message):
        assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, verb", [
        (("scan", "--preset", "single", "--param", "phi", "--out", "{missing}"), "write"),
        (("run", "--preset", "single", "--param", "phi=0", "--emit-icd", "{missing}"),
         "write"),
        (("fit", "{missing}", "P1"), "read"),
        (("validate", "{missing}"), "read"),
        (("run", "--circuit", "{missing}"), "read"),
    ])
    def test_io_error_exit_4(self, tmp_path, capsys, argv, verb):
        missing = str(tmp_path / "no-such-dir" / "file")
        argv = [a.replace("{missing}", missing) for a in argv]
        assert run_cli(capsys, *argv) == (
            4, "", f"error: cannot {verb} {missing}: [Errno 2] No such file or "
                   f"directory: '{missing}'\n")

    @pytest.mark.parametrize("argv", [
        ("validate", "{file}"),
        ("fit", "{file}", "P1"),
        ("run", "--circuit", "{file}"),
        ("scan", "--circuit", "{file}"),
    ])
    def test_undecodable_file_exit_4(self, tmp_path, capsys, argv):
        f = tmp_path / "binary.icd"
        f.write_bytes(b"modes 2\n\xff\xfe\n")
        argv = [a.replace("{file}", str(f)) for a in argv]
        assert run_cli(capsys, *argv) == (
            4, "", f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff "
                   f"in position 8: invalid start byte\n")

    @pytest.mark.parametrize("argv, same_as", [
        (("chsh", "0", "0", "0", "-1e-3"), ("chsh", "--", "0", "0", "0", "-1e-3")),
        (("chsh", "-5.", "0", "-.5", "0"), ("chsh", "--", "-5.", "0", "-.5", "0")),
        (("scan", "--preset", "single", "--start", "-1e-3", "--stop", "-5."),
         ("scan", "--preset", "single", "--start=-1e-3", "--stop=-5.")),
    ])
    def test_negative_numbers_in_any_notation(self, capsys, argv, same_as):
        expected = run_cli(capsys, *same_as)
        assert expected[0] == 0
        assert run_cli(capsys, *argv) == expected


class TestModelAndEmit:
    @pytest.mark.parametrize("source", ["fig2", "sec4", "single", "ifm", "circuit"])
    def test_cascade_model_refused_exit_1(self, tmp_path, capsys, source):
        f = tmp_path / "mz.icd"
        f.write_text(MZ_TEXT)
        where = ("--circuit", str(f)) if source == "circuit" else ("--preset", source)
        assert run_cli(capsys, "run", *where, "--model", "cascade",
                       "--param", "phi=0") == (
            1, "", "error: --model cascade applies only to the fig1 and fig3 presets\n")

    @pytest.mark.parametrize("text", [MZ_TEXT, HERALDED_TEXT, UNHERALDED_TEXT],
                             ids=["mz", "heralded", "unheralded"])
    def test_emit_icd_for_circuit_file(self, tmp_path, capsys, text):
        src, emitted = tmp_path / "c.icd", tmp_path / "emitted.icd"
        src.write_text(text)
        code, _, _ = run_cli(capsys, "run", "--circuit", str(src), "--param", "phi=0.7",
                             "--emit-icd", str(emitted))
        assert code == 0
        assert parse(emitted.read_text()) == parse(text)


@pytest.mark.parametrize("argv, code, stderr_start", [
    (["chsh"], 0, ""),
    (["chsh", "0.1", "0.2"], 1, "error: chsh needs exactly four angles\n"),
    (["run", "--preset", "single"], 2, "error: unbound parameter 'phi'\n"),
    (["run", "--circuit", "{zero}"], 3, "error: herald pattern has zero probability\n"),
    (["validate", "{missing}"], 4, "error: cannot read "),
    (["frobnicate"], 2, "usage: fockmz "),
])
def test_exit_code_across_process_boundary(tmp_path, argv, code, stderr_start):
    zero = tmp_path / "zero.icd"
    zero.write_text("modes 2\nsource 0 2\nherald 1 3\n")
    argv = [a.format(zero=zero, missing=tmp_path / "missing.icd") for a in argv]
    src = str(Path(fockmz.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fockmz.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(stderr_start)
    assert (proc.stdout == "") == (code != 0)
