"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anyon_otto import cli
from anyon_otto import closed_form as cf
from anyon_otto.cli import main
from anyon_otto.otto import MEDIA, MEDIUM, OttoCycleSpec, run_cycle, sweep_axes


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCycleCommand:
    def test_cs_volume_prints_compression_efficiency(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle",
                "--medium",
                "cs-volume",
                "--l1",
                "2",
                "--l2",
                "1",
                "--beta-h",
                "0.01",
                "--beta-l",
                "0.1",
            ],
            capsys,
        )
        assert "efficiency = 0.75" in out
        assert "regime = engine" in out
        assert code == 0

    def test_non_engine_regime_exits_2_but_still_reports(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle",
                "--medium",
                "cs-volume",
                "--l1",
                "2",
                "--l2",
                "1",
                "--beta-h",
                "0.01",
                "--beta-l",
                "0.02",
            ],
            capsys,
        )
        assert code == 2
        assert "efficiency = 0.75" in out
        assert "regime = refrigerator" in out

    def test_identical_settings_degenerate_exit_2(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle",
                "--medium",
                "ring",
                "--alpha-h",
                "0.2",
                "--alpha-l",
                "0.2",
                "--beta-h",
                "1",
                "--beta-l",
                "1",
            ],
            capsys,
        )
        assert code == 2
        assert "degenerate" in out

    def test_missing_beta_h_exits_64_naming_key(self, capsys):
        code, _, err = run_cli(
            ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3", "--beta-l", "2"],
            capsys,
        )
        assert code == 64
        assert "beta_h" in err

    def test_unknown_flag_exits_64(self, capsys):
        code, _, err = run_cli(["cycle", "--no-such-flag", "1"], capsys)
        assert code == 64

    def test_writes_json_and_csv_with_identical_numbers(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, _, _ = run_cli(
            [
                "cycle",
                "--medium",
                "ring",
                "--alpha-h",
                "0.1",
                "--alpha-l",
                "0.3",
                "--beta-h",
                "0.5",
                "--beta-l",
                "25",
                "--out",
                str(out_dir),
                "--format",
                "csv,json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads((out_dir / "cycle.json").read_text())
        header, row = (out_dir / "cycle.csv").read_text().strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        for key in ("efficiency", "q_in", "q_out", "w_out"):
            assert math.isclose(float(cols[key]), payload[key], rel_tol=1e-15)
        assert cols["regime"] == payload["regime"] == "engine"

    RING = ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
    RING += ["--beta-h", "0.5", "--beta-l", "25"]

    def test_svg_only_format_exits_64_and_writes_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "svg"
        code, out, err = run_cli(self.RING + ["--out", str(out_dir), "--format", "svg"], capsys)
        message = "cycle writes csv and json only, got format svg"
        assert (code, out, err) == (64, "", f"config error: {message}\n")
        assert not out_dir.exists()

    def test_shared_config_with_svg_writes_csv_and_json(self, capsys, tmp_path):
        # one config file serves every command: cycle ignores svg, as it ignores seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv,json,svg\nseed = 3\n")
        out_dir = tmp_path / "shared"
        code, out, _ = run_cli(self.RING + ["--config", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 0
        assert "regime = engine" in out
        assert sorted(p.name for p in out_dir.iterdir()) == ["cycle.csv", "cycle.json"]

    def test_closed_form_residual_reported(self, capsys):
        code, out, _ = run_cli(
            [
                "cycle",
                "--medium",
                "cs-coupling",
                "--alpha1",
                "0",
                "--alpha2",
                "1",
                "--beta-h",
                "0.05",
                "--beta-l",
                "0.1",
            ],
            capsys,
        )
        assert code == 2  # refrigerator regime at this point
        line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert float(line.split("=")[1]) < 1e-9


    @pytest.mark.parametrize(
        "argv,closed",
        [
            (
                ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
                + ["--beta-h", "0.5", "--beta-l", "25"],
                lambda: cf.ring_efficiency_closed(0.1, 0.3, 0.5, 25.0),
            ),
            (
                ["--medium", "cs-coupling", "--alpha1", "0.2", "--alpha2", "0.7"]
                + ["--beta-h", "0.05", "--beta-l", "0.1"],
                lambda: cf.cs_efficiency_closed(0.2, 0.7, 0.05, 0.1),
            ),
        ],
        ids=["ring", "cs-coupling"],
    )
    def test_residual_equals_closed_form_report(self, capsys, argv, closed):
        _, out, _ = run_cli(["cycle"] + argv, capsys)
        line = next(l for l in out.splitlines() if l.startswith("closed_form_residual"))
        assert float(line.split("=")[1]) == closed().rel_residual

    @pytest.mark.parametrize(
        "argv",
        [
            ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
            + ["--beta-h", "inf", "--beta-l", "inf"],
            ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
            + ["--beta-h", "0.5", "--beta-l", "inf"],
            ["--medium", "ring", "--alpha-h", "nan", "--alpha-l", "0.3"]
            + ["--beta-h", "0.5", "--beta-l", "25"],
            ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3", "--eps0", "inf"]
            + ["--beta-h", "0.5", "--beta-l", "25"],
            ["--medium", "cs-coupling", "--alpha1", "nan", "--alpha2", "1"]
            + ["--beta-h", "0.05", "--beta-l", "0.1"],
            ["--medium", "cs-coupling", "--alpha1", "0", "--alpha2", "1", "--length", "inf"]
            + ["--beta-h", "0.05", "--beta-l", "0.1"],
            ["--medium", "cs-volume", "--l1", "inf", "--l2", "1"]
            + ["--beta-h", "0.01", "--beta-l", "0.1"],
            ["--medium", "cs-volume", "--l1", "2", "--l2", "1", "--alpha", "nan"]
            + ["--beta-h", "0.01", "--beta-l", "0.1"],
            ["--medium", "cs-volume", "--l1", "2", "--l2", "1", "--tail-tol", "inf"]
            + ["--beta-h", "0.01", "--beta-l", "0.1"],
        ],
        ids=[
            "ring-beta-inf",
            "ring-beta-l-inf",
            "ring-alpha-nan",
            "ring-eps0-inf",
            "cs-coupling-alpha-nan",
            "cs-coupling-length-inf",
            "cs-volume-l1-inf",
            "cs-volume-alpha-nan",
            "cs-volume-tail-tol-inf",
        ],
    )
    def test_non_finite_input_exits_64(self, capsys, argv):
        code, out, err = run_cli(["cycle"] + argv, capsys)
        assert code == 64
        assert err.startswith("config error: ")
        assert "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("L", ["1e-170", "1e-160", "1e-154", "1e170"])
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--medium", "cs-coupling", "--alpha1", "0", "--alpha2", "0.5", "--length"], "length"),
            (["--medium", "cs-volume", "--l1", "2", "--l2"], "ring sizes"),
        ],
        ids=["cs-coupling-length", "cs-volume-l2"],
    )
    def test_pair_length_outside_double_range_exits_64(self, capsys, tmp_path, argv, name, L):
        argv = ["cycle"] + argv + [L, "--beta-h", "0.05", "--beta-l", "0.1"]
        code, out, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        message = f"{name} must keep pi^2/L^2 a finite positive double"
        assert (code, out, err) == (64, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_cold_ring_cycle_prints_the_closed_forms_residual(self, capsys):
        # exp(2 lam alpha_l) = exp(1200) overflows a double, but no closed form
        # forms it.  The residual, 1.97e-7, is the closed form's own
        # low-temperature cancellation: a 40-digit mpmath sum gives eta
        # 0.49999231980534157, 1.5e-16 from the oracle's.
        argv = ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
        code, out, err = run_cli(argv + ["--beta-h", "30", "--beta-l", "2000"], capsys)
        assert code == 0
        assert "regime = engine" in out
        eta = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 30.0, 2000.0)).efficiency
        residual = cf.relative_residual(cf.ring_efficiency_value(0.1, 0.3, 30.0, 2000.0), eta)
        assert f"closed_form_residual = {residual!r}\n" in out
        assert 1e-7 < residual < 1e-6
        assert err == ""

    def test_partition_function_underflow_prints_cycle_without_residual(self, capsys):
        # the closed form's Z = exp(-lam gamma^2) T_0 underflows to 0 on both isochores
        argv = ["cycle", "--medium", "cs-coupling", "--alpha1", "1"]
        argv += ["--alpha2", "1.0317434074991028", "--beta-h", "1", "--beta-l", "1"]
        code, out, err = run_cli(argv + ["--length", "0.049787068367863944"], capsys)
        assert code == 2
        assert "regime = refrigerator" in out
        assert "residual" not in out
        assert err == ""

    def test_lattice_sum_overflow_prints_cycle_without_residual(self, capsys):
        # Each theta-series term is a finite double but their sum is not.
        argv = ["cycle", "--medium", "cs-coupling", "--alpha1", "13.32173841777535"]
        argv += ["--alpha2", "59.50530799072963", "--length", "2.352780164960125"]
        argv += ["--beta-h", "0.11227159241666729", "--beta-l", "1.8944716768357162"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "regime = refrigerator" in out
        assert "W_out = " in out
        assert "residual" not in out
        assert err == ""


def spec_from_flags(argv):
    args = cli._build_parser().parse_args(["cycle"] + argv)
    return cli._cycle_spec(cli._RunConfig(args))


class TestMediumTable:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"],
                OttoCycleSpec.ring_cycle(0.1, 0.3, 0.05, 0.2),
            ),
            (
                ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3", "--eps0", "2"],
                OttoCycleSpec.ring_cycle(0.1, 0.3, 0.05, 0.2, eps0=2.0),
            ),
            (
                ["--medium", "cs-volume", "--l1", "2", "--l2", "1.2"],
                OttoCycleSpec.cs_volume_cycle(2.0, 1.2, 0.0, 0.05, 0.2),
            ),
            (
                ["--medium", "cs-volume", "--l1", "2", "--l2", "1.2", "--alpha", "0.4"],
                OttoCycleSpec.cs_volume_cycle(2.0, 1.2, 0.4, 0.05, 0.2),
            ),
            (
                ["--medium", "cs-coupling", "--alpha1", "0.2", "--alpha2", "0.7"],
                OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 0.05, 0.2),
            ),
            (
                ["--medium", "cs-coupling", "--alpha1", "0.2", "--alpha2", "0.7"]
                + ["--length", "1.3", "--tail-tol", "1e-12"],
                OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 0.05, 0.2, 1.3, tail_tol=1e-12),
            ),
        ],
        ids=[
            "ring",
            "ring-eps0",
            "cs-volume",
            "cs-volume-alpha",
            "cs-coupling",
            "cs-coupling-length",
        ],
    )
    def test_flags_build_the_named_constructor_spec(self, argv, expected):
        assert spec_from_flags(argv + ["--beta-h", "0.05", "--beta-l", "0.2"]) == expected

    @pytest.mark.parametrize("medium", MEDIA)
    def test_every_parameter_is_a_flag_and_a_config_key(self, medium):
        for param in MEDIUM[medium].params:
            flag = "--" + param.name.replace("_", "-")
            args = cli._build_parser().parse_args(["sweep", flag, "0.5"])
            assert getattr(args, param.name) == 0.5
            assert param.name in cli._FLOAT_KEYS

    @pytest.mark.parametrize(
        "spec",
        [
            OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0),
            OttoCycleSpec.cs_volume_cycle(2.0, 1.2, 0.4, 0.05, 0.2),
            OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 0.05, 0.1),
        ],
        ids=MEDIA,
    )
    def test_every_medium_has_a_residual(self, spec):
        assert set(cli._RESIDUALS) == set(MEDIA)
        cfg = cli._RunConfig(cli._build_parser().parse_args(["cycle"]))
        residual = cli._closed_form_residual(spec, run_cycle(spec).efficiency, cfg)
        assert residual < 1e-9


class TestConfigFile:
    def test_config_file_drives_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# ring engine\n"
            "medium = ring\n"
            "alpha_h = 0.1\n"
            "alpha_l = 0.3\n"
            "beta_h = 0.5\n"
            "beta_l = 25\n"
        )
        code, out, _ = run_cli(["cycle", "--config", str(cfg)], capsys)
        assert code == 0
        assert "regime = engine" in out

    def test_later_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "medium = cs-volume\nl1 = 2\nl2 = 1\nbeta_h = 0.01\nbeta_l = 0.1\n"
        )
        code, out, _ = run_cli(
            ["cycle", "--config", str(cfg), "--l2", "1.5"], capsys
        )
        assert code in (0, 2)
        # 1 - 1.5^2/2^2 = 0.4375
        assert "efficiency = 0.4375" in out

    def test_unknown_config_key_exits_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("medium = ring\nbogus_key = 1\n")
        code, _, err = run_cli(["cycle", "--config", str(cfg)], capsys)
        assert code == 64
        assert "bogus_key" in err

    def test_non_numeric_value_exits_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "medium = ring\nalpha_h = fast\nalpha_l = 0.3\nbeta_h = 1\nbeta_l = 2\n"
        )
        code, _, err = run_cli(["cycle", "--config", str(cfg)], capsys)
        assert code == 64
        assert "alpha_h" in err


class TestSweepCommand:
    BASE = [
        "sweep",
        "--medium",
        "cs-coupling",
        "--alpha1",
        "0",
        "--beta-h",
        "0.05",
        "--beta-l",
        "0.1",
        "--sweep",
        "alpha2",
        "--grid",
        "0:1:11",
    ]

    def test_eleven_rows_with_degenerate_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(self.BASE + ["--out", str(out_dir)], capsys)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("alpha2,")
        assert len(lines) == 12
        first = lines[1].split(",")
        assert first[0] == "0"
        assert "degenerate" in lines[1]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_cli(self.BASE + ["--out", str(dir_a)], capsys)
        run_cli(self.BASE + ["--out", str(dir_b)], capsys)
        assert (dir_a / "sweep.csv").read_bytes() == (dir_b / "sweep.csv").read_bytes()

    def test_empty_grid_header_only(self, capsys, tmp_path):
        out_dir = tmp_path / "empty"
        args = [a if a != "0:1:11" else "0:1:0" for a in self.BASE]
        code, _, _ = run_cli(args + ["--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "sweep.csv").read_text() == (
            "alpha2,efficiency,q_in,q_out,w_out,regime,residual,error\n"
        )

    def test_json_matches_csv_numbers(self, capsys, tmp_path):
        out_dir = tmp_path / "match"
        run_cli(self.BASE + ["--out", str(out_dir), "--format", "csv,json"], capsys)
        payload = json.loads((out_dir / "sweep.json").read_text())
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")[1:]
        assert len(payload["rows"]) == len(lines)
        for row, line in zip(payload["rows"], lines):
            cols = line.split(",")
            assert math.isclose(float(cols[0]), row["value"], rel_tol=1e-15)
            assert math.isclose(float(cols[1]), row["efficiency"], rel_tol=1e-15)
            assert cols[5] == row["regime"]
            assert "wall_time_s" in row

    def test_svg_is_self_contained_and_labeled(self, capsys, tmp_path):
        out_dir = tmp_path / "plot"
        code, _, _ = run_cli(
            self.BASE + ["--out", str(out_dir), "--format", "svg"], capsys
        )
        assert code == 0
        svg = (out_dir / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        assert "alpha2" in svg
        assert "efficiency" in svg
        assert "degenerate" in svg and "refrigerator" in svg
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg  # no external assets

    def test_missing_out_exits_64(self, capsys):
        code, _, err = run_cli(self.BASE, capsys)
        assert code == 64
        assert "out" in err

    def test_bad_axis_for_medium_exits_64(self, capsys, tmp_path):
        args = [a if a != "alpha2" else "l1" for a in self.BASE]
        code, _, err = run_cli(args + ["--out", str(tmp_path / "x")], capsys)
        assert code == 64
        assert "l1" in err

    def test_per_row_errors_recorded(self, capsys, tmp_path):
        out_dir = tmp_path / "rows"
        args = [
            "sweep",
            "--medium",
            "cs-volume",
            "--l1",
            "1",
            "--alpha",
            "0",
            "--beta-h",
            "0.05",
            "--beta-l",
            "0.2",
            "--sweep",
            "l2",
            "--grid=-0.5:0.6:2",
            "--out",
            str(out_dir),
        ]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert "DomainError" in lines[1]
        assert lines[2].split(",")[-1] == ""


    def test_residuals_equal_closed_form_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "residuals"
        run_cli(self.BASE + ["--out", str(out_dir)], capsys)
        rows = [line.split(",") for line in (out_dir / "sweep.csv").read_text().splitlines()[1:]]
        checked = 0
        for row in rows:
            alpha2 = float(row[0])
            if alpha2 == 0.0:
                assert row[6] == ""  # alpha1 == alpha2: no closed form
                continue
            rep = cf.cs_efficiency_closed(0.0, alpha2, 0.05, 0.1)
            assert float(row[6]) == rep.rel_residual
            checked += 1
        assert checked == 10

    def test_no_convergence_row_recorded(self, capsys, tmp_path):
        out_dir = tmp_path / "noconv"
        args = [
            "sweep",
            "--medium",
            "ring",
            "--alpha-h",
            "0.1",
            "--alpha-l",
            "0.3",
            "--beta-h",
            "0.5",
            "--beta-l",
            "25",
            "--sweep",
            "beta_h",
            "--grid",
            "0.5:1e-12:2",
            "--out",
            str(out_dir),
        ]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[-1] == ""
        assert lines[2].split(",")[-1].startswith("NoConvergence: ring window exceeded")

    @pytest.mark.parametrize(
        "axis, fixed, grid, errors",
        [
            ("beta_h", ["--beta-l", "5"], "0.1:1:3", ["", "", ""]),
            ("beta_l", ["--beta-h", "0.5"], "0.1:10:3", ["DomainError", "", ""]),
        ],
    )
    def test_temperature_axis_needs_no_value_of_its_own(
        self, capsys, tmp_path, axis, fixed, grid, errors
    ):
        out_dir = tmp_path / axis
        argv = ["sweep", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"] + fixed
        argv += ["--sweep", axis, "--grid", grid, "--out", str(out_dir)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith(f"{axis},")
        assert [line.split(",")[-1].split(":")[0] for line in lines[1:]] == errors

    def test_temperature_axis_still_needs_the_other_bath(self, capsys, tmp_path):
        argv = ["sweep", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
        argv += ["--sweep", "beta_h", "--grid", "0.1:1:3", "--out", str(tmp_path / "x")]
        code, _, err = run_cli(argv, capsys)
        assert code == 64
        assert "beta_l" in err


class TestSweepSharing:
    """A sweep sums the unswept isochore's closed-form factors once; its rows do not change."""

    @pytest.mark.parametrize(
        "argv",
        [
            TestSweepCommand.BASE,
            ["sweep", "--medium", "ring", "--alpha-h", "0.1", "--beta-h", "0.5", "--beta-l", "5"]
            + ["--sweep", "alpha_l", "--grid", "0.1:0.5:5"],
            ["sweep", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3", "--beta-l", "5"]
            + ["--sweep", "beta_h", "--grid", "0.1:1:4"],
        ],
        ids=["cs-coupling-alpha2", "ring-alpha_l", "ring-beta_h"],
    )
    def test_residuals_equal_independent_cycles(self, capsys, tmp_path, argv):
        code, _, _ = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 0
        args = cli._build_parser().parse_args(argv)
        cfg = cli._RunConfig(args)
        axis = args.sweep
        field = MEDIUM[args.medium].axis_fields[axis]
        template = cli._cycle_spec(cfg, {axis: 1.0})
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        residuals = 0
        for line in lines:
            cols = line.split(",")
            spec = dataclasses.replace(template, **{field: float(cols[0])})
            report = run_cycle(spec)
            assert cols[1] == cli._fmt(report.efficiency)
            residual = cli._closed_form_residual(spec, report.efficiency, cfg)
            assert cols[6] == ("" if residual is None else cli._fmt(residual))
            residuals += residual is not None
        assert residuals >= len(lines) - 1


class TestValidateCommand:
    def test_default_validation_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "validation passed" in out
        assert out.count("PASS") >= 10

    def test_loose_tolerance_still_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--rel-tol", "1e-3"], capsys)
        assert code == 0

    def test_rel_tol_below_the_threshold_floor_passes(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["validate", "--rel-tol", "1e-17"], capsys)
        assert (code, err) == (0, "")
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 11

    def test_printed_variant_fails_and_is_named(self, capsys):
        code, out, _ = run_cli(["validate", "--variant", "paper-main-text"], capsys)
        assert code == 3
        assert "FAIL" in out
        assert "paper-main-text" in out


class TestToleranceConfig:
    """rel_tol and tail_tol are checked when the config is read: exit 64, no work."""

    RING = ["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
    RING += ["--beta-h", "0.5", "--beta-l", "2"]
    BAD = [
        (["--rel-tol", "2"], "rel_tol must lie in (0, 1), got 2.0"),
        (["--rel-tol", "0"], "rel_tol must lie in (0, 1), got 0.0"),
        (["--rel-tol", "nan"], "rel_tol must lie in (0, 1), got nan"),
        (["--tail-tol", "2"], "tail_tol must lie in (0, 1), got 2.0"),
        (["--tail-tol", "1"], "tail_tol must lie in (0, 1), got 1.0"),
        (["--tail-tol=-1e-13"], "tail_tol must lie in (0, 1), got -1e-13"),
    ]
    IDS = ["rel-2", "rel-0", "rel-nan", "tail-2", "tail-1", "tail-negative"]

    @pytest.mark.parametrize("flags,message", BAD, ids=IDS)
    def test_cycle_exits_64(self, capsys, tmp_path, flags, message):
        argv = ["cycle"] + self.RING + flags + ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (64, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", BAD, ids=IDS)
    def test_sweep_exits_64(self, capsys, tmp_path, flags, message):
        argv = ["sweep"] + self.RING + ["--sweep", "beta_l", "--grid", "1:2:2"]
        code, out, err = run_cli(argv + flags + ["--out", str(tmp_path / "out")], capsys)
        assert (code, out, err) == (64, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", BAD, ids=IDS)
    def test_validate_exits_64(self, capsys, flags, message):
        code, out, err = run_cli(["validate"] + flags, capsys)
        assert (code, out, err) == (64, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command", ["cycle", "validate"])
    @pytest.mark.parametrize("key", ["rel_tol", "tail_tol"])
    def test_config_file_value_checked(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, out, err) == (64, "", f"config error: {key} must lie in (0, 1), got 2.0\n")

    def test_flag_overrides_bad_file_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail_tol = 2\n")
        argv = ["cycle", "--config", str(cfg), "--tail-tol", "1e-13"] + self.RING
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (2, "")
        assert "regime = refrigerator" in out

    def test_rel_tol_below_the_least_normals_reach(self, capsys):
        # rel_tol * 2.2e-308 underflows to 0 below rel_tol ~2.2e-16: the cold
        # isochore's oracle sums still certify, with the default run's bits
        argv = ["cycle", "--medium", "cs-coupling", "--alpha1", "0", "--alpha2", "1"]
        argv += ["--beta-h", "0.05", "--beta-l", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv + ["--rel-tol", "1e-17"], capsys)
        assert (code, err) == (cli.EXIT_NON_ENGINE, "")
        assert "regime = refrigerator" in out and "closed_form_residual = " in out
        assert (code, out, err) == run_cli(argv, capsys)


class TestSeedConfig:
    """A negative seed is bad configuration: exit 64 before any work."""

    def test_validate_flag_exits_64(self, capsys):
        code, out, err = run_cli(["validate", "--seed", "-1"], capsys)
        assert (code, out, err) == (64, "", "config error: seed must be non-negative, got -1\n")

    def test_cycle_flag_exits_64(self, capsys):
        argv = ["cycle"] + TestToleranceConfig.RING + ["--seed=-7"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (64, "", "config error: seed must be non-negative, got -7\n")

    @pytest.mark.parametrize("command", ["cycle", "validate"])
    def test_config_file_value_checked(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -2\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, out, err) == (64, "", "config error: seed must be non-negative, got -2\n")

    def test_zero_seed_accepted(self, capsys):
        code, _, err = run_cli(["validate", "--seed", "0"], capsys)
        assert (code, err) == (0, "")

    def test_cycle_ignores_the_seed(self, capsys, tmp_path):
        # accepted, so that one config file serves every command, but unused
        argv = ["cycle"] + TestToleranceConfig.RING + ["--format", "csv,json"]
        plain = run_cli(argv + ["--out", str(tmp_path / "plain")], capsys)
        seeded = run_cli(argv + ["--out", str(tmp_path / "seeded"), "--seed", "5"], capsys)
        assert seeded == plain
        for name in ("cycle.csv", "cycle.json"):
            seeded_file, plain_file = tmp_path / "seeded" / name, tmp_path / "plain" / name
            assert seeded_file.read_bytes() == plain_file.read_bytes()


class TestVariantConfig:
    """An unknown formula variant is bad configuration: exit 64 before any work."""

    @pytest.mark.parametrize("command", ["cycle", "validate"])
    def test_config_file_value_checked(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = bogus\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        message = f"variant must be one of {cf.VARIANTS}, got 'bogus'"
        assert (code, out, err) == (64, "", f"config error: {message}\n")

    def test_config_file_printed_variant_runs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = paper-appendix\n")
        from_file = run_cli(["validate", "--config", str(cfg)], capsys)
        assert from_file == run_cli(["validate", "--variant", "paper-appendix"], capsys)
        assert from_file[0] == 3


class TestParserReuse:
    """The parser is built once per process; later runs must not see earlier ones."""

    RUNS = [
        ["cycle"] + TestToleranceConfig.RING,
        ["cycle", "--no-such-flag"],
        ["validate"],
        ["cycle", "--medium", "ring", "--alpha-h", "0.2", "--alpha-l", "0.4"]
        + ["--beta-h", "0.5", "--beta-l", "25"],
    ]

    def test_runs_in_one_process_equal_fresh_processes(self, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        assert cli._build_parser() is cli._build_parser()
        codes = []
        for argv in self.RUNS:
            fresh = subprocess.run(
                [sys.executable, "-m", "anyon_otto.cli"] + argv,
                capture_output=True,
                text=True,
                env=env,
            )
            assert run_cli(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(fresh.returncode)
        assert codes == [2, 64, 0, 0]


class TestParserEdges:
    """Exit code, stdout and stderr of argvs that stop in the parser, or only just pass it."""

    CHOICES = "(choose from 'cycle', 'sweep', 'validate')"
    MISPLACED = "option '{}' comes before the command; options follow the command name "
    MISPLACED += "(cycle, sweep, validate)"
    RING = ["--alpha-h", "0.1", "--alpha-l", "0.3", "--beta-h", "0.5", "--beta-l", "25"]
    TOP_USAGE = "usage: anyon-otto [-h] [--version] {cycle,sweep,validate} ..."

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["-x"], MISPLACED.format("-x")),
            (["bogus"], f"argument command: invalid choice: 'bogus' {CHOICES}"),
            (["cyc"], f"argument command: invalid choice: 'cyc' {CHOICES}"),
            (["--", "cycle"], f"argument command: invalid choice: '--' {CHOICES}"),
            (["--medium", "ring", "cycle"], MISPLACED.format("--medium")),
            (["cycle", "--version"], "unrecognized arguments: --version"),
            (["cycle", "extra"], "unrecognized arguments: extra"),
            (["cycle", "--", "ring"], "unrecognized arguments: -- ring"),
            (["cycle", "--medium", "ring", "--"], "unrecognized arguments: --"),
            (["cycle", "--beta-h"], "argument --beta-h: expected one argument"),
            (["validate", "--config"], "argument --config: expected one argument"),
        ],
    )
    def test_usage_errors_exit_64(self, capsys, argv, message):
        assert run_cli(argv, capsys) == (64, "", f"config error: {message}\n")

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == ("anyon-otto 0.1.0\n", "")

    @pytest.mark.parametrize(
        "argv, usage, present, absent",
        [
            (["-h"], TOP_USAGE, "run a single Otto cycle", "--medium"),
            (["--help"], TOP_USAGE, "run a single Otto cycle", "--medium"),
            (["cycle", "-h"], "usage: anyon-otto cycle [-h]", "--alpha-h", "--grid"),
            (["sweep", "--help"], "usage: anyon-otto sweep [-h]", "--grid", "--variant"),
            (["validate", "-h"], "usage: anyon-otto validate [-h]", "--variant", "--medium"),
        ],
    )
    def test_help_exits_0_with_its_parsers_usage(self, capsys, argv, usage, present, absent):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.splitlines()[0].startswith(usage)
        assert present in out
        assert absent not in out

    @pytest.mark.parametrize(
        "flags",
        [["--medium=ring"], ["--med", "ring"], ["--medium", "ring"]],
        ids=["joined", "abbreviated", "separate"],
    )
    def test_medium_flag_spellings_run_the_same_cycle(self, capsys, flags):
        spelled = run_cli(["cycle", *flags, *self.RING], capsys)
        assert spelled == run_cli(["cycle", "--medium", "ring", *self.RING], capsys)
        assert spelled[0] == 0 and spelled[1].startswith("medium = ring\n")


    @pytest.mark.parametrize(
        "argv, out",
        [(["--vers"], "anyon-otto 0.1.0\n"), (["--version", "--medium"], "anyon-otto 0.1.0\n")]
        + [(["--hel"], TOP_USAGE), (["-h", "--medium", "ring", "cycle"], TOP_USAGE)],
    )
    def test_top_level_options_before_a_command_still_exit_0(self, capsys, argv, out):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(out)


def _items(namespace):
    """A namespace's items in order, with each value's type and repr, so that nan equals nan."""
    return [(key, type(value), repr(value)) for key, value in vars(namespace).items()]


@st.composite
def command_lines(draw):
    """A command's parser and an argv drawn from its option strings.

    Each word group is an exact flag and a value, an abbreviated flag and a
    value, a flag and a value joined by ``=``, or a lone flag or value; flags
    repeat freely.  ``exact`` tells whether every group is an exact flag and a
    value that does not start with ``-``.
    """
    parser = cli._build_parser().commands[draw(st.sampled_from(["cycle", "sweep", "validate"]))]
    flags = sorted(parser.options)
    values = st.sampled_from(
        ["inf", "nan", "-0.5", "-1e-5", "1e400", "", "0.3", "25", "7", "abc", "1e-10"]
        + ["ring", "cs-volume", "cs-coupling", "beta_h", "0:1:3", "csv,json", "--medium"]
        + list(cf.VARIANTS)
    )
    argv, exact = [], True
    for _ in range(draw(st.integers(0, 6))):
        flag, value = draw(st.sampled_from(flags)), draw(values)
        spelling = draw(st.sampled_from(["exact", "abbreviated", "joined", "lone"]))
        if spelling == "exact":
            argv += [flag, value]
            exact = exact and not value.startswith("-")
            continue
        exact = False
        if spelling == "abbreviated":
            argv += [flag[: draw(st.integers(3, len(flag) - 1))], value]
        elif spelling == "joined":
            argv.append(f"{flag}={value}")
        else:
            argv.append(draw(st.sampled_from([flag, value])))
    return parser, argv, exact


class TestOptionTable:
    """A command's option table reads an argv as argparse would, or leaves it to argparse."""

    @settings(
        max_examples=600,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(command_lines())
    def test_equals_argparse_or_declines(self, case):
        parser, argv, exact = case
        got = parser.read_pairs(argv)
        try:
            want = parser.parse_args(argv)
        except (cli.ConfigError, SystemExit):
            assert got is None, argv
            return
        if got is not None:
            assert _items(got) == _items(want), argv
        # an argv of exact pairs whose values pass argparse is the table's
        assert (got is not None) == exact, argv

    @staticmethod
    def documented_argvs(tmp):
        """The argvs of README's CLI block and of CI's console script step, but --version."""
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
        workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        step = workflow.split("- name: Installed console script", 1)[1].split("- name:", 1)[0]
        step = step.replace("$RUNNER_TEMP", str(tmp))
        argvs = []
        for text in (block, step):
            for line in text.replace("\\\n", " ").splitlines():
                if "anyon-otto" not in line.split():
                    continue
                words = shlex.split(line, comments=True)
                while words and "=" in words[0] and not words[0].startswith("-"):
                    words.pop(0)  # an environment assignment
                if words[:1] != ["anyon-otto"] or words[1:2] == ["--version"]:
                    continue
                ends = [i for i, w in enumerate(words) if w in ("|", "||", ">", "2>")]
                argvs.append(words[1 : ends[0] if ends else None])
        return argvs

    def test_documented_command_lines_skip_argparse(self, capsys, tmp_path, monkeypatch):
        def refused(self, *args, **kwargs):
            raise AssertionError("argparse read a documented command line")

        cli._build_parser()
        monkeypatch.chdir(tmp_path)
        argvs = self.documented_argvs(tmp_path)
        # spelled for argparse on purpose: a bare command line, a command's help,
        # a joined negative grid, and the README ring cycle's abbreviated twin
        argparse_spelled = [
            argv for argv in argvs
            if not argv or "--help" in argv or any("=" in word for word in argv)
        ]
        assert len(argparse_spelled) == 4
        table_spelled = [argv for argv in argvs if argv not in argparse_spelled]
        assert len(table_spelled) >= 25
        (tmp_path / "regular").touch()
        monkeypatch.setattr(cli._Parser, "parse_args", refused)
        monkeypatch.setattr(cli._Parser, "parse_known_args", refused)
        for argv in table_spelled:
            assert main(argv) in (0, 1, 2, 3, 64), argv
        capsys.readouterr()


class TestBlasThreads:
    """The printed digits do not follow the BLAS thread count."""

    # Q_in and Q_out agree to 8 digits here, so a reduction whose order
    # follows the thread count shows in the printed efficiency.
    ARGV = ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
    ARGV += ["--beta-h", "1e-7", "--beta-l", "1e-6", "--rel-tol", "1e-12", "--tail-tol", "1e-13"]

    def test_one_and_two_threads_print_the_same_bytes(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                OPENBLAS_NUM_THREADS=threads,
            )
            fresh = subprocess.run(
                [sys.executable, "-m", "anyon_otto.cli"] + self.ARGV, capture_output=True, env=env
            )
            assert b"efficiency = " in fresh.stdout
            outputs.append(fresh.stdout)
        assert outputs[0] == outputs[1]


class TestHotPairCycle:
    """A hot pair cycle's closed form sums its one-sided series without a slow-decay warning."""

    ARGV = ["cycle", "--medium", "cs-coupling", "--alpha1", "1", "--alpha2", "0"]
    ARGV += ["--beta-h", "2e-4", "--beta-l", "2e-3"]

    def test_console_stderr_is_empty(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "anyon_otto.cli"] + self.ARGV,
            capture_output=True,
            text=True,
            env=env,
        )
        assert fresh.returncode == 0
        assert "\nclosed_form_residual = " in fresh.stdout
        assert fresh.stderr == ""


class TestRangeErrors:
    """Inputs whose window or energies leave the double range exit 1 with a typed error."""

    CS = ["cycle", "--medium", "cs-coupling", "--alpha1", "0", "--alpha2", "0.5"]
    RING = ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                CS + ["--beta-h", "0.05", "--beta-l", "0.1", "--length", "1e154"],
                "error: pair window exceeded K=1500",
            ),
            (RING + ["--beta-h", "1e-310", "--beta-l", "1e-300"], "error: ring window exceeded"),
            (CS + ["--beta-h", "1e-310", "--beta-l", "1e-300"], "error: pair window exceeded"),
            (
                RING + ["--beta-h", "1e-300", "--beta-l", "1e-299", "--eps0", "1e-30"],
                "error: ring window exceeded",
            ),
            (
                CS + ["--beta-h", "0.05", "--beta-l", "0.1", "--length", "1e-153"],
                "error: level energies leave the double range",
            ),
            (
                ["cycle", "--medium", "cs-volume", "--l1", "2", "--l2", "1", "--alpha", "1e300"]
                + ["--beta-h", "0.05", "--beta-l", "0.1"],
                "error: pair window exceeded K=1500",
            ),
        ],
        ids=[
            "length-1e154",
            "ring-beta-1e-310",
            "pair-beta-1e-310",
            "ring-lam-0",
            "length-1e-153",
            "alpha-1e300",
        ],
    )
    def test_exit_one_with_typed_error(self, capsys, argv, message):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_ERROR
        assert message in err
        assert "nan" not in out

    def test_sweep_records_the_error_row(self, capsys, tmp_path):
        argv = ["sweep"] + self.CS[1:] + ["--beta-h", "0.05", "--beta-l", "0.1"]
        argv += ["--sweep", "length"]
        argv += ["--grid", "1:1e154:2", "--out", str(tmp_path)]
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2
        assert "NoConvergence: pair window exceeded K=1500" in rows[1]


class TestSweepRanges:
    """A grid whose start, stop or span is not a finite double is exit 64; any grid plots."""

    BASE = [
        "sweep", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3",
        "--beta-h", "1", "--beta-l", "5", "--sweep", "alpha_l",
    ]

    @pytest.mark.parametrize("grid", ["-1e308:1e308:3", "1e300:inf:3", "nan:1:2"])
    def test_non_finite_grid_exits_64_before_writing(self, grid, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(self.BASE + [f"--grid={grid}", "--out", str(out_dir)], capsys)
        assert code == 64
        assert "grid" in err and "finite" in err
        assert not out_dir.exists()

    def test_wide_finite_grid_keeps_its_endpoints(self, capsys, tmp_path):
        # (stop - start) * 2 overflows here, though the span itself does not.
        code, _, _ = run_cli(self.BASE + ["--grid=0:1.7e308:3", "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.85e308, 1.7e308]

    @pytest.mark.parametrize(
        "flags",
        [
            # one point at x = 1.17e16, where x - 0.5 == x
            ["--medium=ring", "--sweep=beta_h", "--grid=1.1719142372802612e+16:1:1",
             "--beta-l=1.1719142372802612e+16", "--alpha-h=1", "--alpha-l=2.718281828459045"],
            # one point at efficiency -3.2e16
            ["--medium=cs-volume", "--sweep=l2", "--grid=2.718281828459045:1:1",
             "--beta-h=1", "--beta-l=1", "--l1=1.522997974471263e-08", "--alpha=1"],
        ],
    )
    def test_single_large_point_plots(self, flags, capsys, tmp_path):
        argv = ["sweep"] + flags + ["--out", str(tmp_path), "--format", "csv,svg"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and "1 points, 1 computed" in out
        svg = (tmp_path / "sweep.svg").read_text()
        assert "<title>" in svg
        assert not re.search(r"\b(nan|inf)\b", svg)


class TestRoundingNoiseCycle:
    """An efficiency with no digit left is degenerate; ground-shifted heats keep their digits."""

    @pytest.mark.parametrize(
        "flags",
        [
            # identical couplings and temperatures: P_B = P_A, so Q_in is exactly 0
            ["--medium", "cs-coupling", "--alpha1", "1", "--alpha2", "1",
             "--beta-h", "1", "--beta-l", "1"],
            ["--medium", "ring", "--alpha-h", "0.2", "--alpha-l", "0.2",
             "--beta-h", "1", "--beta-l", "1"],
        ],
    )
    def test_noise_efficiency_is_degenerate(self, flags, capsys):
        code, out, _ = run_cli(["cycle"] + flags, capsys)
        assert code == 2
        assert "regime = degenerate" in out
        assert "efficiency" not in out

    @pytest.mark.parametrize(
        "flags, eta",
        [
            # Q_in = 6.8e-19.  Summed over unshifted energies, it came out 8.2e-16,
            # which the noise rule called degenerate.
            (["--medium", "cs-coupling", "--alpha1", "1.0000610370189331", "--alpha2", "1",
              "--beta-h", "1", "--beta-l", "1.0000610370189331"], -1067474982891.08),
            # P_B's ground population rounds to 1 and would lose the excited
            # weight 1.8e-35 that makes Q_in: unshifted, the efficiency came out 0.395.
            (["--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3",
              "--beta-h", "100", "--beta-l", "2000"], 0.5),
        ],
    )
    def test_shifted_heats_match_mpmath(self, flags, eta, capsys):
        # eta from a 50-digit, ground-shifted mpmath sum over the same box
        # (tests/cycle_reference.py), within the pinned cycle-identity tolerance
        code, out, _ = run_cli(["cycle"] + flags, capsys)
        printed = float(out.split("efficiency = ")[1].split()[0])
        assert printed == pytest.approx(eta, rel=1e-10)
        assert code == (0 if eta > 0 else 2)

    def test_proportional_spectra_keep_their_exact_ratio(self, capsys):
        # Q_in = 2.6e-20, mpmath's to its last digits (unshifted sums gave 2.7e-20);
        # every level scales as 1/L^2, so Q_out/Q_in is L2^2/L1^2 either way.
        l1, l2 = 1.0186704433417662, 0.30560113300252983
        code, out, _ = run_cli(
            ["cycle", "--medium", "cs-volume", f"--l1={l1!r}", f"--l2={l2!r}",
             "--alpha", "0.1826552308180282", "--beta-h", "0.2948301381845095",
             "--beta-l", "4.822518358972034"],
            capsys,
        )
        assert code == 0
        eta = float(out.split("efficiency = ")[1].split()[0])
        assert eta == pytest.approx(1.0 - (l2 / l1) ** 2, rel=1e-15)


# Floats log-uniform over [1e-300, 1e300]; then with signs, zeros, infinities and nan.
_MAGNITUDES = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)
_ANY_FLOAT = st.one_of(
    st.builds(lambda m, sign: sign * m, _MAGNITUDES, st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def _cycle_argv(draw):
    """``cycle`` flags for any medium: any floats, or values that pass the spec's sign checks.

    The second kind has beta_h <= beta_l and positive parameters, so that it
    reaches the cycle unless a range check stops it.
    """
    medium = draw(st.sampled_from(MEDIA))
    names = ["beta_h", "beta_l"] + [p.name for p in MEDIUM[medium].params]
    if draw(st.booleans()):
        values = [draw(_ANY_FLOAT) for _ in names]
    else:
        values = sorted(draw(_MAGNITUDES) for _ in range(2))
        values += [draw(_MAGNITUDES) for _ in names[2:]]
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in zip(names, values)]
    return ["cycle", f"--medium={medium}"] + flags


class TestCycleFuzz:
    """Every cycle input ends in a documented exit code, never a traceback."""

    # 2,000 examples pass too; half of that keeps tier-1 quick.
    @settings(
        max_examples=1000,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(argv=_cycle_argv())
    def test_documented_exit_code(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 1, 2, 64), argv
        assert "Traceback" not in stderr.getvalue()


@st.composite
def _sweep_argv(draw):
    """``sweep`` flags for any medium and axis, with a grid of 0-3 points.

    The fixed values and grid ends are any floats, or positive ones with
    beta_h <= beta_l, so that the rows reach the cycle unless a range check
    stops them.  Returns the argv and the grid's point count.
    """
    medium = draw(st.sampled_from(MEDIA))
    axis = draw(st.sampled_from(sweep_axes(medium)))
    positive = draw(st.booleans())
    floats = _MAGNITUDES if positive else _ANY_FLOAT
    names = ["beta_h", "beta_l"] + [p.name for p in MEDIUM[medium].params]
    values = {name: draw(floats) for name in names if name != axis}
    if positive and axis not in ("beta_h", "beta_l"):
        values["beta_h"], values["beta_l"] = sorted((values["beta_h"], values["beta_l"]))
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]
    steps = draw(st.integers(0, 3))
    grid = f"--grid={draw(floats)!r}:{draw(floats)!r}:{steps}"
    return ["sweep", f"--medium={medium}", f"--sweep={axis}", grid] + flags, steps


class TestSweepFuzz:
    """Every sweep input ends in a documented exit code; a written CSV has every grid point."""

    @settings(
        max_examples=1000,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_sweep_argv())
    def test_documented_exit_code(self, case):
        argv, steps = case
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            argv = argv + [f"--out={out_dir}", "--format=csv,json,svg"]
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
            assert code in (0, 1, 64), argv
            assert "Traceback" not in stderr.getvalue()
            if code == 0:
                rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
                assert len(rows) == steps, argv
                assert all(math.isfinite(float(row.split(",")[0])) for row in rows), argv


class TestConfigLoader:
    """Each config-file error is exit 64 with its message and nothing on stdout."""

    RING = TestToleranceConfig.RING

    def run_file(self, capsys, path, argv):
        return run_cli(["cycle", "--config", str(path)] + argv, capsys)

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "absent.cfg"
        code, out, err = self.run_file(capsys, path, self.RING)
        assert (code, out, err) == (64, "", f"config error: config file not found: {path}\n")

    def test_line_without_equals(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# header\nmedium ring  # no separator\n")
        code, out, err = self.run_file(capsys, path, self.RING)
        message = f"{path}:2: expected key=value, got 'medium ring  # no separator'"
        assert (code, out, err) == (64, "", f"config error: {message}\n")

    def test_unknown_key(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("medium = ring\nbogus-key = 1\n")
        code, out, err = self.run_file(capsys, path, self.RING)
        assert (code, out, err) == (64, "", f"config error: {path}:2: unknown key: bogus_key\n")

    @pytest.mark.parametrize(
        "text, key, raw",
        [("alpha_l = 0.3\nalpha_h =  fast \n", "alpha_h", "fast"), ("seed = 1.5\n", "seed", "1.5")],
        ids=["float-key", "int-key"],
    )
    def test_non_number_in_a_key_the_command_reads(self, capsys, tmp_path, text, key, raw):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        argv = ["--medium", "ring", "--beta-h", "0.5", "--beta-l", "2"]
        code, out, err = self.run_file(capsys, path, argv)
        message = f"config value for {key} is not a number: {raw!r}"
        assert (code, out, err) == (64, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "text, argv, key, raw",
        [
            # cs-volume reads no eps0
            ("eps0 = abc\n", ["--medium", "cs-volume", "--l1", "2", "--l2", "1"]
             + ["--beta-h", "0.01", "--beta-l", "0.1"], "eps0", "abc"),
            # the flag overrides the file's beta_h
            ("beta_h = x\n", RING, "beta_h", "x"),
        ],
        ids=["unread-key", "overridden-key"],
    )
    def test_non_number_in_a_key_the_command_does_not_read(
        self, capsys, tmp_path, text, argv, key, raw
    ):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code, out, err = self.run_file(capsys, path, argv)
        message = f"config value for {key} is not a number: {raw!r}"
        assert (code, out, err) == (64, "", f"config error: {message}\n")


class TestOutputPath:
    """An --out that cannot be made or written is exit 1 with the OS error, before any work."""

    CYCLE = TestCycleCommand.RING
    SWEEP = TestSweepCommand.BASE

    @pytest.mark.parametrize("argv", [CYCLE, SWEEP], ids=["cycle", "sweep"])
    def test_regular_file_as_out_exits_1_before_running(self, tmp_path, argv):
        blocker = tmp_path / "F"
        blocker.write_text("")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "anyon_otto.cli"] + argv + ["--out", str(blocker)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: [Errno 17] File exists: '{blocker}'\n"

    def test_sweep_write_error_exits_1(self, capsys, tmp_path):
        (tmp_path / "sweep.csv").mkdir()
        code, out, err = run_cli(self.SWEEP + ["--out", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write output: ")
        assert "Traceback" not in err

    def test_degenerate_cycle_leaves_an_empty_directory(self, capsys, tmp_path):
        argv = ["cycle", "--medium", "ring", "--alpha-h", "0.2", "--alpha-l", "0.2"]
        argv += ["--beta-h", "1", "--beta-l", "1", "--out", str(tmp_path / "out")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert "regime = degenerate" in out
        assert list((tmp_path / "out").iterdir()) == []
