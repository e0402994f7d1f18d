from __future__ import annotations

import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import pytest

from manyslit.cli import (EXIT_ASSERTION, EXIT_IO, EXIT_OK, EXIT_USAGE, main)
from manyslit.hierarchy import curve
from manyslit.sorkin import sensitivity_table


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurveCommand:
    def test_double_slit_scan(self, capsys):
        code, out, _ = run(capsys, "curve", "--m", "1", "--n", "2",
                           "--grid", "0:6.2832:5", "--normalize")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "delta,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        targets = (0.5, 0.0, -0.5, 0.0, 0.5)
        assert len(values) == 5
        for got, want in zip(values, targets):
            # the 6.2832 endpoint truncates 2*pi, so nulls are approximate
            assert got == pytest.approx(want, abs=1e-5)

    def test_fifth_order_flatline(self, capsys):
        code, out, _ = run(capsys, "curve", "--m", "2", "--n", "5",
                           "--preset", "fixed-scan",
                           "--grid", "0:6.2832:257", "--normalize")
        assert code == EXIT_OK
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 257
        assert all(abs(float(r.split(",")[1])) < 1e-10 for r in rows)

    def test_degenerate_grid(self, capsys):
        code, _, err = run(capsys, "curve", "--m", "2", "--n", "2",
                           "--preset", "opposite-scan", "--grid", "0:0:2")
        assert code == EXIT_USAGE
        assert "degenerate" in err

    def test_grid_point_cap(self, capsys):
        # refused before the grid list is built, so no time or memory is spent
        started = time.perf_counter()
        code, _, err = run(capsys, "curve", "--m", "1", "--n", "2",
                           "--grid", "0:1:100000000")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_USAGE
        assert "cap" in err

    @pytest.mark.parametrize("grid", ["0:1", "a:b:c", "0:6.28:1", "inf:1:5"])
    def test_bad_grids(self, capsys, grid):
        assert run(capsys, "curve", "--m", "1", "--n", "2", "--grid", grid)[0] \
            == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "curve", "--n", "2")
        assert code == EXIT_USAGE
        assert "--m" in err

    def test_opposite_scan_needs_two_particles(self, capsys):
        code, _, err = run(capsys, "curve", "--m", "3", "--n", "7",
                           "--preset", "opposite-scan", "--grid", "0:6.28:3")
        assert code == EXIT_USAGE
        assert "opposite" in err

    def test_non_integer_flag(self, capsys):
        assert run(capsys, "curve", "--m", "two", "--n", "2")[0] == EXIT_USAGE

    def test_file_output_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        args = ("curve", "--m", "2", "--n", "3", "--grid", "0:6.283185307179586:9",
                "--normalize", "--output", str(out_path))
        assert run(capsys, *args)[0] == EXIT_OK
        data = out_path.read_bytes()
        assert data.startswith(b"delta,value\n")
        assert b"\r" not in data
        assert data.endswith(b"\n")
        # byte-identical on re-run
        second = tmp_path / "scan2.csv"
        run(capsys, *args[:-1], str(second))
        assert second.read_bytes() == data

    def test_csv_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        run(capsys, "curve", "--m", "2", "--n", "4", "--preset", "opposite_scan",
            "--grid", "0:6.283185307179586:17", "--normalize",
            "--output", str(out_path))
        rows = out_path.read_text().strip().split("\n")[1:]
        parsed = [tuple(map(float, r.split(","))) for r in rows]
        recomputed = curve(2, 4, "opposite_scan", [d for d, _ in parsed])
        for (d, printed), (_, exact) in zip(parsed, recomputed):
            assert printed == pytest.approx(exact, rel=1e-10, abs=1e-11)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "curve", "--m", "1", "--n", "2",
                           "--grid", "0:3:4", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "curve"
        assert payload["config"]["n"] == 2
        assert len(payload["rows"]) == 4


class TestVanishCommand:
    def test_passes_for_vanishing_order(self, capsys):
        code, out, _ = run(capsys, "vanish", "--m", "2", "--n", "5",
                           "--trials", "20", "--seed", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_normalized"] < 1e-9
        assert payload["vanishing_expected"] is True
        assert payload["config"]["seed"] == 7

    def test_single_particle_third_order(self, capsys):
        code, out, _ = run(capsys, "vanish", "--m", "1", "--n", "3",
                           "--trials", "50")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_fails_below_vanishing_order(self, capsys):
        code, out, _ = run(capsys, "vanish", "--m", "2", "--n", "4",
                           "--trials", "20")
        assert code == EXIT_ASSERTION
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["max_abs"] > 0.0

    def test_seventeen_slits(self, capsys):
        code, out, _ = run(capsys, "vanish", "--m", "8", "--n", "17",
                           "--trials", "1")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_byte_identical_reports(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        args = ("vanish", "--m", "1", "--n", "3", "--trials", "5",
                "--output", str(path))
        run(capsys, *args)
        first = path.read_bytes()
        run(capsys, *args)
        assert path.read_bytes() == first


class TestPinnedReports:
    """Values printed before the batched kernel replaced the per-subset loop."""

    @pytest.mark.parametrize("argv, key, want", [
        (("sorkin", "--m", "3", "--trials", "100"),
         "max_abs_kappa", "1.801690711612583e-16"),
        (("sorkin", "--m", "7", "--trials", "2", "--seed", "99"),
         "max_abs_kappa", "2.2910717840196974e-24"),
        (("vanish", "--m", "4", "--n", "9", "--trials", "100"),
         "max_abs", "1.5825247015599508e-10"),
        (("vanish", "--m", "4", "--n", "9", "--trials", "100"),
         "max_normalized", "3.6762955802369964e-18"),
        (("sorkin", "--m", "9", "--trials", "1"),
         "max_abs_kappa", "4.363748588265956e-28"),
        (("vanish", "--m", "8", "--n", "17", "--trials", "2", "--seed", "4"),
         "max_abs", "1.9518603080862118e-06"),
    ])
    def test_exact_repr(self, capsys, argv, key, want):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert repr(json.loads(out)[key]) == want


class TestSorkinCommand:
    def test_single_particle(self, capsys):
        code, out, _ = run(capsys, "sorkin", "--m", "1", "--trials", "20")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["max_abs_kappa"] < 1e-9
        assert payload["passed"] is True

    def test_two_particle(self, capsys):
        code, out, _ = run(capsys, "sorkin", "--m", "2", "--trials", "10")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_rejects_zero_trials(self, capsys):
        assert run(capsys, "sorkin", "--m", "1", "--trials", "0")[0] == EXIT_USAGE

    def test_seventeen_slits(self, capsys):
        code, out, _ = run(capsys, "sorkin", "--m", "8", "--trials", "1")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_over_subset_budget_fails_fast(self, capsys):
        # 2M + 1 = 21 slits need 2**21 - 1 subsets, over the 2**20 budget
        started = time.perf_counter()
        code, out, err = run(capsys, "sorkin", "--m", "10", "--trials", "1")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert "budget" in err


class TestTableCommand:
    def test_reference_column(self, capsys):
        code, out, _ = run(capsys, "table", "--m-max", "11")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "m,c_of_m,ratio,ratio_rounded"
        rounded = [line.split(",")[3] for line in lines[1:]]
        assert rounded == ["1.8", "2.9", "4.7", "7.3", "11.4", "17.7", "27.6",
                           "42.7", "66.2", "102.5"]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--m-max", "2")
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 2

    def test_below_minimum(self, capsys):
        assert run(capsys, "table", "--m-max", "1")[0] == EXIT_USAGE

    def test_default_is_full_table(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 11

    def test_json_rows_match_library(self, capsys):
        code, out, _ = run(capsys, "table", "--m-max", "4", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        want = [r.as_dict() for r in sensitivity_table(4)]
        assert payload["rows"] == want

    def test_regenerates_pinned_table(self, capsys, tmp_path):
        # double-precision columns, not just the rounded ones, stay put
        golden = pathlib.Path(__file__).parent / "golden" / "table_m11.csv"
        target = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--m-max", "11",
                         "--output", str(target))
        assert code == EXIT_OK
        assert target.read_bytes() == golden.read_bytes()


class TestMonteCarloCommand:
    def test_iid_report(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--m", "1", "--delta", "0.001",
                           "--trials", "2000", "--seed", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["m"] == 1
        assert payload["trials"] == 2000
        assert payload["mc_rms"] > 0.0
        assert payload["mc_prediction"] > 0.0
        assert payload["config"]["law"] == "uniform_symmetric"

    def test_exponent_variant(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--m", "2",
                           "--variant", "exponent_epsilon",
                           "--epsilon", "0.001", "--trials", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mc_prediction"] is None
        assert payload["mc_rms"] > 0.0

    def test_bad_law(self, capsys):
        assert run(capsys, "montecarlo", "--m", "1", "--law", "poisson")[0] \
            == EXIT_USAGE

    @pytest.mark.parametrize("m", ["13", "20", "31"])
    def test_oversize_refused_before_allocating(self, capsys, monkeypatch, m):
        # M = 13 passes the draw budget at one trial but not the row cap
        def fail(n, per_size):
            raise AssertionError("per-combination array built before the refusal")

        monkeypatch.setattr(importlib.import_module("manyslit.sorkin"),
                            "_per_combination", fail)
        code, out, err = run(capsys, "montecarlo", "--m", m, "--trials", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert "budget" in err or "cap" in err


class TestNonFiniteResults:
    @pytest.mark.parametrize("argv", [
        ("curve", "--m", "400", "--n", "3", "--normalize", "--grid", "0:1:3"),
        ("curve", "--m", "400", "--n", "3", "--normalize", "--grid", "0:1:3",
         "--format", "json"),
        ("vanish", "--m", "400", "--n", "3", "--trials", "2"),
        ("montecarlo", "--m", "5", "--delta", "1e300", "--trials", "10"),
    ])
    def test_one_line_usage_error(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert "finite" in err
        assert "Traceback" not in err
        assert caught == []


class TestLibraryOverflow:
    @pytest.mark.parametrize("argv", [
        ("curve", "--m", "400", "--n", "3", "--grid", "0:1:3"),
        ("montecarlo", "--m", "3", "--variant", "exponent_epsilon",
         "--epsilon=-1e10", "--trials", "1"),
    ])
    def test_overflow_error_is_one_line(self, capsys, argv):
        # the library raises OverflowError; the CLI refuses it like any
        # other non-finite result
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert "finite" in err
        assert caught == []


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1, "n": 2, "grid": "0:3:3",
                                   "normalize": True}))
        code, out, _ = run(capsys, "curve", "--config", str(cfg))
        assert code == EXIT_OK
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        assert float(rows[0].split(",")[1]) == pytest.approx(0.5)

    def test_cli_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "n": 5, "trials": 3}))
        code, out, _ = run(capsys, "vanish", "--config", str(cfg),
                           "--trials", "6")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["trials"] == 6
        assert payload["config"]["n"] == 5

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "n": 5, "slits": 9}))
        code, _, err = run(capsys, "vanish", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "slits" in err

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(capsys, "vanish", "--config", str(cfg))[0] == EXIT_USAGE

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "vanish", "--config",
                           str(tmp_path / "nope.json"))
        assert code == EXIT_IO
        assert "config" in err

    def test_wrong_type_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": "two", "n": 5}))
        assert run(capsys, "vanish", "--config", str(cfg))[0] == EXIT_USAGE


class TestOutputErrors:
    def test_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "curve", "--m", "1", "--n", "2",
                           "--grid", "0:3:3", "--output", str(target))
        assert code == EXIT_IO
        assert "cannot write" in err


class TestParser:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nosuch")[0] == EXIT_USAGE

    def test_no_command(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


def test_import_leaves_out_the_thread_pool():
    # every CLI start pays for its imports; the package runs no thread
    # pool, and concurrent.futures would bring in logging; decimal serves
    # only the exponent variant
    code = ("import sys, manyslit, manyslit.cli; print(sorted("
            "{'concurrent.futures', 'logging', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
