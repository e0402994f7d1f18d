"""Tests of the benchmark itself: every output check rejects a planted defect.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import crosscheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from manyslit import cli  # noqa: E402
from speed import PROBES, SpeedSampler  # noqa: E402
from traced import ROOT_SPAN, TARGETS  # noqa: E402
from workloads import CheckError  # noqa: E402


def _cli_output(capsys, args) -> str:
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units(TARGETS, ROOT_SPAN))


def test_scan_check_rejects_a_shifted_value(capsys):
    start, end, points = 0.25, 0.25 + 2.0 * math.pi, 40
    check = partial(workloads.check_scan, start, end, points, 3)
    out = _cli_output(capsys, ["curve", "--m", "3", "--n", "7", "--preset",
                               "fixed-scan", "--normalize",
                               "--grid", f"{start!r}:{end!r}:{points}"])
    check(0, out)
    lines = out.splitlines()
    delta, value = lines[17].split(",")
    lines[17] = f"{delta},{float(value) + 1e-6:.12g}"
    with pytest.raises(CheckError):
        check(0, "\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        check(0, "\n".join(lines[:-1]) + "\n")


def test_gate_check_rejects_exit_3(capsys):
    out = _cli_output(capsys, ["sorkin", "--m", "2", "--trials",
                               str(workloads.GATE_TRIALS), "--seed", "5"])
    workloads.check_gate(0, out)
    with pytest.raises(CheckError):
        workloads.check_gate(3, out)


def test_montecarlo_check_rejects_a_doubled_rms(capsys):
    out = _cli_output(capsys, workloads.make_job("montecarlo", 1, 0).args)
    workloads.check_montecarlo(0, out)
    report = json.loads(out)
    report["mc_rms"] *= 2.0
    with pytest.raises(CheckError):
        workloads.check_montecarlo(0, json.dumps(report))


def test_crosscheck_check_rejects_a_perturbed_oracle(capsys):
    assert crosscheck.main(["--seed", "4"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    workloads.check_crosscheck(0, "\n".join(json.dumps(r) for r in rows))
    peak = float(rows[-1]["n"] ** 2) ** rows[-1]["m"]
    rows[-1]["oracle"] += 1e-6 * peak
    with pytest.raises(CheckError):
        workloads.check_crosscheck(0, "\n".join(json.dumps(r) for r in rows))


def test_traced_child_accounts_for_every_call(tmp_path):
    out = tmp_path / "spans"
    args = ["curve", "--m", "2", "--n", "3", "--grid", "0:1:5"]
    subprocess.run([sys.executable, str(HERE / "traced.py"), str(out), "cli", *args],
                   cwd=ROOT, env={**run.CHILD_ENV, "PATH": ""}, check=True,
                   capture_output=True)
    units = run.per_layer_units(TARGETS, ROOT_SPAN)
    layers, top = run.layer_metrics(out, ROOT_SPAN, units)
    assert layers["hierarchy.interference.calls"] == 5
    assert layers["hierarchy.interference.subsets"] == 5 * 7
    assert layers["optics.SlitSet.subset.calls"] == 5 * 7
    assert layers["optics.SlitSet.subset.distinct_ratio"] == 7 / 35
    assert layers["correlations.exclusive_classical.peel_ops"] == 5 * 27
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(top, rel=1e-9)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_speed_sampler_probes_while_the_block_runs(kind):
    with SpeedSampler(kind) as speed:
        time.sleep(0.25)
    assert all(len(t) >= 2 for t in speed.timings)
    assert 0.0 < speed.scale < math.inf
