"""The four workloads: how each child is invoked, its work units, its check.

Each workload turns ``(seed, iteration)`` into one ``Job``: the arguments of
a fresh child process and the check its output must pass.  Inputs change
with the seed, work per job does not, so counts repeat exactly across seeds.

Checks run outside the timed region and raise ``CheckError`` on a wrong
output; the tests in ``test_checks.py`` plant one defect per check.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import crosscheck

# acceptance criterion 6: subset and oracle routes agree within 1e-9 * peak
ORACLE_TOL = 1e-9
# acceptance criterion 9: Monte-Carlo RMS within 3% of the propagation value
MC_REL_TOL = 0.03

SCAN_M, SCAN_N, SCAN_POINTS, SCAN_ORACLE_SAMPLES = 3, 7, 1000, 8
GATE_M, GATE_TRIALS = 7, 2
MC_M, MC_DELTA, MC_TRIALS = 5, 1e-3, 50_000


class CheckError(Exception):
    """A child's exit code or output is wrong."""


@dataclass(frozen=True)
class Job:
    kind: str                 # "cli": manyslit.cli arguments; "crosscheck": driver
    args: tuple[str, ...]
    units: int                # work units done by one run of this job
    check: Callable[[int, str], None]
    probe: str                # speed probe kind, see speed.py


def _expect_exit(code: int, want: int = 0) -> None:
    if code != want:
        raise CheckError(f"exit code {code}, expected {want}")


def _peak(m: int, n: int) -> float:
    """Central coincidence peak of n unit-weight slits: (n**2)**m."""
    return float(n * n) ** m


def scan_grid(start: float, end: float, points: int) -> list[float]:
    """The grid the CLI builds from ``--grid start:end:points``."""
    return [start + (end - start) * i / (points - 1) for i in range(points)]


def check_scan(start: float, end: float, points: int, sample_seed: int,
               code: int, out: str) -> None:
    """CSV on the exact grid; every value is the vanishing I(3, 7) / peak,
    and seeded sample points match the path-pair oracle within 1e-9."""
    from manyslit import interference_oracle, preset_fixed_scan, SlitSet

    _expect_exit(code)
    lines = out.splitlines()
    if not lines or lines[0] != "delta,value":
        raise CheckError("CSV header missing")
    rows = [line.split(",") for line in lines[1:]]
    grid = scan_grid(start, end, points)
    if len(rows) != len(grid):
        raise CheckError(f"{len(rows)} CSV rows for a grid of {len(grid)} points")
    values = []
    for (delta_text, value_text), delta in zip(rows, grid):
        if delta_text != f"{delta:.12g}":
            raise CheckError(f"grid point {delta_text} should be {delta:.12g}")
        values.append(float(value_text))
    # order N = 2M + 1 vanishes identically, so every normalized value is 0
    worst = max(abs(v) for v in values)
    if worst > ORACLE_TOL:
        raise CheckError(f"normalized I({SCAN_M},{SCAN_N}) reached {worst:.3g}")
    slits = SlitSet.contiguous(SCAN_N)
    peak = _peak(SCAN_M, SCAN_N)
    for i in random.Random(sample_seed).sample(range(points), SCAN_ORACLE_SAMPLES):
        want = interference_oracle(SCAN_M, slits,
                                   preset_fixed_scan(SCAN_M, grid[i])).value / peak
        if abs(values[i] - want) > ORACLE_TOL:
            raise CheckError(f"point {i}: CSV {values[i]!r}, oracle {want!r}")


def check_gate(code: int, out: str) -> None:
    _expect_exit(code)
    report = json.loads(out)
    if report.get("passed") is not True or report.get("trials") != GATE_TRIALS:
        raise CheckError(f"gate report {report!r} did not pass")


def check_montecarlo(code: int, out: str) -> None:
    _expect_exit(code)
    report = json.loads(out)
    rms, want = report["mc_rms"], report["mc_prediction"]
    if report["trials"] != MC_TRIALS or not abs(rms - want) <= MC_REL_TOL * want:
        raise CheckError(f"mc_rms {rms!r} is not within {MC_REL_TOL:.0%} of {want!r}")


def check_crosscheck(code: int, out: str) -> None:
    _expect_exit(code)
    rows = [json.loads(line) for line in out.splitlines()]
    sizes = [(r["m"], r["n"]) for r in rows]
    want = [size for size in crosscheck.SIZES for _ in range(crosscheck.DRAWS)]
    if sizes != want:
        raise CheckError(f"draws {sizes}, expected {want}")
    for r in rows:
        gap = abs(r["subset"] - r["oracle"])
        if not gap <= ORACLE_TOL * _peak(r["m"], r["n"]):
            raise CheckError(f"(M, N) = ({r['m']}, {r['n']}): subset and oracle "
                             f"differ by {gap!r}")


def scan_job(rng: random.Random) -> Job:
    start = rng.uniform(0.0, 1.0)
    end = start + 2.0 * math.pi
    args = ("curve", "--m", str(SCAN_M), "--n", str(SCAN_N),
            "--preset", "fixed-scan", "--normalize",
            "--grid", f"{start!r}:{end!r}:{SCAN_POINTS}")
    check = partial(check_scan, start, end, SCAN_POINTS, rng.randrange(2 ** 31))
    return Job("cli", args, SCAN_POINTS, check, "python")


def gate_job(rng: random.Random) -> Job:
    args = ("sorkin", "--m", str(GATE_M), "--trials", str(GATE_TRIALS),
            "--seed", str(rng.randrange(2 ** 31)))
    return Job("cli", args, GATE_TRIALS, check_gate, "python")


def montecarlo_job(rng: random.Random) -> Job:
    args = ("montecarlo", "--m", str(MC_M), "--delta", repr(MC_DELTA),
            "--law", "uniform_symmetric", "--trials", str(MC_TRIALS),
            "--seed", str(rng.randrange(2 ** 31)))
    draws = MC_TRIALS * ((1 << (2 * MC_M + 1)) - 1)
    return Job("cli", args, draws, check_montecarlo, "mixed")


def crosscheck_job(rng: random.Random) -> Job:
    args = ("--seed", str(rng.randrange(2 ** 31)))
    return Job("crosscheck", args, crosscheck.pair_terms(), check_crosscheck,
               "numpy")


WORKLOADS = {
    "scan": scan_job,
    "gate": gate_job,
    "montecarlo": montecarlo_job,
    "crosscheck": crosscheck_job,
}


def make_job(workload: str, seed: int, iteration: int) -> Job:
    """The job of one iteration; the same seed always gives the same jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{iteration}"))
