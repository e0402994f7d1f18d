"""End-to-end acceptance checks, one test per criterion.

A summary section at the end of the pytest run prints one PASS/FAIL line
per criterion (see conftest.py).  Tolerances and runtime bounds are pinned
here on purpose; do not loosen them to make a failure go away.
"""
from __future__ import annotations

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import _brute
from manyslit.cli import EXIT_OK, main
from manyslit.correlations import central_peak, exclusive_classical
from manyslit.hierarchy import curve, interference, interference_oracle
from manyslit.optics import DetectorPhases, SlitSet
from manyslit.paths import diagonal_sum
from manyslit.sorkin import DeviationModel, deviation_montecarlo, sensitivity_c

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_GRID = "0:6.283185307179586:33"

TABLE_TARGETS = (1.8, 2.9, 4.7, 7.3, 11.4, 17.7, 27.6, 42.7, 66.2, 102.5)


def criterion(num: int, title: str, max_seconds: float):
    """Tag a test as one acceptance criterion and enforce its runtime bound."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            assert elapsed < max_seconds, (
                f"criterion {num} exceeded its runtime bound: "
                f"{elapsed:.2f}s >= {max_seconds}s")
        wrapper.criterion_num = num
        wrapper.criterion_title = title
        return wrapper
    return decorate


def random_phases(rng, m):
    return DetectorPhases(tuple(rng.uniform(0.0, 2.0 * math.pi, size=m)))


def normalized_max(m, n, phase_draws):
    slits = SlitSet.contiguous(n)
    peak = central_peak(slits, m).value
    worst = 0.0
    for phases in phase_draws:
        worst = max(worst, abs(interference(m, slits, phases).value) / peak)
    return worst


@criterion(1, "sensitivity table reproduces all ten reference rows", 1.0)
def test_criterion_01_sensitivity_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--m-max", "11", "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,c_of_m,ratio,ratio_rounded"
    assert len(lines) == 11
    for line, target in zip(lines[1:], TABLE_TARGETS):
        _, _, ratio, rounded = line.split(",")
        assert float(rounded) == target
        assert abs(float(ratio) - target) <= 0.05


@criterion(2, "single-particle third-order term is null to 1e-12", 1.0)
def test_criterion_02_single_particle_null():
    rng = np.random.default_rng(202)
    draws = [random_phases(rng, 1) for _ in range(1000)]
    assert normalized_max(1, 3, draws) < 1e-12


@criterion(3, "two-particle fifth-order term is null on grids and draws", 10.0)
def test_criterion_03_fifth_order_null():
    grid = np.linspace(0.0, 2.0 * math.pi, 257)
    for preset in ("fixed_scan", "opposite_scan"):
        rows = curve(2, 5, preset, grid)
        assert max(abs(v) for _, v in rows) < 1e-10, preset
    rng = np.random.default_rng(203)
    draws = [random_phases(rng, 2) for _ in range(100)]
    assert normalized_max(2, 5, draws) < 1e-10


@criterion(4, "three-particle orders 7 and 8 vanish", 300.0)
def test_criterion_04_three_particle_vanishing():
    rng = np.random.default_rng(204)
    for n in (7, 8):
        draws = [random_phases(rng, 3) for _ in range(20)]
        assert normalized_max(3, n, draws) < 1e-9, n


@criterion(5, "orders 2-4 of the two-particle term stay visibly nonzero", 5.0)
def test_criterion_05_nonvanishing_orders():
    grid = np.linspace(0.0, 2.0 * math.pi, 100)
    for n in (2, 3, 4):
        rows = curve(2, n, "fixed_scan", grid)
        assert max(abs(v) for _, v in rows) > 1e-3, n


@criterion(6, "subset route equals the path-pair route on 50 draws per size", 120.0)
def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(206)
    for m in (1, 2, 3):
        for n in range(1, min(7, 2 * m + 2) + 1):
            slits = SlitSet.contiguous(n)
            peak = central_peak(slits, m).value
            for _ in range(50):
                phases = random_phases(rng, m)
                a = interference(m, slits, phases).value
                b = interference_oracle(m, slits, phases).value
                assert abs(a - b) <= 1e-9 * peak, (m, n)


@criterion(7, "exclusive classical term equals the diagonal-pair oracle", 30.0)
def test_criterion_07_classical_bookkeeping():
    rng = np.random.default_rng(207)
    for m in range(1, 5):
        for n in range(1, 7):
            slits = SlitSet.contiguous(n)
            phases = random_phases(rng, m)
            got = exclusive_classical(slits, phases).value
            want = diagonal_sum(slits, phases, exact_support=slits.labels)
            assert abs(got - want) <= 1e-9, (m, n)
            if n > m:
                assert got == 0.0, (m, n)


@criterion(8, "deviation-channel anchors are exact", 1.0)
def test_criterion_08_channel_anchors():
    assert sensitivity_c(1) == 7.0
    assert sensitivity_c(2) == 16.0


@criterion(9, "Monte-Carlo deviation response matches propagation", 30.0)
def test_criterion_09_montecarlo_propagation():
    model = DeviationModel(delta=1e-3, law="uniform_symmetric", seed=209)
    report = deviation_montecarlo(1, model, 100_000)
    scaled = report.mc_rms * 9.0 / model.rms_delta()
    assert abs(scaled - math.sqrt(7.0)) <= 0.03 * math.sqrt(7.0)

    deltas = (1e-4, 1e-3, 1e-2)
    rms = np.asarray([
        deviation_montecarlo(1, DeviationModel(delta=d, seed=209), 40_000).mc_rms
        for d in deltas])
    x = np.asarray(deltas)
    slope = float(np.sum(x * rms) / np.sum(x * x))
    residual = float(np.sum((rms - slope * x) ** 2))
    r_squared = 1.0 - residual / float(np.sum((rms - rms.mean()) ** 2))
    assert r_squared > 0.999


@criterion(10, "scan curves regenerate the pinned golden files", 60.0)
def test_criterion_10_figure_regeneration(tmp_path):
    for n in (2, 3, 4):
        for preset in ("fixed_scan", "opposite_scan"):
            name = f"curve_m2_n{n}_{preset}.csv"
            golden = GOLDEN_DIR / name
            assert golden.exists(), f"golden file {name} is not pinned"
            fresh = tmp_path / name
            code = main(["curve", "--m", "2", "--n", str(n),
                         "--preset", preset, "--grid", GOLDEN_GRID,
                         "--normalize", "--output", str(fresh)])
            assert code == EXIT_OK

            def parse(path):
                rows = path.read_text().strip().split("\n")[1:]
                return [tuple(map(float, r.split(","))) for r in rows]

            want = parse(golden)
            got = parse(fresh)
            assert len(got) == len(want) == 33
            for (d0, v0), (d1, v1) in zip(want, got):
                assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)
                assert v1 == pytest.approx(v0, rel=1e-10, abs=1e-12)

            values = [v for _, v in got]
            assert abs(values[0] - values[-1]) < 1e-10  # 2*pi-periodic

    for n in (2, 3, 4):
        left = curve(2, n, "opposite_scan", [-0.9])[0][1]
        right = curve(2, n, "opposite_scan", [0.9])[0][1]
        assert left == pytest.approx(right, rel=1e-12)


def test_fixed_scan_top_order_closed_form():
    # beside criterion 10: I(M, 2M; delta) = (2M-2)! [sin^2(M delta)/sin^2(delta/2) - 2M]
    # on the fixed scan, per unit of the peak N**(2M); worst ratio seen 3.7e-15
    deltas = (0.0, 0.37, 1.9, math.pi, 4.4)
    for m in range(1, 10):
        n = 2 * m
        for delta, got in curve(m, n, "fixed_scan", deltas, normalize=False):
            want = _brute.fixed_scan_top_order(m, delta)
            assert abs(got - want) <= 1e-13 * n ** (2 * m), (m, delta)
