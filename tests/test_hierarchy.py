from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from manyslit import correlations, hierarchy, paths
from manyslit.correlations import (central_peak, exclusive_classical,
                                   quantum_correlation)
from manyslit.errors import EnumerationBudgetError
from manyslit.hierarchy import (curve, interference, interference_oracle,
                                vanishing_check)
from manyslit.optics import DetectorPhases, SlitSet, preset_fixed_scan


def phases_of(*values):
    return DetectorPhases(tuple(values))


def random_phases(rng, m):
    return DetectorPhases(tuple(rng.uniform(0.0, 2.0 * math.pi, size=m)))


def random_top_order_grating(rng, m):
    """2M slits at random labels below 30 with random complex weights, and M phases."""
    labels = sorted(rng.choice(30, size=2 * m, replace=False).tolist())
    weights = [cmath.rect(r, t) for r, t in zip(
        rng.uniform(0.5, 1.5, 2 * m).tolist(),
        rng.uniform(-math.pi, math.pi, 2 * m).tolist())]
    return SlitSet(tuple(labels), tuple(weights)), random_phases(rng, m)


class TestInterference:
    def test_third_order_single_particle_is_null(self):
        s = SlitSet.contiguous(3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            value = interference(1, s, random_phases(rng, 1)).value
            assert abs(value) / 9.0 < 1e-12

    def test_fifth_order_two_particle_is_null(self):
        s = SlitSet.contiguous(5)
        for delta in (0.0, 0.4, 1.7, 3.9, 6.2):
            value = interference(2, s, phases_of(0.0, delta)).value
            assert abs(value) / 625.0 < 1e-10

    def test_second_order_two_particle_center(self):
        value = interference(2, SlitSet.contiguous(2), phases_of(0.0, 0.0)).value
        assert value == pytest.approx(12.0, abs=1e-12)

    def test_double_slit_dark_fringe(self):
        value = interference(1, SlitSet.contiguous(2), phases_of(math.pi)).value
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_sinusoid(self):
        s = SlitSet.contiguous(2)
        for delta in np.linspace(0.0, 2 * math.pi, 17):
            got = interference(1, s, phases_of(delta)).value
            assert got == pytest.approx(2 * math.cos(delta), abs=1e-12)

    def test_single_slit_is_exactly_zero(self):
        out = interference(3, SlitSet.contiguous(1), phases_of(0.4, 1.1, 2.2))
        assert out.value == 0.0
        assert out.order == 1

    def test_phase_count_must_match(self):
        with pytest.raises(ValueError, match="phases"):
            interference(2, SlitSet.contiguous(2), phases_of(0.0))

    def test_squared_modulus_overflow_raises(self):
        # Python's pow(x, 2) raised here; the ufunc must not turn it into inf
        slits = SlitSet((0, 1, 2), (0.7e154,) * 3)
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            interference(1, slits, phases_of(0.0))

    @pytest.mark.parametrize("call", [
        lambda: interference(400, SlitSet.contiguous(3), phases_of(*[0.0] * 400)),
        lambda: curve(400, 3, "fixed_scan", [0.0, 1.0]),
        lambda: curve(400, 3, "fixed_scan", [0.0, 1.0], normalize=False),
        lambda: vanishing_check(400, 3, trials=2),
        lambda: central_peak(SlitSet.contiguous(3), 400),
        # every detector product stays finite here; only 3**1000, a term of
        # the classical sum, overflows
        lambda: interference(1000, SlitSet.contiguous(3),
                             phases_of(*[2 * math.pi / 3] * 1000)),
        lambda: exclusive_classical(SlitSet.contiguous(3), phases_of(*[0.0] * 1000)),
    ], ids=["interference", "curve", "curve-raw", "vanishing-check",
            "central-peak", "interference-classical", "exclusive-classical"])
    def test_product_overflow_raises_without_warning(self, call):
        # inf or nan must not leave the library: an infinite peak would let
        # the vanishing gate pass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError, match="Numerical result out of range"):
                call()
        assert caught == []

    def test_combination_budget(self):
        with pytest.raises(EnumerationBudgetError):
            interference(1, SlitSet.contiguous(5), phases_of(0.1), budget=10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        base = SlitSet((0, 1, 3))
        moved = SlitSet((5, 6, 8))
        for _ in range(10):
            ph = random_phases(rng, 2)
            a = interference(2, base, ph).value
            b = interference(2, moved, ph).value
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_matches_brute_reference(self):
        rng = np.random.default_rng(8)
        for n, m in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)]:
            s = SlitSet.contiguous(n)
            ph = random_phases(rng, m)
            got = interference(m, s, ph).value
            want = _brute.interference_pairs(s.labels, ph.phases)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def per_subset_reference(m, slits, phases):
    """The loop the kernel replaced: one sub-grating at a time."""
    n = len(slits)
    if n == 1:
        return 0.0
    terms = []
    for size in range(n, 0, -1):
        sign = -1.0 if (n - size) % 2 else 1.0
        for combo in itertools.combinations(slits.labels, size):
            terms.append(sign * quantum_correlation(slits.subset(combo), phases).value)
    terms.append(-exclusive_classical(slits, phases).value)
    return math.fsum(terms)


@st.composite
def gratings(draw, max_slits=6):
    n = draw(st.integers(1, max_slits))
    labels = sorted(draw(st.sets(st.integers(0, 20), min_size=n, max_size=n)))
    weights = [cmath.rect(draw(st.floats(0.2, 2.0)), draw(st.floats(-math.pi, math.pi)))
               for _ in labels]
    return SlitSet(tuple(labels), tuple(weights))


phase_values = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)


class TestKernel:
    @given(gratings(), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_pairs(self, slits, m, data):
        rows = data.draw(st.lists(st.tuples(*[phase_values] * m), min_size=1, max_size=3))
        weights = slits.weight_map()
        # every |amplitude|**2 product is at most (sum |w|) ** (2 m)
        peak = math.fsum(abs(w) for w in slits.weights) ** (2 * m)
        got = hierarchy._interference_rows(m, slits, rows)
        for row, value in zip(rows, got):
            want = _brute.interference_pairs(slits.labels, row, weights)
            assert abs(value - want) <= 1e-9 * peak

    @given(gratings(max_slits=7), st.lists(phase_values, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_per_subset_loop(self, slits, phase_list):
        phases = DetectorPhases(tuple(phase_list))
        m = phases.m
        assert interference(m, slits, phases).value == \
            per_subset_reference(m, slits, phases)

    def test_float_power_is_python_pow(self):
        # the kernel squares moduli with np.float_power to get libm pow, as
        # Python's pow(x, 2) does; a numpy build that routes it elsewhere
        # would change the bits of every interference value
        rng = np.random.default_rng(2718)
        x = np.concatenate([
            rng.uniform(0.0, 40.0, 100_000),
            np.exp(rng.uniform(-745.0, 354.0, 100_000)),
            [0.0, 5e-324, np.finfo(float).tiny],
        ])
        want = np.array([pow(v, 2) for v in x.tolist()])
        assert np.count_nonzero(x * x != want) > 0
        got = np.float_power(x, np.full(x.shape, 2.0))
        assert np.array_equal(got, want)

    def test_one_row_chunks_bit_identical_to_per_subset_loop(self):
        # from N = 13 on a chunk holds a single row, as in the gates
        slits = SlitSet.contiguous(13)
        phases = phases_of(0.4, 2.1)
        assert hierarchy._ENTRY_CAP >> len(slits) <= 1
        assert interference(2, slits, phases).value == \
            per_subset_reference(2, slits, phases)

    def test_batch_equals_rows_across_chunk_boundary(self, monkeypatch):
        # 16 entries of 8 subsets each: two rows per chunk, seven rows
        monkeypatch.setattr(hierarchy, "_ENTRY_CAP", 16)
        slits = SlitSet((0, 2, 3), (1.0, 0.5 - 0.7j, 1.3j))
        rng = np.random.default_rng(31)
        rows = rng.uniform(-7.0, 7.0, size=(7, 2)).tolist()
        batch = hierarchy._interference_rows(2, slits, rows)
        single = [hierarchy._interference_rows(2, slits, [row])[0] for row in rows]
        assert batch == single
        assert len(set(batch)) == len(batch)

    @given(st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1.25, -2.5, 2 * math.pi])] * 3),
                    min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_repeated_phases_batch_equals_rows(self, rows):
        # few distinct phases, so columns repeat and 0.0 meets -0.0
        slits = SlitSet((1, 4, 5), (0.8 + 0.3j, -1.1j, 0.6 - 0.9j))
        batch = hierarchy._interference_rows(3, slits, rows)
        single = [hierarchy._interference_rows(3, slits, [row])[0] for row in rows]
        assert batch == single

    def test_repeated_phases_across_chunk_boundary(self, monkeypatch):
        # 24 entries of 8 subsets each: three rows per chunk, so the parked
        # first column and the repeated scan phases span chunk boundaries
        monkeypatch.setattr(hierarchy, "_ENTRY_CAP", 24)
        slits = SlitSet((0, 2, 3), (1.0, 0.5 - 0.7j, 1.3j))
        rows = [(0.0, 0.4), (-0.0, 0.4), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.4),
                (-0.0, 2.9), (0.0, 2.9)]
        batch = hierarchy._interference_rows(2, slits, rows)
        for row, value in zip(rows, batch):
            assert value == per_subset_reference(2, slits, DetectorPhases(row))
        assert batch[0] == batch[1] == batch[4]
        assert batch[2] == batch[3]
        assert batch[5] == batch[6]

    def test_parked_detectors_evaluated_once_per_chunk(self, monkeypatch):
        # a fixed scan parks M - 1 detectors on one phase each: every chunk
        # evaluates the scanning column's rows plus one row per parked column
        evaluated = []
        kernel_sums = hierarchy.subset_sums

        def counting(values):
            evaluated.append(values.shape[0])
            return kernel_sums(values)

        monkeypatch.setattr(hierarchy, "subset_sums", counting)
        points = 1000
        curve(3, 7, "fixed_scan", np.linspace(0.3, 6.58, points).tolist())
        chunks = math.ceil(points / (hierarchy._ENTRY_CAP >> 7))
        assert sum(evaluated) == points + 2 * chunks == 1032

    def test_budget_refused_before_any_subset_array(self, monkeypatch):
        def fail(values):
            raise AssertionError("a subset array was built")

        monkeypatch.setattr(hierarchy, "subset_sums", fail)
        monkeypatch.setattr(correlations, "subset_sums", fail)
        wide = SlitSet.contiguous(21)
        with pytest.raises(EnumerationBudgetError):
            interference(1, wide, phases_of(0.3))
        with pytest.raises(EnumerationBudgetError):
            exclusive_classical(wide, phases_of(0.3))
        with pytest.raises(EnumerationBudgetError):
            vanishing_check(10, 21, trials=1)
        with pytest.raises(EnumerationBudgetError):
            curve(1, 21, "fixed_scan", [0.1, 0.2])


class TestOracle:
    def test_two_slit_cross_terms(self):
        s = SlitSet.contiguous(2)
        for delta in (0.0, 0.5, 2.0, 5.5):
            got = interference_oracle(1, s, phases_of(delta)).value
            assert got == pytest.approx(2 * math.cos(delta), abs=1e-12)

    def test_third_order_null(self):
        rng = np.random.default_rng(13)
        s = SlitSet.contiguous(3)
        for _ in range(20):
            got = interference_oracle(1, s, random_phases(rng, 1)).value
            assert abs(got) < 1e-12
            assert got == 0.0

    def test_fifth_order_null(self):
        rng = np.random.default_rng(14)
        s = SlitSet.contiguous(5)
        for _ in range(5):
            got = interference_oracle(2, s, random_phases(rng, 2)).value
            assert abs(got) < 1e-9
            assert got == 0.0

    def test_single_slit_exact_zero(self):
        assert interference_oracle(2, SlitSet.contiguous(1), phases_of(0.1, 0.2)).value == 0.0

    def test_agrees_with_subset_route_under_weights(self):
        s = SlitSet((0, 1, 2), (1.0, 0.7, 1.4))
        rng = np.random.default_rng(15)
        for _ in range(10):
            ph = random_phases(rng, 2)
            a = interference(2, s, ph).value
            b = interference_oracle(2, s, ph).value
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_chunk_and_worker_independence(self, monkeypatch):
        # the block size regroups the partial sums, nothing else
        s = SlitSet.contiguous(3)
        ph = phases_of(1.3, 4.1)
        reference = interference_oracle(2, s, ph).value
        scale = central_peak(s, 2).value
        for entries in (1, 5 * 9, 9 * 9):
            monkeypatch.setattr(paths, "_BLOCK_ENTRIES", entries)
            got = interference_oracle(2, s, ph).value
            assert abs(got - reference) <= 1e-12 * scale

    @pytest.mark.parametrize("weight", [100.0, 1000.0])
    @pytest.mark.parametrize("m", [1, 2])
    def test_agrees_with_subset_route_under_large_weights(self, m, weight):
        # pair terms scale as |w|**(2M), and so does their imaginary roundoff
        s = SlitSet((0, 1, 2), (weight,) * 3)
        peak = central_peak(s, m).value
        rng = np.random.default_rng(60 + m)
        for _ in range(5):
            ph = random_phases(rng, m)
            a = interference(m, s, ph).value
            b = interference_oracle(m, s, ph).value
            assert abs(a - b) <= 1e-9 * peak

    def test_planted_imaginary_residue_raises(self, monkeypatch):
        s = SlitSet((0, 1, 2), (100.0,) * 3)
        scale = 100.0 ** 4
        honest = paths.pair_sum
        monkeypatch.setattr(paths, "pair_sum",
                            lambda *a, **k: honest(*a, **k) + 1e-6j * scale)
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            interference_oracle(2, s, phases_of(0.3, 1.7))

    def test_streamed_memory_peak(self):
        # the pair buffers are one reused block, not N**(2M) entries
        ph = phases_of(0.4, 1.1, 2.9, 3.3, 5.0)
        s = SlitSet.contiguous(6)
        interference_oracle(5, s, ph)  # first-call set-up inside numpy
        tracemalloc.start()
        try:
            interference_oracle(5, s, ph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_pair_budget(self):
        with pytest.raises(EnumerationBudgetError):
            interference_oracle(2, SlitSet.contiguous(4), phases_of(0.0, 0.0), budget=10)

    def test_provable_zeros_are_still_refused(self):
        # N >= 2M + 1 gives exactly 0.0, but only after the refusals of a full run
        with pytest.raises(EnumerationBudgetError):
            interference_oracle(10, SlitSet.contiguous(25), phases_of(*[0.1] * 10))
        with pytest.raises(ValueError, match="at most 62 slits"):
            interference_oracle(1, SlitSet.contiguous(63), phases_of(0.1))


class TestTopOrderPermanent:
    """At N = 2M the term is a permanent; Glynn's formula is a third route."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_glynn(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            slits, ph = random_top_order_grating(rng, m)
            want, scale = _brute.glynn_top_order(slits.labels, ph.phases,
                                                 slits.weight_map())
            got = interference(m, slits, ph).value
            assert abs(got - want) <= 1e-12 * scale


class TestTopOrderPermanentMatrix:
    """Glynn's formula as +-1 sign matrices times the legs, up to M = 9.

    About 0.05 s per draw at M = 9 for the permanent, next to about 0.1 s
    for ``interference`` itself (one core of a 2-core Xeon).
    """

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_loop_form(self, m):
        rng = np.random.default_rng(110 + m)
        slits, ph = random_top_order_grating(rng, m)
        want, scale = _brute.glynn_top_order(slits.labels, ph.phases, slits.weight_map())
        got, got_scale = _brute.glynn_top_order_matrix(slits.labels, ph.phases,
                                                       slits.weight_map(), chunk=3)
        assert abs(got - want) <= 1e-12 * scale
        assert got_scale == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_matches_interference(self, m):
        rng = np.random.default_rng(120 + m)
        for _ in range(2):
            slits, ph = random_top_order_grating(rng, m)
            want, scale = _brute.glynn_top_order_matrix(slits.labels, ph.phases,
                                                        slits.weight_map())
            got = interference(m, slits, ph).value
            assert abs(got - want) <= 1e-12 * scale


class TestFixedScanClosedForm:
    """Summing out the parked detectors gives the fixed scan in closed form."""

    DELTAS = (0.0, 0.37, 1.9, math.pi, 4.4, 6.0)

    def test_matches_kernel(self):
        # tolerance per unit of the peak N**(2M); the worst ratio seen is 6.6e-16
        for m in range(1, 8):
            for n in range(1, 2 * m + 3):
                rows = curve(m, n, "fixed_scan", self.DELTAS, normalize=False)
                for delta, got in rows:
                    want = _brute.fixed_scan_closed(m, n, delta)
                    assert abs(got - want) <= 1e-13 * n ** (2 * m), (m, n, delta)
                    if n >= 2 * m + 1:
                        assert want == 0.0

    def test_top_order_form(self):
        for m in range(1, 8):
            for delta in self.DELTAS:
                assert (_brute.fixed_scan_top_order(m, delta)
                        == pytest.approx(_brute.fixed_scan_closed(m, 2 * m, delta),
                                         rel=1e-13, abs=1e-13 * (2 * m) ** (2 * m)))

    def test_matches_pinned_golden_points(self):
        # curve_m2_n4 is 0.09375 at delta = 0, curve_m2_n3 is 36/81
        assert _brute.fixed_scan_closed(2, 4, 0.0) / 4 ** 4 == 0.09375
        assert _brute.fixed_scan_closed(2, 3, 0.0) / 3 ** 4 == 36 / 81


class TestVanishingCheck:
    def test_fifth_order_passes(self):
        report = vanishing_check(2, 5, trials=50, seed=3)
        assert report.vanishing_expected
        assert report.passed
        assert report.max_normalized < 1e-10
        assert report.peak == 625.0

    def test_below_threshold_order_fails(self):
        report = vanishing_check(2, 3, trials=50, seed=3)
        assert not report.vanishing_expected
        assert not report.passed
        assert report.max_abs > 0.0

    def test_reproducible(self):
        a = vanishing_check(1, 3, trials=10, seed=42)
        b = vanishing_check(1, 3, trials=10, seed=42)
        assert a == b

    def test_as_dict_keys(self):
        d = vanishing_check(1, 3, trials=2, seed=1).as_dict()
        assert set(d) == {"m", "order", "trials", "seed", "peak", "max_abs",
                          "max_normalized", "vanishing_expected", "threshold",
                          "passed"}

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            vanishing_check(1, 3, trials=0)

    def test_chunked_draws_match_per_trial_draws(self, monkeypatch):
        # a 4-entry cap draws two 2-detector trials at a time
        monkeypatch.setattr(hierarchy, "_ENTRY_CAP", 4)
        batches = []
        kernel = hierarchy._interference_rows

        def recording(m, slits, rows, *args):
            batches.append(len(rows))
            return kernel(m, slits, rows, *args)

        monkeypatch.setattr(hierarchy, "_interference_rows", recording)
        report = vanishing_check(2, 4, trials=7, seed=17)
        assert batches == [2, 2, 2, 1]

        rng = np.random.default_rng(17)
        slits = SlitSet.contiguous(4)
        want = max(abs(interference(2, slits, random_phases(rng, 2)).value)
                   for _ in range(7))
        assert report.max_abs == want


class TestCurve:
    # frozen reference values, computed once with an independent
    # pure-python implementation of both scan configurations
    PINNED = {
        ("fixed_scan", 2, 1.0): 0.5201511529340699,
        ("fixed_scan", 2, 2.5): -0.15057180777346685,
        ("opposite_scan", 2, 1.0): 0.3431327983656771,
        ("opposite_scan", 2, 2.5): -0.24011403459056357,
        ("fixed_scan", 3, 1.0): 0.15610589817149848,
        ("fixed_scan", 3, 2.5): -0.08871914143588162,
        ("opposite_scan", 3, 1.0): 0.01723113862604365,
        ("opposite_scan", 3, 2.5): -0.04661626941191262,
        ("fixed_scan", 4, 1.0): -0.003146550813911191,
        ("fixed_scan", 4, 2.5): -0.023272986841864386,
        ("opposite_scan", 4, 1.0): -0.002180951794086128,
        ("opposite_scan", 4, 2.5): 0.01389345801208669,
    }

    def test_pinned_values(self):
        for (preset, n, delta), want in self.PINNED.items():
            [(_, got)] = curve(2, n, preset, [delta])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (preset, n, delta)

    def test_fifth_order_flatline(self):
        rows = curve(2, 5, "fixed_scan", np.linspace(0, 2 * math.pi, 64))
        assert all(abs(v) < 1e-10 for _, v in rows)

    def test_single_point_center(self):
        assert curve(1, 2, "fixed_scan", [0.0]) == [(0.0, pytest.approx(0.5))]

    def test_presets_coincide_at_origin(self):
        [(_, fixed)] = curve(2, 2, "fixed_scan", [0.0])
        [(_, opposite)] = curve(2, 2, "opposite_scan", [0.0])
        assert fixed == pytest.approx(opposite, rel=1e-12)
        assert fixed == pytest.approx(12.0 / 16.0)

    def test_unnormalized(self):
        [(_, raw)] = curve(2, 2, "fixed_scan", [0.0], normalize=False)
        assert raw == pytest.approx(12.0)

    def test_periodicity(self):
        for preset in ("fixed_scan", "opposite_scan"):
            for n in (2, 3, 4):
                rows = curve(2, n, preset, [0.0, 2 * math.pi])
                assert abs(rows[0][1] - rows[1][1]) < 1e-10

    def test_opposite_scan_is_even(self):
        for n in (2, 3, 4):
            left = curve(2, n, "opposite_scan", [-1.3])[0][1]
            right = curve(2, n, "opposite_scan", [1.3])[0][1]
            assert left == pytest.approx(right, rel=1e-12)

    def test_dashed_preset_accepted(self):
        assert curve(2, 2, "fixed-scan", [0.7]) == curve(2, 2, "fixed_scan", [0.7])

    def test_opposite_scan_needs_two_detectors(self):
        with pytest.raises(ValueError, match="opposite-scan"):
            curve(1, 3, "opposite_scan", [0.1])

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            curve(2, 3, "diagonal_scan", [0.1])

    def test_fixed_scan_matches_manual_phases(self):
        for delta in (0.3, 1.9):
            [(_, via_preset)] = curve(2, 3, "fixed_scan", [delta], normalize=False)
            manual = interference(2, SlitSet.contiguous(3),
                                  preset_fixed_scan(2, delta)).value
            assert via_preset == pytest.approx(manual, rel=1e-12)
