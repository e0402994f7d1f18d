from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from manyslit.correlations import (alternation_signs, central_peak,
                                   classical_correlation, exclusive_classical,
                                   grating_amplitude, quantum_correlation,
                                   subset_sums)
from manyslit.errors import EnumerationBudgetError
from manyslit.optics import DetectorPhases, SlitSet
from manyslit.paths import diagonal_sum, pair_sum

phase_floats = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)


def phases_of(*values):
    return DetectorPhases(tuple(values))


class TestGratingAmplitude:
    def test_constructive_center(self):
        assert grating_amplitude(SlitSet.contiguous(2), 0.0) == 2.0

    def test_destructive(self):
        assert abs(grating_amplitude(SlitSet.contiguous(2), math.pi)) < 1e-15

    def test_three_slit_null(self):
        assert abs(grating_amplitude(SlitSet.contiguous(3), 2 * math.pi / 3)) < 1e-15

    def test_weights_enter(self):
        assert grating_amplitude(SlitSet((0, 1), (1.0, 2.0)), 0.0) == 3.0

    def test_non_finite_phase(self):
        with pytest.raises(ValueError):
            grating_amplitude(SlitSet.contiguous(2), math.inf)


class TestQuantumCorrelation:
    def test_single_slit_is_flat(self):
        s = SlitSet.contiguous(1)
        for ph in [phases_of(0.3), phases_of(1.0, 2.0, 3.0)]:
            assert quantum_correlation(s, ph).value == pytest.approx(1.0, abs=1e-14)

    def test_double_slit_center(self):
        assert quantum_correlation(SlitSet.contiguous(2), phases_of(0.0, 0.0)).value == 16.0

    def test_double_slit_null(self):
        v = quantum_correlation(SlitSet.contiguous(2), phases_of(0.0, math.pi)).value
        assert abs(v) < 1e-14

    @given(st.integers(2, 3), st.lists(phase_floats, min_size=1, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_matches_pair_reduction(self, n, phase_list):
        # product of single-detector intensities == full pair sum
        s = SlitSet.contiguous(n)
        ph = DetectorPhases(tuple(phase_list))
        factored = quantum_correlation(s, ph).value
        paired = pair_sum(s, ph)
        assert factored == pytest.approx(paired.real, rel=1e-10, abs=1e-10)
        assert abs(paired.imag) < 1e-10

    def test_carries_context(self):
        s = SlitSet.contiguous(2)
        ph = phases_of(0.1, 0.2)
        out = quantum_correlation(s, ph)
        assert out.m == 2 and out.slits is s and out.phases is ph


class TestClassicalCorrelation:
    def test_unit_weight_counts_paths(self):
        assert classical_correlation(SlitSet.contiguous(2), phases_of(0.1, 0.2)).value == 4.0
        assert classical_correlation(SlitSet.contiguous(3), phases_of(0.1, 0.2)).value == 9.0
        assert classical_correlation(SlitSet.contiguous(1), phases_of(1, 2, 3)).value == 1.0

    def test_phase_flat(self):
        s = SlitSet((0, 1), (0.5, 1.5))
        a = classical_correlation(s, phases_of(0.0, 0.0)).value
        b = classical_correlation(s, phases_of(2.2, 4.4)).value
        assert a == b

    def test_matches_diagonal_pairs(self):
        s = SlitSet((0, 1, 2), (1.0, 0.6, 1.1j))
        ph = phases_of(0.7, 3.3)
        assert classical_correlation(s, ph).value == pytest.approx(
            diagonal_sum(s, ph), rel=1e-12)


class TestExclusiveClassical:
    def test_two_slits_two_particles(self):
        out = exclusive_classical(SlitSet.contiguous(2), phases_of(0.0, 0.0))
        assert out.value == 2.0
        assert out.order == 2 and out.m == 2

    def test_zero_when_slits_outnumber_particles(self):
        assert exclusive_classical(SlitSet.contiguous(3), phases_of(0.1, 0.2)).value == 0.0

    def test_single_slit(self):
        assert exclusive_classical(SlitSet.contiguous(1), phases_of(*[0.0] * 5)).value == 1.0

    def test_surjection_counts(self):
        for n, m in [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (4, 6)]:
            got = exclusive_classical(SlitSet.contiguous(n), phases_of(*[0.0] * m))
            assert got.value == _brute.surjections(n, m)

    def test_matches_surjective_diagonal_pairs_with_weights(self):
        s = SlitSet((0, 1, 2), (1.0, 0.5, 1.3))
        ph = phases_of(0.4, 1.9, 5.1)
        got = exclusive_classical(s, ph).value
        want = diagonal_sum(s, ph, exact_support=s.labels)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_vanishes_beyond_particle_number_with_weights(self):
        s = SlitSet((0, 1, 2, 3), (0.9, 1.1, 0.7, 1.3))
        got = exclusive_classical(s, phases_of(0.2, 0.8)).value
        assert abs(got) < 1e-9

    def test_partition_identity(self):
        # exclusive terms over all non-empty subsets add back to the plain signal
        s = SlitSet((0, 1, 2, 3), (1.0, 0.8, 1.2, 0.5))
        ph = phases_of(0.3, 2.6, 4.0)
        parts = []
        for size in range(1, len(s) + 1):
            for combo in itertools.combinations(s.labels, size):
                parts.append(exclusive_classical(s.subset(combo), ph).value)
        assert math.fsum(parts) == pytest.approx(
            classical_correlation(s, ph).value, rel=1e-12)

    def test_fsum_of_list_equals_fsum_of_array(self):
        # fsum is correctly rounded and float64 -> float is exact, so feeding
        # it a list instead of the array's numpy scalars keeps every bit
        rng = np.random.default_rng(31)
        for n in range(1, 13):
            weights = rng.uniform(0.2, 1.8, n) * np.exp(1j * rng.uniform(0, 6.3, n))
            s = SlitSet(tuple(range(n)), tuple(weights.tolist()))
            m = int(rng.integers(1, 2 * n + 2))
            intensities = np.array([abs(w) ** 2 for w in s.weights])
            terms = alternation_signs(n) * subset_sums(intensities) ** m
            got = exclusive_classical(s, phases_of(*[0.0] * m)).value
            assert got == math.fsum(terms)

    def test_subset_budget(self):
        # 21 slits need 2**21 - 1 subsets, over the default budget of 2**20
        with pytest.raises(EnumerationBudgetError) as err:
            exclusive_classical(SlitSet.contiguous(21), phases_of(0.0))
        assert err.value.n == 21
        assert err.value.required == (1 << 21) - 1
        assert err.value.budget == 1 << 20
        with pytest.raises(EnumerationBudgetError):
            exclusive_classical(SlitSet.contiguous(5), phases_of(0.0), budget=30)


class TestCentralPeak:
    def test_examples(self):
        assert central_peak(SlitSet.contiguous(3), 1).value == 9.0
        assert central_peak(SlitSet.contiguous(5), 2).value == 625.0
        assert central_peak(SlitSet.contiguous(1), 4).value == 1.0

    def test_weighted(self):
        assert central_peak(SlitSet((0, 1), (1.0, 2.0)), 2).value == pytest.approx(81.0)

    def test_needs_detectors(self):
        with pytest.raises(ValueError):
            central_peak(SlitSet.contiguous(2), 0)
