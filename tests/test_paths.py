from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from manyslit import paths
from manyslit.errors import EnumerationBudgetError
from manyslit.optics import DetectorPhases, SlitSet
from manyslit.paths import (amplitude_table, diagonal_sum, pair_sum,
                            path_count, support_table)

phase_floats = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)


def phases_of(*values):
    return DetectorPhases(tuple(values))


class TestEnumeration:
    """Both path tables list paths as ``itertools.product(labels, repeat=m)``."""

    def test_two_slits_two_detectors(self):
        # paths (0, 0), (0, 1), (1, 0), (1, 1)
        assert support_table(SlitSet.contiguous(2), 2).tolist() == [
            0b01, 0b11, 0b11, 0b10]

    def test_single_slit(self):
        assert support_table(SlitSet.contiguous(1), 3).tolist() == [1]
        table = amplitude_table(SlitSet.contiguous(1), phases_of(0.4, 1.1, 2.2))
        assert table.shape == (1,)

    def test_three_slits_pair(self):
        # weights 1, 10, 100 at zero phase spell each path's labels in digits
        s = SlitSet((0, 1, 2), (1.0, 10.0, 100.0))
        table = amplitude_table(s, phases_of(0.0, 0.0))
        assert table.real.tolist() == [1.0, 10.0, 100.0, 10.0, 100.0, 1000.0,
                                       100.0, 1000.0, 10000.0]  # lexicographic

    def test_count(self):
        assert path_count(SlitSet.contiguous(5), 3) == 125

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError) as err:
            amplitude_table(SlitSet.contiguous(3), phases_of(0.0, 0.0, 0.0), budget=10)
        assert err.value.n == 3
        assert err.value.m == 3
        assert err.value.required == 27
        assert err.value.budget == 10


class TestAmplitude:
    """Entries of ``amplitude_table``, in path order."""

    def test_zero_phases(self):
        s = SlitSet.contiguous(2)
        assert amplitude_table(s, phases_of(0.0, 0.0)).tolist() == [1.0] * 4

    def test_half_turn(self):
        s = SlitSet.contiguous(2)
        amp = amplitude_table(s, phases_of(math.pi, math.pi))[2]  # path (1, 0)
        assert amp == pytest.approx(-1.0)

    def test_two_quarter_turns(self):
        s = SlitSet.contiguous(2)
        amp = amplitude_table(s, phases_of(math.pi / 2, math.pi / 2))[3]  # (1, 1)
        assert amp == pytest.approx(-1.0)

    def test_weights_multiply(self):
        s = SlitSet((0, 1), (0.5, 2.0))
        assert amplitude_table(s, phases_of(0.0, 0.0))[3] == pytest.approx(4.0)

    def test_table_matches_scalar(self):
        s = SlitSet((0, 1, 3), (1.0, 0.7j, -0.3))
        ph = phases_of(0.4, 2.9)
        table = amplitude_table(s, ph)
        paths = list(_brute.all_paths(s.labels, 2))
        assert len(table) == len(paths)
        for row, path in zip(table, paths):
            assert row == pytest.approx(_brute.amp(path, ph.phases, s.weight_map()))


class TestPairs:
    def test_support_table_bits(self):
        s = SlitSet((0, 2, 5))
        masks = support_table(s, 2)
        paths = list(_brute.all_paths(s.labels, 2))
        assert len(masks) == len(paths)
        index = {label: i for i, label in enumerate(s.labels)}
        for mask, path in zip(masks, paths):
            expect = 0
            for label in path:
                expect |= 1 << index[label]
            assert mask == expect

    @given(st.integers(2, 3), st.lists(phase_floats, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_distributivity(self, n, phase_list):
        # sum over all pairs == |sum over paths|^2
        s = SlitSet.contiguous(n)
        ph = DetectorPhases(tuple(phase_list))
        total = pair_sum(s, ph)
        amps = amplitude_table(s, ph)
        coherent = abs(np.sum(amps)) ** 2
        assert total.real == pytest.approx(coherent, rel=1e-12, abs=1e-12)
        assert abs(total.imag) < 1e-10

    def test_pair_sum_matches_brute(self):
        s = SlitSet((0, 1, 2), (1.0, 0.8, 1.2j))
        ph = phases_of(0.9, 4.4)
        weights = s.weight_map()
        got = pair_sum(s, ph)
        want = _brute.pair_total(s.labels, ph.phases, weights)
        assert got.real == pytest.approx(want.real, abs=1e-10)

    def test_exact_support_filter_matches_brute(self):
        s = SlitSet.contiguous(3)
        ph = phases_of(0.9, 4.4)
        got = pair_sum(s, ph, exact_support=(0, 1, 2), include_diagonal=False)
        want = _brute.interference_pairs(s.labels, ph.phases)
        assert got.real == pytest.approx(want, abs=1e-10)
        assert abs(got.imag) < 1e-10

    def test_diagonal_sum_matches_brute(self):
        s = SlitSet((0, 1, 2), (1.0, 0.8, 1.2j))
        ph = phases_of(0.9, 4.4)
        got = diagonal_sum(s, ph)
        want = _brute.diagonal_total(s.labels, ph.phases, s.weight_map())
        assert got == pytest.approx(want, rel=1e-12)

    def test_surjective_diagonal_count(self):
        # diagonal pairs covering all N slits == surjection count, unit weights
        for n, m in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
            s = SlitSet.contiguous(n)
            ph = DetectorPhases((0.3,) * m)
            count = diagonal_sum(s, ph, exact_support=s.labels)
            assert count == pytest.approx(_brute.surjections(n, m), rel=1e-12)

    def test_partition_independence(self, monkeypatch):
        s = SlitSet.contiguous(3)
        ph = phases_of(1.1, 5.2)
        reference = pair_sum(s, ph, exact_support=s.labels, include_diagonal=False)
        for rows in (1, 2, 7, 4096):
            monkeypatch.setattr(paths, "_BLOCK_ENTRIES", rows * 9)
            got = pair_sum(s, ph, exact_support=s.labels, include_diagonal=False)
            assert got.real == pytest.approx(reference.real, rel=1e-12, abs=1e-12)

    def test_pair_budget(self):
        with pytest.raises(EnumerationBudgetError) as err:
            pair_sum(SlitSet.contiguous(4), phases_of(0.0, 0.0), budget=100)
        assert err.value.required == 256

    def test_support_filter_rejects_foreign_label(self):
        with pytest.raises(ValueError, match="not a slit"):
            pair_sum(SlitSet.contiguous(2), phases_of(0.0), exact_support=(0, 9))


class TestSupportFilter:
    """Strict-subset supports against plain loops, across block boundaries."""

    SLITS = SlitSet((0, 2, 3, 7), (1.0, 0.6 - 0.8j, 1.3j, -0.4))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("support", [(0, 7), (2, 3, 7), (0, 2, 3, 7)])
    @pytest.mark.parametrize("include_diagonal", [True, False])
    def test_matches_brute_for_every_block_size(self, monkeypatch, m, support,
                                                include_diagonal):
        s = self.SLITS
        ph = DetectorPhases((0.8, 2.7, 4.6)[:m])
        want = _brute.support_pairs(s.labels, ph.phases, s.weight_map(), support,
                                    include_diagonal)
        width = len(s) ** m
        # one row (also when the block is narrower than a row), three rows
        # with a partial last block, and every row in one block
        for entries in (1, width, 3 * width, width * width):
            monkeypatch.setattr(paths, "_BLOCK_ENTRIES", entries)
            got = pair_sum(s, ph, exact_support=support,
                           include_diagonal=include_diagonal)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), entries

    def test_unfiltered_sum_across_block_boundaries(self, monkeypatch):
        s = self.SLITS
        ph = phases_of(0.8, 2.7)
        want = _brute.pair_total(s.labels, ph.phases, s.weight_map())
        for entries in (1, 3 * 16, 256):
            monkeypatch.setattr(paths, "_BLOCK_ENTRIES", entries)
            assert pair_sum(s, ph) == pytest.approx(want, rel=1e-12, abs=1e-12)


def _refuse_table(*args, **kwargs):
    raise AssertionError("a path table was built")


class TestSupportBound:
    """A pair of M-leg paths touches at most 2M slits, a diagonal pair at most M.

    The plain loops of ``_brute.support_pairs`` justify the bound without
    using it; ``pair_sum`` and ``diagonal_sum`` must then skip such supports
    without building a path table, after every refusal a full run would make.
    """

    LABELS = (0, 2, 3, 7, 9, 11, 12, 15)

    def gratings(self, m):
        n = 2 * m + 2
        rng = np.random.default_rng(80 + m)
        weights = [complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(
            rng.uniform(0.5, 1.5, n).tolist(), rng.uniform(-math.pi, math.pi, n).tolist())]
        phases = tuple(rng.uniform(0.0, 2.0 * math.pi, m).tolist())
        # unit slits at zero phase make every pair term 1, so the sum counts pairs
        return [(SlitSet.contiguous(n), (0.0,) * m),
                (SlitSet(self.LABELS[:n], tuple(weights)), phases)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_brute_loops_find_no_pair_beyond_2m(self, m):
        (unit, zero), weighted = self.gratings(m)
        # 2M slits are reached only when the 2M legs take one slit each
        count = _brute.support_pairs(unit.labels, zero, unit.weight_map(),
                                     unit.labels[:2 * m])
        assert count == math.factorial(2 * m)
        for s, ph in ((unit, zero), weighted):
            weights = s.weight_map()
            for size in (2 * m + 1, 2 * m + 2):
                support = s.labels[-size:]
                assert _brute.support_pairs(s.labels, ph, weights, support) == 0j
                got = pair_sum(s, DetectorPhases(ph), exact_support=support)
                assert got == 0j and isinstance(got, complex)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_path_table_above_the_bound(self, monkeypatch, m):
        monkeypatch.setattr(paths, "amplitude_table", _refuse_table)
        monkeypatch.setattr(paths, "support_table", _refuse_table)
        for s, ph in self.gratings(m):
            ph = DetectorPhases(ph)
            for size in (2 * m + 1, 2 * m + 2):
                support = s.labels[:size]
                for diagonal in (True, False):
                    got = pair_sum(s, ph, exact_support=support,
                                   include_diagonal=diagonal)
                    assert got == 0j and isinstance(got, complex)
            for size in (m + 1, 2 * m + 2):
                got = diagonal_sum(s, ph, exact_support=s.labels[:size])
                assert got == 0.0 and isinstance(got, float)
            # at the bounds themselves some pair can reach the support
            with pytest.raises(AssertionError, match="path table"):
                pair_sum(s, ph, exact_support=s.labels[:2 * m])
            with pytest.raises(AssertionError, match="path table"):
                diagonal_sum(s, ph, exact_support=s.labels[:m])

    def test_repeated_label_counts_once(self):
        s = SlitSet((0, 1, 2), (1.0, 0.6 - 0.8j, 1.3j))
        # (0, 0, 1) is two slits: within 2M for M = 1 and within M for M = 2
        ph = phases_of(0.8)
        want = _brute.support_pairs(s.labels, ph.phases, s.weight_map(), (0, 1))
        got = pair_sum(s, ph, exact_support=(0, 0, 1))
        assert want != 0j
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got == pair_sum(s, ph, exact_support=(0, 1))
        ph = phases_of(0.8, 2.7)
        got = diagonal_sum(s, ph, exact_support=(0, 0, 1))
        assert got > 0.0
        assert got == diagonal_sum(s, ph, exact_support=(0, 1))

    def test_refusals_come_before_the_bound(self):
        # each input below is provably zero, and each is still refused as before
        s = SlitSet.contiguous(5)
        two = phases_of(0.0, 0.0)
        for reduce in (pair_sum, diagonal_sum):
            with pytest.raises(EnumerationBudgetError) as err:
                reduce(s, two, exact_support=s.labels, budget=100)
            assert err.value.required == 625
            # the budget is checked before the labels
            with pytest.raises(EnumerationBudgetError):
                reduce(s, two, exact_support=(0, 1, 2, 3, 9), budget=100)
            with pytest.raises(ValueError, match="not a slit"):
                reduce(s, phases_of(0.0), exact_support=(0, 1, 2, 9))
            for n in (63, 64):
                wide = SlitSet.contiguous(n)
                with pytest.raises(ValueError, match="at most 62 slits"):
                    reduce(wide, phases_of(0.0), exact_support=wide.labels)
