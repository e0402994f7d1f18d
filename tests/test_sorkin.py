from __future__ import annotations

import importlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _brute
from manyslit.cli import EXIT_OK, main
from manyslit.errors import DegenerateNormalizationError, EnumerationBudgetError
from manyslit.optics import DetectorPhases, SlitSet, preset_fixed_scan
from manyslit.sorkin import (DEVIATION_LAWS, DeviationModel, SensitivityReport,
                             deviation_montecarlo, sensitivity_c,
                             sensitivity_ratio, sensitivity_table, sorkin)

# the package re-exports the function ``sorkin`` under the module's name
sorkin_module = importlib.import_module("manyslit.sorkin")

TABLE_TARGETS = (1.8, 2.9, 4.7, 7.3, 11.4, 17.7, 27.6, 42.7, 66.2, 102.5)


def random_phases(rng, m):
    return DetectorPhases(tuple(rng.uniform(0.0, 2.0 * math.pi, size=m)))


class TestSorkin:
    def test_single_particle_null(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            assert abs(sorkin(1, random_phases(rng, 1))) < 1e-12

    def test_two_particle_null_fixed_scan(self):
        for delta in np.linspace(0.0, 2 * math.pi, 21):
            assert abs(sorkin(2, preset_fixed_scan(2, delta))) < 1e-10

    def test_two_particle_null_random(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            assert abs(sorkin(2, random_phases(rng, 2))) < 1e-10

    def test_slit_count_enforced(self):
        with pytest.raises(ValueError, match="slits"):
            sorkin(1, DetectorPhases((0.2,)), SlitSet.contiguous(4))

    def test_degenerate_peak(self):
        dark = SlitSet((0, 1, 2), (0.0, 0.0, 0.0))
        with pytest.raises(DegenerateNormalizationError):
            sorkin(1, DetectorPhases((0.2,)), dark)

    def test_custom_slits_accepted(self):
        shifted = SlitSet((3, 4, 5))
        assert abs(sorkin(1, DetectorPhases((1.1,)), shifted)) < 1e-12


class TestSensitivityC:
    def test_anchors_exact(self):
        assert sensitivity_c(1) == 7.0
        assert sensitivity_c(2) == 16.0

    def test_third_value(self):
        assert sensitivity_c(3) == pytest.approx(float(_brute.c_exact(3)), rel=1e-14)
        assert sensitivity_c(3) == pytest.approx(256.0 / 7.0, rel=1e-14)

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_matches_exact_fractions(self, m):
        assert sensitivity_c(m) == pytest.approx(float(_brute.c_exact(m)), rel=1e-13)

    def test_range(self):
        with pytest.raises(ValueError):
            sensitivity_c(0)
        with pytest.raises(ValueError, match="supported"):
            sensitivity_c(32)
        assert math.isfinite(sensitivity_c(31))


class TestSensitivityRatio:
    def test_single_particle_is_exactly_one(self):
        assert sensitivity_ratio(1) == 1.0

    def test_reference_rows(self):
        for m, target in zip(range(2, 12), TABLE_TARGETS):
            ratio = sensitivity_ratio(m)
            assert round(ratio, 1) == target
            assert abs(ratio - target) <= 0.05

    def test_matches_exact_route(self):
        for m in range(1, 12):
            assert sensitivity_ratio(m) == pytest.approx(_brute.ratio_exact(m), rel=1e-13)


class TestSensitivityTable:
    def test_full_table(self):
        rows = sensitivity_table(11)
        assert [r.m for r in rows] == list(range(2, 12))
        assert tuple(r.table_row for r in rows) == TABLE_TARGETS

    def test_single_row(self):
        rows = sensitivity_table(2)
        assert len(rows) == 1
        assert rows[0].table_row == 1.8

    def test_strictly_increasing(self):
        ratios = [r.ratio for r in sensitivity_table(11)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_minimum(self):
        with pytest.raises(ValueError):
            sensitivity_table(1)

    def test_report_dict_keys(self):
        d = sensitivity_table(2)[0].as_dict()
        assert list(d) == ["m", "c_of_m", "ratio", "table_row", "mc_rms",
                           "mc_prediction", "mc_rms_slit_peak",
                           "mc_prediction_slit_peak", "trials", "seed",
                           "delta", "law", "variant", "epsilon", "notes"]
        assert d["mc_rms"] is None


class TestDeviationInjection:
    """The single-trial reference in ``_brute`` that ``TestPerTrial`` uses."""

    def test_no_offsets_exact_zero(self):
        assert _brute.sorkin_with_deviations(1, {}) == 0.0
        assert _brute.sorkin_with_deviations(2, {}) == 0.0

    def test_single_slit_offset(self):
        got = _brute.sorkin_with_deviations(1, {frozenset({0}): 0.01})
        assert got == pytest.approx(0.01 / 9.0, rel=1e-10)

    def test_pair_offset_carries_sign(self):
        got = _brute.sorkin_with_deviations(1, {frozenset({0, 1}): 0.01})
        assert got == pytest.approx(-0.01 / 9.0, rel=1e-10)

    def test_offsets_add_linearly(self):
        a = _brute.sorkin_with_deviations(2, {frozenset({0}): 1e-3})
        b = _brute.sorkin_with_deviations(2, {frozenset({1, 2}): 1e-3})
        both = _brute.sorkin_with_deviations(2, {frozenset({0}): 1e-3,
                                                 frozenset({1, 2}): 1e-3})
        assert both == pytest.approx(a + b, rel=1e-6)

    def test_tuple_keys_accepted(self):
        got = _brute.sorkin_with_deviations(1, {(0,): 0.01})
        assert got == pytest.approx(0.01 / 9.0)

    def test_bad_key(self):
        with pytest.raises(ValueError, match="subset"):
            _brute.sorkin_with_deviations(1, {frozenset({7}): 0.01})
        with pytest.raises(ValueError, match="subset"):
            _brute.sorkin_with_deviations(1, {frozenset(): 0.01})


class TestDeviationModel:
    def test_defaults(self):
        model = DeviationModel()
        assert model.delta == 0.0
        assert model.law == "uniform_symmetric"
        assert model.variant == "per_combination_iid"

    def test_rms_delta(self):
        assert DeviationModel(delta=3e-3).rms_delta() == pytest.approx(3e-3 / math.sqrt(3))
        assert DeviationModel(delta=3e-3, law="gaussian").rms_delta() == 3e-3

    @pytest.mark.parametrize("kwargs", [
        {"delta": -1.0}, {"delta": math.inf}, {"law": "poisson"},
        {"variant": "quadratic"}, {"epsilon": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DeviationModel(**kwargs)


class TestMonteCarlo:
    def test_zero_deviation_exact_zero_rms(self):
        report = deviation_montecarlo(1, DeviationModel(delta=0.0), 2000)
        assert report.mc_rms == 0.0

    def test_single_particle_channel_count(self):
        model = DeviationModel(delta=1e-3, law="uniform_symmetric", seed=7)
        report = deviation_montecarlo(1, model, 40_000)
        sigma = model.rms_delta()
        assert report.mc_rms * 9.0 / sigma == pytest.approx(math.sqrt(7.0), rel=0.05)
        assert report.mc_rms == pytest.approx(report.mc_prediction, rel=0.05)

    def test_two_particle_prediction(self):
        model = DeviationModel(delta=1e-3, law="uniform_symmetric", seed=8)
        report = deviation_montecarlo(2, model, 40_000)
        assert report.mc_rms == pytest.approx(report.mc_prediction, rel=0.05)

    def test_gaussian_law(self):
        model = DeviationModel(delta=1e-3, law="gaussian", seed=9)
        report = deviation_montecarlo(1, model, 40_000)
        assert report.mc_rms == pytest.approx(report.mc_prediction, rel=0.05)

    def test_reproducible_across_calls(self):
        model = DeviationModel(delta=1e-3, seed=10)
        a = deviation_montecarlo(2, model, 5000)
        b = deviation_montecarlo(2, model, 5000)
        assert a.mc_rms == b.mc_rms

    def test_seed_matters(self):
        a = deviation_montecarlo(1, DeviationModel(delta=1e-3, seed=1), 5000)
        b = deviation_montecarlo(1, DeviationModel(delta=1e-3, seed=2), 5000)
        assert a.mc_rms != b.mc_rms

    def test_linearity_in_delta(self):
        deltas = (1e-4, 1e-3, 1e-2)
        rms = [deviation_montecarlo(2, DeviationModel(delta=d, seed=11), 20_000).mc_rms
               for d in deltas]
        x = np.asarray(deltas)
        y = np.asarray(rms)
        slope = float(np.sum(x * y) / np.sum(x * x))
        residual = float(np.sum((y - slope * x) ** 2))
        r_squared = 1.0 - residual / float(np.sum((y - y.mean()) ** 2))
        assert r_squared > 0.999

    def test_out_of_range_notes(self):
        report = deviation_montecarlo(1, DeviationModel(delta=0.5), 50)
        assert len(report.notes) == 2
        assert any("trials" in note for note in report.notes)
        assert any("delta" in note for note in report.notes)

    def test_validated_range_has_no_notes(self):
        report = deviation_montecarlo(1, DeviationModel(delta=1e-3), 2000)
        assert report.notes == ()

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            deviation_montecarlo(5, DeviationModel(delta=1e-3), 10_000, budget=1000)

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            deviation_montecarlo(1, DeviationModel(), 0)

    def test_report_carries_model(self):
        model = DeviationModel(delta=2e-3, law="gaussian", seed=77)
        report = deviation_montecarlo(1, model, 2000)
        assert report.delta == 2e-3
        assert report.law == "gaussian"
        assert report.seed == 77
        assert report.trials == 2000
        assert isinstance(report, SensitivityReport)

    def test_slit_peak_convention_is_rescaled(self):
        # counting the peak once per slit divides by (2M+1)**M, not **(2M)
        for m in (1, 2):
            report = deviation_montecarlo(m, DeviationModel(delta=1e-3, seed=3), 2000)
            factor = float(2 * m + 1) ** m
            assert report.mc_rms_slit_peak == pytest.approx(
                report.mc_rms * factor, rel=1e-12)
            assert report.mc_prediction_slit_peak == pytest.approx(
                report.mc_prediction * factor, rel=1e-12)


class TestStreamedReduction:
    """The cache-blocked reduction against the whole-chunk one it replaced."""

    @pytest.mark.parametrize("law", DEVIATION_LAWS)
    @pytest.mark.parametrize("m, trials", [
        (1, 20_001), (2, 5003), (3, 1001), (5, 1000), (9, 4),
    ])
    def test_matches_whole_chunk_reduction(self, law, m, trials):
        # trial counts are no multiple of the block rows; at M = 5 and 9 the
        # run spans two chunks
        model = DeviationModel(delta=1e-3, law=law, seed=7)
        want = _brute.mc_rms_whole_chunk(m, 1e-3, law, 7, trials)
        assert deviation_montecarlo(m, model, trials).mc_rms == want

    @pytest.mark.parametrize("law", DEVIATION_LAWS)
    @pytest.mark.parametrize("m, trials", [
        (1, 301), (2, 301), (3, 301), (5, 7), (9, 3),
    ])
    def test_small_blocks_across_chunk_boundaries(self, monkeypatch, law, m, trials):
        monkeypatch.setattr(sorkin_module, "_MC_BLOCK_ENTRIES", 64)
        monkeypatch.setattr(sorkin_module, "_MC_ENTRY_CAP", 1000)
        model = DeviationModel(delta=1e-3, law=law, seed=8)
        want = _brute.mc_rms_whole_chunk(m, 1e-3, law, 8, trials, entry_cap=1000)
        assert deviation_montecarlo(m, model, trials).mc_rms == want

    @pytest.mark.parametrize("argv, want", [
        (("--m", "5", "--trials", "50000"), "6.26442869891555e-05"),
        (("--m", "2", "--law", "gaussian", "--trials", "20000", "--seed", "11"),
         "0.0001715939367614972"),
        (("--m", "9", "--trials", "3", "--seed", "5"), "4.4996102032744674e-05"),
    ])
    def test_pinned_reports(self, capsys, argv, want):
        # mc_rms as printed before the reduction was streamed
        assert main(["montecarlo", *argv]) == EXIT_OK
        assert repr(json.loads(capsys.readouterr().out)["mc_rms"]) == want

    def test_memory_is_flat_in_trials(self):
        def peak_bytes(trials):
            tracemalloc.start()
            try:
                deviation_montecarlo(5, DeviationModel(delta=1e-3), trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(100)  # first-call set-up inside numpy is not the reduction's
        small, large = peak_bytes(10_000), peak_bytes(50_000)
        assert large < 4 * 2 ** 20
        assert large <= small + 64 * 2 ** 10

    def test_per_combination_arrays_cost_one_row_each(self):
        # signs, base and the one-row buffer; no int64 or temporary rows
        row = ((1 << 21) - 1) * 8
        deviation_montecarlo(3, DeviationModel(delta=1e-3), 10)
        tracemalloc.start()
        try:
            deviation_montecarlo(10, DeviationModel(delta=1e-3), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * row + 2 ** 20

    def test_row_cap_refused_before_any_array(self, monkeypatch):
        def fail(n, per_size):
            raise AssertionError("per-combination array built before the refusal")

        monkeypatch.setattr(sorkin_module, "_per_combination", fail)
        with pytest.raises(EnumerationBudgetError, match="per-trial cap"):
            deviation_montecarlo(13, DeviationModel(delta=1e-3), 1)


class TestPerTrial:
    """One Monte-Carlo trial against the itertools reference, term by term."""

    @pytest.mark.parametrize("law", DEVIATION_LAWS)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_single_trial_matches_reference(self, law, m):
        n = 2 * m + 1
        combos = [frozenset(c) for k in range(1, n + 1)
                  for c in itertools.combinations(range(n), k)]
        for seed in (0, 7, 12345):
            model = DeviationModel(delta=1e-3, law=law, seed=seed)
            # trial 0 is row 0 of chunk 0: one draw per combination, size by size
            rng = np.random.default_rng([seed, 0])
            if law == "uniform_symmetric":
                draws = rng.uniform(-1e-3, 1e-3, len(combos))
            else:
                draws = rng.normal(0.0, 1e-3, len(combos))
            deviations = dict(zip(combos, draws.tolist()))
            terms = _brute.deviation_terms(m, deviations)
            peak = float(n) ** (2 * m)
            want = abs(_brute.sorkin_with_deviations(m, deviations))
            tol = 64 * np.finfo(float).eps * math.fsum(map(abs, terms)) / peak
            got = sorkin_module._mc_rms(m, model, 1, sorkin_module.DEFAULT_MC_BUDGET)
            assert abs(got - want) <= tol


class TestExponentVariant:
    @staticmethod
    def closed_form_single_particle(epsilon):
        # binomially collapsed alternating sum, normalized by the bent peak
        top = 3.0 - 3.0 * 2.0 ** (2.0 + epsilon) + 3.0 ** (2.0 + epsilon)
        return top / 3.0 ** (2.0 + epsilon)

    def test_matches_closed_form(self):
        for epsilon in (1e-2, 1e-3, 1e-4):
            model = DeviationModel(variant="exponent_epsilon", epsilon=epsilon)
            report = deviation_montecarlo(1, model, 1)
            assert report.mc_rms == pytest.approx(
                abs(self.closed_form_single_particle(epsilon)), rel=1e-10)
            assert report.mc_prediction is None

    def test_nonzero_at_small_epsilon(self):
        for m in (1, 2):
            model = DeviationModel(variant="exponent_epsilon", epsilon=1e-3)
            assert deviation_montecarlo(m, model, 1).mc_rms > 1e-7

    def test_vanishes_with_epsilon(self):
        for m in (1, 2):
            values = []
            for epsilon in (1e-2, 1e-3, 1e-4):
                model = DeviationModel(variant="exponent_epsilon", epsilon=epsilon)
                values.append(deviation_montecarlo(m, model, 1).mc_rms)
            assert values[0] > values[1] > values[2] > 0.0

    def test_exact_born_rule_is_exact_zero(self):
        model = DeviationModel(variant="exponent_epsilon", epsilon=0.0)
        assert deviation_montecarlo(1, model, 1).mc_rms == 0.0

    # mpmath references at 400 digits; a double-precision sum misses the
    # first one by a factor of 330
    @pytest.mark.parametrize("m, epsilon, kappa", [
        (15, 1e-3, 4.950992288419722e-16),
        (9, 1e-9, 5.932949839260438e-17),
        (5, 1e-12, 1.3143852811276752e-16),
    ])
    def test_pinned_exact_values(self, m, epsilon, kappa):
        model = DeviationModel(variant="exponent_epsilon", epsilon=epsilon)
        assert deviation_montecarlo(m, model, 1).mc_rms == kappa

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def reference(m, epsilon):
            n = 2 * m + 1
            with mpmath.workdps(400):
                exponent = m * (2 + mpmath.mpf(epsilon))
                total = mpmath.fsum((-1) ** (n - k) * mpmath.binomial(n, k)
                                    * mpmath.mpf(k) ** exponent
                                    for k in range(1, n + 1))
                return float(total / mpmath.mpf(n) ** exponent)

        for m in (1, 2, 5, 9, 15, 31):
            for epsilon in (1e-3, 1e-9, 1e-12, 1e-30, 1e-200, -1e-6, 0.5):
                want = reference(m, epsilon)
                got = sorkin_module._epsilon_kappa(m, epsilon)
                assert abs(got - want) <= 1e-15 * abs(want), (m, epsilon)

    def test_overflowing_parameter_raises(self):
        # a large negative epsilon makes the small combinations dominate
        # beyond double precision
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            sorkin_module._epsilon_kappa(3, -1e10)

    def test_slit_peak_convention_uses_bent_exponent(self):
        epsilon = 1e-3
        model = DeviationModel(variant="exponent_epsilon", epsilon=epsilon)
        report = deviation_montecarlo(2, model, 1)
        factor = 5.0 ** (2 * (2.0 + epsilon) / 2.0)
        assert report.mc_rms_slit_peak == pytest.approx(
            report.mc_rms * factor, rel=1e-12)
        assert report.mc_prediction_slit_peak is None
