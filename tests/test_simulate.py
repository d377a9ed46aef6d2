"""Simulation scenarios: determinism, marginal calibration, and experiment
bookkeeping."""

import numpy as np
import pytest
from scipy import stats

from idrkit.errors import DomainError
from idrkit.simulate import (GENUINE, METHODS, SimComponent, SimScenario,
                             calibration_experiment,
                             correct_calls_at_incorrect,
                             discrimination_experiment, ranking_tradeoff,
                             scenario_preset, scenario_report,
                             simulate_dataset)


class TestScenario:
    def test_presets_exist(self):
        for name in ("S1", "S2", "S3", "S4"):
            sc = scenario_preset(name, n=100, seed=1)
            assert sc.label == name
            assert sum(c.pi for c in sc.components) == pytest.approx(1.0)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            scenario_preset("S9")

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(DomainError):
            SimScenario(components=(SimComponent(0.5, 0.0, 0.0),
                                    SimComponent(0.4, 2.0, 0.5)),
                        n=10, seed=0)

    def test_noise_component_is_standard(self):
        with pytest.raises(DomainError):
            SimScenario(components=(SimComponent(0.5, 1.0, 0.0),
                                    SimComponent(0.5, 2.0, 0.5)),
                        n=10, seed=0)


class TestSimulateDataset:
    def test_deterministic(self):
        sc = scenario_preset("S1", n=500, seed=42)
        a, b = simulate_dataset(sc), simulate_dataset(sc)
        np.testing.assert_array_equal(a.pvalues1, b.pvalues1)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_seed_changes_draw(self):
        a = simulate_dataset(scenario_preset("S1", n=500, seed=0))
        b = simulate_dataset(scenario_preset("S1", n=500, seed=1))
        assert not np.array_equal(a.pvalues1, b.pvalues1)

    def test_truth_proportions(self):
        sc = scenario_preset("S1", n=20_000, seed=3)
        data = simulate_dataset(sc)
        frac = np.mean(data.truth == GENUINE)
        assert frac == pytest.approx(0.65, abs=0.02)

    def test_top_pvalues_enriched_for_signal(self):
        # the p-value chain is deliberately miscalibrated (normal survival
        # of a heavy-tailed score), but ordering must still separate the
        # components: the smallest p-values are dominated by genuine signals
        sc = scenario_preset("S1", n=20_000, seed=4)
        data = simulate_dataset(sc)
        top = np.argsort(data.pvalues1)[:1000]
        assert np.mean(data.truth[top] == GENUINE) > 0.95

    def test_signal_pvalues_smaller(self):
        sc = scenario_preset("S1", n=10_000, seed=5)
        data = simulate_dataset(sc)
        assert np.median(data.pvalues1[data.truth == GENUINE]) < \
            np.median(data.pvalues1[data.truth == 0])

    def test_replicates_correlated_only_through_signal(self):
        sc = scenario_preset("S1", n=20_000, seed=6)
        data = simulate_dataset(sc)
        noise = data.truth == 0
        r_noise = stats.pearsonr(data.pvalues1[noise],
                                 data.pvalues2[noise]).statistic
        r_signal = stats.pearsonr(data.pvalues1[~noise],
                                  data.pvalues2[~noise]).statistic
        assert abs(r_noise) < 0.03
        assert r_signal > 0.3

    def test_pvalues_within_open_interval(self):
        data = simulate_dataset(scenario_preset("S3", n=5000, seed=7))
        for p in (data.pvalues1, data.pvalues2):
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_scores_negate_pvalues(self):
        data = simulate_dataset(scenario_preset("S2", n=100, seed=8))
        scores = data.scores()
        np.testing.assert_array_equal(scores.scores1, -data.pvalues1)


class TestTradeoffBookkeeping:
    def test_ranking_tradeoff_counts(self):
        stat = np.array([0.1, 0.5, 0.2, 0.9, 0.3])
        truth = np.array([1, 0, 1, 0, 0])
        incorrect, correct = ranking_tradeoff(stat, truth)
        np.testing.assert_array_equal(correct, [1, 2, 2, 2, 2])
        np.testing.assert_array_equal(incorrect, [0, 0, 1, 2, 3])

    def test_correct_calls_at_incorrect(self):
        stat = np.array([0.1, 0.5, 0.2, 0.9, 0.3])
        truth = np.array([1, 0, 1, 0, 0])
        assert correct_calls_at_incorrect(stat, truth, 0) == 2
        assert correct_calls_at_incorrect(stat, truth, 1) == 2
        assert correct_calls_at_incorrect(stat, truth, 10) == 2

    def test_all_incorrect_first(self):
        stat = np.array([0.1, 0.2, 0.3])
        truth = np.array([0, 0, 1])
        assert correct_calls_at_incorrect(stat, truth, 0) == 0


class TestExperiments:
    # tiny configurations keep these structural checks fast; statistical
    # behavior is exercised by the acceptance suite
    def _small(self):
        from idrkit.mixture import FitConfig

        return FitConfig(n_inits=3, rng_seed=0, refine_iters=10)

    def test_calibration_table_shape(self):
        sc = scenario_preset("S1", n=400, seed=0)
        table = calibration_experiment(sc, n_reps=2,
                                       nominal_levels=(0.05, 0.1),
                                       fit_config=self._small())
        methods = {row.method for row in table.rows}
        assert methods == set(METHODS)
        for row in table.rows:
            assert 0.0 <= row.empirical_fdr <= 1.0
            assert row.nominal in (0.05, 0.1)

    def test_discrimination_table_shape(self):
        sc = scenario_preset("S1", n=400, seed=1)
        table = discrimination_experiment(sc, n_reps=2,
                                          thresholds=(0.05, 0.2),
                                          fit_config=self._small())
        methods = {row.method for row in table.rows}
        assert methods == set(METHODS)

    def test_scenario_report_consistency(self):
        sc = scenario_preset("S1", n=400, seed=2)
        report = scenario_report(sc, n_reps=2, nominal_levels=(0.1,),
                                 fit_config=self._small())
        assert len(report.fit_rows) == 2
        for rep, pi1, mu1, sigma1_sq, rho1, loglik, converged in report.fit_rows:
            assert 0.0 < pi1 < 1.0
            assert sigma1_sq > 0.0
            assert np.isfinite(loglik)

    def test_experiments_are_views_of_the_report(self):
        sc = scenario_preset("S1", n=400, seed=3)
        levels = (0.05, 0.1, 0.2)
        report = scenario_report(sc, n_reps=2, nominal_levels=levels,
                                 fit_config=self._small())
        assert calibration_experiment(
            sc, n_reps=2, nominal_levels=levels,
            fit_config=self._small()) == report.calibration
        assert discrimination_experiment(
            sc, n_reps=2, thresholds=levels,
            fit_config=self._small()) == report.tradeoff

    def test_rejects_zero_reps(self):
        sc = scenario_preset("S1", n=400, seed=0)
        with pytest.raises(DomainError):
            calibration_experiment(sc, n_reps=0)
