"""Simulation scenarios: determinism, marginal calibration, and experiment
bookkeeping."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import stats

import idrkit.simulate
from idrkit.errors import DomainError
from idrkit.mixture import FitConfig, fit
from idrkit.ranking import rank_scores
from idrkit.selection import IdrTable, select_at_idr
from idrkit.simulate import (GENUINE, METHODS, NOMINAL_GRID, SimComponent,
                             SimScenario, correct_calls_at_incorrect,
                             method_statistics, ranking_tradeoff,
                             scenario_preset, scenario_report,
                             simulate_dataset, threshold_calls)


class TestScenario:
    def test_presets_exist(self):
        for name in ("S1", "S2", "S3", "S4"):
            sc = scenario_preset(name, n=100, seed=1)
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

    @pytest.mark.parametrize("fields, bad", [
        ({"pi": True, "mu": 0.0, "rho": 0.0}, "pi"),
        ({"pi": "0.5", "mu": 0.0, "rho": 0.0}, "pi"),
        ({"pi": 0.5, "mu": None, "rho": 0.0}, "mu"),
        ({"pi": 0.5, "mu": 0.0, "rho": 0.0, "sigma_sq": [1.0]}, "sigma_sq"),
    ])
    def test_component_fields_are_numbers(self, fields, bad):
        with pytest.raises(DomainError, match=f"^field '{bad}' is missing or "
                                              "not a number$"):
            SimComponent(**fields)

    def test_numpy_numbers_are_numbers(self):
        assert SimComponent(np.float32(0.5), np.int64(0), 0.0).pi == 0.5


class TestSimulateDataset:
    def test_deterministic(self):
        sc = scenario_preset("S1", n=500, seed=42)
        a, b = simulate_dataset(sc), simulate_dataset(sc)
        np.testing.assert_array_equal(a.pvalues, b.pvalues)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_seed_changes_draw(self):
        a = simulate_dataset(scenario_preset("S1", n=500, seed=0))
        b = simulate_dataset(scenario_preset("S1", n=500, seed=1))
        assert not np.array_equal(a.pvalues, b.pvalues)

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
        top = np.argsort(data.pvalues[0])[:1000]
        assert np.mean(data.truth[top] == GENUINE) > 0.95

    def test_signal_pvalues_smaller(self):
        sc = scenario_preset("S1", n=10_000, seed=5)
        data = simulate_dataset(sc)
        assert np.median(data.pvalues[0, data.truth == GENUINE]) < \
            np.median(data.pvalues[0, data.truth == 0])

    def test_replicates_correlated_only_through_signal(self):
        sc = scenario_preset("S1", n=20_000, seed=6)
        data = simulate_dataset(sc)
        noise = data.truth == 0
        r_noise = stats.pearsonr(*data.pvalues[:, noise]).statistic
        r_signal = stats.pearsonr(*data.pvalues[:, ~noise]).statistic
        assert abs(r_noise) < 0.03
        assert r_signal > 0.3

    def test_pvalues_within_open_interval(self):
        data = simulate_dataset(scenario_preset("S3", n=5000, seed=7))
        assert data.pvalues.shape == (2, 5000)
        assert np.all(data.pvalues > 0.0) and np.all(data.pvalues < 1.0)

    def test_scores_negate_pvalues(self):
        data = simulate_dataset(scenario_preset("S2", n=100, seed=8))
        np.testing.assert_array_equal(data.scores().scores, -data.pvalues)


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

    def test_threshold_calls_at_the_level(self):
        # rep1's BH value of p = 0.005 among two is exactly 0.01, which the
        # calibration selects at level 0.01; the trade-off calls it there too
        stats = method_statistics(np.array([0.005, 0.9]),
                                  np.array([0.5, 0.5]), np.array([0.01, 0.9]))
        assert stats["rep1"][0] == 0.01
        calls = {m: (incorrect, correct) for m, _, incorrect, correct
                 in threshold_calls(stats, np.array([True, False]), [0.01])}
        assert calls["rep1"] == calls["idr"] == (0, 1)


class TestMethodStatistics:
    def test_p_value_of_zero_is_rejected(self):
        # Fisher's log and Stouffer's probit of 0 are not p-values to adjust
        p = np.array([0.5, 0.0, 0.2])
        with pytest.raises(DomainError, match="outside"):
            method_statistics(np.full(3, 0.5), p, np.full(3, 0.5))


class TestExperiments:
    # tiny configurations keep these structural checks fast; statistical
    # behavior is exercised by the acceptance suite
    def _small(self):
        from idrkit.mixture import FitConfig

        return FitConfig(n_inits=3, rng_seed=0, refine_iters=10)

    def test_calibration_table_shape(self):
        sc = scenario_preset("S1", n=400, seed=0)
        rows = [row for row in scenario_report(
            sc, n_reps=2, fit_config=self._small()).calibration
            if row.nominal in (0.05, 0.1)]
        assert len(rows) == 2 * len(METHODS)
        methods = {row.method for row in rows}
        assert methods == set(METHODS)
        for row in rows:
            assert 0.0 <= row.empirical_fdr <= 1.0

    def test_discrimination_table_shape(self):
        sc = scenario_preset("S1", n=400, seed=1)
        rows = [row for row in scenario_report(
            sc, n_reps=2, fit_config=self._small()).tradeoff
            if row.threshold in (0.05, 0.2)]
        assert len(rows) == 2 * 2 * len(METHODS)
        methods = {row.method for row in rows}
        assert methods == set(METHODS)

    def test_scenario_report_consistency(self):
        sc = scenario_preset("S1", n=400, seed=2)
        report = scenario_report(sc, n_reps=2, fit_config=self._small())
        assert len(report.fit_rows) == 2
        for rep, pi1, mu1, sigma1_sq, rho1, loglik, converged in report.fit_rows:
            assert 0.0 < pi1 < 1.0
            assert sigma1_sq > 0.0
            assert np.isfinite(loglik)

    def test_every_fit_gets_threads(self, monkeypatch):
        # each replicate's fit gets the config's threads and its own seed
        handed = []

        def spy_fit(ranked, config):
            handed.append((config.rng_seed, config.threads))
            return fit(ranked, config)
        monkeypatch.setattr(idrkit.simulate, "fit", spy_fit)
        sc = scenario_preset("S1", n=400, seed=0)
        scenario_report(sc, n_reps=3,
                        fit_config=replace(self._small(), threads=3))
        assert handed == [(rep, 3) for rep in range(3)]

    def test_rejects_zero_reps(self):
        sc = scenario_preset("S1", n=400, seed=0)
        with pytest.raises(DomainError):
            scenario_report(sc, n_reps=0)


class TestOneCount:
    """The two simulation tables share one count of calls."""

    @staticmethod
    def _idr_prefixes(sc, n_reps, config, fit_rows):
        """(incorrect, correct) of the select_at_idr prefix at each level,
        one pair per replicate, from each replicate's own fit."""
        prefixes = {float(a): [] for a in NOMINAL_GRID}
        for rep in range(n_reps):
            data = simulate_dataset(replace(sc, seed=sc.seed + rep))
            result = fit(rank_scores(data.scores()),
                         replace(config, rng_seed=config.rng_seed + rep))
            assert fit_rows[rep][1:5] == astuple(result.theta)
            table = IdrTable.from_local_idr(1.0 - result.posterior)
            genuine = data.truth == GENUINE
            for a, pairs in prefixes.items():
                called = genuine[table.original_index[
                    :select_at_idr(table, a)]]
                correct = int(np.count_nonzero(called))
                pairs.append((called.size - correct, correct))
        return prefixes

    @pytest.mark.parametrize("name", ["S1", "S4"])
    def test_calibration_is_the_tradeoff_counts(self, name):
        # a baseline's calibration row is the replicate mean of incorrect /
        # (incorrect + correct), or 0 when nothing is called, and of
        # incorrect + correct from its trade-off rows at the same level;
        # an idr row takes the same means over the select_at_idr prefixes
        sc = scenario_preset(name, n=500, seed=3)
        config = FitConfig(n_inits=3, rng_seed=1, refine_iters=10)
        report = scenario_report(sc, n_reps=3, fit_config=config)
        counts = self._idr_prefixes(sc, 3, config, report.fit_rows)
        counts = {("idr", a): pairs for a, pairs in counts.items()}
        for row in report.tradeoff:
            if row.method != "idr":
                counts.setdefault((row.method, row.threshold), []).append(
                    (row.incorrect, row.correct))
        assert [(row.method, row.nominal) for row in report.calibration] == \
            [(m, float(a)) for m in METHODS for a in NOMINAL_GRID]
        for row in report.calibration:
            pairs = counts[row.method, row.nominal]
            assert len(pairs) == 3
            assert row.empirical_fdr == np.mean(
                [i / (i + c) if i + c else 0.0 for i, c in pairs]), row
            assert row.n_selected == np.mean([i + c for i, c in pairs]), row
        assert all(row.n_selected > 0 for row in report.calibration
                   if row.nominal == 0.2)
