import math

import numpy as np
import pytest
import scipy.stats

from qdistill import GhzSpec, InvalidSpecError, WSpec, perfect_ghz, run_stats, simulate_trial
from qdistill.montecarlo import outcome_distribution, trial_rng
from qdistill.ted import overall_success

from conftest import ghz_config, random_ghz_spec, w_config

SQRT8_SPEC = GhzSpec(3, 3, (1 / math.sqrt(8), math.sqrt(7 / 16), math.sqrt(7 / 16)))
W_TOY_SPEC = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))


def binomial_chi2_pvalue(histogram: dict[int, int], n_minus_1: int, p: float, trials: int) -> float:
    """Chi-squared goodness of fit vs Binomial(n-1, p), merging thin bins."""
    observed = np.array([histogram.get(k, 0) for k in range(n_minus_1 + 1)], dtype=float)
    expected = np.array([
        scipy.stats.binom.pmf(k, n_minus_1, p) * trials for k in range(n_minus_1 + 1)
    ])
    # merge cells with expected < 5 into their left neighbor
    obs_m, exp_m = [], []
    for o, e in zip(observed, expected):
        if exp_m and exp_m[-1] < 5:
            obs_m[-1] += o
            exp_m[-1] += e
        else:
            obs_m.append(o)
            exp_m.append(e)
    if len(exp_m) > 1 and exp_m[-1] < 5:
        obs_m[-2] += obs_m.pop()
        exp_m[-2] += exp_m.pop()
    exp_m = np.array(exp_m) * (sum(obs_m) / sum(exp_m))
    stat, pvalue = scipy.stats.chisquare(obs_m, exp_m)
    return float(pvalue)


class TestOutcomeDistribution:
    def test_all_zeros_first_and_sums_to_one(self, rng):
        for q in (1, 2, 3):
            spec = random_ghz_spec(rng, 3, 4)
            strings, probs = outcome_distribution(ghz_config(spec, q=q))
            assert strings[0] == (0,) * q
            assert len(strings) == 2**q
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert probs[0] == pytest.approx(3 * spec.alphas[0] ** 2, abs=1e-12)

    def test_w_distribution(self):
        strings, probs = outcome_distribution(w_config(W_TOY_SPEC, n=3))
        assert probs[0] == pytest.approx(0.375, abs=1e-14)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestSimulateTrial:
    def test_record_invariants(self, rng):
        config = ghz_config(SQRT8_SPEC, n=6, q=2)
        for i in range(200):
            record = simulate_trial(config, trial_rng(7, i))
            n = config.n_copies
            q = len(record.outcome_strings)
            assert q == 2
            assert all(len(s) == n for s in record.outcome_strings)
            # a copy u (1-based, u < n) is kept iff all participants reported 0
            kept = tuple(
                u for u in range(1, n)
                if all(record.outcome_strings[k][u - 1] == 0 for k in range(q))
            )
            assert record.success == bool(kept)
            if kept:
                assert record.kept_copies == kept
                assert not record.final_copy_is_unfiltered
                assert all(s[-1] == 1 for s in record.outcome_strings)
            else:
                assert record.kept_copies == (n,)
                assert record.final_copy_is_unfiltered
                assert all(s[-1] == 0 for s in record.outcome_strings)

    def test_perfect_spec_always_succeeds(self):
        config = ghz_config(perfect_ghz(3, 3), n=4)
        for i in range(50):
            record = simulate_trial(config, trial_rng(1, i))
            assert record.success
            assert record.kept_copies == (1, 2, 3)


class TestRunStats:
    def test_deterministic(self):
        config = ghz_config(SQRT8_SPEC, n=5)
        a = run_stats(config, 2000, seed=123)
        b = run_stats(config, 2000, seed=123)
        assert a == b
        c = run_stats(config, 2000, seed=124)
        assert c.success_rate != a.success_rate or c.kept_count_histogram != a.kept_count_histogram

    def test_single_trial_uses_substream_zero(self):
        config = ghz_config(SQRT8_SPEC, n=5)
        stats = run_stats(config, 1, seed=55)
        record = simulate_trial(config, trial_rng(55, 0))
        assert stats.success_rate == float(record.success)

    def test_histogram_counts_sum_to_trials(self):
        config = ghz_config(SQRT8_SPEC, n=5)
        stats = run_stats(config, 3000, seed=9)
        assert sum(stats.kept_count_histogram.values()) == 3000
        assert set(stats.kept_count_histogram) <= set(range(config.n_copies))

    def test_success_rate_within_3_sigma(self):
        config = ghz_config(SQRT8_SPEC, n=5)
        trials = 20000
        stats = run_stats(config, trials, seed=42)
        expected = overall_success(0.375, 5)  # 0.847412109375
        assert expected == pytest.approx(0.847412109375, abs=1e-15)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(stats.success_rate - expected) <= 3 * sigma

    def test_w_success_rate_within_3_sigma(self):
        config = w_config(W_TOY_SPEC, n=3)
        trials = 20000
        stats = run_stats(config, trials, seed=7)
        expected = 1 - 0.625**2
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(stats.success_rate - expected) <= 3 * sigma

    def test_kept_histogram_binomial(self):
        config = ghz_config(SQRT8_SPEC, n=6)
        trials = 20000
        stats = run_stats(config, trials, seed=11)
        pvalue = binomial_chi2_pvalue(stats.kept_count_histogram, 5, 0.375, trials)
        assert pvalue > 0.001

    def test_rejects_zero_trials(self):
        with pytest.raises(Exception):
            run_stats(ghz_config(SQRT8_SPEC), 0, seed=1)

    def test_rejects_seed_outside_philox_key_range(self):
        for seed in (-1, 2**64):
            with pytest.raises(InvalidSpecError):
                run_stats(ghz_config(SQRT8_SPEC), 1, seed=seed)
        assert run_stats(ghz_config(SQRT8_SPEC), 1, seed=2**64 - 1).trials == 1
