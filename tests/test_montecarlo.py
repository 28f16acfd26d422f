import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdistill import (
    GhzSpec,
    IndexPartition,
    InvalidSpecError,
    WorkCapExceededError,
    WSpec,
    run_stats,
)
from qdistill import montecarlo
from qdistill.montecarlo import (
    _tiling,
    outcome_distribution,
    philox_words,
    simulate_trial,
    survives,
    trial_rng,
)
from qdistill.states import perfect_ghz
from qdistill.ted import overall_success, success_prob_per_copy

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

    def test_caps_outcome_enumeration(self):
        # 2**17 strings would be enumerated one filter layer at a time
        config = ghz_config(GhzSpec(2, 18, (0.6, 0.8)), n=3, q=17)
        with pytest.raises(WorkCapExceededError):
            outcome_distribution(config)
        # run_stats needs p_u alone, so the reference's cap does not bind it
        trials = 20000
        stats = run_stats(config, trials, seed=0)
        assert sum(stats.kept_count_histogram.values()) == trials
        expected = overall_success(2 * 0.6**2, config.n_copies)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(stats.success_rate - expected) <= 5 * sigma


def unit_coeffs(draw, size: int) -> tuple[float, ...]:
    """Unit vector of positive coefficients, sorted ascending."""
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
    return tuple(np.sort(raw / np.linalg.norm(raw)))


@st.composite
def ghz_configs(draw, max_d: int = 5, max_p: int = 6):
    d, p = draw(st.integers(2, max_d)), draw(st.integers(2, max_p))
    q = draw(st.integers(1, p - 1))
    partition = None
    if draw(st.booleans()):
        owners = draw(st.lists(st.integers(0, q - 1), min_size=d - 1, max_size=d - 1))
        partition = IndexPartition(tuple(
            frozenset(i for i, o in enumerate(owners, start=1) if o == k) for k in range(q)
        ))
    return ghz_config(GhzSpec(d, p, unit_coeffs(draw, d)), q=q, partition=partition)


@st.composite
def w_configs(draw, max_p: int = 8):
    p = draw(st.integers(2, max_p))
    return w_config(WSpec(p, unit_coeffs(draw, p)))


# run_stats keeps a copy iff u < success_prob_per_copy(config); that is the
# reference draw only if it equals the all-zeros probability bit for bit
@settings(max_examples=150)
@given(config=ghz_configs())
def test_ghz_success_prob_equals_reference_all_zeros_probability(config):
    assert success_prob_per_copy(config) == outcome_distribution(config)[1][0]


@settings(max_examples=150)
@given(config=w_configs())
def test_w_success_prob_equals_reference_all_zeros_probability(config):
    assert success_prob_per_copy(config) == outcome_distribution(config)[1][0]


def stream_order(words):
    """philox_words' four per-word arrays as one (4 * blocks, count) array,
    a trial's words down its column in stream order."""
    return np.stack(words, axis=1).reshape(-1, words[0].shape[1])


class TestPhiloxUniforms:
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**64 - 64),
        count=st.integers(1, 64),
        m=st.integers(1, 13),
    )
    @example(seed=2**64 - 1, start=2**64 - 64, count=64, m=5)
    @example(seed=2**64 - 1, start=2**64 - 7, count=7, m=13)
    @example(seed=0, start=0, count=1, m=1)
    def test_matches_numpy_philox_bit_for_bit(self, seed, start, count, m):
        # numpy's uniform is (w >> 11) * 2**-53 of the same word, so equal words
        # are equal draws for run_stats and the reference alike
        blocks = -(-m // 4)
        got = stream_order(philox_words(seed, start, count, 0, blocks))[:m].T
        want = np.array([trial_rng(seed, start + t).bit_generator.random_raw(m)
                         for t in range(count)])
        assert got.dtype == want.dtype and np.array_equal(got, want)


# a multiple of 2**-53 (k = 3 * 2**51 + 5): its neighbouring doubles sit on
# either side of a step of the integer threshold
EDGE_U = (3 * 2**51 + 5) * 2.0**-53


@given(pu=st.floats(0.0, 1.0 + 1e-12))
@example(pu=0.0)
@example(pu=5e-324)
@example(pu=0.5)
@example(pu=0.25 + 2**-53)
@example(pu=float(np.nextafter(EDGE_U, 0.0)))
@example(pu=EDGE_U)
@example(pu=float(np.nextafter(EDGE_U, 1.0)))
@example(pu=1 - 2**-53)
@example(pu=1.0)
@example(pu=1 + 1e-13)
def test_integer_threshold_equals_float_comparison(pu):
    """survives against the float comparison simulate_trial makes, on Philox
    words and on the words whose top 53 bits sit next to the threshold."""
    k = min(math.floor(pu * 2.0**53), 2**53 - 1)
    edge = [(j << 11) | low for j in range(max(k - 1, 0), min(k + 2, 2**53)) for low in (0, 2047)]
    drawn = stream_order(philox_words(3, 0, 1, 0, 64))[:, 0]
    words = np.concatenate((drawn, np.array(edge, dtype=np.uint64)))
    assert np.array_equal(survives(words, pu), (words >> np.uint64(11)) * 2.0**-53 < pu)


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
        for trials in (0, -1):
            with pytest.raises(InvalidSpecError):
                run_stats(ghz_config(SQRT8_SPEC), trials, seed=1)

    def test_rejects_seed_outside_philox_key_range(self):
        for seed in (-1, 2**64):
            with pytest.raises(InvalidSpecError):
                run_stats(ghz_config(SQRT8_SPEC), 1, seed=seed)
        assert run_stats(ghz_config(SQRT8_SPEC), 1, seed=2**64 - 1).trials == 1


def loop_kept_counts(config, trials, seed):
    """Surviving filtered copies per trial, one simulate_trial at a time."""
    counts = []
    for i in range(trials):
        record = simulate_trial(config, trial_rng(seed, i))
        counts.append(len(record.kept_copies) if record.success else 0)
    return counts


BATCH_CONFIGS = {
    "ghz-q1": lambda n: ghz_config(SQRT8_SPEC, n=n, q=1),
    "ghz-q2": lambda n: ghz_config(GhzSpec(2, 4, (0.6, 0.8)), n=n, q=2),
    "w-q3": lambda n: w_config(WSpec(4, (0.4, 0.45, 0.5, math.sqrt(0.3875))), n=n),
}
BATCH_SEEDS = (0, 2**63, 2**64 - 1)


# N = 2..5 end a trial's one block after 1..4 used words, N = 6 and 9 use
# 1 and 4 words of the second block
LOOP_NS = (2, 3, 4, 5, 6, 9)


@pytest.mark.parametrize("n", LOOP_NS)
@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_run_stats_equals_per_trial_loop(name, n):
    """Batched run_stats against the literal loop, at and around the tile
    boundaries; every seed meets every config and every N."""
    config = BATCH_CONFIGS[name](n)
    seed = BATCH_SEEDS[(sorted(BATCH_CONFIGS).index(name) + LOOP_NS.index(n)) % 3]
    chunk = _tiling(n - 1)[2]  # trials per tile
    trial_counts = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)
    # a run of T trials is trials 0..T-1, so one loop serves every T
    kept = loop_kept_counts(config, max(trial_counts), seed)
    for trials in trial_counts:
        stats = run_stats(config, trials, seed)
        hist = np.bincount(kept[:trials])
        expected = {k: int(c) for k, c in enumerate(hist) if c}
        assert stats.kept_count_histogram == expected
        assert stats.success_rate == (trials - expected.get(0, 0)) / trials


@pytest.mark.parametrize("n", (2, 5, 6, 9, 18))
@pytest.mark.parametrize("tile", (1, 2, 3))
def test_run_stats_streams_trials_across_tiles(monkeypatch, tile, n):
    """With tiny tiles one trial spans several tiles (N = 18 has five
    blocks, the last holding one copy); histograms still equal the loop."""
    monkeypatch.setattr(montecarlo, "_CHUNK_BLOCKS", tile)
    name = sorted(BATCH_CONFIGS)[(n + tile) % 3]
    config, seed = BATCH_CONFIGS[name](n), BATCH_SEEDS[tile - 1]
    chunk = _tiling(n - 1)[2]
    trial_counts = (1, chunk, chunk + 1, 3 * chunk + 2)
    kept = loop_kept_counts(config, max(trial_counts), seed)
    for trials in trial_counts:
        hist = np.bincount(kept[:trials])
        expected = {k: int(c) for k, c in enumerate(hist) if c}
        assert run_stats(config, trials, seed).kept_count_histogram == expected


def test_one_long_trial_holds_one_tile_of_memory():
    """A trial of 10**6 filtered copies is counted tile by tile: the traced
    peak stays under 2 MiB, where its 10**6 uniforms alone would take 8 MB."""
    config, seed = ghz_config(SQRT8_SPEC, n=10**6 + 1), 2**64 - 1
    want = int(np.count_nonzero(trial_rng(seed, 0).random(10**6) < success_prob_per_copy(config)))
    tracemalloc.start()
    try:
        stats = run_stats(config, 1, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert stats.kept_count_histogram == {want: 1}
