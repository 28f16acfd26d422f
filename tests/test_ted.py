import collections
import decimal
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import (
    Family,
    GhzSpec,
    IndexPartition,
    InvalidSpecError,
    PivotNotMaximalError,
    PivotNotMinimalError,
    ProtocolConfig,
    SteeringConfig,
    WSpec,
    make_compact,
    overall_success,
    run_stats,
    run_ted,
    run_tsd,
    success_prob_per_copy,
)
import qdistill.cli
import qdistill.ted
from qdistill.errors import (
    BadPartitionError,
    DimensionMismatchError,
    InvalidSteeringScenarioError,
    WorkCapExceededError,
)
from qdistill.filters import FilterAssignment, span_multiplier, zero_layer_multiplier
from qdistill.linalg import _root_fidelity
from qdistill.states import make_dense, perfect_ghz, perfect_like, perfect_w
from qdistill.sweep import grid_rows
from qdistill.ted import (
    SPEC_CACHE_SIZE,
    DistillationReport,
    _compact_zero_layer,
    apply_filter_layer,
    assignment_for,
    closed_form_fidelity,
    fidelity_from_success,
    results_at,
    spec_context,
    w_success_probability,
)

from conftest import (
    CORPUS_SEED,
    ORACLE_FIDELITY_TOL,
    contiguous_partition,
    dense_mixture,
    dense_report,
    dense_vector,
    ghz_config,
    ghz_corpus,
    oracle_layer,
    oracle_state_fidelity,
    oracle_w_law,
    random_ghz_spec,
    random_w_spec,
    w_config,
    w_corpus,
)
from test_cli import ALPHAS_SQRT8
from test_montecarlo import ghz_configs, w_configs
import itertools

SQRT8_SPEC = GhzSpec(3, 3, (1 / math.sqrt(8), math.sqrt(7 / 16), math.sqrt(7 / 16)))
W_TOY_SPEC = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))

# frozen oracle values (independently recomputed in the assertions below)
GHZ_TOY_F_N2 = 0.9605029888944762
W_TOY_F_N3 = 0.9888298909339968


class TestApplyFilterLayer:
    def test_perfect_spec_all_zero_outcomes(self):
        spec = perfect_ghz(3, 3)
        assignment = assignment_for(spec, 1)
        state = make_compact(spec)
        out, prob = apply_filter_layer(state, spec, assignment, (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, state)

    def test_ghz3_success_branch(self):
        assignment = assignment_for(SQRT8_SPEC, 1)
        out, prob = apply_filter_layer(make_compact(SQRT8_SPEC), SQRT8_SPEC, assignment, (0,))
        assert prob == pytest.approx(3 / 8, abs=1e-14)
        normalized = dense_vector(out, SQRT8_SPEC) / np.sqrt(prob)
        perfect = make_dense(perfect_ghz(3, 3))
        assert np.max(np.abs(normalized - perfect)) < 1e-12

    def test_compact_equals_dense_all_outcomes(self, rng):
        # the compact layer against the Kronecker-product oracle on dense vectors
        for spec, q in [
            (random_ghz_spec(rng, 3, 4), 2),
            (random_ghz_spec(rng, 4, 3), 1),
            (random_w_spec(rng, 4), 3),
        ]:
            assignment = assignment_for(spec, q)
            psi = make_dense(spec)
            for outcome in itertools.product((0, 1), repeat=assignment.q):
                got, gprob = apply_filter_layer(make_compact(spec), spec, assignment, outcome)
                want, wprob = oracle_layer(assignment, outcome, psi)
                assert gprob == pytest.approx(wprob, abs=1e-13)
                assert np.allclose(dense_vector(got, spec), want, atol=1e-13)

    def test_outcome_probabilities_sum_to_one(self, rng):
        for q in (1, 2, 3):
            spec = random_ghz_spec(rng, 4, 4)
            assignment = assignment_for(spec, q)
            total = sum(
                apply_filter_layer(make_compact(spec), spec, assignment, oc)[1]
                for oc in itertools.product((0, 1), repeat=q)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
        st.integers(2, 4),
        st.data(),
    )
    def test_outcome_probabilities_sum_to_one_hypothesis(self, raw, p, data):
        vec = np.sort(np.asarray(raw) / np.linalg.norm(raw))
        spec = GhzSpec(len(vec), p, tuple(vec))
        q = data.draw(st.integers(1, p - 1))
        assignment = assignment_for(spec, q)
        total = sum(
            apply_filter_layer(make_compact(spec), spec, assignment, oc)[1]
            for oc in itertools.product((0, 1), repeat=q)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_layer_matches_kron_oracle(self, rng):
        # every outcome of a two-copy layer, checked on the dense vector it spans
        spec = random_ghz_spec(rng, 3, 3)
        assignment = assignment_for(spec, 2)
        psi = make_dense(spec)
        for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            got, gprob = apply_filter_layer(make_compact(spec), spec, assignment, outcome)
            want, wprob = oracle_layer(assignment, outcome, psi)
            assert gprob == pytest.approx(wprob, abs=1e-13)
            assert np.allclose(dense_vector(got, spec), want, atol=1e-13)

    def test_empty_layer_probability_is_squared_norm(self):
        # no participant: the layer is the identity
        empty = FilterAssignment(2, (), np.ones((0, 2)))
        compact = np.array([0.6, 0.6])  # unnormalized, as a layer's output is
        out, prob = apply_filter_layer(compact, perfect_ghz(2, 2), empty, ())
        assert np.array_equal(out, compact)
        assert prob == pytest.approx(0.72, abs=1e-15)

    def test_assignment_for_fewer_parties_than_state(self):
        spec4 = GhzSpec(3, 4, SQRT8_SPEC.alphas)
        assignment = assignment_for(SQRT8_SPEC, 1)  # 3 parties
        with pytest.raises(DimensionMismatchError):
            apply_filter_layer(make_compact(spec4), spec4, assignment, (0,))

    def test_assignment_for_more_parties_than_state(self):
        spec4 = GhzSpec(3, 4, SQRT8_SPEC.alphas)
        assignment = assignment_for(spec4, 1)
        with pytest.raises(DimensionMismatchError):
            apply_filter_layer(make_compact(SQRT8_SPEC), SQRT8_SPEC, assignment, (0,))

    def test_filters_of_another_local_dimension(self):
        assignment = FilterAssignment(3, (2,), np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            apply_filter_layer(make_compact(SQRT8_SPEC), SQRT8_SPEC, assignment, (0,))

    @staticmethod
    def assert_layer_matches_oracle(config):
        # every outcome string, the nonzero ones reaching the K1 rows too
        assignment = assignment_for(config.spec, config.q, config.partition)
        state, psi = make_compact(config.spec), make_dense(config.spec)
        for outcome in itertools.product((0, 1), repeat=assignment.q):
            got, gprob = apply_filter_layer(state, config.spec, assignment, outcome)
            want, wprob = oracle_layer(assignment, outcome, psi)
            assert abs(gprob - wprob) <= 1e-13
            assert np.max(np.abs(dense_vector(got, config.spec) - want)) <= 1e-13

    @settings(max_examples=15)  # up to 2^9 outcome strings, each through the oracle
    @given(config=w_configs(max_p=10))
    def test_w_layer_matches_oracle_on_every_outcome(self, config):
        self.assert_layer_matches_oracle(config)

    def test_w_layer_matches_oracle_at_nine_and_ten_parties(self, rng):
        # the sizes the drawn examples above seldom reach
        for p in (9, 10):
            self.assert_layer_matches_oracle(w_config(random_w_spec(rng, p)))

    @given(config=ghz_configs(max_d=6, max_p=5))
    def test_ghz_layer_matches_oracle_on_every_outcome(self, config):
        self.assert_layer_matches_oracle(config)


class TestSuccessProbability:
    def test_ghz_toy_value(self):
        assert success_prob_per_copy(ghz_config(SQRT8_SPEC)) == pytest.approx(0.375, abs=1e-14)

    def test_w_toy_value(self):
        config = w_config(W_TOY_SPEC, n=3)
        assert success_prob_per_copy(config) == pytest.approx(0.375, abs=1e-14)
        # dense oracle route through the 8-dim state
        assert dense_report(config).p_success_per_copy == pytest.approx(0.375, abs=1e-14)

    def test_perfect_specs_succeed_surely(self):
        assert success_prob_per_copy(ghz_config(perfect_ghz(3, 3))) == pytest.approx(1.0, abs=1e-12)
        assert success_prob_per_copy(w_config(perfect_w(4))) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_matches_closed_form_both_representations(self, rng):
        for _ in range(20):
            d, p = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            spec = random_ghz_spec(rng, d, p)
            q = int(rng.integers(1, p))
            expected = d * spec.alphas[0] ** 2
            config = ghz_config(spec, q=q)
            for got in (success_prob_per_copy(config), dense_report(config).p_success_per_copy):
                assert got == pytest.approx(expected, abs=1e-12)

    def test_w_matches_closed_form(self, rng):
        for _ in range(20):
            p = int(rng.integers(3, 8))
            spec = random_w_spec(rng, p)
            be = np.array(spec.betas)
            expected = p * np.prod(be**2) / be[-1] ** (2 * (p - 1))
            got = success_prob_per_copy(w_config(spec))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_w_formula_never_exceeds_one(self, rng):
        # with beta_{p-1} maximal the success formula is a probability
        for _ in range(10_000):
            p = int(rng.integers(2, 9))
            be = rng.uniform(0.05, 1.0, p)
            be /= np.linalg.norm(be)
            be.sort()
            value = p * float(np.prod(be**2)) / be[-1] ** (2 * (p - 1))
            assert value <= 1.0 + 1e-12


class TestOverallSuccess:
    def test_certain(self):
        assert overall_success(1.0, 7) == 1.0

    def test_single_filtered_copy(self):
        assert overall_success(0.375, 2) == pytest.approx(0.375, abs=1e-15)

    def test_five_copies(self):
        assert overall_success(0.375, 5) == pytest.approx(0.847412109375, abs=1e-15)

    def test_bad_inputs(self):
        with pytest.raises(InvalidSpecError):
            overall_success(1.5, 3)
        with pytest.raises(InvalidSpecError):
            overall_success(0.5, 1)

    def test_copy_counts_past_float_range_take_the_limit(self):
        # (1 - p)^(n-1) at n - 1 = 10^400, which no float holds; 1 - 1e-300
        # rounds to 1, as it does at every n in float range
        huge = 10**400
        assert [overall_success(p, huge) for p in (0.0, 1e-300, 0.375, 1.0)] == [0.0, 0.0, 1.0, 1.0]
        assert fidelity_from_success(0.375, 3, 0.5, huge) == 1.0
        assert fidelity_from_success(0.0, 3, 0.5, huge) == 1.0 - 0.5 / 3
        report = run_ted(ghz_config(SQRT8_SPEC, n=huge))
        assert (report.p_success_overall, report.fidelity_closed_form) == (1.0, 1.0)

    def test_copy_counts_in_float_range_keep_the_power_law(self):
        for n in (2, 3, 50, 10**6, 10**300, int(sys.float_info.max) + 1):
            for p in (0.0, 1e-300, 0.375, 1.0 - 2.0**-53, 1.0):
                assert overall_success(p, n) == 1.0 - (1.0 - p) ** (n - 1)
                assert fidelity_from_success(p, 3, 0.5, n) == 1.0 - (1.0 - p) ** (n - 1) * 0.5 / 3


class TestClosedFormFidelity:
    def test_perfect_is_one(self):
        for n in (2, 5, 50):
            assert closed_form_fidelity(perfect_ghz(4, 3), n) == pytest.approx(1.0, abs=1e-12)
            assert closed_form_fidelity(perfect_w(4), n) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_toy_frozen_value(self):
        got = closed_form_fidelity(SQRT8_SPEC, 2)
        assert got == pytest.approx(GHZ_TOY_F_N2, abs=1e-12)
        # independent recomputation from the mixture definition
        al = np.array(SQRT8_SPEC.alphas)
        ps = 1 - (1 - 3 * al[0] ** 2) ** 1
        overlap = (al.sum() / math.sqrt(3)) ** 2
        assert got == pytest.approx(ps + (1 - ps) * overlap, abs=1e-14)

    def test_w_toy_frozen_value(self):
        got = closed_form_fidelity(W_TOY_SPEC, 3)
        assert got == pytest.approx(W_TOY_F_N3, abs=1e-12)

    def test_w_monotone_in_n(self):
        vals = [closed_form_fidelity(W_TOY_SPEC, n) for n in range(2, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ghz_convergence_at_n50(self):
        # equal-tail curves: deviation from 1 at N = 50
        for a0sq, expected_dev in [(1 / 8, 6.292e-12), (1 / 9, 1.7426e-10), (1 / 10, 2.1536e-9)]:
            a0 = math.sqrt(a0sq)
            tail = math.sqrt((1 - a0sq) / 2)
            spec = GhzSpec(3, 3, (a0, tail, tail))
            dev = 1.0 - closed_form_fidelity(spec, 50)
            assert dev == pytest.approx(expected_dev, rel=1e-3)

    def test_requires_minimal_pivot(self):
        spec = GhzSpec(3, 3, (0.8, 0.3, math.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(PivotNotMinimalError):
            closed_form_fidelity(spec, 2)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_every_entry_point_keeps_the_filters_pivot_rule(self, family):
        # a pivot off by 5e-13 relative is inside the filters' PIVOT_TOL
        # (1e-12), so every entry point runs; one off by 5e-12 is refused by
        # every entry point with the same category
        for rel, refused in ((5e-13, False), (5e-12, True)):
            if family == "ghz":
                a0, a1 = 0.5, 0.5 * (1 - rel)
                spec = GhzSpec(3, 3, (a0, a1, math.sqrt(1 - a0 * a0 - a1 * a1)))
                config, error = ghz_config(spec, n=3), PivotNotMinimalError
            else:
                b1, b2 = 0.7 * (1 + rel), 0.7
                spec = WSpec(3, (math.sqrt(1 - b1 * b1 - b2 * b2), b1, b2))
                config, error = w_config(spec, n=3), PivotNotMaximalError
            calls = (
                lambda: closed_form_fidelity(spec, 3), lambda: run_ted(config),
                lambda: run_tsd(SteeringConfig(config, 1)), lambda: run_stats(config, 10, 0),
            )
            for call in calls:
                if refused:
                    with pytest.raises(error):
                        call()
                else:
                    call()

    def test_fidelity_from_success_shape(self):
        assert fidelity_from_success(0.3, 3, 0.5, 2) == pytest.approx(1 - 0.7 * 0.5 / 3)

    @pytest.mark.parametrize("n", [2, 5, 37])
    def test_run_paths_give_the_public_closed_form_bit_for_bit(self, n):
        # run_ted reads the closed form's terms from the cached spec context
        # and run_tsd from an uncached one; both must keep the public
        # function's bits, not merely its value
        for spec in ghz_corpus() + w_corpus():
            config = (ghz_config if isinstance(spec, GhzSpec) else w_config)(spec, n=n)
            expected = closed_form_fidelity(spec, n)
            assert run_ted(config).fidelity_closed_form == expected
            assert run_tsd(SteeringConfig(config, 1)).fidelity_closed_form == expected


def modeled_mixture(report: DistillationReport, spec) -> tuple:
    """The mixture a ``run_ted`` report models, built apart from the package's
    context: (P_s, perfect), (1 - P_s, initial), with the report's P_s and
    ``make_compact`` of the spec's uniform target and of the spec."""
    ps = report.p_success_overall
    return (ps, make_compact(perfect_like(spec))), (1.0 - ps, make_compact(spec))


class TestDistilledState:
    def test_perfect_input_stays_pure(self):
        # the perfect weight P_s is 1: the mixture is the target alone
        report = run_ted(ghz_config(perfect_ghz(2, 2), n=4))
        assert report.p_success_overall == pytest.approx(1.0, abs=1e-12)

    def test_weight_approaches_one(self):
        weights = [
            run_ted(ghz_config(SQRT8_SPEC, n=n)).p_success_overall
            for n in (2, 5, 10, 20, 45)
        ]
        assert weights[0] == pytest.approx(0.375, abs=1e-12)
        assert all(b > a for a, b in zip(weights, weights[1:]))
        assert weights[-1] > 1 - 1e-8  # 0.625**44 ~ 1e-9

    def test_mixture_fidelity_against_oracle(self):
        config = ghz_config(SQRT8_SPEC, n=2)
        report = run_ted(config)
        dense = dense_mixture(modeled_mixture(report, SQRT8_SPEC), SQRT8_SPEC)
        perfect = make_dense(perfect_ghz(3, 3))
        via_matrix = _root_fidelity(dense, np.outer(perfect, perfect.conj())) ** 2
        via_shortcut = np.vdot(perfect, dense @ perfect).real
        closed = closed_form_fidelity(SQRT8_SPEC, 2)
        assert via_matrix == pytest.approx(closed, abs=1e-10)
        assert via_shortcut == pytest.approx(closed, abs=1e-12)


class TestRunTed:
    def test_report_consistency_ghz(self):
        report = run_ted(ghz_config(SQRT8_SPEC, n=2))
        assert report.p_success_per_copy == pytest.approx(0.375, abs=1e-14)
        assert report.p_success_overall == pytest.approx(0.375, abs=1e-14)
        assert report.fidelity_closed_form == pytest.approx(GHZ_TOY_F_N2, abs=1e-12)
        assert abs(report.fidelity_closed_form - report.fidelity_numeric) <= 1e-9

    def test_report_consistency_w(self):
        report = run_ted(w_config(W_TOY_SPEC, n=3))
        assert report.fidelity_closed_form == pytest.approx(W_TOY_F_N3, abs=1e-12)
        assert report.p_success_overall == pytest.approx(1 - 0.625**2, abs=1e-14)

    def test_compact_and_dense_reports_agree(self, rng):
        for _ in range(10):
            spec = random_ghz_spec(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            config = ghz_config(spec, n=4)
            compact, dense = run_ted(config), dense_report(config)
            for field in ("p_success_per_copy", "p_success_overall",
                          "fidelity_closed_form", "fidelity_numeric"):
                assert getattr(compact, field) == pytest.approx(
                    getattr(dense, field), abs=1e-12
                )

    def test_q_invariance_of_reports(self, rng):
        spec = random_ghz_spec(rng, 3, 4)
        reports = [run_ted(ghz_config(spec, n=3, q=q)) for q in (1, 2, 3)]
        for r in reports[1:]:
            assert r.p_success_per_copy == pytest.approx(
                reports[0].p_success_per_copy, abs=1e-12
            )
            assert r.fidelity_numeric == pytest.approx(
                reports[0].fidelity_numeric, abs=1e-12
            )

    def test_numeric_fidelity_matches_full_uhlmann_oracle(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        report = run_ted(ghz_config(spec, n=3))
        rho = dense_mixture(modeled_mixture(report, spec), spec)
        perfect = make_dense(perfect_ghz(3, 3))
        target = np.outer(perfect, perfect.conj())
        assert report.fidelity_numeric == pytest.approx(
            oracle_state_fidelity(rho, target), abs=ORACLE_FIDELITY_TOL
        )


# a handmade spec context for results_at, n = 3: p_u = 0.5 gives ps = 0.75,
# and with gap 0.4 over size 2 both fidelities are 0.95
def handmade_context(pu=0.5, overlap=0.8, terms=(0.5, 2, 0.4)):
    return pu, None, None, overlap, terms


class TestResultsAt:
    """results_at is the one check of a report's numbers: every report and
    every sweep row that runs the engine takes them from it."""

    def test_a_consistent_context_passes(self):
        pu, ps, closed, numeric = results_at(handmade_context(), 3)
        assert (pu, ps) == (0.5, 0.75)
        assert closed == pytest.approx(0.95, abs=1e-15)
        assert numeric == pytest.approx(0.95, abs=1e-15)

    def test_refuses_disagreeing_fidelities(self):
        for context in (handmade_context(overlap=0.7), handmade_context(terms=(0.5, 2, 0.5)),
                        handmade_context(overlap=0.8 + 1e-8)):  # numeric 2.5e-9 off
            with pytest.raises(InvalidSpecError, match="fidelities disagree"):
                results_at(context, 3)

    def test_refuses_non_finite_terms(self):
        nan, inf = math.nan, math.inf
        for context in (
            handmade_context(overlap=nan),
            handmade_context(overlap=inf),
            handmade_context(terms=(nan, 2, 0.4)),
            handmade_context(terms=(0.5, 2, nan)),
            handmade_context(terms=(0.5, 2, inf)),
            handmade_context(overlap=inf, terms=(0.5, 2, -inf)),  # both fidelities +inf
        ):
            with pytest.raises(InvalidSpecError, match="fidelities disagree"):
                results_at(context, 3)

    def test_refuses_success_outside_unit_interval(self):
        # gap 0 and overlap 1 make both fidelities 1 at any p_u, so only the
        # range check can refuse these
        for pu in (-0.25, -1e-9, 1.0 + 1e-9, 1.5, math.nan):
            with pytest.raises(InvalidSpecError, match="outside"):
                results_at(handmade_context(pu, 1.0, (pu, 2, 0.0)), 3)


W_LARGE_P = (200, 400, 1000)


def near_uniform_w_spec(p: int) -> WSpec:
    """beta_i^2 proportional to 1 + 2i/P^2: beta_{P-1} is maximal and p_u
    stays near 0.37 at every P."""
    w = 1 + 2 * np.arange(p) / p**2
    return WSpec(p, tuple(np.sqrt(w / w.sum())))


def rel_error(got: float, exact: decimal.Decimal) -> float:
    return float(abs(decimal.Decimal(got) - exact) / exact)


class TestWLargeP:
    """The W law at P >= 200, where prod(beta^2) and beta_max^(2(P-1)) both
    underflow as doubles, against the 50-digit decimal oracle."""

    @pytest.mark.parametrize("p", W_LARGE_P)
    def test_near_uniform_matches_decimal_oracle(self, p):
        spec = near_uniform_w_spec(p)
        for n in (2, 5, 50):
            report = run_ted(w_config(spec, n=n))
            pu, fidelity = oracle_w_law(spec.betas, n)
            assert all(math.isfinite(v) for v in (
                report.p_success_per_copy, report.p_success_overall,
                report.fidelity_closed_form, report.fidelity_numeric,
            ))
            assert rel_error(w_success_probability(spec), pu) <= 1e-15
            assert rel_error(report.fidelity_closed_form, fidelity) <= 1e-15
            # the compact route rounds once per party, so its bound is P * eps
            assert rel_error(report.p_success_per_copy, pu) <= 1e-13
            assert rel_error(report.fidelity_numeric, fidelity) <= 1e-13

    @pytest.mark.parametrize("p", W_LARGE_P)
    def test_spread_spec_fidelity_matches_decimal_oracle(self, p):
        # beta_i spread over [0.2, 1] before normalizing: p_u is ~1e-102 at
        # P = 200, ~1e-205 at P = 400 and below the smallest double at 1000
        spec = random_w_spec(np.random.default_rng(CORPUS_SEED + p), p)
        report = run_ted(w_config(spec, n=3))
        _, fidelity = oracle_w_law(spec.betas, 3)
        assert 0.0 <= report.p_success_per_copy < 1e-100
        assert 0.0 <= w_success_probability(spec) < 1e-100
        assert rel_error(report.fidelity_closed_form, fidelity) <= 1e-15
        assert rel_error(report.fidelity_numeric, fidelity) <= 1e-13

    @given(
        st.integers(3, 1000), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1),
        st.integers(2, 60),
    )
    def test_near_uniform_law_over_p_range(self, p, tilt, seed, n):
        # beta_i^2 proportional to 1 + tilt * u_i / P with sorted uniform u,
        # so beta_{P-1} is maximal and p_u stays of order one at every P
        u = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, p))
        w = 1 + tilt * u / p
        spec = WSpec(p, tuple(np.sqrt(w / w.sum())))
        pu, fidelity = oracle_w_law(spec.betas, n)
        assert rel_error(w_success_probability(spec), pu) <= 1e-15
        assert rel_error(run_ted(w_config(spec, n=n)).fidelity_closed_form, fidelity) <= 1e-15


def normalized(betas) -> tuple[float, ...]:
    norm = math.sqrt(math.fsum(b * b for b in betas))
    return tuple(b / norm for b in betas)


class TestWSmallRatios:
    """The W law where some beta_i / beta_max is below 1/2, so that
    beta_i - beta_max is rounded, against the 50-digit decimal oracle."""

    @pytest.mark.parametrize("ratio", (0.4999999, 0.3, 1e-3, 1e-6, 1e-10, 1e-15, 1e-50, 1e-100))
    def test_matches_decimal_oracle_while_p_u_is_normal(self, ratio):
        cases = 0
        for p in (2, 3, 5):
            for small in range(1, p):
                spec = WSpec(p, normalized((ratio,) * small + (0.8,) * (p - 1 - small) + (1.0,)))
                pu, fidelity = oracle_w_law(spec.betas, 3)
                if pu < decimal.Decimal(sys.float_info.min):
                    continue
                cases += 1
                assert rel_error(w_success_probability(spec), pu) <= 1e-15
                assert rel_error(closed_form_fidelity(spec, 3), fidelity) <= 1e-15
        assert cases >= 3

    def test_underflowing_ratio_gives_zero_without_a_warning(self):
        # the rounded difference was -1 here, and log1p(-1) divides by zero
        spec = WSpec(2, (1e-200, 1.0))
        assert w_success_probability(spec) == 0.0
        assert run_ted(w_config(spec)).fidelity_closed_form == 0.5

    def test_ratios_from_one_half_keep_the_log1p_bits(self):
        def log1p_law(spec):
            be = np.array(spec.betas)
            logs = np.log1p((be[:-1] - be[-1]) / be[-1])
            return float(spec.p * be[-1] ** 2 * math.exp(2 * math.fsum(logs)))

        rng = np.random.default_rng(CORPUS_SEED)
        specs = [WSpec(3, normalized((0.5, 0.75, 1.0)))]
        specs += [WSpec(p, normalized((*rng.uniform(0.5, 1.0, p - 1), 1.0))) for p in range(2, 40)]
        for spec in specs:
            assert min(spec.betas[:-1]) >= spec.betas[-1] / 2
            assert w_success_probability(spec) == log1p_law(spec)


class TestLinearInD:
    def test_ghz_d3000_allocates_no_d_squared_memory(self):
        # filters are diagonal vectors, so a run at d = 3000 needs O(d)
        # memory; d x d complex filter matrices would take 144 MB each
        d = 3000
        v = np.linspace(1.0, 2.0, d)
        spec = GhzSpec(d, 3, tuple(v / np.linalg.norm(v)))
        _compact_zero_layer.cache_clear()
        tracemalloc.start()
        try:
            report = run_ted(ghz_config(spec, n=10, q=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert report.p_success_per_copy == pytest.approx(d * spec.alphas[0] ** 2, rel=1e-12)
        assert report.fidelity_numeric == pytest.approx(report.fidelity_closed_form, abs=1e-12)


class TestSpecCaches:
    def test_held_memory_stops_growing_with_distinct_specs(self):
        # every run path varies n innermost, so the cache need keep only the
        # latest specs; a cache keyed on every spec ever seen grows without bound
        def held_after(count: int) -> int:
            _compact_zero_layer.cache_clear()
            rng = np.random.default_rng(5)
            tracemalloc.start()
            try:
                for _ in range(count):
                    spec = random_ghz_spec(rng, 2000, 3)
                    for n in (2, 3):
                        run_ted(ghz_config(spec, n=n))
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        base = held_after(20)
        # 20 more specs of d = 2000 would hold at least 20 x 2000 x 8 B more
        # (the compact and uniform states alone 20 x 2 x 2000 x 8 B)
        assert held_after(40) - base < 20 * 2000 * 8 / 4
        assert _compact_zero_layer.cache_info().currsize == SPEC_CACHE_SIZE

    def test_reports_match_a_per_call_rebuild_through_evictions(self):
        # SPEC_CACHE_SIZE + 1 specs visited round-robin evict each entry before
        # its next use, so every call rebuilds; the repeat call is the hit
        fields = ("n_copies", "p_success_per_copy", "p_success_overall",
                  "fidelity_closed_form", "fidelity_numeric")
        specs = ghz_corpus(30) + w_corpus(20)
        group = SPEC_CACHE_SIZE + 1
        for start in range(0, len(specs), group):
            _compact_zero_layer.cache_clear()
            visits = 0
            for n in (2, 3, 7, 50):
                for spec in specs[start:start + group]:
                    config = (ghz_config if isinstance(spec, GhzSpec) else w_config)(spec, n=n)
                    expected = rebuilt_report(config)
                    for report in (run_ted(config), run_ted(config)):
                        assert [getattr(report, f) for f in fields] == [
                            getattr(expected, f) for f in fields]
                    visits += 1
            info = _compact_zero_layer.cache_info()
            assert (info.misses, info.hits) == (visits, visits)

    def test_specs_built_apart_from_equal_coefficients_share_one_entry(self):
        rng = np.random.default_rng(12)
        alphas, betas = random_ghz_spec(rng, 6, 3).alphas, random_w_spec(rng, 5).betas
        for build, config in ((lambda: GhzSpec(6, 3, list(alphas)), ghz_config),
                              (lambda: WSpec(5, list(betas)), w_config)):
            first, second = build(), build()
            assert first is not second and first == second and hash(first) == hash(second)
            _compact_zero_layer.cache_clear()
            run_ted(config(first, n=2))
            run_ted(config(second, n=3))
            info = _compact_zero_layer.cache_info()
            assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_one_spec_fills_one_entry_at_every_q_and_split(self):
        # the context is the spec's alone, so a GHZ spec run at two q and an
        # explicit split, through every run path, misses once
        spec = random_ghz_spec(np.random.default_rng(15), 5, 4)
        split = IndexPartition((frozenset({1, 4}), frozenset({2, 3})))
        _compact_zero_layer.cache_clear()
        for config in (ghz_config(spec, n=3, q=1), ghz_config(spec, n=3, q=2),
                       ghz_config(spec, n=3, q=2, partition=split)):
            run_ted(config)
            run_tsd(SteeringConfig(config, 1))
            run_stats(config, 20, 7)
        info = _compact_zero_layer.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 8)

    def test_cached_states_are_read_only(self):
        # every run on the spec shares the cached coefficient array
        spec = random_ghz_spec(np.random.default_rng(8), 6, 3)
        run_ted(ghz_config(spec, n=4))
        coeffs = _compact_zero_layer(spec)[1]
        with pytest.raises(ValueError):
            coeffs[0] = 0.5
        run_ted(ghz_config(spec, n=4))
        assert _compact_zero_layer(spec)[1] is coeffs
        assert coeffs.tolist() == list(spec.alphas)


def rebuilt_report(config: ProtocolConfig) -> DistillationReport:
    """``run_ted`` with p_u and the spec's states built afresh on every call."""
    initial = make_compact(config.spec)
    assignment = assignment_for(config.spec, config.q, config.partition)
    pu = apply_filter_layer(initial, config.spec, assignment, (0,) * assignment.q)[1]
    ps = overall_success(pu, config.n_copies)
    perfect = make_compact(perfect_like(config.spec))
    overlap = float((perfect * initial).sum()) ** 2
    return DistillationReport(
        n_copies=config.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(config.spec, config.n_copies),
        fidelity_numeric=ps + (1.0 - ps) * overlap,
    )


class TestUniformTarget:
    """spec_context holds the uniform target as its one number g, with the
    bits of every entry of ``make_compact(perfect_like(spec))``, which
    validates a second spec."""

    @staticmethod
    def sizes():
        return [*range(2, 2001), 10**4, 10**5, 10**6]

    @staticmethod
    def assert_target_bits(g, target):
        assert type(g) is float
        assert np.full(len(target), g).tobytes() == target.tobytes()

    def test_ghz_target_bits(self):
        # perfect_ghz(d, 2) is perfect_like of every GHZ spec of span d (its
        # coefficients do not depend on p), so its own context holds both
        for d in self.sizes():
            _, initial, g, _, _ = spec_context(perfect_ghz(d, 2))
            self.assert_target_bits(g, initial)

    def test_w_target_bits(self):
        for p in self.sizes():
            _, initial, g, _, _ = spec_context(perfect_w(p))
            self.assert_target_bits(g, initial)

    def test_target_bits_on_the_corpora(self):
        for spec in ghz_corpus() + w_corpus():
            self.assert_target_bits(spec_context(spec)[2], make_compact(perfect_like(spec)))


# eight d = 10^5 GHZ contexts, each overlap printed as its exact bits
OVERLAP_BITS_CHILD = """
import numpy as np
from qdistill import GhzSpec
from qdistill.ted import spec_context
rng = np.random.default_rng(0)
for _ in range(8):
    x = np.sort(rng.random(10**5) + 0.5)
    spec = GhzSpec(10**5, 2, tuple(x / np.sqrt((x * x).sum())))
    print(spec_context(spec)[3].hex())
"""


def test_overlap_bits_do_not_follow_the_blas_thread_count():
    # np.dot ran on multithreaded OpenBLAS above 10^4 entries, and its
    # bits moved with the thread count: 6 of these 8 overlaps did
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(qdistill.ted.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", OVERLAP_BITS_CHILD], capture_output=True,
                              text=True, check=True, env=env, timeout=120)
        assert done.stdout.count("\n") == 8
        outputs.add(done.stdout)
    assert len(outputs) == 1


def random_partition(rng: np.random.Generator, d: int, q: int) -> IndexPartition:
    """Indices 1..d-1 dealt to q blocks at random, so blocks may be empty."""
    owners = rng.integers(0, q, d - 1)
    return IndexPartition(tuple(frozenset((np.flatnonzero(owners == k) + 1).tolist())
                                for k in range(q)))


def reference_zero_layer(spec, q: int, partition) -> tuple[float, np.ndarray]:
    """p_u and the all-zeros multiplier from the filter table itself."""
    assignment = assignment_for(spec, q, partition)
    zeros = (0,) * assignment.q
    pu = apply_filter_layer(make_compact(spec), spec, assignment, zeros)[1]
    return pu, span_multiplier(spec, assignment, zeros)


def outcome(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the class is the compared value
        return type(exc), str(exc)


class TestZeroLayerFromRatios:
    """spec_context reads p_u from the pivot-ratio profile with the bits of
    the reference filter layer (``assignment_for`` and
    ``apply_filter_layer``), and refuses what that layer refuses, with the
    same class and message."""

    @staticmethod
    def check(spec, q: int, partition=None) -> None:
        pu, multiplier = reference_zero_layer(spec, q, partition)
        assert spec_context(spec)[0] == pu
        assert zero_layer_multiplier(spec, make_compact(spec)).tobytes() == multiplier.tobytes()

    def test_ghz_corpus_at_every_q_and_split(self):
        rng = np.random.default_rng(CORPUS_SEED)
        empty_blocks = 0
        for spec in ghz_corpus():
            for q in range(1, spec.p):
                partition = random_partition(rng, spec.d, q)
                empty_blocks += sum(not block for block in partition.blocks)
                for split in (None, partition, contiguous_partition(spec.d, q)):
                    self.check(spec, q, split)
        assert empty_blocks > 0

    def test_w_corpus(self):
        for spec in w_corpus():
            self.check(spec, spec.p - 1)

    @pytest.mark.parametrize("size", [2, 3, 1000, 10**4, 10**5, 10**6])
    def test_uniform_specs(self, size):
        ghz = perfect_ghz(size, 3)
        self.check(ghz, 1)
        self.check(ghz, 2)
        self.check(perfect_w(size), size - 1)

    def test_w_ratio_products_toward_subnormals(self):
        # party ratios near 1/2 over about a thousand parties: the row
        # products cross the normal floor, run through the subnormals and
        # underflow to 0
        rng = np.random.default_rng(CORPUS_SEED)
        subnormal = zero = 0
        for p in range(1010, 1100, 6):
            for betas in ((0.5,) * (p - 1) + (1.0,), (*rng.uniform(0.45, 0.55, p - 1), 1.0)):
                spec = WSpec(p, normalized(betas))
                self.check(spec, p - 1)
                rows = zero_layer_multiplier(spec, make_compact(spec))
                subnormal += int(((rows > 0) & (rows < sys.float_info.min)).sum())
                zero += int((rows == 0).sum())
        assert subnormal > 0 and zero > 0

    def test_refuses_what_the_reference_refuses(self):
        # building the config and running it, at every q the config admits
        # and a float q, against every split, each with and without a pivot
        # fault, so inputs with two or three faults at once are in it; a q
        # out of range is refused by both, by the config as InvalidSpec
        d, p = 5, 4
        good = random_ghz_spec(np.random.default_rng(CORPUS_SEED), d, p)
        bad_pivot = GhzSpec(d, p, good.alphas[1:] + good.alphas[:1])
        blocks = lambda *bs: IndexPartition(tuple(frozenset(b) for b in bs))  # noqa: E731
        splits = [
            None, blocks({1, 2, 3, 4}), blocks({1, 2}, {3, 4}), blocks({1}, set(), {2, 3, 4}),
            blocks({1, 2}, {2, 3, 4}),  # overlap
            blocks({1}, {3, 4}),  # leaves out 2
            blocks({1, 2}, {3, 4, 5}),  # index d
            blocks({0, 1}, {2, 3, 4}),  # the pivot
            blocks({-1, 1}, {2, 3, 4}),  # negative
            blocks({1, 2}, {3}, {4}, set()),  # four blocks
            blocks(),  # none
        ]

        def run(spec, q, split):
            return run_ted(ghz_config(spec, n=2, q=q, partition=split)).p_success_per_copy

        refused = set()
        for spec in (good, bad_pivot):
            for q in (*range(1, p), 1.0):
                for split in splits:
                    want = outcome(lambda: reference_zero_layer(spec, q, split)[0])
                    got = outcome(lambda: run(spec, q, split))
                    assert got == want, (spec.alphas, q, split)
                    if isinstance(want, tuple):
                        refused.add(want[1])
            for q in (-2, -1, 0, p, p + 1, p + 2):
                for split in splits:
                    assert isinstance(outcome(lambda: reference_zero_layer(spec, q, split)[0]),
                                      tuple)
                    assert outcome(lambda: run(spec, q, split))[0] is InvalidSpecError
        assert len(refused) >= 5
        for spec in (random_w_spec(np.random.default_rng(CORPUS_SEED), 5),
                     WSpec(5, normalized((0.2, 0.3, 0.4, 0.7, 0.4)))):
            want = outcome(lambda: reference_zero_layer(spec, spec.p - 1, None)[0])
            assert outcome(lambda: run_ted(w_config(spec)).p_success_per_copy) == want

    def test_w_reference_takes_all_p_minus_1_parties_and_no_split(self):
        # W filters need every party but party 0, so the reference refuses
        # any other q, as the GHZ one refuses a q it cannot honour
        spec = random_w_spec(np.random.default_rng(CORPUS_SEED), 5)
        split = IndexPartition((frozenset({1}), frozenset(), frozenset(), frozenset()))
        for q in range(-2, spec.p + 3):
            for partition in (None, split):
                got = outcome(lambda: assignment_for(spec, q, partition).participants)
                if q == spec.p - 1 and partition is None:
                    assert got == (1, 2, 3, 4)
                else:
                    assert got == (BadPartitionError,
                                   f"W filters need q = 4 and no partition, got q = {q}")

    def test_cold_w_context_at_a_hundred_thousand_parties(self):
        # no per-party Python work: the ratio profile and two cumulative
        # products (best of 5 CPU times, spec prebuilt; process CPU also
        # counts a multithreaded BLAS's idle worker spinning after the
        # overlap's dot, so it reads up to twice the calling thread's time)
        spec = random_w_spec(np.random.default_rng(CORPUS_SEED), 10**5)
        times = []
        for _ in range(5):
            start = time.process_time()
            spec_context(spec)
            times.append(time.process_time() - start)
        assert min(times) < 0.075


class CountsHashes:
    """Mixed into a spec type: counts how often its specs are hashed."""

    hashes = 0

    def __hash__(self) -> int:
        type(self).hashes += 1
        return super().__hash__()


class CountedHashSpec(CountsHashes, GhzSpec):
    pass


class CountedHashWSpec(CountsHashes, WSpec):
    pass


# what a run builds per spec, however many n it visits; ``check_pivot`` is
# counted through every module's reference, ``filters`` (the ratio
# profile's check) included, so a second check of the same spec counts too.
# The uniform target is filled in, not built as a second spec, so the
# spec's own coefficients are the one ``make_compact`` and ``perfect_like``
# never runs; p_u is read from the ratio profile, so no filter table is
# built or applied, and a GHZ split is checked by its count q, with no
# party tuple (a Counter, whose equality reads a count of 0 as never
# called)
BUILT_ONCE = collections.Counter({"perfect_like": 0, "make_compact": 1, "assignment_for": 0,
                                  "ghz_partition_assignment": 0, "w_assignment": 0,
                                  "last_parties": 0,
                                  "apply_filter_layer": 0, "span_multiplier": 0,
                                  "check_pivot": 1, "closed_form_terms": 1})


# what a fresh-spec steering run reads besides BUILT_ONCE: the one context
# lookup and the one per-N step, with no entanglement report on the way and
# not the reference scorer of a factor array
RUN_TSD_READS = collections.Counter({"_compact_zero_layer": 1, "results_at": 1, "run_ted": 0,
                                     "DistillationReport": 0, "_setting_totals": 0})


def count_calls(monkeypatch, names) -> collections.Counter:
    """Count the calls of each of ``names`` through every package module's
    reference, as the benchmark's tracer does, so a call from outside the
    defining module counts too."""
    calls = collections.Counter()
    modules = (qdistill.ted, qdistill.tsd, qdistill.montecarlo, qdistill.filters,
               qdistill.sweep, qdistill.states)
    for name in names:
        fn = next(getattr(module, name) for module in modules if hasattr(module, name))

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class ArrayWatch:
    """numpy as one module sees it: counts the calls that return an array of
    two or more dimensions (ufuncs and their methods pass unwatched)."""

    def __init__(self):
        self.built = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc) or not callable(attr):
            return attr

        def watched(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.built += isinstance(out, np.ndarray) and out.ndim > 1
            return out
        return watched


class TestSpecStateCost:
    """Counts, not timings: the per-spec builders run once per spec however
    many n a run visits, so rebuilding them per call fails here."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = count_calls(monkeypatch, BUILT_ONCE)
        _compact_zero_layer.cache_clear()
        return built

    def test_a_sweep_over_n_builds_the_spec_states_once(self, built):
        rng = np.random.default_rng(9)
        for spec, config in ((random_ghz_spec(rng, 50, 50), ghz_config),
                             (random_w_spec(rng, 50), w_config)):
            built.clear()
            for n in range(2, 102):
                run_ted(config(spec, n=n))
            assert built == BUILT_ONCE

    def test_a_steering_run_builds_each_state_once_and_no_filter_table(self, built):
        for config in (ghz_config(random_ghz_spec(np.random.default_rng(10), 5, 4), n=3, q=2),
                       w_config(random_w_spec(np.random.default_rng(11), 5), n=3)):
            built.clear()
            run_tsd(SteeringConfig(config, 1))
            assert built == BUILT_ONCE

    def test_a_fresh_steering_run_reads_one_context_and_builds_no_report(self, monkeypatch):
        # run_tsd scores from the context and results_at: going back through
        # run_ted (a report) or the (2, span) factor array that
        # _setting_totals scores fails here
        calls = count_calls(monkeypatch, [*BUILT_ONCE, *RUN_TSD_READS])  # zero counts too
        watch = ArrayWatch()
        monkeypatch.setattr(qdistill.tsd, "np", watch)
        rng = np.random.default_rng(14)
        for config in (ghz_config(random_ghz_spec(rng, 5, 4), n=3, q=2),
                       w_config(random_w_spec(rng, 5), n=3)):
            _compact_zero_layer.cache_clear()
            calls.clear()
            run_tsd(SteeringConfig(config, 1))
            assert calls == BUILT_ONCE + RUN_TSD_READS and watch.built == 0
        # the watch sees a factor array built through the module's numpy
        rows = qdistill.tsd.build_assemblage(make_compact(config.spec), SteeringConfig(config, 1))
        qdistill.tsd.mix_assemblages(0.5, rows, rows)
        assert watch.built == 1

    def test_a_monte_carlo_run_builds_each_state_once_and_no_filter_table(self, built):
        for config in (ghz_config(random_ghz_spec(np.random.default_rng(12), 5, 4), n=3, q=2),
                       w_config(random_w_spec(np.random.default_rng(13), 5), n=3)):
            built.clear()
            run_stats(config, 50, 7)
            assert built == BUILT_ONCE

    @pytest.mark.parametrize("argv", [
        ["ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2", "--alphas", ALPHAS_SQRT8],
        ["tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "1", "--n", "2",
         "--alphas", ALPHAS_SQRT8],
    ], ids=["ted-ghz", "tsd-ghz"])
    def test_a_cli_run_command_evaluates_the_closed_form_terms_once(self, built, argv, capsys):
        # the report row reads coeff_gap from the run's cached spec context
        assert qdistill.cli.main(argv) == 0
        assert "fidelity_closed" in capsys.readouterr().out
        assert built["closed_form_terms"] == 1 and built["check_pivot"] == 1

    def test_a_warm_run_hashes_the_spec_once(self):
        spec = CountedHashSpec(SQRT8_SPEC.d, SQRT8_SPEC.p, SQRT8_SPEC.alphas)
        run_ted(ghz_config(spec, n=2))
        CountedHashSpec.hashes = 0
        report = run_ted(ghz_config(spec, n=5))
        assert CountedHashSpec.hashes == 1
        assert report.p_success_per_copy == success_prob_per_copy(ghz_config(SQRT8_SPEC))

    def test_a_warm_w_run_hashes_the_spec_once(self):
        spec = CountedHashWSpec(W_TOY_SPEC.p, W_TOY_SPEC.betas)
        run_ted(w_config(spec, n=2))
        CountedHashWSpec.hashes = 0
        report = run_ted(w_config(spec, n=5))
        assert CountedHashWSpec.hashes == 1
        plain = WSpec(W_TOY_SPEC.p, W_TOY_SPEC.betas)  # normalized as ``spec`` was
        assert report.p_success_per_copy == success_prob_per_copy(w_config(plain))


class TestConfigValidation:
    def test_n_copies_minimum(self):
        with pytest.raises(InvalidSpecError):
            ProtocolConfig(1, Family.GHZ_DIAGONAL, SQRT8_SPEC, 1)

    def test_ghz_q_range(self):
        with pytest.raises(InvalidSpecError):
            ProtocolConfig(2, Family.GHZ_DIAGONAL, SQRT8_SPEC, 3)
        with pytest.raises(InvalidSpecError):
            ProtocolConfig(2, Family.GHZ_DIAGONAL, SQRT8_SPEC, 0)

    def test_w_q_fixed(self):
        with pytest.raises(InvalidSpecError):
            ProtocolConfig(2, Family.W_SINGLE_EXCITATION, W_TOY_SPEC, 1)

    def test_family_spec_mismatch(self):
        with pytest.raises(InvalidSpecError):
            ProtocolConfig(2, Family.W_SINGLE_EXCITATION, SQRT8_SPEC, 2)


GHZ4_SPEC = random_ghz_spec(np.random.default_rng(3), 3, 4)
GHZ4_BASE = ghz_config(GHZ4_SPEC, n=3)

# every count a caller passes, each with the other arguments valid
COUNT_ENTRY_POINTS = {
    "n_copies": lambda v: ProtocolConfig(v, Family.GHZ_DIAGONAL, GHZ4_SPEC, 1),
    "ghz_q": lambda v: ProtocolConfig(2, Family.GHZ_DIAGONAL, GHZ4_SPEC, v),
    "w_q": lambda v: ProtocolConfig(2, Family.W_SINGLE_EXCITATION, W_TOY_SPEC, v),
    "s": lambda v: SteeringConfig(GHZ4_BASE, v),
    "trials": lambda v: run_stats(GHZ4_BASE, v, 1),
    "seed": lambda v: run_stats(GHZ4_BASE, 100, v),
    "sweep_d": lambda v: grid_rows("ghz-convergence", d=(v,)),
    "sweep_p": lambda v: grid_rows("w-contour", p=(v,), n=(2,)),
    "sweep_n": lambda v: grid_rows("ghz-convergence", n=(2, v)),
}

# a value its range check refuses first keeps that refusal
RANGE_REFUSALS = {
    ("ghz_q", "nan"): InvalidSpecError, ("ghz_q", "inf"): InvalidSpecError,
    ("w_q", "2.5"): InvalidSpecError, ("w_q", "nan"): InvalidSpecError,
    ("w_q", "inf"): InvalidSpecError,
    ("s", "nan"): InvalidSteeringScenarioError, ("s", "inf"): InvalidSteeringScenarioError,
    ("seed", "nan"): InvalidSpecError, ("seed", "inf"): InvalidSpecError,
}


class TestCountsAreIntegers:
    """Copy counts, q, s, trials, seeds and sweep axes are counts: any float,
    2.0 included, is refused where it enters, with the TypeError of
    ``operator.index`` that a float GHZ q has always raised, not run as
    2.5 copies or as another seed's stream."""

    @pytest.mark.parametrize("value", ["2.5", "2.0", "nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_a_float_count_is_refused(self, entry, value):
        expected = RANGE_REFUSALS.get((entry, value))
        if expected is None:
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
                COUNT_ENTRY_POINTS[entry](float(value))
        else:
            with pytest.raises(expected):
                COUNT_ENTRY_POINTS[entry](float(value))

    def test_python_and_numpy_ints_run(self):
        for count in (int, np.int64, np.int32, np.int8, np.uint8):
            config = ProtocolConfig(count(3), Family.GHZ_DIAGONAL, GHZ4_SPEC, count(1))
            steered = run_tsd(SteeringConfig(config, count(2)))
            assert steered.fidelity_assemblage == run_tsd(SteeringConfig(GHZ4_BASE, 2)).fidelity_assemblage
            assert run_stats(config, count(50), count(7)) == run_stats(GHZ4_BASE, 50, 7)
            assert grid_rows("ghz-convergence", d=(count(3),), n=(count(2),)) == grid_rows(
                "ghz-convergence", d=(3,), n=(2,))
        assert run_ted(ghz_config(GHZ4_SPEC, n=10**400)).p_success_overall == 1.0
        assert run_stats(GHZ4_BASE, 10, np.uint64(2**64 - 1)) == run_stats(GHZ4_BASE, 10, 2**64 - 1)
        # the work cap counts in Python ints: 2^16 trials x 2^16 copies wraps to 0 in int32
        narrow = ProtocolConfig(np.int32(2**16 + 1), Family.GHZ_DIAGONAL, GHZ4_SPEC, 1)
        with pytest.raises(WorkCapExceededError):
            run_stats(narrow, np.int32(2**16), 1)
        with pytest.raises(WorkCapExceededError):
            run_stats(ghz_config(GHZ4_SPEC, n=10**9), np.int32(10**6), 1)
