import collections
import decimal
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    CompactState,
    DimensionMismatchError,
    Family,
    FilterAssignment,
    GhzSpec,
    InvalidSpecError,
    PivotNotMaximalError,
    PivotNotMinimalError,
    ProtocolConfig,
    SteeringConfig,
    WSpec,
    apply_filter_layer,
    make_compact,
    make_dense,
    overall_success,
    perfect_ghz,
    perfect_w,
    run_stats,
    run_ted,
    run_tsd,
    success_prob_per_copy,
)
import qdistill.ted
from qdistill.linalg import _root_fidelity
from qdistill.states import perfect_like
from qdistill.ted import (
    SPEC_CACHE_SIZE,
    DistillationReport,
    StateMixture,
    _compact_zero_layer,
    assignment_for,
    closed_form_fidelity,
    fidelity_from_success,
    w_success_probability,
)

from conftest import (
    CORPUS_SEED,
    ORACLE_FIDELITY_TOL,
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
        out, prob = apply_filter_layer(state, assignment, (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.coeffs, state.coeffs)

    def test_ghz3_success_branch(self):
        assignment = assignment_for(SQRT8_SPEC, 1)
        out, prob = apply_filter_layer(make_compact(SQRT8_SPEC), assignment, (0,))
        assert prob == pytest.approx(3 / 8, abs=1e-14)
        normalized = dense_vector(out) / np.sqrt(prob)
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
                got, gprob = apply_filter_layer(make_compact(spec), assignment, outcome)
                want, wprob = oracle_layer(assignment, outcome, psi)
                assert gprob == pytest.approx(wprob, abs=1e-13)
                assert np.allclose(dense_vector(got), want, atol=1e-13)

    def test_outcome_probabilities_sum_to_one(self, rng):
        for q in (1, 2, 3):
            spec = random_ghz_spec(rng, 4, 4)
            assignment = assignment_for(spec, q)
            total = sum(
                apply_filter_layer(make_compact(spec), assignment, oc)[1]
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
            apply_filter_layer(make_compact(spec), assignment, oc)[1]
            for oc in itertools.product((0, 1), repeat=q)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_layer_matches_kron_oracle(self, rng):
        # every outcome of a two-copy layer, checked on the dense vector it spans
        spec = random_ghz_spec(rng, 3, 3)
        assignment = assignment_for(spec, 2)
        psi = make_dense(spec)
        for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            got, gprob = apply_filter_layer(make_compact(spec), assignment, outcome)
            want, wprob = oracle_layer(assignment, outcome, psi)
            assert gprob == pytest.approx(wprob, abs=1e-13)
            assert np.allclose(dense_vector(got), want, atol=1e-13)

    def test_empty_layer_probability_is_squared_norm(self):
        # no participant: the layer is the identity
        empty = FilterAssignment(2, (), np.ones((0, 2)))
        compact = CompactState(np.array([0.6, 0.6]), perfect_ghz(2, 2))
        out, prob = apply_filter_layer(compact, empty, ())
        assert np.array_equal(out.coeffs, compact.coeffs)
        assert prob == pytest.approx(0.72, abs=1e-15)

    def test_assignment_for_fewer_parties_than_state(self):
        state = make_compact(GhzSpec(3, 4, SQRT8_SPEC.alphas))
        assignment = assignment_for(SQRT8_SPEC, 1)  # 3 parties
        with pytest.raises(DimensionMismatchError):
            apply_filter_layer(state, assignment, (0,))

    def test_assignment_for_more_parties_than_state(self):
        spec4 = GhzSpec(3, 4, SQRT8_SPEC.alphas)
        assignment = assignment_for(spec4, 1)
        with pytest.raises(DimensionMismatchError):
            apply_filter_layer(make_compact(SQRT8_SPEC), assignment, (0,))


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


class TestDistilledState:
    def test_perfect_input_stays_pure(self):
        mixture = run_ted(ghz_config(perfect_ghz(2, 2), n=4)).distilled_state
        weights = [w for w, _ in mixture.components]
        assert weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_weight_approaches_one(self):
        weights = [
            run_ted(ghz_config(SQRT8_SPEC, n=n)).distilled_state.components[0][0]
            for n in (2, 5, 10, 20, 45)
        ]
        assert weights[0] == pytest.approx(0.375, abs=1e-12)
        assert all(b > a for a, b in zip(weights, weights[1:]))
        assert weights[-1] > 1 - 1e-8  # 0.625**44 ~ 1e-9

    def test_mixture_fidelity_against_oracle(self):
        config = ghz_config(SQRT8_SPEC, n=2)
        rho = run_ted(config).distilled_state
        assert isinstance(rho, StateMixture)
        dense = dense_mixture(rho)
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
        rho = dense_mixture(report.distilled_state)
        perfect = make_dense(perfect_ghz(3, 3))
        target = np.outer(perfect, perfect.conj())
        assert report.fidelity_numeric == pytest.approx(
            oracle_state_fidelity(rho, target), abs=ORACLE_FIDELITY_TOL
        )

    def test_report_type_invariants_enforced(self):
        with pytest.raises(InvalidSpecError):
            DistillationReport(
                n_copies=3,
                p_success_per_copy=0.5,
                p_success_overall=0.9,  # should be 0.75
                fidelity_closed_form=0.9,
                fidelity_numeric=0.9,
                distilled_state=run_ted(ghz_config(SQRT8_SPEC)).distilled_state,
            )
        with pytest.raises(InvalidSpecError):
            DistillationReport(
                n_copies=3,
                p_success_per_copy=0.5,
                p_success_overall=0.75,
                fidelity_closed_form=0.9,
                fidelity_numeric=0.8,
                distilled_state=run_ted(ghz_config(SQRT8_SPEC)).distilled_state,
            )

    def test_report_rejects_non_finite_values(self):
        state = run_ted(ghz_config(SQRT8_SPEC)).distilled_state
        bad = (
            (0.5, 0.75, math.nan, 0.9),
            (0.5, 0.75, 0.9, math.nan),
            (0.5, 0.75, math.nan, math.nan),
            (0.5, 0.75, math.inf, math.inf),
            (0.5, math.nan, 0.9, 0.9),
            (math.nan, 0.75, 0.9, 0.9),
        )
        for pu, ps, closed, numeric in bad:
            with pytest.raises(InvalidSpecError):
                DistillationReport(
                    n_copies=3,
                    p_success_per_copy=pu,
                    p_success_overall=ps,
                    fidelity_closed_form=closed,
                    fidelity_numeric=numeric,
                    distilled_state=state,
                )


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
                        for (w, state), (w_ref, ref) in zip(
                                report.distilled_state.components,
                                expected.distilled_state.components, strict=True):
                            assert w == w_ref and state.spec == ref.spec
                            assert np.array_equal(state.coeffs, ref.coeffs)
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

    def test_cached_states_are_read_only(self):
        spec = random_ghz_spec(np.random.default_rng(8), 6, 3)
        first = run_ted(ghz_config(spec, n=4))
        kept = [state.coeffs.copy() for _, state in first.distilled_state.components]
        for _, state in first.distilled_state.components:
            with pytest.raises(ValueError):
                state.coeffs[0] = 0.5
        second = run_ted(ghz_config(spec, n=4))
        for (_, state), values in zip(second.distilled_state.components, kept, strict=True):
            assert np.array_equal(state.coeffs, values)


def rebuilt_report(config: ProtocolConfig) -> DistillationReport:
    """``run_ted`` with p_u and the spec's states built afresh on every call."""
    initial = make_compact(config.spec)
    assignment = assignment_for(config.spec, config.q, config.partition)
    pu = apply_filter_layer(initial, assignment, (0,) * assignment.q)[1]
    ps = overall_success(pu, config.n_copies)
    perfect = make_compact(perfect_like(config.spec))
    overlap = float(np.dot(perfect.coeffs, initial.coeffs)) ** 2
    return DistillationReport(
        n_copies=config.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(config.spec, config.n_copies),
        fidelity_numeric=ps + (1.0 - ps) * overlap,
        distilled_state=StateMixture(((ps, perfect), (1.0 - ps, initial))),
    )


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
# counted through ``ted``'s reference, the closed form's own check (the
# assignment's check runs inside ``filters``, once per ``assignment_for``)
BUILT_ONCE = {"perfect_like": 1, "make_compact": 2, "assignment_for": 1,
              "check_pivot": 1, "closed_form_terms": 1}


class TestSpecStateCost:
    """Counts, not timings: the per-spec builders run once per spec however
    many n a run visits, so rebuilding them per call fails here."""

    @pytest.fixture
    def built(self, monkeypatch):
        # every package module's reference is counted, as the benchmark's
        # tracer does, so a builder called from outside ``ted`` counts too
        built = collections.Counter()
        for name in BUILT_ONCE:
            fn = getattr(qdistill.ted, name)

            def counted(*args, name=name, fn=fn):
                built[name] += 1
                return fn(*args)
            for module in (qdistill.ted, qdistill.tsd, qdistill.montecarlo):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
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

    def test_a_steering_run_builds_each_state_and_the_assignment_once(self, built):
        for config in (ghz_config(random_ghz_spec(np.random.default_rng(10), 5, 4), n=3, q=2),
                       w_config(random_w_spec(np.random.default_rng(11), 5), n=3)):
            built.clear()
            run_tsd(SteeringConfig(config, 1))
            assert built == BUILT_ONCE

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
