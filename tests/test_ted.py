import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    Family,
    GhzSpec,
    InvalidSpecError,
    Operator,
    ProtocolConfig,
    WSpec,
    apply_filter_layer,
    closed_form_fidelity_ghz,
    closed_form_fidelity_w,
    make_compact,
    make_dense,
    overall_success,
    perfect_ghz,
    perfect_w,
    pure_target_fidelity,
    run_ted,
    state_fidelity,
    success_prob_per_copy,
)
from qdistill.ted import (
    DistillationReport,
    StateMixture,
    _cached_assignment,
    _compact_zero_layer,
    assignment_for,
    fidelity_from_success,
    w_success_probability,
)

from conftest import (
    CORPUS_SEED,
    ORACLE_FIDELITY_TOL,
    dense_report,
    ghz_config,
    oracle_layer,
    oracle_state_fidelity,
    oracle_w_law,
    random_ghz_spec,
    random_w_spec,
    w_config,
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
        assignment = assignment_for(Family.GHZ_DIAGONAL, spec, 1)
        state = make_dense(spec)
        out, prob = apply_filter_layer(state, assignment, (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_ghz3_success_branch(self):
        assignment = assignment_for(Family.GHZ_DIAGONAL, SQRT8_SPEC, 1)
        out, prob = apply_filter_layer(make_dense(SQRT8_SPEC), assignment, (0,))
        assert prob == pytest.approx(3 / 8, abs=1e-14)
        normalized = out.amplitudes / np.sqrt(prob)
        perfect = make_dense(perfect_ghz(3, 3)).amplitudes
        assert np.max(np.abs(normalized - perfect)) < 1e-12

    def test_compact_equals_dense_all_outcomes(self, rng):
        for family, spec, q in [
            (Family.GHZ_DIAGONAL, random_ghz_spec(rng, 3, 4), 2),
            (Family.GHZ_DIAGONAL, random_ghz_spec(rng, 4, 3), 1),
            (Family.W_SINGLE_EXCITATION, random_w_spec(rng, 4), 3),
        ]:
            assignment = assignment_for(family, spec, q)
            dense = make_dense(spec)
            compact = make_compact(spec)
            from qdistill import compact_to_dense

            for outcome in itertools.product((0, 1), repeat=assignment.q):
                dout, dprob = apply_filter_layer(dense, assignment, outcome)
                cout, cprob = apply_filter_layer(compact, assignment, outcome)
                assert dprob == pytest.approx(cprob, abs=1e-13)
                assert np.allclose(
                    compact_to_dense(cout).amplitudes, dout.amplitudes, atol=1e-13
                )

    def test_outcome_probabilities_sum_to_one(self, rng):
        for q in (1, 2, 3):
            spec = random_ghz_spec(rng, 4, 4)
            assignment = assignment_for(Family.GHZ_DIAGONAL, spec, q)
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
        assignment = assignment_for(Family.GHZ_DIAGONAL, spec, q)
        total = sum(
            apply_filter_layer(make_compact(spec), assignment, oc)[1]
            for oc in itertools.product((0, 1), repeat=q)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_layer_matches_kron_oracle(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        assignment = assignment_for(Family.GHZ_DIAGONAL, spec, 2)
        psi = make_dense(spec)
        for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            got, gprob = apply_filter_layer(psi, assignment, outcome)
            want, wprob = oracle_layer(assignment, outcome, psi.amplitudes)
            assert gprob == pytest.approx(wprob, abs=1e-13)
            assert np.allclose(got.amplitudes, want, atol=1e-13)


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


class TestClosedFormFidelity:
    def test_perfect_is_one(self):
        for n in (2, 5, 50):
            assert closed_form_fidelity_ghz(perfect_ghz(4, 3), n) == pytest.approx(1.0, abs=1e-12)
            assert closed_form_fidelity_w(perfect_w(4), n) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_toy_frozen_value(self):
        got = closed_form_fidelity_ghz(SQRT8_SPEC, 2)
        assert got == pytest.approx(GHZ_TOY_F_N2, abs=1e-12)
        # independent recomputation from the mixture definition
        al = np.array(SQRT8_SPEC.alphas)
        ps = 1 - (1 - 3 * al[0] ** 2) ** 1
        overlap = (al.sum() / math.sqrt(3)) ** 2
        assert got == pytest.approx(ps + (1 - ps) * overlap, abs=1e-14)

    def test_w_toy_frozen_value(self):
        got = closed_form_fidelity_w(W_TOY_SPEC, 3)
        assert got == pytest.approx(W_TOY_F_N3, abs=1e-12)

    def test_w_monotone_in_n(self):
        vals = [closed_form_fidelity_w(W_TOY_SPEC, n) for n in range(2, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ghz_convergence_at_n50(self):
        # equal-tail curves: deviation from 1 at N = 50
        for a0sq, expected_dev in [(1 / 8, 6.292e-12), (1 / 9, 1.7426e-10), (1 / 10, 2.1536e-9)]:
            a0 = math.sqrt(a0sq)
            tail = math.sqrt((1 - a0sq) / 2)
            spec = GhzSpec(3, 3, (a0, tail, tail))
            dev = 1.0 - closed_form_fidelity_ghz(spec, 50)
            assert dev == pytest.approx(expected_dev, rel=1e-3)

    def test_requires_minimal_pivot(self):
        spec = GhzSpec(3, 3, (0.8, 0.3, math.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(InvalidSpecError):
            closed_form_fidelity_ghz(spec, 2)

    def test_fidelity_from_success_shape(self):
        assert fidelity_from_success(0.3, 3, 0.5, 2) == pytest.approx(1 - 0.7 * 0.5 / 3)


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
        dense = rho.to_dense_operator()
        perfect = make_dense(perfect_ghz(3, 3))
        via_matrix = state_fidelity(
            dense, Operator(np.outer(perfect.amplitudes, perfect.amplitudes.conj()), density=True)
        )
        via_shortcut = pure_target_fidelity(dense, perfect)
        closed = closed_form_fidelity_ghz(SQRT8_SPEC, 2)
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
        rho = report.distilled_state.to_dense_operator().entries
        perfect = make_dense(perfect_ghz(3, 3)).amplitudes
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


class TestLinearInD:
    def test_ghz_d3000_allocates_no_d_squared_memory(self):
        # filters are diagonal vectors, so a run at d = 3000 needs O(d)
        # memory; d x d complex filter matrices would take 144 MB each
        d = 3000
        v = np.linspace(1.0, 2.0, d)
        spec = GhzSpec(d, 3, tuple(v / np.linalg.norm(v)))
        _cached_assignment.cache_clear()
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
