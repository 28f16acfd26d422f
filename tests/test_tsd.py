import collections
import dataclasses
import importlib
import math
import pkgutil
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdistill
from qdistill import (
    Family,
    GhzSpec,
    InvalidSteeringScenarioError,
    NotPositiveError,
    ProtocolConfig,
    SteeringConfig,
    WSpec,
    make_compact,
    run_ted,
    run_tsd,
    success_prob_per_copy,
)
from qdistill.errors import DimensionMismatchError
from qdistill.filters import FilterAssignment
from qdistill.states import perfect_ghz, perfect_like, perfect_w, span_shape
from qdistill.ted import _compact_zero_layer, assignment_for, closed_form_fidelity, overall_success
from qdistill.tsd import (
    FIDELITY_CLAMP_TOL,
    assemblage_fidelity_by_setting,
    build_assemblage,
    filter_assemblage,
    mix_assemblages,
)

from conftest import (
    NONSIGNALING_TOL,
    class_of,
    contiguous_partition,
    dense_member,
    ghz_config,
    ghz_corpus,
    local_dim,
    member_keys,
    mub_family,
    nonsignaling_deviation,
    oracle_ghz_settings,
    oracle_projections,
    oracle_steering,
    oracle_w_settings,
    random_ghz_spec,
    random_w_spec,
    rebuilt_scores,
    w_corpus,
)

GHZ_TOY = GhzSpec(3, 3, (0.3, 0.5, math.sqrt(1 - 0.09 - 0.25)))
W_TOY = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))


def ghz_spec_of(d, p, seed):
    return random_ghz_spec(np.random.default_rng(seed), d, p)


def steering(spec, n=2, q=1, s=1, family=None):
    family = family or (
        Family.GHZ_DIAGONAL if isinstance(spec, GhzSpec) else Family.W_SINGLE_EXCITATION
    )
    base = ProtocolConfig(n, family, spec, q)
    return SteeringConfig(base, s)


def distilled_assemblage(config):
    """The distilled assemblage that ``run_tsd`` scores without forming it:
    the perfect and initial assemblages of the base config's ``run_ted``
    report, mixed with the overall success probability as weight."""
    (ps, perfect), (_, initial) = run_ted(config.base).distilled_state
    return mix_assemblages(ps, build_assemblage(perfect, config), build_assemblage(initial, config))


class TestMubFamily:
    def test_d2_is_computational_and_hadamard(self):
        comp, four = mub_family(2)
        assert np.allclose(comp[0], [1, 0])
        assert np.allclose(four[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(four[1], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_orthonormal_and_unbiased(self, d):
        # unbiased in every dimension, prime or not
        fam = mub_family(d)
        assert fam.shape == (2, d, d)
        for basis in fam:
            for i, ei in enumerate(basis):
                for j, ej in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert abs(np.vdot(ei, ej) - want) < 1e-12
        comp, four = fam
        for e in comp:
            for f in four:
                overlap = abs(np.vdot(e, f)) ** 2
                assert overlap == pytest.approx(1 / d, abs=1e-12)

    def test_fourier_rows_stay_accurate_at_large_d(self):
        # the phase a l is reduced mod d before the exponential
        d = 300
        four = mub_family(d)[1]
        assert np.max(np.abs(four @ four.conj().T - np.eye(d))) < 1e-12
        assert np.max(np.abs(np.abs(four) ** 2 - 1 / d)) < 1e-15
        a, l = 299, 299  # a l = 89401 = 1 mod 300: one step of the root of unity
        assert abs(four[a, l] - four[1, 1]) < 1e-16

    def test_cached_read_only(self):
        fam = mub_family(4)
        assert mub_family(4) is fam
        with pytest.raises(ValueError):
            fam[1, 0, 0] = 0.0


class TestBuildAssemblage:
    def test_ghz3_computational_members(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_compact(GHZ_TOY), config)
        for a in range(3):
            member = dense_member(asm, (0,), (a,))
            expected = np.zeros((9, 9), dtype=complex)
            expected[4 * a, 4 * a] = GHZ_TOY.alphas[a] ** 2  # |aa><aa| scaled
            assert np.allclose(member, expected, atol=1e-14)

    def test_ghz3_fourier_members(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_compact(GHZ_TOY), config)
        omega = np.exp(2j * np.pi / 3)
        for a in range(3):
            ket = np.zeros(9, dtype=complex)
            for i in range(3):
                ket[4 * i] = GHZ_TOY.alphas[i] * omega ** (-a * i) / np.sqrt(3)
            expected = np.outer(ket, ket.conj())
            assert np.allclose(dense_member(asm, (1,), (a,)), expected, atol=1e-14)

    def test_w3_members_match_derived_forms(self):
        config = steering(W_TOY, q=2)
        asm = build_assemblage(make_compact(W_TOY), config)
        b0, b1, b2 = W_TOY.betas
        # computational setting: outcome 0 keeps the two-excitation-free branch
        w0 = np.zeros(4, dtype=complex)
        w0[1], w0[2] = b0, b1  # |01>, |10>
        assert np.allclose(dense_member(asm, (0,), (0,)), np.outer(w0, w0.conj()), atol=1e-14)
        m10 = np.zeros((4, 4), dtype=complex)
        m10[0, 0] = b2**2  # beta_2^2 |00><00|
        assert np.allclose(dense_member(asm, (0,), (1,)), m10, atol=1e-14)
        assert np.trace(dense_member(asm, (0,), (0,))).real == pytest.approx(b0**2 + b1**2, abs=1e-14)
        # Hadamard setting: (1/2) |w_pm><w_pm| with w_pm = b2|00> +- b0|01> +- b1|10>
        for a, sign in ((0, 1.0), (1, -1.0)):
            wpm = np.zeros(4, dtype=complex)
            wpm[0], wpm[1], wpm[2] = b2, sign * b0, sign * b1
            expected = 0.5 * np.outer(wpm, wpm.conj())
            assert np.allclose(dense_member(asm, (1,), (a,)), expected, atol=1e-14)

    def test_member_count_s2(self):
        # one 1-row factor at any S; the (2 d)^S members it stands for,
        # rebuilt, are the dense projections of the state
        for spec, s in ((GHZ_TOY, 2), (ghz_spec_of(3, 4, 5), 3),
                        (ghz_spec_of(4, 3, 6), 2), (ghz_spec_of(2, 5, 7), 3)):
            asm = build_assemblage(make_compact(spec), steering(spec, s=s, q=1))
            assert asm.members.shape == (1, spec.d)
            for x, a, v in oracle_projections(spec, s):
                assert np.allclose(dense_member(asm, x, a), np.outer(v, v.conj()), atol=1e-14)

    def test_nonsignaling_random_specs(self, rng):
        for _ in range(10):
            spec = random_ghz_spec(rng, 3, 4)
            for s in (1, 2, 3):
                asm = build_assemblage(make_compact(spec), steering(spec, s=s, q=1))
                assert nonsignaling_deviation(asm) <= NONSIGNALING_TOL
        for _ in range(10):
            wspec = random_w_spec(rng, 4)
            asm = build_assemblage(make_compact(wspec), steering(wspec, s=1, q=3))
            assert nonsignaling_deviation(asm) <= NONSIGNALING_TOL

    def test_validate_rejects_nan_member(self):
        asm = build_assemblage(make_compact(GHZ_TOY), steering(GHZ_TOY))
        members = asm.members.copy()
        members[0] = math.nan
        broken = dataclasses.replace(asm, members=members)
        assert not nonsignaling_deviation(broken) <= NONSIGNALING_TOL

    def test_reduced_state_is_partial_trace(self):
        asm = build_assemblage(make_compact(GHZ_TOY), steering(GHZ_TOY))
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            expected[4 * i, 4 * i] = GHZ_TOY.alphas[i] ** 2
        for x in (0,), (1,):
            reduced = sum(dense_member(asm, x, (a,)) for a in range(3))
            assert np.allclose(reduced, expected, atol=1e-12)


LAYOUT_CASES = [
    (GHZ_TOY, 1, 1), (GHZ_TOY, 2, 1), (ghz_spec_of(2, 5, 7), 3, 1),
    (ghz_spec_of(5, 3, 8), 2, 1), (W_TOY, 1, 2),
]


class TestArrayLayout:
    """An assemblage is one real (rows, span) factor, the same at every s:
    one row when built, two after mixing.  Every member, rebuilt from it in
    setting-then-outcome order, is the dense projection of the state, and
    the factor score reproduces a member-by-member loop over every setting
    and outcome string."""

    @pytest.mark.parametrize("spec, s, q", LAYOUT_CASES)
    def test_members_in_setting_then_outcome_order(self, spec, s, q):
        config = steering(spec, n=3, q=q, s=s)
        asm = build_assemblage(make_compact(spec), config)
        span = span_shape(spec)[0]
        assert asm.members.shape == (1, span) and asm.members.dtype == np.float64
        assert distilled_assemblage(config).members.shape == (2, span)
        one_sided = build_assemblage(make_compact(spec), steering(spec, q=q))
        assert np.array_equal(asm.members, one_sided.members)
        assert asm.settings == tuple((1,) * f + (0,) * (s - f) for f in range(s + 1))
        projections = list(oracle_projections(spec, s))
        assert [(x, a) for x, a, _ in projections] == list(member_keys(asm))
        for x, a, v in projections:
            assert np.allclose(dense_member(asm, x, a), np.outer(v, v.conj()), atol=1e-14)

    @pytest.mark.parametrize("spec, s, q", LAYOUT_CASES)
    def test_build_and_score_match_member_loops(self, spec, s, q):
        # the build is the coefficient vector itself; the grouped sums may
        # round differently from the loop in the last places
        config = steering(spec, n=3, q=q, s=s)
        built = build_assemblage(make_compact(spec), config)
        assert np.array_equal(built.members, make_compact(spec)[None, :])
        dist = distilled_assemblage(config)
        perfect = build_assemblage(make_compact(perfect_like(spec)), config)
        per = assemblage_fidelity_by_setting(dist, perfect)
        scores = rebuilt_scores(dist, perfect)
        assert len(scores) == 2**s
        for x, value in scores.items():
            assert per[class_of(x)] == pytest.approx(value, abs=1e-14)


class TestFilterAssemblage:
    def test_identityish_filters_on_perfect_spec(self):
        spec = perfect_ghz(3, 3)
        config = steering(spec)
        asm = build_assemblage(make_compact(spec), config)
        assignment = assignment_for(spec, 1)
        filtered, prob = filter_assemblage(asm, assignment, (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        for key in member_keys(asm):
            assert np.allclose(
                dense_member(filtered, *key), dense_member(asm, *key), atol=1e-12
            )

    def test_ghz3_filter_recovers_perfect_assemblage(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_compact(GHZ_TOY), config)
        assignment = assignment_for(GHZ_TOY, 1)
        filtered, prob = filter_assemblage(asm, assignment, (0,))
        assert prob == pytest.approx(3 * GHZ_TOY.alphas[0] ** 2, abs=1e-14)
        perfect = build_assemblage(make_compact(perfect_ghz(3, 3)), config)
        for key in member_keys(perfect):
            assert np.allclose(
                dense_member(filtered, *key), dense_member(perfect, *key), atol=1e-12
            )

    def test_w3_filter_probability_and_output(self):
        config = steering(W_TOY, q=2)
        asm = build_assemblage(make_compact(W_TOY), config)
        assignment = assignment_for(W_TOY, 2)
        filtered, prob = filter_assemblage(asm, assignment, (0, 0))
        b = W_TOY.betas
        assert prob == pytest.approx(3 * b[0] ** 2 * b[1] ** 2 / b[2] ** 2, abs=1e-14)
        perfect = build_assemblage(make_compact(perfect_w(3)), config)
        for key in member_keys(perfect):
            assert np.allclose(
                dense_member(filtered, *key), dense_member(perfect, *key), atol=1e-12
            )

    def test_filter_on_uncharacterized_party_rejected(self, rng):
        spec = random_ghz_spec(rng, 3, 4)
        config = steering(spec, s=2, q=1)
        asm = build_assemblage(make_compact(spec), config)
        # an assignment whose participant sits on party 1 (< s) must be refused
        bad = FilterAssignment(spec.p, (1,), assignment_for(spec, 1).k0)
        with pytest.raises(InvalidSteeringScenarioError):
            filter_assemblage(asm, bad, (0,))

    def test_tsd_probability_equals_ted_probability(self, rng):
        for _ in range(5):
            spec = random_ghz_spec(rng, 3, 4)
            config = steering(spec, s=1, q=2)
            asm = build_assemblage(make_compact(spec), config)
            assignment = assignment_for(spec, 2)
            _, prob = filter_assemblage(asm, assignment, (0, 0))
            assert prob == pytest.approx(
                success_prob_per_copy(ghz_config(spec, q=2)), abs=1e-12
            )

    def test_filtered_assemblage_stays_nonsignaling(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        config = steering(spec)
        asm = build_assemblage(make_compact(spec), config)
        assignment = assignment_for(spec, 1)
        for outcome in ((0,), (1,)):
            filtered, _ = filter_assemblage(asm, assignment, outcome)
            assert nonsignaling_deviation(filtered) <= NONSIGNALING_TOL


class TestDistilledAssemblage:
    def test_perfect_input_unchanged(self):
        spec = perfect_ghz(3, 3)
        config = steering(spec, n=3)
        dist = distilled_assemblage(config)
        perfect = build_assemblage(make_compact(spec), config)
        for key in member_keys(perfect):
            assert np.allclose(dense_member(dist, *key), dense_member(perfect, *key), atol=1e-12)

    def test_ghz3_member_structure(self):
        n = 3
        config = steering(GHZ_TOY, n=n)
        dist = distilled_assemblage(config)
        pu = 3 * GHZ_TOY.alphas[0] ** 2
        ps = overall_success(pu, n)
        # computational outcome a: ps |aa><aa|/3 + (1-ps) alpha_a^2 |aa><aa|
        for a in range(3):
            expected = np.zeros((9, 9), dtype=complex)
            expected[4 * a, 4 * a] = ps / 3 + (1 - ps) * GHZ_TOY.alphas[a] ** 2
            assert np.allclose(dense_member(dist, (0,), (a,)), expected, atol=1e-13)

    def test_w3_member_structure(self):
        n = 2
        config = steering(W_TOY, n=n, q=2)
        dist = distilled_assemblage(config)
        b = W_TOY.betas
        pu = 3 * b[0] ** 2 * b[1] ** 2 / b[2] ** 2
        ps = overall_success(pu, n)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = ps / 3 + (1 - ps) * b[2] ** 2
        assert np.allclose(dense_member(dist, (0,), (1,)), expected, atol=1e-13)

    def test_mix_requires_matching_keys(self):
        c1 = steering(GHZ_TOY, s=1)
        c2 = steering(GHZ_TOY, s=2, q=1)
        a1 = build_assemblage(make_compact(GHZ_TOY), c1)
        a2 = build_assemblage(make_compact(GHZ_TOY), c2)
        with pytest.raises(DimensionMismatchError):
            mix_assemblages(0.5, a1, a2)

    def test_mix_and_score_require_matching_span(self):
        # W P = 3 and P = 4 at S = 1 both have two outcomes and 1-row
        # factors, on spans of 3 and 4
        w3 = build_assemblage(make_compact(W_TOY), steering(W_TOY, q=2))
        w4_spec = random_w_spec(np.random.default_rng(4), 4)
        w4 = build_assemblage(make_compact(w4_spec), steering(w4_spec, q=3))
        assert local_dim(w3.spec) == local_dim(w4.spec) and len(w3.members) == len(w4.members)
        with pytest.raises(DimensionMismatchError):
            mix_assemblages(0.5, w3, w4)
        with pytest.raises(DimensionMismatchError):
            assemblage_fidelity_by_setting(w3, w4)

    def test_mix_and_score_require_one_family(self):
        # GHZ d = 2 and W P = 2 both have two outcomes and spans of 2, but
        # place their rows differently
        ghz_spec, w_spec = GhzSpec(2, 3, (0.6, 0.8)), WSpec(2, (0.6, 0.8))
        ghz = build_assemblage(make_compact(ghz_spec), steering(ghz_spec))
        w = build_assemblage(make_compact(w_spec), steering(w_spec))
        assert local_dim(ghz.spec) == local_dim(w.spec) and ghz.members.shape == w.members.shape
        with pytest.raises(DimensionMismatchError):
            mix_assemblages(0.5, ghz, w)
        with pytest.raises(DimensionMismatchError):
            assemblage_fidelity_by_setting(ghz, w)


class TestAssemblageFidelity:
    """``run_tsd`` scores its distilled assemblage against the perfect one
    built from the uniform spec; ``fidelity_assemblage`` is that score."""

    def test_self_fidelity_reference_assemblages(self, rng):
        for spec, s, q in [(GHZ_TOY, 1, 1), (GHZ_TOY, 2, 1), (W_TOY, 1, 2)]:
            config = steering(spec, s=s, q=q)
            asm = build_assemblage(make_compact(spec), config)
            worst = min(assemblage_fidelity_by_setting(asm, asm).values())
            assert worst == pytest.approx(1.0, abs=1e-12)

    def test_equals_state_fidelity_ghz_s1(self):
        for n in (2, 3, 5, 10):
            got = run_tsd(steering(GHZ_TOY, n=n)).fidelity_assemblage
            assert got == pytest.approx(closed_form_fidelity(GHZ_TOY, n), abs=1e-9)

    def test_minimum_attained_at_fourier_setting(self):
        config = steering(GHZ_TOY, n=3)
        dist = distilled_assemblage(config)
        perfect = build_assemblage(make_compact(perfect_ghz(3, 3)), config)
        per = assemblage_fidelity_by_setting(dist, perfect)
        assert min(per, key=per.get) == (1,)
        assert per[(0,)] >= per[(1,)]

    def test_equals_state_fidelity_w_s1(self):
        for n in (2, 3, 7):
            got = run_tsd(steering(W_TOY, n=n, q=2)).fidelity_assemblage
            assert got == pytest.approx(closed_form_fidelity(W_TOY, n), abs=1e-9)

    def test_equals_state_fidelity_higher_prime_dims(self, rng):
        for d, p in ((5, 3), (7, 2)):
            spec = random_ghz_spec(rng, d, p)
            got = run_tsd(steering(spec, n=3, s=1, q=1)).fidelity_assemblage
            assert got == pytest.approx(closed_form_fidelity(spec, 3), abs=1e-9)

    def test_equals_state_fidelity_w_p4(self, rng):
        spec = random_w_spec(rng, 4)
        got = run_tsd(steering(spec, n=3, s=1, q=3)).fidelity_assemblage
        assert got == pytest.approx(closed_form_fidelity(spec, 3), abs=1e-9)

    @staticmethod
    def scaled_scores(scale: float) -> dict:
        """Both settings of a GHZ d = 3 assemblage whose one member row is
        ``scale`` times the perfect one's, scored against the perfect one:
        each root-fidelity total is ``scale``, each score ``scale ** 2``."""
        perfect = build_assemblage(make_compact(perfect_ghz(3, 3)), steering(GHZ_TOY))
        scaled = dataclasses.replace(perfect, members=scale * perfect.members)
        return assemblage_fidelity_by_setting(scaled, perfect)

    def test_score_beyond_tolerance_is_refused(self):
        for scale in (1.1, math.nan, math.inf, -math.inf):
            with pytest.raises(NotPositiveError) as caught:
                self.scaled_scores(scale)
            assert caught.value.category == "NotPositiveSemidefinite"

    def test_roundoff_above_one_clamps(self):
        assert (1.0 + 5e-14) ** 2 > 1.0 + 9e-14
        assert set(self.scaled_scores(1.0 + 5e-14).values()) == {1.0}
        # a score is a square: negated members score as the members do, so
        # no score falls below 0 for the clamp to lift
        below = self.scaled_scores(1.0 - 5e-14)
        assert set(self.scaled_scores(-(1.0 - 5e-14)).values()) == set(below.values())
        assert all(1.0 - 2e-13 < value < 1.0 for value in below.values())


class TestRunTsd:
    def test_ghz3_s1_q1_threshold(self):
        report = run_tsd(steering(GHZ_TOY, n=4, s=1, q=1))
        assert report.threshold
        assert report.p_success_per_copy == pytest.approx(0.27, abs=1e-12)
        assert report.fidelity_assemblage == pytest.approx(
            report.fidelity_closed_form, abs=1e-9
        )
        assert report.minimizing_setting == (1,)

    def test_ghz3_s1_q2_not_threshold_same_fidelity(self):
        r1 = run_tsd(steering(GHZ_TOY, n=4, s=1, q=1))
        r2 = run_tsd(steering(GHZ_TOY, n=4, s=1, q=2))
        assert not r2.threshold
        assert r2.fidelity_assemblage == pytest.approx(r1.fidelity_assemblage, abs=1e-12)

    def test_ghz3_s2_q1_not_threshold_same_fidelity(self):
        r1 = run_tsd(steering(GHZ_TOY, n=4, s=1, q=1))
        config = steering(GHZ_TOY, n=4, s=2, q=1)
        r3 = run_tsd(config)
        assert not r3.threshold
        assert distilled_assemblage(config).members.shape == (2, 3)
        assert r3.fidelity_assemblage == pytest.approx(r1.fidelity_assemblage, abs=1e-9)

    def test_w3_sd(self):
        report = run_tsd(steering(W_TOY, n=3, s=1, q=2))
        assert not report.threshold  # W steering distillation is never threshold
        assert report.fidelity_assemblage == pytest.approx(
            closed_form_fidelity(W_TOY, 3), abs=1e-9
        )

    def test_invalid_scenarios(self):
        with pytest.raises(InvalidSteeringScenarioError):
            steering(W_TOY, s=2, q=2)
        with pytest.raises(InvalidSteeringScenarioError):
            steering(GHZ_TOY, s=3, q=1)  # no characterized party left
        with pytest.raises(InvalidSteeringScenarioError):
            steering(GHZ_TOY, s=2, q=2)  # q does not fit on 1 characterized party
        with pytest.raises(InvalidSteeringScenarioError):
            steering(GHZ_TOY, s=0, q=1)

    def test_ghz_s_equals_p_minus_1_allowed_not_threshold(self):
        config = steering(GHZ_TOY, n=3, s=2, q=1)
        assert not config.threshold
        report = run_tsd(config)
        assert report.p_success_per_copy == pytest.approx(0.27, abs=1e-12)


def former_steering_rule(w: bool, p: int, q: int, s: int) -> tuple[str | None, bool | None]:
    """The steering rule as two family branches, before one fit rule took
    both: (the refusal's message start or None, threshold).  W then refused
    s >= 2 with its own message; the fit message now says the same."""
    if not 1 <= s <= p - 1:
        return "need between", None
    if w:
        if s != 1:
            return "do not fit", None
        return None, False
    if q > p - s:
        return "do not fit", None
    return None, s <= p - 2 and q <= p - s - 1


class TestSteeringRuleTable:
    def test_one_fit_rule_matches_the_family_branches(self):
        cases = 0
        for p in range(2, 9):
            specs = ((False, perfect_ghz(2, p), range(1, p)), (True, perfect_w(p), (p - 1,)))
            for w, spec, qs in specs:
                for q in qs:
                    for s in range(-1, p + 2):
                        refusal, threshold = former_steering_rule(w, p, q, s)
                        if refusal is None:
                            assert steering(spec, q=q, s=s).threshold is threshold
                        else:
                            with pytest.raises(InvalidSteeringScenarioError, match=refusal):
                                steering(spec, q=q, s=s)
                        cases += 1
        assert cases == sum(p * (p + 3) for p in range(2, 9))  # p values of q, p + 3 of s


def corpus_steering_configs():
    """Every valid (s, q) on each GHZ corpus spec, and s = 1 on each W
    corpus spec: 1500 configs, with n cycling through 2..10."""
    configs = []
    for i, spec in enumerate(ghz_corpus()):
        for s in range(1, spec.p):
            for q in range(1, spec.p - s + 1):
                configs.append(steering(spec, n=2 + (i + s + q) % 9, q=q, s=s))
    for i, spec in enumerate(w_corpus()):
        configs.append(steering(spec, n=2 + i % 9, q=spec.p - 1))
    return configs


class TestEntanglementParity:
    """The characterized parties apply the entanglement filters, so a
    steering run reports exactly the entanglement run's success
    probabilities and closed form, bit for bit."""

    @staticmethod
    def assert_same_success(config):
        tsd, ted = run_tsd(config), run_ted(config.base)
        assert tsd.p_success_per_copy == ted.p_success_per_copy
        assert tsd.p_success_overall == ted.p_success_overall
        assert tsd.fidelity_closed_form == ted.fidelity_closed_form

    def test_corpus(self):
        configs = corpus_steering_configs()
        assert len(configs) == 1500
        for config in configs:
            self.assert_same_success(config)

    def test_w_at_a_thousand_parties(self):
        # beta ratios in [0.999, 1] keep p_u near 0.38 instead of underflowing
        ratios = np.append(np.random.default_rng(0).uniform(0.999, 1.0, 999), 1.0)
        spec = WSpec(1000, tuple(ratios / np.linalg.norm(ratios)))
        self.assert_same_success(steering(spec, n=3, q=999))


class TestSteeringReadsTheEntanglementReport:
    """run_tsd reads the one cached spec context that run_ted reads on its
    base config, and takes p_u, the overall success and the closed form
    from the same per-N step (results_at) without building that report, so
    they equal the report's bit for bit, and the mixture it scores is the
    report's."""

    def test_second_run_hits_the_spec_context_cache(self):
        config = steering(GHZ_TOY, n=3)
        _compact_zero_layer.cache_clear()
        run_tsd(config)
        run_tsd(config)
        info = _compact_zero_layer.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_corpus_runs_on_the_run_ted_report(self):
        # every valid (s, q) on each GHZ corpus spec, s = 1 on each W one;
        # the warm run_tsd makes one lookup, a hit on run_ted's entry
        for config in corpus_steering_configs():
            ted = run_ted(config.base)
            hits = _compact_zero_layer.cache_info().hits
            tsd = run_tsd(config)
            assert _compact_zero_layer.cache_info().hits == hits + 1
            assert (tsd.p_success_per_copy, tsd.p_success_overall, tsd.fidelity_closed_form) == (
                ted.p_success_per_copy, ted.p_success_overall, ted.fidelity_closed_form)
            rows = [np.sqrt(w) * coeffs for w, coeffs in ted.distilled_state]
            assert np.array_equal(distilled_assemblage(config).members, rows)


def uniform_steering_configs():
    """Exactly uniform specs, where every setting scores 1 (the tie): every
    valid (s, q) on GHZ, s = 1 on W."""
    configs = []
    for d, p in ((2, 2), (2, 5), (3, 3), (5, 4), (16, 3), (1000, 3)):
        for s in range(1, p):
            configs += [steering(perfect_ghz(d, p), n=3, q=q, s=s) for q in range(1, p - s + 1)]
    return configs + [steering(perfect_w(p), n=3, q=p - 1) for p in (2, 3, 4, 6, 50)]


class TestScoresWithoutAssemblages:
    """run_tsd scores the two setting totals straight from the spec
    context; the reference route rebuilds the mixture as assemblages and
    scores every setting class.  Both must agree to the bit, and a run must
    form none of the reference objects."""

    STAGES = ("build_assemblage", "mix_assemblages", "assemblage_fidelity_by_setting",
              "perfect_like")

    @staticmethod
    def configs():
        configs = corpus_steering_configs() + uniform_steering_configs()
        return configs + [SteeringConfig(dataclasses.replace(c.base, n_copies=10**6), c.s)
                          for c in configs]

    def test_scores_equal_the_rebuilt_mixture(self):
        configs = self.configs()
        assert len(configs) == 2 * (1500 + len(uniform_steering_configs()))
        for config in configs:
            report = run_tsd(config)
            (_, perfect), _ = run_ted(config.base).distilled_state
            per = assemblage_fidelity_by_setting(
                distilled_assemblage(config), build_assemblage(perfect, config))
            lowest = min(per.values())
            assert report.fidelity_assemblage == lowest
            assert report.minimizing_setting == max(
                x for x, f in per.items() if f <= lowest + FIDELITY_CLAMP_TOL)

    def test_a_run_calls_no_assemblage_stage(self, monkeypatch):
        # every package module's reference is counted, the context's included
        called = collections.Counter()
        modules = [qdistill] + [importlib.import_module(m.name) for m in
                                pkgutil.iter_modules(qdistill.__path__, "qdistill.")]
        for name in self.STAGES:
            fn = next(getattr(m, name) for m in modules if hasattr(m, name))

            def counted(*args, name=name, fn=fn):
                called[name] += 1
                return fn(*args)
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        _compact_zero_layer.cache_clear()
        for config in self.configs():
            run_tsd(config)
        assert called == {}


class TestFourierScoreIsTheEntanglementFidelity:
    """The link between the two protocols, as a checked law that the run
    path does not take: the all-Fourier score of the distilled assemblage,
    ||R g||^2 by the reference route, is P_s + (1 - P_s) overlap, the
    entanglement run's ``fidelity_numeric``, up to roundoff (worst 1.1e-15
    on these configs)."""

    def test_corpus_and_uniform_configs(self):
        worst = 0.0
        for config in corpus_steering_configs() + uniform_steering_configs():
            ted = run_ted(config.base)
            (_, perfect), _ = ted.distilled_state
            per = assemblage_fidelity_by_setting(
                distilled_assemblage(config), build_assemblage(perfect, config))
            worst = max(worst, abs(per[(1,) * config.s] - ted.fidelity_numeric))
        assert worst <= 2e-15


def per_setting_of(config):
    """run_tsd's distilled assemblage scored setting by setting against the
    perfect one it is built from."""
    report = run_tsd(config)
    perfect = build_assemblage(make_compact(perfect_like(config.base.spec)), config)
    return report, assemblage_fidelity_by_setting(distilled_assemblage(config), perfect)


ORACLE_CASES = [
    (GHZ_TOY, 1, 1, 3),
    (GHZ_TOY, 1, 2, 2),
    (GHZ_TOY, 2, 1, 5),
    (W_TOY, 1, 2, 3),
    (ghz_spec_of(3, 4, 1), 2, 1, 4),
    (ghz_spec_of(5, 4, 2), 2, 1, 4),
    (ghz_spec_of(2, 8, 3), 3, 1, 4),
    *[(random_w_spec(np.random.default_rng(p), p), 1, p - 1, 3) for p in range(4, 9)],
    (ghz_spec_of(4, 3, 4), 1, 1, 3),
    (ghz_spec_of(4, 4, 5), 3, 1, 4),
    (ghz_spec_of(6, 3, 6), 2, 1, 5),
    (ghz_spec_of(6, 4, 7), 1, 2, 3),
]


class TestDenseOracle:
    """Every setting string's value on the dense route against its class
    value on the span route: d^P vectors, explicit basis vectors, Kronecker
    filters and eigendecomposition root fidelities on d^(P-S)-square
    members."""

    @pytest.mark.parametrize("spec, s, q, n", ORACLE_CASES)
    def test_per_setting_values_match_dense_oracle(self, spec, s, q, n):
        config = steering(spec, n=n, q=q, s=s)
        report, per = per_setting_of(config)
        want = oracle_steering(config)
        assert report.p_success_per_copy == pytest.approx(want.p_success_per_copy, abs=1e-12)
        assert len(want.per_setting) == 2**s
        assert {class_of(x) for x in want.per_setting} == per.keys()
        for x, value in want.per_setting.items():
            assert per[class_of(x)] == pytest.approx(value, abs=1e-12)
        assert report.fidelity_assemblage == min(per.values())

    @pytest.mark.parametrize("spec, s, q, n", ORACLE_CASES)
    def test_decimal_setting_law_matches_dense_oracle(self, spec, s, q, n):
        config = steering(spec, n=n, q=q, s=s)
        want = oracle_steering(config).per_setting
        if isinstance(spec, GhzSpec):
            fourier, computational = oracle_ghz_settings(spec.alphas, n)
        else:
            fourier, computational = oracle_w_settings(spec.betas, n)
        for x, value in want.items():
            law = fourier if all(x) else computational
            assert value == pytest.approx(float(law), abs=1e-12)


class TestSettingLaw:
    """The exact per-setting law, at sizes the dense oracle cannot reach:
    the all-Fourier (Hadamard) string gives the state closed form F, any
    string with a computational party the classical fidelity."""

    @given(st.data())
    def test_span_route_matches_decimal_law(self, data):
        if data.draw(st.booleans(), label="ghz"):
            d = data.draw(st.integers(2, 300), label="d")
            p = data.draw(st.integers(2, 60), label="p")
            s = data.draw(st.integers(1, p - 1), label="s")
            q = data.draw(st.integers(1, p - s), label="q")
            # coefficients from a drawn seed: d drawn floats would overrun
            # hypothesis's draw buffer at large d
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            raw = np.random.default_rng(seed).uniform(0.05, 1.0, d)
            spec = GhzSpec(d, p, tuple(np.sort(raw / np.linalg.norm(raw))))
        else:
            p = data.draw(st.integers(3, 200), label="p")
            s, q = 1, p - 1
            raw = data.draw(st.lists(st.floats(0.5, 1.0), min_size=p, max_size=p))
            spec = WSpec(p, tuple(np.sort(np.asarray(raw) / np.linalg.norm(raw))))
        n = data.draw(st.integers(2, 40), label="n")
        _, per = per_setting_of(steering(spec, n=n, q=q, s=s))
        if isinstance(spec, GhzSpec):
            fourier, computational = oracle_ghz_settings(spec.alphas, n)
        else:
            fourier, computational = oracle_w_settings(spec.betas, n)
        for x, value in per.items():
            law = fourier if all(x) else computational
            assert abs(value - float(law)) <= 1e-12


class TestUniformTieBreak:
    """On a uniform spec every setting scores 1; the minimizer is pinned to
    the lexicographically largest string within FIDELITY_CLAMP_TOL of the
    minimum, the all-Fourier string non-uniform specs converge to."""

    @pytest.mark.parametrize(
        "spec, s, q",
        [(perfect_ghz(d, 3), s, 1) for d in (2, 3, 5) for s in (1, 2)]
        + [(perfect_w(p), 1, p - 1) for p in (3, 4, 6)],
    )
    def test_uniform_spec_picks_all_fourier(self, spec, s, q):
        report = run_tsd(steering(spec, n=3, q=q, s=s))
        assert report.minimizing_setting == (1,) * s
        assert report.fidelity_assemblage == pytest.approx(1.0, abs=1e-12)


class TestSpanGuards:
    def test_large_outcome_counts_run_in_bounded_memory(self):
        # the factor is O(d), so no outcome count is capped
        for d in (1001, 10**5):
            raw = np.random.default_rng(d).uniform(0.2, 1.0, d)
            spec = GhzSpec(d, 3, tuple(np.sort(raw / np.linalg.norm(raw))))
            config = steering(spec, n=4, s=2, q=1)
            tracemalloc.start()
            try:
                report = run_tsd(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20
            assert distilled_assemblage(config).members.shape == (2, d)
            assert report.fidelity_assemblage == pytest.approx(
                report.fidelity_closed_form, abs=1e-12
            )

    @staticmethod
    def w_config_of_3000_parties():
        ratios = np.append(np.random.default_rng(3000).uniform(0.999, 1.0, 2999), 1.0)
        spec = WSpec(3000, tuple(ratios / np.linalg.norm(ratios)))
        return steering(spec, n=3, q=2999)

    def test_w_span_runs_in_bounded_memory(self):
        # the W placement is one changed row per party, never a P x P
        # table, so the layer holds O(P) numbers
        config = self.w_config_of_3000_parties()
        for run in (lambda: run_ted(config.base), lambda: run_tsd(config)):
            _compact_zero_layer.cache_clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20

    def test_w_span_runs_in_milliseconds(self):
        # each participant changes one row, so a fresh W layer is O(P), not
        # O(P^2) (best of 5 CPU times, the spec context rebuilt each time)
        config = self.w_config_of_3000_parties()
        for run in (lambda: run_ted(config.base), lambda: run_tsd(config)):
            times = []
            for _ in range(5):
                _compact_zero_layer.cache_clear()
                start = time.process_time()
                run()
                times.append(time.process_time() - start)
            assert min(times) < 0.010

    def test_d1000_runs_in_milliseconds(self):
        # a d = 1000 run is O(d): no d^2 member array or basis is formed
        d = 1000
        raw = np.random.default_rng(d).uniform(0.2, 1.0, d)
        spec = GhzSpec(d, 3, tuple(np.sort(raw / np.linalg.norm(raw))))
        config = steering(spec, n=4, s=2, q=1)
        times = []
        for _ in range(5):
            start = time.process_time()
            report = run_tsd(config)
            times.append(time.process_time() - start)
        assert min(times) < 0.005
        assert distilled_assemblage(config).members.shape == (2, d)
        assert report.fidelity_assemblage == pytest.approx(
            report.fidelity_closed_form, abs=1e-12
        )

    def test_cold_run_at_a_hundred_thousand_outcomes(self):
        # a fresh context fills the uniform target in instead of validating
        # a second spec of 10^5 coefficients (best of 5 CPU times, the spec
        # prebuilt and the context rebuilt each time)
        d = 10**5
        raw = np.random.default_rng(d).uniform(0.2, 1.0, d)
        config = steering(GhzSpec(d, 3, tuple(np.sort(raw / np.linalg.norm(raw)))), n=4, s=2)
        times = []
        for _ in range(5):
            _compact_zero_layer.cache_clear()
            start = time.process_time()
            run_tsd(config)
            times.append(time.process_time() - start)
        assert min(times) < 0.040

    def test_sizes_past_the_dense_route_run_in_milliseconds(self):
        # 2^12 amplitudes: the dense route took over a minute for GHZ
        ghz = steering(GhzSpec(2, 12, (0.6, 0.8)), n=4)
        w = steering(random_w_spec(np.random.default_rng(12), 12), n=3, q=11)
        for config in (ghz, w):
            start = time.process_time()
            report = run_tsd(config)
            assert time.process_time() - start < 0.05
            assert report.fidelity_assemblage == pytest.approx(
                report.fidelity_closed_form, abs=1e-12
            )

    def test_member_cap_runs_in_milliseconds(self):
        # the (2 d)^S members are never built: 4^30 of them at (2, 40, 30),
        # and the largest S at d = 50 and d = 300 (best of 5 CPU times)
        for (d, p, s), budget in (((2, 40, 30), 0.05), ((50, 50, 49), 0.05),
                                  ((300, 40, 39), 0.05)):
            config = steering(ghz_spec_of(d, p, d), n=4, s=s, q=1)
            times = []
            for _ in range(5):
                start = time.process_time()
                report = run_tsd(config)
                times.append(time.process_time() - start)
            assert min(times) < budget
            assert distilled_assemblage(config).members.shape == (2, d)
            assert report.minimizing_setting == (1,) * s
            assert report.fidelity_assemblage == pytest.approx(
                report.fidelity_closed_form, abs=1e-12
            )

    def test_underflowing_w_success_gives_zero(self):
        # p_u underflows to 0.0 at P = 1000; run_ted reports it as 0, and the
        # steering run does the same instead of refusing the filter outcome
        ratios = np.append(np.random.default_rng(5).uniform(0.2, 1, 999), 1.0)
        spec = WSpec(1000, tuple(ratios / np.linalg.norm(ratios)))
        report = run_tsd(steering(spec, n=3, q=999))
        assert report.p_success_per_copy == 0.0
        assert report.fidelity_assemblage == pytest.approx(
            report.fidelity_closed_form, abs=1e-9
        )

    def test_state_off_the_configured_span(self):
        # the spec comes from the config, so only the span length can differ
        for config in (steering(GHZ_TOY), steering(W_TOY, q=2)):  # 3 span rows each
            for length in (2, 4):
                with pytest.raises(DimensionMismatchError, match="configured spec's span"):
                    build_assemblage(np.full(length, length**-0.5), config)

    def test_reference_members_must_be_pure(self):
        dist = distilled_assemblage(steering(GHZ_TOY, n=3))
        with pytest.raises(DimensionMismatchError):
            assemblage_fidelity_by_setting(dist, dist)
