import math

import numpy as np
import pytest

from qdistill import (
    Assemblage,
    Family,
    GhzSpec,
    InvalidSpecError,
    InvalidSteeringScenarioError,
    NotPositiveError,
    ProtocolConfig,
    SteeringConfig,
    WSpec,
    assemblage_fidelity,
    build_assemblage,
    closed_form_fidelity_ghz,
    closed_form_fidelity_w,
    filter_assemblage,
    make_dense,
    mub_family,
    perfect_ghz,
    perfect_w,
    run_tsd,
    success_prob_per_copy,
)
from qdistill.ted import assignment_for, overall_success
from qdistill.tsd import (
    assemblage_fidelity_by_setting,
    mix_assemblages,
    validate_assemblage,
)

from conftest import ghz_config, random_ghz_spec, random_w_spec

GHZ_TOY = GhzSpec(3, 3, (0.3, 0.5, math.sqrt(1 - 0.09 - 0.25)))
W_TOY = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))


def steering(spec, n=2, q=1, s=1, family=None):
    family = family or (
        Family.GHZ_DIAGONAL if isinstance(spec, GhzSpec) else Family.W_SINGLE_EXCITATION
    )
    base = ProtocolConfig(n, family, spec, q)
    return SteeringConfig(base, s)


class TestMubFamily:
    def test_d2_is_computational_and_hadamard(self):
        fam = mub_family(2)
        comp, four = fam.bases
        assert np.allclose(comp[0].amplitudes, [1, 0])
        assert np.allclose(four[0].amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(four[1].amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_orthonormal_and_unbiased(self, d):
        fam = mub_family(d)
        for basis in fam.bases:
            for i, ei in enumerate(basis):
                for j, ej in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert abs(np.vdot(ei.amplitudes, ej.amplitudes) - want) < 1e-12
        comp, four = fam.bases
        for e in comp:
            for f in four:
                overlap = abs(np.vdot(e.amplitudes, f.amplitudes)) ** 2
                assert overlap == pytest.approx(1 / d, abs=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidSpecError):
            mub_family(4)


class TestBuildAssemblage:
    def test_ghz3_computational_members(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_dense(GHZ_TOY), config)
        for a in range(3):
            member = asm.member((0,), (a,))
            expected = np.zeros((9, 9), dtype=complex)
            expected[4 * a, 4 * a] = GHZ_TOY.alphas[a] ** 2  # |aa><aa| scaled
            assert np.allclose(member, expected, atol=1e-14)

    def test_ghz3_fourier_members(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_dense(GHZ_TOY), config)
        omega = np.exp(2j * np.pi / 3)
        for a in range(3):
            ket = np.zeros(9, dtype=complex)
            for i in range(3):
                ket[4 * i] = GHZ_TOY.alphas[i] * omega ** (-a * i) / np.sqrt(3)
            expected = np.outer(ket, ket.conj())
            assert np.allclose(asm.member((1,), (a,)), expected, atol=1e-14)

    def test_w3_members_match_derived_forms(self):
        config = steering(W_TOY, q=2)
        asm = build_assemblage(make_dense(W_TOY), config)
        b0, b1, b2 = W_TOY.betas
        # computational setting: outcome 0 keeps the two-excitation-free branch
        w0 = np.zeros(4, dtype=complex)
        w0[1], w0[2] = b0, b1  # |01>, |10>
        assert np.allclose(asm.member((0,), (0,)), np.outer(w0, w0.conj()), atol=1e-14)
        m10 = np.zeros((4, 4), dtype=complex)
        m10[0, 0] = b2**2  # beta_2^2 |00><00|
        assert np.allclose(asm.member((0,), (1,)), m10, atol=1e-14)
        assert np.trace(asm.member((0,), (0,))).real == pytest.approx(b0**2 + b1**2, abs=1e-14)
        # Hadamard setting: (1/2) |w_pm><w_pm| with w_pm = b2|00> +- b0|01> +- b1|10>
        for a, sign in ((0, 1.0), (1, -1.0)):
            wpm = np.zeros(4, dtype=complex)
            wpm[0], wpm[1], wpm[2] = b2, sign * b0, sign * b1
            expected = 0.5 * np.outer(wpm, wpm.conj())
            assert np.allclose(asm.member((1,), (a,)), expected, atol=1e-14)

    def test_member_count_s2(self):
        config = steering(GHZ_TOY, s=2, q=1)
        asm = build_assemblage(make_dense(GHZ_TOY), config)
        assert len(asm.members) == 36  # 4 setting strings x 9 outcome strings
        assert asm.char_dim == 3

    def test_nonsignaling_random_specs(self, rng):
        for _ in range(10):
            spec = random_ghz_spec(rng, 3, 3)
            for s in (1, 2):
                asm = build_assemblage(make_dense(spec), steering(spec, s=s, q=1))
                validate_assemblage(asm)
        for _ in range(10):
            wspec = random_w_spec(rng, 4)
            asm = build_assemblage(make_dense(wspec), steering(wspec, s=1, q=3))
            validate_assemblage(asm)

    def test_validate_rejects_nan_member(self):
        asm = build_assemblage(make_dense(GHZ_TOY), steering(GHZ_TOY))
        members = dict(asm.members)
        key = next(iter(members))
        members[key] = np.full_like(members[key], math.nan)
        broken = Assemblage(asm.s, asm.d_out, asm.char_dims, members)
        with pytest.raises(NotPositiveError):
            validate_assemblage(broken)

    def test_reduced_state_is_partial_trace(self):
        asm = build_assemblage(make_dense(GHZ_TOY), steering(GHZ_TOY))
        expected = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            expected[4 * i, 4 * i] = GHZ_TOY.alphas[i] ** 2
        for x in asm.settings:
            assert np.allclose(asm.reduced_state(x), expected, atol=1e-12)


class TestFilterAssemblage:
    def test_identityish_filters_on_perfect_spec(self):
        spec = perfect_ghz(3, 3)
        config = steering(spec)
        asm = build_assemblage(make_dense(spec), config)
        assignment = assignment_for(Family.GHZ_DIAGONAL, spec, 1)
        filtered, prob = filter_assemblage(asm, assignment, (0,))
        assert prob == pytest.approx(1.0, abs=1e-12)
        for key in asm.members:
            assert np.allclose(filtered.members[key], asm.members[key], atol=1e-12)

    def test_ghz3_filter_recovers_perfect_assemblage(self):
        config = steering(GHZ_TOY)
        asm = build_assemblage(make_dense(GHZ_TOY), config)
        assignment = assignment_for(Family.GHZ_DIAGONAL, GHZ_TOY, 1)
        filtered, prob = filter_assemblage(asm, assignment, (0,))
        assert prob == pytest.approx(3 * GHZ_TOY.alphas[0] ** 2, abs=1e-14)
        perfect = build_assemblage(make_dense(perfect_ghz(3, 3)), config)
        for key in perfect.members:
            assert np.allclose(filtered.members[key], perfect.members[key], atol=1e-12)

    def test_w3_filter_probability_and_output(self):
        config = steering(W_TOY, q=2)
        asm = build_assemblage(make_dense(W_TOY), config)
        assignment = assignment_for(Family.W_SINGLE_EXCITATION, W_TOY, 2)
        filtered, prob = filter_assemblage(asm, assignment, (0, 0))
        b = W_TOY.betas
        assert prob == pytest.approx(3 * b[0] ** 2 * b[1] ** 2 / b[2] ** 2, abs=1e-14)
        perfect = build_assemblage(make_dense(perfect_w(3)), config)
        for key in perfect.members:
            assert np.allclose(filtered.members[key], perfect.members[key], atol=1e-12)

    def test_filter_on_uncharacterized_party_rejected(self, rng):
        spec = random_ghz_spec(rng, 3, 4)
        config = steering(spec, s=2, q=1)
        asm = build_assemblage(make_dense(spec), config)
        # an assignment whose participant sits on party 1 (< s) must be refused
        from qdistill.filters import IndexPartition, ghz_partition_assignment

        bad = ghz_partition_assignment(spec, IndexPartition.single(spec.d), (1,))
        with pytest.raises(InvalidSteeringScenarioError):
            filter_assemblage(asm, bad, (0,))

    def test_tsd_probability_equals_ted_probability(self, rng):
        for _ in range(5):
            spec = random_ghz_spec(rng, 3, 4)
            config = steering(spec, s=1, q=2)
            asm = build_assemblage(make_dense(spec), config)
            assignment = assignment_for(Family.GHZ_DIAGONAL, spec, 2)
            _, prob = filter_assemblage(asm, assignment, (0, 0))
            assert prob == pytest.approx(
                success_prob_per_copy(ghz_config(spec, q=2)), abs=1e-12
            )

    def test_filtered_assemblage_stays_nonsignaling(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        config = steering(spec)
        asm = build_assemblage(make_dense(spec), config)
        assignment = assignment_for(Family.GHZ_DIAGONAL, spec, 1)
        for outcome in ((0,), (1,)):
            filtered, _ = filter_assemblage(asm, assignment, outcome)
            validate_assemblage(filtered)


class TestDistilledAssemblage:
    def test_perfect_input_unchanged(self):
        spec = perfect_ghz(3, 3)
        config = steering(spec, n=3)
        dist = run_tsd(config).distilled
        perfect = build_assemblage(make_dense(spec), config)
        for key in perfect.members:
            assert np.allclose(dist.members[key], perfect.members[key], atol=1e-12)

    def test_ghz3_member_structure(self):
        n = 3
        config = steering(GHZ_TOY, n=n)
        dist = run_tsd(config).distilled
        pu = 3 * GHZ_TOY.alphas[0] ** 2
        ps = overall_success(pu, n)
        # computational outcome a: ps |aa><aa|/3 + (1-ps) alpha_a^2 |aa><aa|
        for a in range(3):
            expected = np.zeros((9, 9), dtype=complex)
            expected[4 * a, 4 * a] = ps / 3 + (1 - ps) * GHZ_TOY.alphas[a] ** 2
            assert np.allclose(dist.member((0,), (a,)), expected, atol=1e-13)

    def test_w3_member_structure(self):
        n = 2
        config = steering(W_TOY, n=n, q=2)
        dist = run_tsd(config).distilled
        b = W_TOY.betas
        pu = 3 * b[0] ** 2 * b[1] ** 2 / b[2] ** 2
        ps = overall_success(pu, n)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = ps / 3 + (1 - ps) * b[2] ** 2
        assert np.allclose(dist.member((0,), (1,)), expected, atol=1e-13)

    def test_mix_requires_matching_keys(self):
        c1 = steering(GHZ_TOY, s=1)
        c2 = steering(GHZ_TOY, s=2, q=1)
        a1 = build_assemblage(make_dense(GHZ_TOY), c1)
        a2 = build_assemblage(make_dense(GHZ_TOY), c2)
        with pytest.raises(Exception):
            mix_assemblages(0.5, a1, a2)


class TestAssemblageFidelity:
    def test_self_fidelity_reference_assemblages(self, rng):
        for spec, s, q in [(GHZ_TOY, 1, 1), (GHZ_TOY, 2, 1), (W_TOY, 1, 2)]:
            config = steering(spec, s=s, q=q)
            asm = build_assemblage(make_dense(spec), config)
            assert assemblage_fidelity(asm, asm) == pytest.approx(1.0, abs=1e-12)

    def test_equals_state_fidelity_ghz_s1(self):
        for n in (2, 3, 5, 10):
            config = steering(GHZ_TOY, n=n)
            dist = run_tsd(config).distilled
            perfect = build_assemblage(make_dense(perfect_ghz(3, 3)), config)
            got = assemblage_fidelity(dist, perfect)
            want = closed_form_fidelity_ghz(GHZ_TOY, n)
            assert got == pytest.approx(want, abs=1e-9)

    def test_minimum_attained_at_fourier_setting(self):
        config = steering(GHZ_TOY, n=3)
        dist = run_tsd(config).distilled
        perfect = build_assemblage(make_dense(perfect_ghz(3, 3)), config)
        per = assemblage_fidelity_by_setting(dist, perfect)
        assert min(per, key=per.get) == (1,)
        assert per[(0,)] >= per[(1,)]

    def test_equals_state_fidelity_w_s1(self):
        for n in (2, 3, 7):
            config = steering(W_TOY, n=n, q=2)
            dist = run_tsd(config).distilled
            perfect = build_assemblage(make_dense(perfect_w(3)), config)
            got = assemblage_fidelity(dist, perfect)
            want = closed_form_fidelity_w(W_TOY, n)
            assert got == pytest.approx(want, abs=1e-9)

    def test_equals_state_fidelity_higher_prime_dims(self, rng):
        for d, p in ((5, 3), (7, 2)):
            spec = random_ghz_spec(rng, d, p)
            config = steering(spec, n=3, s=1, q=1)
            dist = run_tsd(config).distilled
            perfect = build_assemblage(make_dense(perfect_ghz(d, p)), config)
            got = assemblage_fidelity(dist, perfect)
            assert got == pytest.approx(closed_form_fidelity_ghz(spec, 3), abs=1e-9)

    def test_equals_state_fidelity_w_p4(self, rng):
        spec = random_w_spec(rng, 4)
        config = steering(spec, n=3, s=1, q=3)
        dist = run_tsd(config).distilled
        perfect = build_assemblage(make_dense(perfect_w(4)), config)
        got = assemblage_fidelity(dist, perfect)
        assert got == pytest.approx(closed_form_fidelity_w(spec, 3), abs=1e-9)


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
        r3 = run_tsd(steering(GHZ_TOY, n=4, s=2, q=1))
        assert not r3.threshold
        assert len(r3.distilled.members) == 36
        assert r3.fidelity_assemblage == pytest.approx(r1.fidelity_assemblage, abs=1e-9)

    def test_w3_sd(self):
        report = run_tsd(steering(W_TOY, n=3, s=1, q=2))
        assert not report.threshold  # W steering distillation is never threshold
        assert report.fidelity_assemblage == pytest.approx(
            closed_form_fidelity_w(W_TOY, 3), abs=1e-9
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
