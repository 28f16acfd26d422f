import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    BadPartitionError,
    DimensionMismatchError,
    GhzSpec,
    IndexPartition,
    KrausPair,
    PivotNotMaximalError,
    PivotNotMinimalError,
    WSpec,
    canonicalize_spec,
    ghz_partition_assignment,
    ghz_single_party_pair,
    make_dense,
    perfect_ghz,
    perfect_w,
    validate_povm,
    w_assignment,
)
from qdistill.filters import identity_pair, last_parties

from conftest import (
    labeled_partitions,
    oracle_layer,
    random_ghz_spec,
    random_w_spec,
)


class TestGhzSinglePartyPair:
    def test_perfect_spec_gives_identity(self):
        pair = ghz_single_party_pair(perfect_ghz(3, 3))
        assert np.allclose(pair.k0, np.ones(3))
        assert np.allclose(pair.k1, np.zeros(3))

    def test_d3_entries(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        a0, a1, a2 = spec.alphas
        pair = ghz_single_party_pair(spec)
        assert np.allclose(pair.diag(0), [1.0, a0 / a1, a0 / a2])
        expected_k1 = [0.0, np.sqrt(1 - (a0 / a1) ** 2), np.sqrt(1 - (a0 / a2) ** 2)]
        assert np.allclose(pair.diag(1), expected_k1)

    def test_pivot_not_minimal(self):
        spec = GhzSpec(3, 3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(PivotNotMinimalError):
            ghz_single_party_pair(spec)

    def test_completeness_100_random_specs(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            pair = ghz_single_party_pair(random_ghz_spec(rng, d, 2))
            report = validate_povm(pair)
            assert report.ok, report

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    def test_completeness_hypothesis(self, raw):
        vec = np.sort(np.asarray(raw) / np.linalg.norm(raw))
        spec = GhzSpec(len(vec), 2, tuple(vec))
        assert validate_povm(ghz_single_party_pair(spec)).ok

    def test_tied_pivot_accepted(self):
        # equal minimal coefficients give a unit diagonal entry, not an error
        spec = GhzSpec(3, 3, (0.5, 0.5, np.sqrt(0.5)))
        pair = ghz_single_party_pair(spec)
        assert np.allclose(pair.diag(0)[:2], [1.0, 1.0])
        assert validate_povm(pair).ok


class TestPartitionAssignment:
    def test_two_block_toy(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        a0, a1, a2 = spec.alphas
        part = IndexPartition((frozenset({1}), frozenset({2})))
        assignment = ghz_partition_assignment(spec, part, (1, 2))
        assert assignment.participants == (1, 2)
        assert np.allclose(assignment.pairs[1].diag(0), [1.0, a0 / a1, 1.0])
        assert np.allclose(assignment.pairs[2].diag(0), [1.0, 1.0, a0 / a2])

    def test_single_block_reduces_to_single_party_pair(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        assignment = ghz_partition_assignment(
            spec, IndexPartition.single(4), (2,)
        )
        single = ghz_single_party_pair(spec)
        assert np.array_equal(assignment.pairs[2].k0, single.k0)
        assert np.array_equal(assignment.pairs[2].k1, single.k1)

    def test_partition_invariance_dense(self, rng):
        # post-selected state and probability identical for every labeled
        # partition and every participant count, d <= 4, p <= 4
        for d, p in [(2, 3), (3, 3), (4, 3), (3, 4)]:
            spec = random_ghz_spec(rng, d, p)
            psi = make_dense(spec).amplitudes
            reference = None
            for q in range(1, p):
                for part in labeled_partitions(d, q):
                    assignment = ghz_partition_assignment(
                        spec, part, last_parties(p, q)
                    )
                    out, prob = oracle_layer(assignment, (0,) * q, psi)
                    state = out / np.sqrt(prob)
                    if reference is None:
                        reference = (state, prob)
                    else:
                        assert abs(prob - reference[1]) < 1e-12
                        assert np.max(np.abs(state - reference[0])) < 1e-12
            assert reference[1] == pytest.approx(d * spec.alphas[0] ** 2, abs=1e-12)

    def test_empty_block_is_identity(self, rng):
        spec = random_ghz_spec(rng, 2, 4)
        part = IndexPartition((frozenset({1}), frozenset()))
        assignment = ghz_partition_assignment(spec, part, (2, 3))
        assert np.allclose(assignment.pairs[3].k0, np.ones(2))

    def test_diagonal_product_flattens_profile(self, rng):
        # across participants, entry products must be alpha_0/alpha_i
        # (and 1 at the pivot) for any partition
        for d, q in [(4, 2), (5, 3), (6, 4)]:
            spec = random_ghz_spec(rng, d, 5)
            part = IndexPartition.contiguous(d, q)
            assignment = ghz_partition_assignment(spec, part, last_parties(5, q))
            product = np.ones(d)
            for j in assignment.participants:
                product *= assignment.pairs[j].diag(0)
            expected = np.array(spec.alphas[0]) / np.array(spec.alphas)
            expected[0] = 1.0
            assert np.allclose(product, expected, atol=1e-14)

    def test_bad_partitions(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        cases = [
            (IndexPartition((frozenset({1, 2}), frozenset({2, 3}))), (1, 2)),  # overlap
            (IndexPartition((frozenset({1}), frozenset({3}))), (1, 2)),        # missing 2
            (IndexPartition((frozenset({0, 1, 2, 3}),)), (2,)),                # pivot included
            (IndexPartition((frozenset({1, 2, 3}),)), (1, 2)),                 # count mismatch
            (IndexPartition((frozenset({1, 2}), frozenset({3}))), (2, 2)),     # duplicate party
            (IndexPartition((frozenset({1, 2}), frozenset({3}))), (1, 5)),     # out of range
        ]
        for part, parties in cases:
            with pytest.raises(BadPartitionError):
                ghz_partition_assignment(spec, part, parties)

    def test_all_parties_participating_rejected(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        part = IndexPartition((frozenset({1}), frozenset({2}), frozenset({3})))
        with pytest.raises(BadPartitionError):
            ghz_partition_assignment(spec, part, (0, 1, 2))


class TestWAssignment:
    def test_w3_entries(self, rng):
        spec = random_w_spec(rng, 3)
        b0, b1, b2 = spec.betas
        assignment = w_assignment(spec)
        assert assignment.participants == (1, 2)
        assert assignment.pairs[0] is None
        assert np.allclose(assignment.pairs[1].diag(0), [b1 / b2, 1.0])
        assert np.allclose(assignment.pairs[2].diag(0), [b0 / b2, 1.0])
        assert np.allclose(
            assignment.pairs[1].diag(1), [np.sqrt(1 - (b1 / b2) ** 2), 0.0]
        )

    def test_perfect_w_identity_filters(self):
        assignment = w_assignment(perfect_w(4))
        for j in (1, 2, 3):
            assert np.allclose(assignment.pairs[j].k0, np.ones(2))

    def test_pivot_not_maximal(self):
        spec = WSpec(3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(PivotNotMaximalError):
            w_assignment(spec)

    def test_completeness_100_random_specs(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 8))
            assignment = w_assignment(random_w_spec(rng, p))
            for j in assignment.participants:
                assert validate_povm(assignment.pairs[j]).ok

    def test_filtered_w_state_is_uniform(self, rng):
        for p in (3, 4, 5):
            spec = random_w_spec(rng, p)
            psi = make_dense(spec).amplitudes
            assignment = w_assignment(spec)
            out, prob = oracle_layer(assignment, (0,) * (p - 1), psi)
            amps = out[np.nonzero(out)[0]] / np.sqrt(prob)
            assert len(amps) == p
            assert np.max(np.abs(amps - amps[0])) < 1e-12


class TestValidatePovm:
    def test_identity_pair_ok(self):
        assert validate_povm(identity_pair(3)).ok

    def test_half_pair_ok(self):
        pair = KrausPair([0.5], [np.sqrt(0.75)])
        assert validate_povm(pair).ok

    def test_incomplete_pair_reports_deviation(self):
        pair = KrausPair([0.9], [0.9])
        report = validate_povm(pair)
        assert not report.ok
        assert report.completeness_deviation == pytest.approx(0.62, abs=1e-12)

    def test_produced_pairs_always_complete(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            spec = random_ghz_spec(rng, d, 3)
            for part in [IndexPartition.single(d), IndexPartition.halves(d)]:
                q = len(part.blocks)
                assignment = ghz_partition_assignment(spec, part, last_parties(3, q))
                for j in assignment.participants:
                    assert validate_povm(assignment.pairs[j]).completeness_deviation < 1e-12


class TestCanonicalize:
    def test_ghz_swaps_minimum_to_front(self):
        spec = GhzSpec(3, 3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        canon, perm = canonicalize_spec(spec)
        assert canon.alphas[0] == min(spec.alphas)
        assert perm == (1, 0, 2)

    def test_already_canonical_identity_perm(self, rng):
        spec = random_ghz_spec(rng, 4, 2)
        canon, perm = canonicalize_spec(spec)
        assert perm == (0, 1, 2, 3)
        assert canon.alphas == spec.alphas

    def test_w_swaps_maximum_to_back(self):
        spec = WSpec(3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        canon, perm = canonicalize_spec(spec)
        assert canon.betas[-1] == max(spec.betas)
        assert perm == (2, 1, 0)

    def test_filters_valid_after_canonicalization(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            v = rng.uniform(0.2, 1.0, d)
            v /= np.linalg.norm(v)
            canon, _ = canonicalize_spec(GhzSpec(d, 2, tuple(v)))
            assert validate_povm(ghz_single_party_pair(canon)).ok
            p = int(rng.integers(2, 7))
            w = rng.uniform(0.2, 1.0, p)
            w /= np.linalg.norm(w)
            wcanon, _ = canonicalize_spec(WSpec(p, tuple(w)))
            for j in w_assignment(wcanon).participants:
                assert validate_povm(w_assignment(wcanon).pairs[j]).ok


class TestKrausPairType:
    def test_stores_real_diagonal_vectors(self):
        pair = KrausPair([0.5, 1], [np.sqrt(0.75), 0])
        assert pair.k0.dtype == float and pair.k0.shape == (2,)
        assert pair.diag(0) is pair.k0 and pair.diag(1) is pair.k1
        assert pair.dim == 2

    @pytest.mark.parametrize("k0, k1", [
        # a non-diagonal operator can no longer be expressed: any 2-D input fails
        pytest.param(np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex), np.ones(2),
                     id="non_diagonal_matrix"),
        pytest.param(np.diag([0.5, 1.0]), np.ones(2), id="diagonal_matrix"),
        pytest.param(np.ones(2), np.eye(2), id="k1_matrix"),
        pytest.param(np.float64(0.5), np.ones(1), id="scalar"),
        # complex input, even with a zero imaginary part, is not cast silently
        pytest.param(np.array([0.5, 1.0 + 0.1j]), np.ones(2), id="complex"),
        pytest.param(np.array([0.5, 1.0], dtype=complex), np.ones(2), id="complex_dtype"),
        pytest.param(np.ones(2), np.array([0.5j, 0.0]), id="k1_complex"),
        pytest.param([0.5, 0.5], [0.5, 0.5, 0.5], id="unequal_lengths"),
    ])
    def test_rejects_malformed_inputs(self, k0, k1):
        with pytest.raises(DimensionMismatchError):
            KrausPair(k0, k1)

    def test_rejects_out_of_range_entries(self):
        # NaN-safe: NaN and infinity fail the [0, 1] check too
        for k0, k1 in [
            ([1.2, 0.5], [0.0, 0.5]),
            ([0.5, -0.1], [0.5, 0.5]),
            ([0.5, np.nan], [0.5, 0.5]),
            ([0.5, 0.5], [np.nan, 0.5]),
            ([0.5, np.inf], [0.5, 0.5]),
        ]:
            with pytest.raises(DimensionMismatchError):
                KrausPair(k0, k1)

    def test_halves_preset(self):
        part = IndexPartition.halves(5)
        assert part.blocks == (frozenset({1, 2}), frozenset({3, 4}))
        part3 = IndexPartition.halves(3)
        assert part3.blocks == (frozenset({1}), frozenset({2}))
