import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qdistill import (
    BadPartitionError,
    GhzSpec,
    IndexPartition,
    PivotNotMaximalError,
    PivotNotMinimalError,
    WSpec,
)
from qdistill.errors import DimensionMismatchError
from qdistill.filters import FilterAssignment, ghz_partition_assignment, w_assignment
from qdistill.states import make_dense, perfect_ghz, perfect_w
from qdistill.ted import assignment_for

from conftest import (
    completeness_deviation,
    contiguous_partition,
    labeled_partitions,
    oracle_layer,
    oracle_w_fmax,
    random_ghz_spec,
    random_w_spec,
)


def ghz_single_party_pair(spec: GhzSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (K0, K1) diagonals of the one-party GHZ filter: one block
    {1..d-1} on the last party."""
    part = contiguous_partition(spec.d, 1)
    assignment = ghz_partition_assignment(spec, part, 1)
    return assignment.k0[0], assignment.k1[0]


class TestGhzSinglePartyPair:
    def test_perfect_spec_gives_identity(self):
        k0, k1 = ghz_single_party_pair(perfect_ghz(3, 3))
        assert np.allclose(k0, np.ones(3))
        assert np.allclose(k1, np.zeros(3))

    def test_d3_entries(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        a0, a1, a2 = spec.alphas
        k0, k1 = ghz_single_party_pair(spec)
        assert np.allclose(k0, [1.0, a0 / a1, a0 / a2])
        expected_k1 = [0.0, np.sqrt(1 - (a0 / a1) ** 2), np.sqrt(1 - (a0 / a2) ** 2)]
        assert np.allclose(k1, expected_k1)

    def test_pivot_not_minimal(self):
        spec = GhzSpec(3, 3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(PivotNotMinimalError):
            ghz_single_party_pair(spec)

    def test_completeness_100_random_specs(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            pair = ghz_single_party_pair(random_ghz_spec(rng, d, 2))
            assert completeness_deviation(*pair) <= 1e-12

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    def test_completeness_hypothesis(self, raw):
        vec = np.sort(np.asarray(raw) / np.linalg.norm(raw))
        spec = GhzSpec(len(vec), 2, tuple(vec))
        assert completeness_deviation(*ghz_single_party_pair(spec)) <= 1e-12

    def test_tied_pivot_accepted(self):
        # equal minimal coefficients give a unit diagonal entry, not an error
        spec = GhzSpec(3, 3, (0.5, 0.5, np.sqrt(0.5)))
        k0, k1 = ghz_single_party_pair(spec)
        assert np.allclose(k0[:2], [1.0, 1.0])
        assert completeness_deviation(k0, k1) <= 1e-12


class TestPartitionAssignment:
    def test_two_block_toy(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        a0, a1, a2 = spec.alphas
        part = IndexPartition((frozenset({1}), frozenset({2})))
        assignment = ghz_partition_assignment(spec, part, 2)
        assert assignment.participants == (1, 2)
        assert np.allclose(assignment.k0, [[1.0, a0 / a1, 1.0], [1.0, 1.0, a0 / a2]])

    def test_single_block_reduces_to_single_party_pair(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        assignment = ghz_partition_assignment(spec, contiguous_partition(4, 1), 1)
        single = FilterAssignment(3, (2,), [spec.alphas[0] / np.array(spec.alphas)])
        assert np.array_equal(assignment.k0, single.k0)
        assert np.array_equal(assignment.k1, single.k1)

    def test_partition_invariance_dense(self, rng):
        # post-selected state and probability identical for every labeled
        # partition, every participant count and every choice of the q
        # participants (the package's last q, or any other q holding the
        # same rows), d <= 4, p <= 4
        for d, p in [(2, 3), (3, 3), (4, 3), (3, 4)]:
            spec = random_ghz_spec(rng, d, p)
            psi = make_dense(spec)
            reference = None
            for q in range(1, p):
                for part in labeled_partitions(d, q):
                    assignment = ghz_partition_assignment(spec, part, q)
                    for parties in itertools.combinations(range(p), q):
                        layer = FilterAssignment(p, parties, assignment.k0)
                        out, prob = oracle_layer(layer, (0,) * q, psi)
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
        assignment = ghz_partition_assignment(spec, part, 2)
        assert assignment.participants == (2, 3)
        assert np.allclose(assignment.k0[1], np.ones(2))

    def test_diagonal_product_flattens_profile(self, rng):
        # across participants, entry products must be alpha_0/alpha_i
        # (and 1 at the pivot) for any partition
        for d, q in [(4, 2), (5, 3), (6, 4)]:
            spec = random_ghz_spec(rng, d, 5)
            part = contiguous_partition(d, q)
            assignment = ghz_partition_assignment(spec, part, q)
            product = np.ones(d)
            for row in assignment.k0:
                product *= row
            expected = np.array(spec.alphas[0]) / np.array(spec.alphas)
            expected[0] = 1.0
            assert np.allclose(product, expected, atol=1e-14)

    def test_bad_partitions(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        cases = [
            (IndexPartition((frozenset({1, 2}), frozenset({2, 3}))), 2),  # overlap
            (IndexPartition((frozenset({1}), frozenset({3}))), 2),        # missing 2
            (IndexPartition((frozenset({0, 1, 2, 3}),)), 1),              # pivot included
            (IndexPartition((frozenset({1, 2, 3, 4}),)), 1),              # index d
            (IndexPartition((frozenset({1, 2, 3}),)), 2),                 # count mismatch
        ]
        for part, q in cases:
            with pytest.raises(BadPartitionError):
                ghz_partition_assignment(spec, part, q)

    def test_all_parties_participating_rejected(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        part = IndexPartition((frozenset({1}), frozenset({2}), frozenset({3})))
        with pytest.raises(BadPartitionError):
            ghz_partition_assignment(spec, part, 3)

    def test_default_split_is_the_contiguous_partition(self, rng):
        # None builds its owner array from the package's split rule, without
        # blocks; numpy's array_split blocks given explicitly must fill the
        # same table
        for d, p in [(2, 3), (12, 5)]:
            spec = random_ghz_spec(rng, d, p)
            for q in range(1, p):
                got = ghz_partition_assignment(spec, None, q)
                want = ghz_partition_assignment(spec, contiguous_partition(d, q), q)
                assert got.participants == want.participants == tuple(range(p - q, p))
                assert np.array_equal(got.k0, want.k0)
        with pytest.raises(BadPartitionError):
            ghz_partition_assignment(random_ghz_spec(rng, 3, 3), None, 0)

    def test_large_d_assignment_runs_in_milliseconds(self):
        # the default split is filled through its owner array, with no
        # per-index Python loop (best of 5 CPU times)
        d = 10**5
        raw = np.random.default_rng(d).uniform(0.2, 1.0, d)
        spec = GhzSpec(d, 3, tuple(np.sort(raw / np.linalg.norm(raw))))
        times = []
        for _ in range(5):
            start = time.process_time()
            assignment = assignment_for(spec, 1)
            times.append(time.process_time() - start)
        assert min(times) < 0.015
        assert assignment.k0.shape == (1, d) and assignment.k0[0, 0] == 1.0


class TestWAssignment:
    def test_w3_entries(self, rng):
        spec = random_w_spec(rng, 3)
        b0, b1, b2 = spec.betas
        assignment = w_assignment(spec)
        assert assignment.participants == (1, 2)
        assert np.allclose(assignment.k0, [[b1 / b2, 1.0], [b0 / b2, 1.0]])
        assert np.allclose(assignment.k1[0], [np.sqrt(1 - (b1 / b2) ** 2), 0.0])

    def test_perfect_w_identity_filters(self):
        assignment = w_assignment(perfect_w(4))
        assert assignment.participants == (1, 2, 3)
        assert np.allclose(assignment.k0, np.ones((3, 2)))

    def test_pivot_not_maximal(self):
        spec = WSpec(3, (0.8, 0.3, np.sqrt(1 - 0.64 - 0.09)))
        with pytest.raises(PivotNotMaximalError):
            w_assignment(spec)

    def test_completeness_100_random_specs(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 8))
            assignment = w_assignment(random_w_spec(rng, p))
            assert completeness_deviation(assignment.k0, assignment.k1) <= 1e-12

    def test_filtered_w_state_is_uniform(self, rng):
        for p in (3, 4, 5):
            spec = random_w_spec(rng, p)
            psi = make_dense(spec)
            assignment = w_assignment(spec)
            out, prob = oracle_layer(assignment, (0,) * (p - 1), psi)
            amps = out[np.nonzero(out)[0]] / np.sqrt(prob)
            assert len(amps) == p
            assert np.max(np.abs(amps - amps[0])) < 1e-12


class TestValidatePovm:
    """POVM completeness, checked by ``conftest.completeness_deviation``."""

    def test_identity_pair_ok(self):
        identity = FilterAssignment(2, (1,), np.ones((1, 3)))
        assert completeness_deviation(identity.k0, identity.k1) <= 1e-12

    def test_half_pair_ok(self):
        half = FilterAssignment(2, (0,), [[0.5]])
        assert half.k1[0, 0] == np.sqrt(0.75)
        assert completeness_deviation(half.k0, half.k1) <= 1e-12

    def test_incomplete_pair_reports_deviation(self):
        # the oracle itself, on rows no FilterAssignment can hold
        assert completeness_deviation([0.9], [0.9]) == pytest.approx(0.62, abs=1e-12)

    def test_produced_pairs_always_complete(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            spec = random_ghz_spec(rng, d, 3)
            for q in (1, 2):
                part = contiguous_partition(d, q)
                assignment = ghz_partition_assignment(spec, part, q)
                assert completeness_deviation(assignment.k0, assignment.k1) < 1e-12


class TestKrausPairType:
    """The (q, dim) table of K0 diagonals that a ``FilterAssignment`` holds,
    one Kraus pair per row, and its checks."""

    def test_stores_real_diagonal_vectors(self):
        layer = FilterAssignment(3, (0, 2), [[0.5, 1], [1, 0]])
        assert layer.k0.dtype == float and layer.k0.shape == (2, 2)
        assert np.array_equal(layer.k1, [[np.sqrt(0.75), 0.0], [0.0, 1.0]])
        assert layer.participants == (0, 2) and layer.q == 2
        for table in (layer.k0, layer.k1):
            with pytest.raises(ValueError):
                table[0, 0] = 0.25

    @pytest.mark.parametrize("participants, k0", [
        # a non-diagonal operator cannot be expressed: a per-party matrix
        # makes the table 3-D
        pytest.param((1,), np.array([[[0.5, 0.1], [0.1, 0.5]]], dtype=complex),
                     id="non_diagonal_matrix"),
        pytest.param((1,), [np.diag([0.5, 1.0])], id="diagonal_matrix"),
        pytest.param((1,), np.ones(2), id="vector"),
        pytest.param((), np.float64(0.5), id="scalar"),
        # complex input, even with a zero imaginary part, is not cast silently
        pytest.param((1,), np.array([[0.5, 1.0 + 0.1j]]), id="complex"),
        pytest.param((1,), np.array([[0.5, 1.0]], dtype=complex), id="complex_dtype"),
        pytest.param((1,), np.ones((2, 2)), id="row_count"),
        pytest.param((0,), np.ones((0, 2)), id="no_rows"),
        pytest.param((2, 1), np.ones((2, 2)), id="descending_parties"),
        pytest.param((1, 1), np.ones((2, 2)), id="duplicate_party"),
        pytest.param((3,), np.ones((1, 2)), id="party_out_of_range"),
        pytest.param((-1,), np.ones((1, 2)), id="negative_party"),
    ])
    def test_rejects_malformed_inputs(self, participants, k0):
        with pytest.raises(DimensionMismatchError):
            FilterAssignment(3, participants, k0)

    def test_rejects_out_of_range_entries(self):
        # NaN-safe: NaN and infinity fail the [0, 1] check too
        for row in ([1.2, 0.5], [0.5, -0.1], [0.5, np.nan], [0.5, np.inf], [-np.inf, 0.5]):
            with pytest.raises(DimensionMismatchError):
                FilterAssignment(2, (1,), [row])

    def test_k1_is_derived_on_first_read(self):
        # the all-zeros outcome reads k0 alone, so k1 waits for its first reader
        layer = FilterAssignment(3, (0, 2), [[0.5, 1], [1, 0]])
        assert "k1" not in vars(layer)
        assert layer.k1 is layer.k1 and "k1" in vars(layer)

    def test_table_is_checked_once_as_one_pair(self):
        # one bad entry anywhere in the table refuses the whole layer
        with pytest.raises(DimensionMismatchError):
            FilterAssignment(3, (1, 2), [[1.0, 0.5], [np.nan, 0.5]])
        rows = np.array([[1.0, 0.25, 0.0], [0.5, 1.0, 0.75]])
        layer = FilterAssignment(3, (1, 2), rows)
        assert np.array_equal(layer.k0, rows) and layer.k0 is not rows
        assert np.array_equal(layer.k1, np.sqrt(np.clip(1.0 - rows * rows, 0.0, None)))


def post_selected_w_fidelity(assignment: FilterAssignment, spec: WSpec) -> float:
    """Fidelity of the all-zeros outcome's normalized state with the uniform
    W state, on dense vectors through the Kronecker-product oracle layer."""
    out, prob = oracle_layer(assignment, (0,) * assignment.q, make_dense(spec))
    return abs(np.vdot(make_dense(perfect_w(spec.p)), out)) ** 2 / prob


class TestWNeedsAllButOneParty:
    """The abstract's W claim: reaching the uniform W state takes Q = P - 1
    participants.  With fewer, the post-selected fidelity is bounded by
    ``oracle_w_fmax``, which is below 1 unless the idle coefficients are
    equal, and the bound is tight.  This covers diagonal (dichotomic,
    computational-basis) filters, the class the package implements, not
    general local operations."""

    @given(data=st.data())
    def test_fewer_participants_stay_at_or_below_the_bound(self, data):
        p = data.draw(st.integers(3, 10))
        q = data.draw(st.integers(1, p - 2))
        parties = data.draw(st.lists(st.integers(0, p - 1), min_size=q, max_size=q, unique=True))
        v = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p)))
        spec = WSpec(p, tuple(v / np.linalg.norm(v)))
        k0 = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                min_size=q, max_size=q))
        layer = FilterAssignment(p, tuple(sorted(parties)), np.array(k0))
        # far from underflow, so every coefficient that matters is a normal float
        assume(oracle_layer(layer, (0,) * q, make_dense(spec))[1] > 1e-200)
        idle = set(range(p)) - set(parties)
        assert post_selected_w_fidelity(layer, spec) <= oracle_w_fmax(spec.betas, idle) + 1e-12

    @pytest.mark.parametrize("p, parties", [(3, (2,)), (4, (1, 2)), (6, (0, 2, 5)), (10, (3,)),
                                            (10, (0, 1, 2, 3, 4, 5, 6, 7))])
    def test_the_bound_is_reached(self, p, parties):
        # participant j keeps |1> against |0> at ratio (sum_I b^2) / ((sum_I b) b_j),
        # which puts its coefficient on the projection of the all-ones vector
        spec = random_w_spec(np.random.default_rng(p + len(parties)), p)
        idle = [j for j in range(p) if j not in parties]
        beta = [spec.betas[p - 1 - j] for j in range(p)]  # by party
        total, squares = sum(beta[j] for j in idle), sum(beta[j] ** 2 for j in idle)
        rows = []
        for j in parties:
            ratio = squares / (total * beta[j])
            rows.append((1.0, ratio) if ratio <= 1.0 else (1.0 / ratio, 1.0))
        fmax = oracle_w_fmax(spec.betas, idle)
        assert fmax < 1.0 - 1e-6  # the random idle coefficients differ
        fidelity = post_selected_w_fidelity(FilterAssignment(p, parties, np.array(rows)), spec)
        assert abs(fidelity - fmax) <= 1e-12

    def test_all_but_one_party_reach_the_uniform_state(self):
        rng = np.random.default_rng(7)
        for p in range(2, 11):
            spec = random_w_spec(rng, p)
            assert oracle_w_fmax(spec.betas, {0}) == 1.0
            fidelity = post_selected_w_fidelity(w_assignment(spec), spec)
            assert fidelity == pytest.approx(1.0, abs=1e-12)
