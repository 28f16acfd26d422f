import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    CompactState,
    DenseCapExceededError,
    Family,
    GhzSpec,
    InvalidSpecError,
    WSpec,
    make_compact,
    make_dense,
    perfect_ghz,
    perfect_w,
)
from qdistill.states import family_of, local_column, span_shape

from conftest import (
    ghz_corpus,
    oracle_partial_trace,
    placement_table,
    random_ghz_spec,
    random_w_spec,
    w_corpus,
)


def coeff_lists(size):
    return st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=size, max_size=size
    ).map(lambda v: tuple(x / math.sqrt(sum(y * y for y in v)) for x in v))


class TestSpecValidation:
    def test_rejects_small_d_or_p(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(1, 2, (1.0,))
        with pytest.raises(InvalidSpecError):
            GhzSpec(2, 1, (0.6, 0.8))
        with pytest.raises(InvalidSpecError):
            WSpec(1, (1.0,))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(3, 2, (0.6, 0.8))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(2, 2, (1.0, 0.0))
        with pytest.raises(InvalidSpecError):
            WSpec(2, (-0.6, 0.8))

    def test_rejects_complex(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(2, 2, (0.6 + 0.1j, 0.8))

    def test_renormalizes_near_unit(self):
        eps = 4e-10
        spec = GhzSpec(2, 2, (0.6 * (1 + eps), 0.8 * (1 + eps)))
        assert sum(a * a for a in spec.alphas) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(2, 2, (0.7, 0.8))

    @given(coeff_lists(3))
    def test_spec_roundtrips_normalized(self, coeffs):
        spec = GhzSpec(3, 2, coeffs)
        assert sum(a * a for a in spec.alphas) == pytest.approx(1.0, abs=1e-12)


class TestDenseConstruction:
    def test_bell(self):
        spec = perfect_ghz(2, 2)
        ket = make_dense(spec)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(ket, expected)

    def test_ghz3_placement(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        ket = make_dense(spec)
        # alpha_i sits at |iii>, global index 13*i
        for i in range(3):
            assert ket[13 * i] == spec.alphas[i]
        assert np.count_nonzero(ket) == 3

    def test_w3_placement(self, rng):
        spec = random_w_spec(rng, 3)
        ket = make_dense(spec)
        # beta_0 |001>, beta_1 |010>, beta_2 |100>
        assert ket[1] == spec.betas[0]
        assert ket[2] == spec.betas[1]
        assert ket[4] == spec.betas[2]
        assert np.count_nonzero(ket) == 3

    def test_w2(self):
        ket = make_dense(perfect_w(2))
        expected = np.zeros(4)
        expected[1] = expected[2] = 1 / np.sqrt(2)
        assert np.allclose(ket, expected)

    def test_norms(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            ket = make_dense(random_ghz_spec(rng, d, p))
            assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-12)
            wket = make_dense(random_w_spec(rng, p + 1))
            assert np.linalg.norm(wket) == pytest.approx(1.0, abs=1e-12)

    def test_nonzero_counts(self, rng):
        spec = random_ghz_spec(rng, 4, 3)
        assert np.count_nonzero(make_dense(spec)) == 4
        wspec = random_w_spec(rng, 5)
        assert np.count_nonzero(make_dense(wspec)) == 5

    def test_placement_matches_index_formulas(self):
        # GHZ |i ... i> sits at i (d^P - 1)/(d - 1); the W term of beta_i
        # (party P-1-i excited) at 2^i
        for d in range(2, 6):
            for p in range(2, 6):
                if d**p > 4096:
                    continue
                spec = perfect_ghz(d, p)
                expected = np.zeros(d**p, dtype=complex)
                for i in range(d):
                    expected[i * (d**p - 1) // (d - 1)] = spec.alphas[i]
                assert np.array_equal(make_dense(spec), expected)
        for p in range(2, 12):
            spec = perfect_w(p)
            expected = np.zeros(2**p, dtype=complex)
            for i in range(p):
                expected[2**i] = spec.betas[i]
            assert np.array_equal(make_dense(spec), expected)

    def test_rule_matches_the_oracle_placement_table(self):
        # the package's per-party rule and the tests' own (span, P) table
        # place every corpus spec alike, column by column
        for spec in [*ghz_corpus(), *w_corpus()]:
            table = placement_table(spec)
            assert span_shape(spec) == (len(table), spec.d if isinstance(spec, GhzSpec) else 2)
            for j in range(spec.p):
                assert np.array_equal(local_column(spec, j), table[:, j])

    def test_dense_cap(self):
        assert make_dense(perfect_ghz(4, 8)).size == 2**16
        with pytest.raises(DenseCapExceededError):
            make_dense(perfect_ghz(2, 17))  # 2^17 > 2^16


class TestCompact:
    def test_ghz_coeffs(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        cs = make_compact(spec)
        assert family_of(cs.spec) is Family.GHZ_DIAGONAL
        assert tuple(cs.coeffs) == spec.alphas

    def test_w_coeffs(self, rng):
        spec = random_w_spec(rng, 3)
        cs = make_compact(spec)
        assert family_of(cs.spec) is Family.W_SINGLE_EXCITATION
        assert tuple(cs.coeffs) == spec.betas

    def test_uniform_specs_build_up_to_a_million(self):
        # the norm is summed exactly, so the normalized coefficients pass
        # CompactState's 1e-12 check at any count
        for count in (2 * 10**5, 3 * 10**5, 10**6):
            for spec in (perfect_ghz(count, 3), perfect_w(count)):
                coeffs = make_compact(spec).coeffs
                assert len(coeffs) == count
                assert abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12

    def test_rejects_non_finite_coefficients(self):
        spec = perfect_ghz(2, 2)
        for coeffs in ([math.nan, 1.0], [math.inf, 0.0]):
            with pytest.raises(InvalidSpecError):
                CompactState(np.array(coeffs), spec)


class TestPerfectTargets:
    def test_perfect_ghz_uniform(self):
        spec = perfect_ghz(3, 4)
        assert all(a == pytest.approx(1 / math.sqrt(3)) for a in spec.alphas)

    def test_perfect_w_uniform(self):
        spec = perfect_w(3)
        assert all(b == pytest.approx(1 / math.sqrt(3)) for b in spec.betas)

    def test_reduced_single_party_is_maximally_mixed(self):
        d, p = 3, 3
        ket = make_dense(perfect_ghz(d, p))
        rho = np.outer(ket, ket.conj())
        reduced = oracle_partial_trace(rho, (d,) * p, [0, 1])
        assert np.allclose(reduced, np.eye(d) / d, atol=1e-12)
