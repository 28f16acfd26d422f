import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    GhzSpec,
    InvalidSpecError,
    WSpec,
    make_compact,
)
from qdistill.errors import DenseCapExceededError
from qdistill.states import (
    _validated_coeffs,
    changed_rows,
    local_column,
    make_dense,
    perfect_ghz,
    perfect_w,
    span_shape,
)

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
        # d and P are the span sizes, floored where the coefficients are counted
        with pytest.raises(InvalidSpecError, match=r"span size .* must be >= 2, got 1$"):
            GhzSpec(1, 2, (1.0,))
        with pytest.raises(InvalidSpecError, match="party count must be >= 2, got 1"):
            GhzSpec(2, 1, (0.6, 0.8))
        with pytest.raises(InvalidSpecError, match=r"span size .* must be >= 2, got 1$"):
            WSpec(1, (1.0,))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(3, 2, (0.6, 0.8))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            GhzSpec(2, 2, (1.0, 0.0))
        with pytest.raises(InvalidSpecError):
            WSpec(2, (-0.6, 0.8))

    def test_rejects_non_finite(self):
        for coeffs in ((math.nan, 1.0), (math.inf, 0.0)):
            with pytest.raises(InvalidSpecError, match="finite and strictly positive"):
                GhzSpec(2, 2, coeffs)
            with pytest.raises(InvalidSpecError, match="finite and strictly positive"):
                WSpec(2, coeffs)

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

    def test_norm_past_float_range_is_refused_not_raised(self):
        # the squares are finite but their sum is not
        with pytest.raises(InvalidSpecError, match="norm inf"):
            GhzSpec(2, 2, (1e154, 1e154))

    def test_tolerance_argument_is_the_only_difference(self):
        # the CLI's looser tolerance renormalizes what the spec's refuses,
        # by the same rule the spec applies to a vector within its own
        off = (0.6 * 1.0004, 0.8 * 1.0004)
        with pytest.raises(InvalidSpecError, match="more than 1e-09 from 1"):
            GhzSpec(2, 2, off)
        coeffs = _validated_coeffs(off, 2, "alphas", 1e-3)
        assert GhzSpec(2, 2, coeffs).alphas == coeffs
        assert coeffs == tuple(v / math.sqrt(math.fsum(x * x for x in off)) for v in off)

    @given(coeff_lists(3))
    def test_spec_roundtrips_normalized(self, coeffs):
        spec = GhzSpec(3, 2, coeffs)
        assert sum(a * a for a in spec.alphas) == pytest.approx(1.0, abs=1e-12)


def rebuilt(spec):
    return type(spec)(*(getattr(spec, f.name) for f in dataclasses.fields(spec)))


class TestRebuild:
    """A spec rebuilt from its own fields is the same spec, so a copy hits
    the spec caches: normalizing a normalized vector leaves it alone."""

    @given(st.integers(2, 12).flatmap(lambda d: st.tuples(st.just(d), coeff_lists(d))),
           st.integers(2, 6))
    def test_ghz_rebuild_is_equal(self, d_coeffs, p):
        d, coeffs = d_coeffs
        spec = GhzSpec(d, p, coeffs)
        again = rebuilt(spec)
        assert again.alphas == spec.alphas and again == spec and hash(again) == hash(spec)

    @given(st.integers(2, 12).flatmap(coeff_lists))
    def test_w_rebuild_is_equal(self, coeffs):
        spec = WSpec(len(coeffs), coeffs)
        again = rebuilt(spec)
        assert again.betas == spec.betas and again == spec and hash(again) == hash(spec)

    def test_rebuilds_that_flipped_by_an_ulp(self):
        spec = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))
        assert dataclasses.replace(spec) == spec == rebuilt(rebuilt(spec))
        rng = np.random.default_rng(0)
        specs = [random_ghz_spec(rng, 5, 3) for _ in range(1000)]
        assert [s for s in specs if dataclasses.replace(s) != s] == []


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

    def test_changed_rows_match_the_oracle_placement_table(self):
        # the kernel's form: a W party holds 0 on every row of the table
        # but one, where it holds 1; a GHZ party holds a new index on each row
        for spec in [*ghz_corpus(), *w_corpus()]:
            table, parties = placement_table(spec), np.arange(spec.p)
            rows = changed_rows(spec, parties)
            if isinstance(spec, GhzSpec):
                assert rows is None
                assert all(len(np.unique(column)) == spec.d for column in table.T)
                continue
            marked = np.zeros_like(table)
            marked[rows, parties] = 1
            assert np.array_equal(marked, table)

    def test_dense_cap(self):
        assert make_dense(perfect_ghz(4, 8)).size == 2**16
        with pytest.raises(DenseCapExceededError):
            make_dense(perfect_ghz(2, 17))  # 2^17 > 2^16


class TestCompact:
    @staticmethod
    def assert_read_only_coeffs(compact: np.ndarray, coeffs: tuple[float, ...]) -> None:
        assert compact.dtype == np.float64 and not compact.flags.writeable
        assert tuple(compact) == coeffs
        with pytest.raises(ValueError, match="read-only"):
            compact[0] = 0.5

    def test_ghz_coeffs(self, rng):
        spec = random_ghz_spec(rng, 3, 3)
        self.assert_read_only_coeffs(make_compact(spec), spec.alphas)

    def test_w_coeffs(self, rng):
        spec = random_w_spec(rng, 3)
        self.assert_read_only_coeffs(make_compact(spec), spec.betas)

    def test_uniform_specs_build_up_to_a_million(self):
        # the norm is summed exactly, so the normalized coefficients keep
        # unit norm within 1e-12 at any count
        for count in (2 * 10**5, 3 * 10**5, 10**6):
            for spec in (perfect_ghz(count, 3), perfect_w(count)):
                coeffs = make_compact(spec)
                assert len(coeffs) == count
                assert abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12


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


class TestSpecHash:
    """A spec hashes its fields once, when it is built; its fields, repr,
    equality and immutability stay the dataclass's."""

    def test_hash_is_the_hash_of_the_field_tuple(self):
        for spec in ghz_corpus(30) + w_corpus(20):
            fields = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
            assert hash(spec) == hash(fields)

    def test_hashing_a_built_spec_never_walks_its_coefficients(self):
        class CountedTuple(tuple):
            hashes = 0

            def __hash__(self) -> int:
                CountedTuple.hashes += 1
                return super().__hash__()

        rng = np.random.default_rng(4)
        for spec, field in ((random_ghz_spec(rng, 5, 3), "alphas"),
                            (random_w_spec(rng, 4), "betas")):
            first = hash(spec)
            object.__setattr__(spec, field, CountedTuple(getattr(spec, field)))
            keyed = {spec: 1, (spec, 2): 2}
            assert all(hash(spec) == first for _ in range(5)) and keyed[spec] == 1
            assert CountedTuple.hashes == 0

    def test_fields_repr_and_equality_are_unchanged(self):
        ghz, w = GhzSpec(2, 3, (0.6, 0.8)), WSpec(2, (0.6, 0.8))
        assert [f.name for f in dataclasses.fields(ghz)] == ["d", "p", "alphas"]
        assert [f.name for f in dataclasses.fields(w)] == ["p", "betas"]
        assert repr(ghz) == f"GhzSpec(d=2, p=3, alphas={ghz.alphas!r})"
        assert repr(w) == f"WSpec(p=2, betas={w.betas!r})"
        assert dataclasses.asdict(ghz) == {"d": 2, "p": 3, "alphas": ghz.alphas}
        assert ghz == GhzSpec(2, 3, [0.6, 0.8]) and w == WSpec(2, [0.6, 0.8])
        assert ghz != GhzSpec(2, 4, (0.6, 0.8)) and w != WSpec(2, (0.8, 0.6))
        assert ghz != w
        with pytest.raises(dataclasses.FrozenInstanceError):
            ghz.p = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.betas = (0.8, 0.6)

    def test_replace_gets_its_own_hash(self):
        ghz, w = GhzSpec(2, 3, (0.6, 0.8)), WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))
        moved = dataclasses.replace(ghz, p=4)
        assert hash(moved) == hash((2, 4, ghz.alphas)) != hash(ghz)
        swapped = dataclasses.replace(w, betas=w.betas[::-1])
        assert hash(swapped) == hash((3, swapped.betas)) != hash(w)
