import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdistill import (
    DenseCapExceededError,
    DimensionMismatchError,
    DimsProfile,
    Ket,
    NotHermitianError,
    NotPositiveError,
    Operator,
    assemblage_member_fidelity,
    dense_cap,
    herm_sqrt,
    kron,
    partial_trace,
    pure_target_fidelity,
    state_fidelity,
)
from qdistill.linalg import _clamp_unit, check_dense_cap

from conftest import oracle_partial_trace, oracle_state_fidelity, random_density, random_psd


def op(m, **kw):
    return Operator(np.asarray(m, dtype=complex), **kw)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


class TestKron:
    def test_identity(self):
        out = kron(op(np.eye(2)), op(np.eye(2)))
        assert np.array_equal(out.entries, np.eye(4))

    def test_basis_projector(self):
        p0 = op(proj([1, 0]))
        p1 = op(proj([0, 1]))
        out = kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> is global index 1, party 0 leftmost
        assert np.array_equal(out.entries, expected)

    def test_bell_invariant_under_zz(self):
        z = op([[1, 0], [0, -1]])
        zz = kron(z, z)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert np.allclose(zz.entries @ bell, bell)

    @given(st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)))
    def test_dim_associativity(self, dims):
        da, db, dc = dims
        a, b, c = op(np.eye(da)), op(np.eye(db)), op(np.eye(dc))
        assert kron(kron(a, b), c).dim == da * db * dc

    def test_flags_propagate(self):
        a = op(np.eye(2) / 2, density=True)
        out = kron(a, a)
        assert out.density and out.hermitian


class TestPartialTrace:
    def test_product_state(self):
        rho = op(proj([1, 0, 0, 0]), density=True)
        out = partial_trace(rho, DimsProfile((2, 2)), [1])
        assert np.allclose(out.entries, proj([1, 0]))

    def test_bell_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        out = partial_trace(op(proj(bell), density=True), DimsProfile((2, 2)), [1])
        assert np.allclose(out.entries, np.eye(2) / 2)

    def test_ghz3_vs_loop_oracle(self, rng):
        al = rng.uniform(0.2, 1, 3)
        al /= np.linalg.norm(al)
        psi = np.zeros(27, dtype=complex)
        for i in range(3):
            psi[i * 13] = al[i]
        rho = op(proj(psi), density=True)
        got = partial_trace(rho, DimsProfile((3, 3, 3)), [0])
        expected = oracle_partial_trace(rho.entries, (3, 3, 3), [0])
        assert np.allclose(got.entries, expected, atol=1e-14)
        # diagonal alpha_i^2 on the |ii> span
        diag = np.diagonal(got.entries).real
        for i in range(3):
            assert diag[i * 4] == pytest.approx(al[i] ** 2, abs=1e-14)

    def test_trace_preserved(self, rng):
        for dims in [(2, 3), (2, 2, 2), (3, 2, 2)]:
            total = int(np.prod(dims))
            rho = random_psd(rng, total)
            rho /= np.trace(rho).real
            got = partial_trace(op(rho, density=True), DimsProfile(dims), [0])
            assert abs(np.trace(got.entries) - 1.0) < 1e-12

    def test_multi_party_trace_matches_oracle(self, rng):
        dims = (2, 3, 2)
        rho = random_psd(rng, 12)
        rho /= np.trace(rho).real
        got = partial_trace(op(rho, density=True), DimsProfile(dims), [0, 2])
        expected = oracle_partial_trace(rho, dims, [0, 2])
        assert np.allclose(got.entries, expected, atol=1e-13)

    def test_index_out_of_range(self):
        rho = op(np.eye(4) / 4, density=True)
        with pytest.raises(IndexError):
            partial_trace(rho, DimsProfile((2, 2)), [2])

    def test_dim_mismatch(self):
        rho = op(np.eye(4) / 4, density=True)
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, DimsProfile((2, 3)), [0])


class TestHermSqrt:
    def test_identity(self):
        out = herm_sqrt(op(np.eye(3)))
        assert np.allclose(out.entries, np.eye(3))

    def test_diagonal(self):
        out = herm_sqrt(op(np.diag([4.0, 9.0])))
        assert np.allclose(out.entries, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("dim", [2, 8, 16, 64])
    def test_roundtrip_random_psd(self, rng, dim):
        a = random_psd(rng, dim)
        s = herm_sqrt(op(a, hermitian=True))
        assert np.linalg.norm(s.entries @ s.entries - a) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_sqrt(op([[0, 1], [0, 0]]))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NotPositiveError):
            herm_sqrt(op(np.diag([1.0, -0.5])))

    def test_clamps_tiny_negative(self):
        out = herm_sqrt(op(np.diag([1.0, -1e-12])))
        assert out.entries[1, 1].real == 0.0


class TestStateFidelity:
    def test_self_fidelity(self, rng):
        rho = op(random_density(rng, 6), density=True)
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = op(proj([1, 0]), density=True)
        b = op(proj([0, 1]), density=True)
        assert state_fidelity(a, b) == 0.0

    def test_symmetric(self, rng):
        a = op(random_density(rng, 5), density=True)
        b = op(random_density(rng, 5), density=True)
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-12)

    def test_matches_scipy_oracle(self, rng):
        a = random_density(rng, 7)
        b = random_density(rng, 7)
        got = state_fidelity(op(a, density=True), op(b, density=True))
        assert got == pytest.approx(oracle_state_fidelity(a, b), abs=1e-9)

    def test_pure_target_shortcut_agreement(self, rng):
        # the matrix-sqrt path and <psi|rho|psi> must coincide tightly
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            rho = random_density(rng, dim)
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            full = state_fidelity(op(rho, density=True), op(proj(v), density=True))
            short = pure_target_fidelity(op(rho, density=True), Ket(v))
            assert abs(full - short) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            state_fidelity(op(np.eye(2) / 2, density=True), op(np.eye(3) / 3, density=True))

    def test_rejects_non_density(self):
        with pytest.raises(NotPositiveError):
            state_fidelity(op(np.eye(2)), op(np.eye(2) / 2, density=True))

    def test_clamp_rejects_non_finite(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(NotPositiveError):
                _clamp_unit(value, "fidelity")
        assert _clamp_unit(1.0 + 1e-13, "fidelity") == 1.0
        assert _clamp_unit(-1e-13, "fidelity") == 0.0


class TestPureTargetFidelity:
    def test_own_projector(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert pure_target_fidelity(op(proj(v), density=True), Ket(v)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        d = 5
        rho = op(np.eye(d) / d, density=True)
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        assert pure_target_fidelity(rho, Ket(v)) == pytest.approx(1 / d, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pure_target_fidelity(op(np.eye(2) / 2, density=True), Ket(np.array([1, 0, 0])))


class TestAssemblageMemberFidelity:
    def test_self_rank_one_unnormalized(self):
        a = op(0.5 * proj([1, 0]))
        assert assemblage_member_fidelity(a, a) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal(self):
        a = op(proj([1, 0]))
        b = op(proj([0, 1]))
        assert assemblage_member_fidelity(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_scaling(self, rng):
        m = random_psd(rng, 3)
        a = op(m)
        half = op(0.5 * m)
        assert assemblage_member_fidelity(half, a) == pytest.approx(
            0.5 * assemblage_member_fidelity(a, a), abs=1e-10
        )


class TestTypesAndCap:
    def test_ket_norm_flag(self):
        with pytest.raises(NotPositiveError):
            Ket(np.array([1.0, 1.0]))
        Ket(np.array([1.0, 1.0]), normalized=False)

    def test_operator_hermitian_flag(self):
        with pytest.raises(NotHermitianError):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_density_trace_checked(self):
        with pytest.raises(NotPositiveError):
            Operator(np.eye(2, dtype=complex), density=True)

    def test_density_implies_hermitian(self):
        assert Operator(np.eye(2, dtype=complex) / 2, density=True).hermitian

    def test_validate_density_spectrum(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NotPositiveError):
            Operator(bad, density=True).validate_density()

    def test_dims_profile_total(self):
        assert DimsProfile((2, 3, 4)).total_dim == 24

    def test_dense_cap_env(self, monkeypatch):
        monkeypatch.delenv("QDISTILL_DENSE_CAP", raising=False)
        assert dense_cap() == 4096
        check_dense_cap(4096)
        with pytest.raises(DenseCapExceededError):
            check_dense_cap(4097)
        monkeypatch.setenv("QDISTILL_DENSE_CAP", "8192")
        assert dense_cap() == 8192
        check_dense_cap(8192)
