import math

import numpy as np
import pytest

from qdistill import NotPositiveError
from qdistill.errors import DenseCapExceededError, NotHermitianError
from qdistill.linalg import (
    DENSE_CAP,
    _check_hermitian,
    _root_fidelity,
    _sqrt_psd,
    check_dense_cap,
)

from conftest import oracle_state_fidelity, random_density, random_psd


def fidelity(a, b):
    return _root_fidelity(a, b) ** 2


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


class TestNonFiniteGuards:
    """Tolerance guards are written ``not (dev <= tol)``, so NaN fails them."""

    def test_check_hermitian_rejects_nan(self):
        with pytest.raises(NotHermitianError):
            _check_hermitian(np.array([[math.nan, 0], [0, 1]], dtype=complex))


class TestHermSqrt:
    """``_sqrt_psd``, the square root every steering fidelity goes through."""

    def test_identity(self):
        assert np.allclose(_sqrt_psd(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        out = _sqrt_psd(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("dim", [2, 8, 16, 64])
    def test_roundtrip_random_psd(self, rng, dim):
        a = random_psd(rng, dim)
        s = _sqrt_psd(a)
        assert np.linalg.norm(s @ s - a) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            _sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NotPositiveError):
            _sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_clamps_tiny_negative(self):
        out = _sqrt_psd(np.diag([1.0, -1e-12]).astype(complex))
        assert out[1, 1].real == 0.0


class TestStateFidelity:
    """The state fidelity is ``_root_fidelity(rho, sigma) ** 2``."""

    def test_self_fidelity(self, rng):
        rho = random_density(rng, 6)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(proj([1, 0]), proj([0, 1])) == 0.0

    def test_symmetric(self, rng):
        a = random_density(rng, 5)
        b = random_density(rng, 5)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_matches_scipy_oracle(self, rng):
        a = random_density(rng, 7)
        b = random_density(rng, 7)
        assert fidelity(a, b) == pytest.approx(oracle_state_fidelity(a, b), abs=1e-9)

    def test_pure_target_shortcut_agreement(self, rng):
        # the matrix-sqrt path and <psi|rho|psi> must coincide tightly
        for _ in range(20):
            dim = int(rng.integers(2, 33))
            rho = random_density(rng, dim)
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            short = np.vdot(v, rho @ v).real
            assert abs(fidelity(rho, proj(v)) - short) <= 1e-10


class TestPureTargetFidelity:
    """Rank-one targets: the truncated square root keeps these tight."""

    def test_own_projector(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert fidelity(proj(v), proj(v)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        d = 5
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        assert fidelity(np.eye(d) / d, proj(v)) == pytest.approx(1 / d, abs=1e-14)


class TestAssemblageMemberFidelity:
    """Assemblage members are unnormalized, and their fidelity is not clamped
    (for a = b it equals (Tr a)^2)."""

    def test_self_rank_one_unnormalized(self):
        a = 0.5 * proj([1, 0])
        assert fidelity(a, a) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(proj([1, 0]), proj([0, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_scaling(self, rng):
        m = random_psd(rng, 3)
        assert fidelity(0.5 * m, m) == pytest.approx(0.5 * fidelity(m, m), abs=1e-10)


class TestTypesAndCap:
    def test_dense_cap_env(self):
        # a constant: no environment variable moves it
        assert DENSE_CAP == 2**16
        check_dense_cap(2**16)
        with pytest.raises(DenseCapExceededError):
            check_dense_cap(2**16 + 1)
