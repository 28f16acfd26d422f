"""Reference only: the dense cap, and the Hermitian square root and root
fidelity that the tests use as dense references for steering.  No run path
calls into this module; ``states.make_dense`` reads the cap.

Conventions fixed package-wide:

* Party 0 is the leftmost (most significant) Kronecker factor.  The global
  index of a product basis state |i_0 i_1 ... i_{P-1}> is
  sum_j i_j * prod_{k>j} d_k.  Every index mapping in the package derives
  from this ordering.
* Matrix square roots use a Hermitian eigendecomposition.  Eigenvalues in
  [EIG_CLAMP_FLOOR, 0) are treated as roundoff and clamped to zero; anything
  below the floor is rejected.  Eigenvalues below SQRT_TRUNC_REL * lambda_max
  are truncated outright, so square-root noise from numerically-zero modes
  cannot leak into fidelity sums (summing sqrt(eps)-sized spurious roots
  would otherwise dominate tight tolerances).
* Dense construction (``states.make_dense``) is capped at ``DENSE_CAP``
  total dimension.  No run path builds dense vectors; they serve as the
  tests' references, next to the independent ones in ``tests/conftest.py``
  (Kronecker products, index-loop partial traces, scipy-based Uhlmann
  fidelities).

Everything here is a pure function of values that are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DenseCapExceededError, NotHermitianError, NotPositiveError

EIG_CLAMP_FLOOR = -1e-10
SQRT_TRUNC_REL = 1e-13
DENSE_CAP = 2**16


def check_dense_cap(total_dim: int) -> None:
    if total_dim > DENSE_CAP:
        raise DenseCapExceededError(
            f"dense dimension {total_dim} exceeds cap {DENSE_CAP}; use the compact states"
        )


def _check_hermitian(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev <= tol:
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return 0.5 * (m + m.conj().T)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix (array level)."""
    w, v = np.linalg.eigh(_check_hermitian(m))
    if w[0] < EIG_CLAMP_FLOOR * max(1.0, float(w[-1])):
        raise NotPositiveError(
            f"minimum eigenvalue {w[0]:.3e} is significantly negative"
        )
    cut = SQRT_TRUNC_REL * max(float(w[-1]), 0.0)
    w = np.where(w < cut, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def _root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)) for PSD a, b, via the nuclear norm of
    sqrt(a) sqrt(b) (numerically cleaner than re-diagonalizing the triple
    product)."""
    prod = _sqrt_psd(a) @ _sqrt_psd(b)
    return float(np.sum(np.linalg.svd(prod, compute_uv=False)))
