"""Dense complex linear algebra for multipartite protocol simulation.

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
* Dense construction is capped at ``dense_cap()`` total dimension
  (default 4096, overridable via the QDISTILL_DENSE_CAP environment
  variable); larger instances must use the compact states of
  :mod:`qdistill.states`.

All operations are pure functions over values that are never mutated after
construction, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DenseCapExceededError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
)

KET_NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
EIG_CLAMP_FLOOR = -1e-10
SQRT_TRUNC_REL = 1e-13
FIDELITY_CLAMP_TOL = 1e-12
DEFAULT_DENSE_CAP = 4096


def dense_cap() -> int:
    """Current dense-dimension cap (env var QDISTILL_DENSE_CAP wins)."""
    raw = os.environ.get("QDISTILL_DENSE_CAP")
    return int(raw) if raw else DEFAULT_DENSE_CAP


def check_dense_cap(total_dim: int) -> None:
    cap = dense_cap()
    if total_dim > cap:
        raise DenseCapExceededError(
            f"dense dimension {total_dim} exceeds cap {cap}; "
            "use the compact states or raise QDISTILL_DENSE_CAP"
        )


@dataclass(frozen=True, eq=False)
class Ket:
    """A state vector.  ``normalized`` asserts unit Euclidean norm."""

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise DimensionMismatchError("ket amplitudes must be a 1-d vector")
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            n = float(np.linalg.norm(amps))
            if not abs(n - 1.0) <= KET_NORM_TOL:  # NaN fails
                raise NotPositiveError(
                    f"ket flagged normalized but has norm {n!r}"
                )

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Operator:
    """A square matrix, optionally flagged Hermitian and/or density.

    The density flag implies Hermitian and is checked for unit trace on
    construction.  Positive semidefiniteness is expensive, so it is verified
    lazily: by :func:`herm_sqrt` (which every fidelity path traverses) and by
    the explicit :meth:`validate_density` used in tests.
    """

    entries: np.ndarray
    hermitian: bool = False
    density: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("operator entries must be square")
        object.__setattr__(self, "entries", m)
        if self.density:
            object.__setattr__(self, "hermitian", True)
        if self.hermitian:
            dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
            if not dev <= HERMITIAN_TOL:
                raise NotHermitianError(
                    f"operator flagged hermitian deviates by {dev:.3e}"
                )
        if self.density:
            tr = complex(np.trace(m))
            if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
                raise NotPositiveError(
                    f"operator flagged density has trace {tr!r}"
                )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate_density(self) -> None:
        """Full density check including the spectrum (not done on init)."""
        if not self.density:
            raise NotPositiveError("operator is not flagged as a density matrix")
        w = np.linalg.eigvalsh(self.entries)
        if w[0] < EIG_CLAMP_FLOOR:
            raise NotPositiveError(f"minimum eigenvalue {w[0]:.3e} below clamp floor")


@dataclass(frozen=True)
class DimsProfile:
    """Per-party local dimensions of a tensor-product space."""

    local_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.local_dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"invalid local dimensions {dims}")
        object.__setattr__(self, "local_dims", dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.local_dims:
            out *= d
        return out

    @classmethod
    def uniform(cls, d: int, parties: int) -> "DimsProfile":
        return cls((d,) * parties)


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product with party 0 as the leftmost (most significant) factor."""
    return Operator(
        np.kron(a.entries, b.entries),
        hermitian=a.hermitian and b.hermitian,
        density=a.density and b.density,
    )


def partial_trace(rho: Operator, dims: DimsProfile, traced_parties: Iterable[int]) -> Operator:
    """Trace out the given parties, keeping the rest in their original order."""
    ds = dims.local_dims
    p = len(ds)
    if rho.dim != dims.total_dim:
        raise DimensionMismatchError(
            f"operator dim {rho.dim} does not match profile total {dims.total_dim}"
        )
    traced = sorted(set(int(t) for t in traced_parties))
    if traced and (traced[0] < 0 or traced[-1] >= p):
        raise IndexError(f"traced parties {traced} out of range for {p} parties")
    t = rho.entries.reshape(ds + ds)
    removed = 0
    for ax in traced:
        k = ax - removed
        t = np.trace(t, axis1=k, axis2=k + (p - removed))
        removed += 1
    kept_dim = 1
    for j in range(p):
        if j not in traced:
            kept_dim *= ds[j]
    return Operator(
        t.reshape(kept_dim, kept_dim),
        hermitian=rho.hermitian,
        density=rho.density,
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


def herm_sqrt(a: Operator) -> Operator:
    """Principal square root of a Hermitian PSD operator."""
    return Operator(_sqrt_psd(a.entries), hermitian=True)


def _require_density(op: Operator, name: str) -> np.ndarray:
    m = op.entries
    if not op.density:
        _check_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise NotPositiveError(f"{name} has trace {tr!r}, expected 1")
    return m


def _clamp_unit(value: float, what: str) -> float:
    if not -FIDELITY_CLAMP_TOL <= value <= 1.0 + FIDELITY_CLAMP_TOL:  # NaN fails too
        raise NotPositiveError(f"{what} {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def state_fidelity(rho: Operator, sigma: Operator) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 of two states."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} != {sigma.dim}")
    a = _require_density(rho, "rho")
    b = _require_density(sigma, "sigma")
    return _clamp_unit(_root_fidelity(a, b) ** 2, "state fidelity")


def pure_target_fidelity(rho: Operator, psi: Ket) -> float:
    """<psi|rho|psi>, the Uhlmann fidelity against a pure target."""
    if rho.dim != psi.dim:
        raise DimensionMismatchError(f"dims {rho.dim} != {psi.dim}")
    v = psi.amplitudes
    val = float(np.real(v.conj() @ rho.entries @ v))
    return _clamp_unit(val, "pure-target fidelity")


def assemblage_member_fidelity(a: Operator, b: Operator) -> float:
    """[Tr sqrt(sqrt(a) b sqrt(a))]^2 on unnormalized PSD operators.

    Unlike :func:`state_fidelity` the inputs need not have unit trace, and
    the result is not clamped to 1 (for a = b it equals [Tr a]^2).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")
    return _root_fidelity(a.entries, b.entries) ** 2
