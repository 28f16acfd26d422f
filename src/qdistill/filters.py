"""Dichotomic local filtering POVMs for GHZ and W distillation.

Each participating party applies a two-outcome filter {K0, K1}, diagonal in
the computational basis, with K0^dag K0 + K1^dag K1 = I.  Outcome 0
post-selects the distilled branch.

For a GHZ spec with alpha_0 minimal, the work of flattening the coefficient
profile can be split arbitrarily: each participating party owns a block of
basis indices and filters only those, carrying diagonal entry 1 on all
indices outside its block (completeness forces the implicit entries to 1).
The product of the participants' diagonals then equals alpha_0/alpha_i at
every index i >= 1, so the post-selected state and the success probability
are independent of the split and of how many parties participate.

For a W spec with beta_{p-1} maximal, parties 1..p-1 filter their |0>
component by beta_{p-1-j}/beta_{p-1}; this requires all p-1 of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    PivotNotMaximalError,
    PivotNotMinimalError,
)
from .states import GhzSpec, Spec, WSpec

PIVOT_TOL = 1e-12
ENTRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausPair:
    """A dichotomic filter {K0, K1}, stored as the two real diagonals
    ``k0`` and ``k1`` with entries in [0, 1].

    Construction checks the structural invariants only; POVM completeness is
    the factories' job and is reported by :func:`validate_povm`, which must
    also be able to inspect deliberately broken pairs.
    """

    k0: np.ndarray
    k1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("k0", "k1"):
            raw = np.asarray(getattr(self, name))
            if raw.ndim != 1:
                raise DimensionMismatchError(f"{name} must be a 1-d diagonal")
            if np.iscomplexobj(raw):
                raise DimensionMismatchError(f"{name} entries must be real")
            vec = raw.astype(float)
            if not np.all((-ENTRY_TOL <= vec) & (vec <= 1.0 + ENTRY_TOL)):  # NaN fails
                raise DimensionMismatchError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, vec)
        if len(self.k0) != len(self.k1):
            raise DimensionMismatchError("k0 and k1 dims differ")

    @property
    def dim(self) -> int:
        return len(self.k0)

    def diag(self, outcome: int) -> np.ndarray:
        return self.k0 if outcome == 0 else self.k1

    @classmethod
    def from_diagonals(cls, d0: np.ndarray) -> "KrausPair":
        """Build {diag(d0), sqrt(I - diag(d0)^2)} with the principal root, so
        the pair is complete by construction even under floating-point drift."""
        d0 = np.clip(np.asarray(d0, dtype=float), 0.0, 1.0)
        d1 = np.sqrt(np.clip(1.0 - d0 * d0, 0.0, None))
        return cls(d0, d1)


def identity_pair(dim: int) -> KrausPair:
    return KrausPair.from_diagonals(np.ones(dim))


@dataclass(frozen=True)
class PovmReport:
    ok: bool
    completeness_deviation: float
    entry_deviation: float


def validate_povm(pair: KrausPair, tol: float = ENTRY_TOL) -> PovmReport:
    """Check K0^dag K0 + K1^dag K1 = I and entry bounds; report max deviation."""
    comp = float(np.max(np.abs(pair.k0 * pair.k0 + pair.k1 * pair.k1 - 1.0)))
    entries = np.concatenate([pair.k0, pair.k1])
    entry = float(max(np.max(entries - 1.0), np.max(-entries), 0.0))
    return PovmReport(ok=comp <= tol and entry <= tol,
                      completeness_deviation=comp, entry_deviation=entry)


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint blocks of basis indices, one per participating party, whose
    union is {1, ..., d-1}.  Index 0 (the pivot) is never filtered.  Empty
    blocks are allowed: the owning party then applies the identity pair."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "blocks", tuple(frozenset(int(i) for i in b) for b in self.blocks)
        )

    @classmethod
    def single(cls, d: int) -> "IndexPartition":
        return cls((frozenset(range(1, d)),))

    @classmethod
    def contiguous(cls, d: int, q: int) -> "IndexPartition":
        """Split {1..d-1} into q contiguous blocks as evenly as possible."""
        if q < 1:
            raise BadPartitionError(f"need at least one block, got {q}")
        idx = list(range(1, d))
        base, extra = divmod(len(idx), q)
        blocks, at = [], 0
        for k in range(q):
            size = base + (1 if k < extra else 0)
            blocks.append(frozenset(idx[at:at + size]))
            at += size
        return cls(tuple(blocks))

    @classmethod
    def halves(cls, d: int) -> "IndexPartition":
        """Two blocks split at floor((d-1)/2): {1..m} and {m+1..d-1}."""
        m = (d - 1) // 2
        return cls((frozenset(range(1, m + 1)), frozenset(range(m + 1, d))))


def _check_partition(partition: IndexPartition, d: int) -> None:
    seen: set[int] = set()
    for b in partition.blocks:
        if any(i < 1 or i >= d for i in b):
            raise BadPartitionError(f"block {sorted(b)} outside 1..{d - 1}")
        if seen & b:
            raise BadPartitionError("blocks overlap")
        seen |= b
    if seen != set(range(1, d)):
        raise BadPartitionError(
            f"blocks cover {sorted(seen)}, expected all of 1..{d - 1}"
        )


@dataclass(frozen=True, eq=False)
class FilterAssignment:
    """Per-party filters; ``None`` marks a non-participating party."""

    p: int
    pairs: tuple[KrausPair | None, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != self.p:
            raise DimensionMismatchError(
                f"expected {self.p} per-party slots, got {len(self.pairs)}"
            )

    @property
    def participants(self) -> tuple[int, ...]:
        return tuple(j for j, pr in enumerate(self.pairs) if pr is not None)

    @property
    def q(self) -> int:
        return len(self.participants)


def apply_layer(
    values: np.ndarray,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
    local: np.ndarray,
) -> np.ndarray:
    """Multiply ``values`` by the joint diagonal of one filter layer.

    ``values[r]`` belongs to the basis state whose party-j local index is
    ``local[r, j]``.  Each participant multiplies by its diagonal entry there,
    one participant at a time in party order, so the start vector fixes the
    rounding: amplitudes for a dense ket, ones for a multiplier.
    """
    participants = assignment.participants
    if len(outcomes) != len(participants):
        raise DimensionMismatchError(
            f"{len(participants)} participants but {len(outcomes)} outcomes"
        )
    for j, o in zip(participants, outcomes):
        values = values * assignment.pairs[j].diag(o)[local[:, j]]
    return values


def _ghz_ratios(spec: GhzSpec) -> np.ndarray:
    al = np.array(spec.alphas)
    ratios = al[0] / al
    if np.max(ratios) > 1.0 + PIVOT_TOL:
        raise PivotNotMinimalError(
            "alpha_0 must be the minimal coefficient; "
            "canonicalize_spec() relabels the basis explicitly"
        )
    return np.clip(ratios, 0.0, 1.0)


def ghz_single_party_pair(spec: GhzSpec) -> KrausPair:
    """The one-party GHZ filter K0 = diag(alpha_0/alpha_i)."""
    return KrausPair.from_diagonals(_ghz_ratios(spec))


def ghz_partition_assignment(
    spec: GhzSpec,
    partition: IndexPartition,
    parties: tuple[int, ...],
) -> FilterAssignment:
    """Distribute the GHZ filter across participating parties by index block.

    Party ``parties[k]`` filters the indices in ``partition.blocks[k]`` and
    leaves diagonal entry 1 everywhere else.
    """
    _check_partition(partition, spec.d)
    parties = tuple(int(j) for j in parties)
    if len(parties) != len(partition.blocks):
        raise BadPartitionError(
            f"{len(partition.blocks)} blocks for {len(parties)} parties"
        )
    if len(set(parties)) != len(parties):
        raise BadPartitionError(f"duplicate parties in {parties}")
    if any(j < 0 or j >= spec.p for j in parties):
        raise BadPartitionError(f"party indices {parties} outside 0..{spec.p - 1}")
    if len(parties) > spec.p - 1:
        raise BadPartitionError(
            "threshold assignment must leave at least one non-participating party"
        )
    ratios = _ghz_ratios(spec)
    slots: list[KrausPair | None] = [None] * spec.p
    for block, j in zip(partition.blocks, parties):
        d0 = np.ones(spec.d)
        for i in block:
            d0[i] = ratios[i]
        slots[j] = KrausPair.from_diagonals(d0)
    return FilterAssignment(spec.p, tuple(slots))


def last_parties(p: int, q: int) -> tuple[int, ...]:
    """Default participation convention: the last q parties, in order."""
    return tuple(range(p - q, p))


def w_assignment(spec: WSpec) -> FilterAssignment:
    """W filters: parties 1..p-1 participate, party j attenuating its |0>
    component by beta_{p-1-j}/beta_{p-1}; party 0 stays idle."""
    be = np.array(spec.betas)
    ratios = be / be[-1]
    if np.max(ratios) > 1.0 + PIVOT_TOL:
        raise PivotNotMaximalError(
            "beta_{p-1} must be the maximal coefficient; "
            "canonicalize_spec() relabels parties explicitly"
        )
    slots: list[KrausPair | None] = [None]
    for j in range(1, spec.p):
        r = min(float(ratios[spec.p - 1 - j]), 1.0)
        slots.append(KrausPair.from_diagonals(np.array([r, 1.0])))
    return FilterAssignment(spec.p, tuple(slots))


def canonicalize_spec(spec: Spec) -> tuple[Spec, tuple[int, ...]]:
    """Relabel so the filter pivot conditions hold.

    GHZ: swap basis index 0 with the argmin of alpha.  W: swap party label
    p-1 with the argmax of beta.  Returns the new spec and the permutation
    ``perm`` with ``new[k] = old[perm[k]]``.  Relabeling is never done
    silently elsewhere, since it would desynchronize externally supplied
    measurement settings.
    """
    if isinstance(spec, GhzSpec):
        coeffs = spec.alphas
        pivot, target = int(np.argmin(coeffs)), 0
    else:
        coeffs = spec.betas
        pivot, target = int(np.argmax(coeffs)), len(coeffs) - 1
    perm = list(range(len(coeffs)))
    perm[target], perm[pivot] = perm[pivot], perm[target]
    permuted = tuple(coeffs[k] for k in perm)
    if isinstance(spec, GhzSpec):
        return GhzSpec(spec.d, spec.p, permuted), tuple(perm)
    return WSpec(spec.p, permuted), tuple(perm)

