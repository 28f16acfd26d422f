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
from .states import GhzSpec, WSpec

PIVOT_TOL = 1e-12
ENTRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausPair:
    """A dichotomic filter {K0, K1}, stored as the two real diagonals
    ``k0`` and ``k1`` with entries in [0, 1].

    Construction checks the structural invariants only, so a deliberately
    incomplete pair can still be built; POVM completeness is the job of
    :func:`complete_pairs`, through which every factory builds its pairs.
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
            if not ((-ENTRY_TOL <= vec) & (vec <= 1.0 + ENTRY_TOL)).all():  # NaN fails
                raise DimensionMismatchError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, vec)
        if len(self.k0) != len(self.k1):
            raise DimensionMismatchError("k0 and k1 dims differ")

    @property
    def dim(self) -> int:
        return len(self.k0)

    def diag(self, outcome: int) -> np.ndarray:
        return self.k0 if outcome == 0 else self.k1


def complete_pairs(table) -> tuple[KrausPair, ...]:
    """One pair {diag(d0), sqrt(I - diag(d0)^2)} per row d0 of a (q, dim)
    table, with the principal root, so each is complete by construction even
    under floating-point drift.  The table is checked once, as one pair."""
    k0 = np.asarray(table, dtype=float).clip(0.0, 1.0)
    whole = KrausPair(k0.ravel(), np.sqrt((1.0 - k0 * k0).clip(0.0, None)).ravel())
    pairs = tuple(object.__new__(KrausPair) for _ in k0)  # their rows passed ``whole``'s checks
    for pair, row0, row1 in zip(pairs, whole.k0.reshape(k0.shape), whole.k1.reshape(k0.shape)):
        pair.__dict__.update(k0=row0, k1=row1)
    return pairs


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
    local: np.ndarray | None,
) -> np.ndarray:
    """Multiply ``values`` by the joint diagonal of one filter layer.

    ``values[r]`` belongs to the basis state whose party-j local index is
    ``local[r, j]``.  Each participant multiplies by its diagonal entry there,
    one participant at a time in party order, so the start vector fixes the
    rounding: amplitudes for a dense ket, ones for a multiplier.  ``local``
    must cover the assignment's parties; with no participant it may be None.
    """
    participants = assignment.participants
    if local is not None and local.shape[1] != assignment.p:
        raise DimensionMismatchError(f"{assignment.p}-party assignment on {local.shape[1]} parties")
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
    if ratios.max() > 1.0 + PIVOT_TOL:
        raise PivotNotMinimalError(
            "alpha_0 must be the minimal coefficient; relabel the basis so that it is"
        )
    return ratios.clip(0.0, 1.0)


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
    table = np.ones((len(parties), spec.d))
    for row, block in zip(table, partition.blocks):
        row[list(block)] = ratios[list(block)]
    slots = dict(zip(parties, complete_pairs(table)))
    return FilterAssignment(spec.p, tuple(slots.get(j) for j in range(spec.p)))


def last_parties(p: int, q: int) -> tuple[int, ...]:
    """Default participation convention: the last q parties, in order."""
    return tuple(range(p - q, p))


def w_assignment(spec: WSpec) -> FilterAssignment:
    """W filters: parties 1..p-1 participate, party j attenuating its |0>
    component by beta_{p-1-j}/beta_{p-1}; party 0 stays idle."""
    be = np.array(spec.betas)
    ratios = be / be[-1]
    if ratios.max() > 1.0 + PIVOT_TOL:
        raise PivotNotMaximalError(
            "beta_{p-1} must be the maximal coefficient; relabel the parties so that it is"
        )
    table = np.ones((spec.p - 1, 2))
    table[:, 0] = np.minimum(ratios[-2::-1], 1.0)
    return FilterAssignment(spec.p, (None, *complete_pairs(table)))

