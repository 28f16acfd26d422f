"""Dichotomic local filtering POVMs for GHZ and W distillation.

Each participating party applies a two-outcome filter {K0, K1}, diagonal in
the computational basis, with K0^dag K0 + K1^dag K1 = I.  Outcome 0
post-selects the distilled branch.  A layer (:class:`FilterAssignment`) is
one real (q, dim) table whose row r is the K0 diagonal of the r-th
participant; the K1 diagonals sqrt(1 - K0^2) are derived from it.  Since
every filter is diagonal, a layer acts on the compact span of a state as
one multiplier per coefficient (:func:`span_multiplier`), which the
entanglement and the steering engines share.

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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    PivotNotMaximalError,
    PivotNotMinimalError,
)
from .states import GhzSpec, Spec, WSpec, local_column, span_shape

PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint blocks of basis indices, one per participating party, whose
    union is {1, ..., d-1}.  Index 0 (the pivot) is never filtered.  Empty
    blocks are allowed: the owning party then applies the identity filter."""

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


@dataclass(frozen=True, eq=False)
class FilterAssignment:
    """One filter layer on ``p`` parties: participant ``participants[r]``
    (strictly ascending) applies {diag(k0[r]), diag(k1[r])}.

    ``k0`` is a read-only real (q, dim) table with entries in [0, 1];
    ``k1 = sqrt(1 - k0^2)`` is derived with the principal root, so every
    pair is complete by construction.  Parties not listed stay idle.
    """

    p: int
    participants: tuple[int, ...]
    k0: np.ndarray
    k1: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        parties = tuple(int(j) for j in self.participants)
        if any(a >= b for a, b in zip((-1, *parties), (*parties, self.p))):
            raise DimensionMismatchError(
                f"participants {parties} must ascend strictly within 0..{self.p - 1}"
            )
        if np.iscomplexobj(self.k0):
            raise DimensionMismatchError("k0 entries must be real")
        k0 = np.array(self.k0, dtype=float)
        if k0.ndim != 2 or len(k0) != len(parties):
            raise DimensionMismatchError(f"k0 shape {k0.shape} is not ({len(parties)}, dim)")
        if not ((0.0 <= k0) & (k0 <= 1.0)).all():  # NaN fails
            raise DimensionMismatchError("k0 entries must lie in [0, 1]")
        k1 = np.sqrt(1.0 - k0 * k0)
        k0.flags.writeable = k1.flags.writeable = False
        object.__setattr__(self, "participants", parties)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)

    @property
    def q(self) -> int:
        return len(self.participants)


def span_multiplier(
    spec: Spec, assignment: FilterAssignment, outcomes: Sequence[int]
) -> np.ndarray:
    """The layer's multiplier on the compact span of ``spec``: entry k
    multiplies the coefficient of span row k.

    Starting from ones, each participant j multiplies in its diagonal entry
    at the local index that ``local_column(spec, j)`` assigns it on each
    row, one participant at a time in party order.
    """
    if assignment.p != spec.p:
        raise DimensionMismatchError(f"{assignment.p}-party assignment on {spec.p} parties")
    if len(outcomes) != assignment.q:
        raise DimensionMismatchError(f"{assignment.q} participants but {len(outcomes)} outcomes")
    values = np.ones(span_shape(spec)[0])
    for j, o, row0, row1 in zip(assignment.participants, outcomes, assignment.k0, assignment.k1):
        values *= (row0 if o == 0 else row1)[local_column(spec, j)]
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
    leaves diagonal entry 1 everywhere else; the parties may come in any
    order, their blocks travel with them.
    """
    blocks = partition.blocks
    if sorted(i for b in blocks for i in b) != list(range(1, spec.d)):
        raise BadPartitionError(
            f"blocks {[sorted(b) for b in blocks]} do not split 1..{spec.d - 1}"
        )
    parties = tuple(int(j) for j in parties)
    if len(parties) != len(blocks):
        raise BadPartitionError(f"{len(blocks)} blocks for {len(parties)} parties")
    if len(set(parties)) != len(parties) or not all(0 <= j < spec.p for j in parties):
        raise BadPartitionError(f"parties {parties} are not distinct indices in 0..{spec.p - 1}")
    if len(parties) > spec.p - 1:
        raise BadPartitionError("threshold assignment must leave a non-participating party")
    ratios = _ghz_ratios(spec)
    owned = sorted(zip(parties, blocks))  # distinct parties: blocks are never compared
    table = np.ones((len(owned), spec.d))
    for row, (_, block) in zip(table, owned):
        row[list(block)] = ratios[list(block)]
    return FilterAssignment(spec.p, tuple(j for j, _ in owned), table)


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
    return FilterAssignment(spec.p, tuple(range(1, spec.p)), table)

