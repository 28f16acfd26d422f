"""Dichotomic local filtering POVMs for GHZ and W distillation.

Each participating party applies a two-outcome filter {K0, K1}, diagonal in
the computational basis, with K0^dag K0 + K1^dag K1 = I.  Outcome 0
post-selects the distilled branch.  A layer (:class:`FilterAssignment`) is
one real (q, dim) table whose row r is the K0 diagonal of the r-th
participant; the K1 diagonals sqrt(1 - K0^2) are derived from it on first
read.  Since every filter is diagonal, a layer acts on the compact span of
a state as one multiplier per coefficient (:func:`span_multiplier`), which
the reference entanglement and steering layers share.  The kernel takes the
placement in the changed-row form of ``states.changed_rows``: a GHZ
participant changes every row, so the multiplier is the product of the
selected table rows in party order; a W participant changes one row, so
each row's multiplier is a product of index-0 entries around one index-1
entry, O(P) by prefix and suffix products.

For a GHZ spec with alpha_0 minimal, the work of flattening the coefficient
profile can be split arbitrarily: each participating party owns a block of
basis indices and filters only those, carrying diagonal entry 1 on all
indices outside its block (completeness forces the implicit entries to 1).
The product of the participants' diagonals then equals alpha_0/alpha_i at
every index i >= 1, so the post-selected state and the success probability
are independent of the split and of how many parties participate.  The
assignment fills its table from one owner array, the block of each index,
whether the split is explicit or the default even one: contiguous blocks
over {1..d-1}, the first (d - 1) mod q of them one index longer.

For a W spec with beta_{p-1} maximal, parties 1..p-1 filter their |0>
component by beta_{p-1-j}/beta_{p-1}; this requires all p-1 of them.

Both families' filters are read from one ratio profile (:func:`pivot_ratios`),
and by that independence the all-zeros outcome needs no table: its GHZ
multiplier is the profile itself, bit for bit, and its W multiplier the
kernel's prefix and suffix products over the party ratios
(:func:`zero_layer_multiplier`, a function of the spec alone).  The run
paths read p_u from it; the tables serve only the reference outcome
enumeration and the tests.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    PivotNotMaximalError,
    PivotNotMinimalError,
)
from .states import GhzSpec, Spec, WSpec, changed_rows, make_compact, span_shape

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


@dataclass(frozen=True, eq=False)
class FilterAssignment:
    """One filter layer on ``p`` parties: participant ``participants[r]``
    (strictly ascending) applies {diag(k0[r]), diag(k1[r])}.

    ``k0`` is a read-only real (q, dim) table with entries in [0, 1];
    ``k1 = sqrt(1 - k0^2)`` is derived with the principal root on first
    read (the all-zeros outcome never needs it), so every pair is complete
    by construction.  Parties not listed stay idle.
    """

    p: int
    participants: tuple[int, ...]
    k0: np.ndarray

    def __post_init__(self) -> None:
        parties = tuple(int(j) for j in self.participants)
        if any(a >= b for a, b in zip((-1, *parties), (*parties, self.p))):
            raise DimensionMismatchError(
                f"participants {parties} must ascend strictly within 0..{self.p - 1}"
            )
        k0 = np.array(self.k0)
        if k0.dtype.kind == "c":
            raise DimensionMismatchError("k0 entries must be real")
        k0 = k0.astype(float, copy=False)
        if k0.ndim != 2 or len(k0) != len(parties):
            raise DimensionMismatchError(f"k0 shape {k0.shape} is not ({len(parties)}, dim)")
        if k0.size and not (k0.min() >= 0.0 and k0.max() <= 1.0):  # NaN fails
            raise DimensionMismatchError("k0 entries must lie in [0, 1]")
        k0.flags.writeable = False
        object.__setattr__(self, "participants", parties)
        object.__setattr__(self, "k0", k0)

    @cached_property
    def k1(self) -> np.ndarray:
        k1 = np.sqrt(1.0 - self.k0 * self.k0)
        k1.flags.writeable = False
        return k1

    @property
    def q(self) -> int:
        return len(self.participants)


def span_multiplier(
    spec: Spec, assignment: FilterAssignment, outcomes: Sequence[int]
) -> np.ndarray:
    """The layer's multiplier on the compact span of ``spec``: entry k
    multiplies the coefficient of span row k.

    Each participant selects its K0 or K1 row by its outcome, and
    ``changed_rows`` says which span rows it acts on.  GHZ participants act
    on every row, so the multiplier is the product of the selected rows,
    taken in party order.  A W participant holds index 1 on one row and 0
    on the others, so row k's multiplier is the product of every
    participant's index-0 entry but that of party p-1-k, times the index-1
    entry of party p-1-k if it participates: exclusive prefix and suffix
    products give every row in O(P), with no division (an entry can be 0).
    """
    if assignment.p != spec.p:
        raise DimensionMismatchError(f"{assignment.p}-party assignment on {spec.p} parties")
    if len(outcomes) != assignment.q:
        raise DimensionMismatchError(f"{assignment.q} participants but {len(outcomes)} outcomes")
    rows, dim = span_shape(spec)
    if assignment.k0.shape[1] != dim:
        raise DimensionMismatchError(
            f"filters of dimension {assignment.k0.shape[1]} on local dimension {dim}"
        )
    table = assignment.k0
    if any(outcomes):
        table = np.where(np.asarray(outcomes)[:, None] == 0, table, assignment.k1)
    changed = changed_rows(spec, assignment.participants)
    if changed is None:
        return np.multiply.reduce(table, axis=0)
    values = _w_rows(table[:, 0], changed, rows)
    values[changed] *= table[:, 1]
    return values


def _w_rows(zeros: np.ndarray, changed, rows: int) -> np.ndarray:
    """A W layer's multiplier on ``rows`` span rows before its index-1
    entries: participant r holds index 1 on row ``changed[r]`` and index 0
    (entry ``zeros[r]``) on every other row, so row ``changed[r]`` gets the
    product of every other participant's index-0 entry, which the caller
    multiplies by participant r's index-1 entry, and an idle party's row
    the product of them all."""
    q = len(zeros)
    # one buffer of prefix and suffix products: ends[r] for r = 0..q is the
    # product of the first r entries (ends[q] of them all), ends[q + 1 + r]
    # that of the last r
    ends = np.empty(2 * q + 2)
    ends[0] = ends[q + 1] = 1.0
    np.multiply.accumulate(zeros, out=ends[1:q + 1])
    np.multiply.accumulate(zeros[::-1], out=ends[q + 2:])
    values = np.empty(rows)
    values.fill(ends[q])
    values[changed] = ends[:q] * ends[2 * q:q:-1]
    return values


def check_pivot(spec: Spec) -> None:
    """The pivot rule of the filters and the closed forms: alpha_0 minimal
    (GHZ) or beta_{p-1} maximal (W), up to a relative ``PIVOT_TOL``."""
    if isinstance(spec, GhzSpec):
        if spec.alphas[0] / min(spec.alphas) > 1.0 + PIVOT_TOL:
            raise PivotNotMinimalError(
                "alpha_0 must be the minimal coefficient; relabel the basis so that it is"
            )
    elif max(spec.betas) / spec.betas[-1] > 1.0 + PIVOT_TOL:
        raise PivotNotMaximalError(
            "beta_{p-1} must be the maximal coefficient; relabel the parties so that it is"
        )


def pivot_ratios(spec: Spec, coeffs: np.ndarray) -> np.ndarray:
    """The filters' ratio profile, after :func:`check_pivot`, read from the
    spec's coefficient array ``coeffs`` (``make_compact(spec)``): for GHZ
    min(alpha_0/alpha_i, 1) at every index i (1 at the pivot), for W
    min(beta_{p-1-j}/beta_{p-1}, 1), party j's |0> entry, for j = 1..p-1."""
    check_pivot(spec)
    if isinstance(spec, GhzSpec):
        return np.minimum(coeffs[0] / coeffs, 1.0)
    return np.minimum(coeffs[-2::-1] / coeffs[-1], 1.0)


def checked_split(spec: GhzSpec, partition: IndexPartition | None, q: int) -> np.ndarray | None:
    """A GHZ layer's split over q parties, checked in this order: at least
    one party, the partition, one party left idle.  Returns the partition's
    owner array, or None for the default even split, which no index can
    break.  The parties themselves are the last q (:func:`last_parties`).
    Checked once per config (``ted.ProtocolConfig``) and per reference table."""
    q = operator.index(q)  # a count: a float q is a TypeError, not a split of 1.5 parties
    if q < 1:
        raise BadPartitionError(f"need at least one block, got {q}")
    owner = None
    if partition is not None:
        owner = _owner_array(partition.blocks, spec.d)
        if q != len(partition.blocks):
            raise BadPartitionError(f"{len(partition.blocks)} blocks for {q} parties")
    if q > spec.p - 1:
        raise BadPartitionError("threshold assignment must leave a non-participating party")
    return owner


def ghz_partition_assignment(
    spec: GhzSpec, partition: IndexPartition | None, q: int
) -> FilterAssignment:
    """Distribute the GHZ filter across the last q parties by index block.

    The k-th participant filters the indices in ``partition.blocks[k]`` and
    leaves diagonal entry 1 everywhere else.  ``None`` is the default even
    split into q blocks, built as its owner array without blocks.
    """
    owner = checked_split(spec, partition, q)
    ratios = pivot_ratios(spec, make_compact(spec))
    if owner is None:
        base, extra = divmod(spec.d - 1, q)
        owner = np.repeat(np.arange(-1, q), [1] + [base + 1] * extra + [base] * (q - extra))
    table = np.where(owner == np.arange(q)[:, None], ratios, 1.0)
    return FilterAssignment(spec.p, last_parties(spec.p, q), table)


def _owner_array(blocks: tuple[frozenset[int], ...], d: int) -> np.ndarray:
    """The block of each index 0..d-1 (-1 for the pivot 0), refused unless
    the blocks split 1..d-1."""
    sizes = [len(b) for b in blocks]
    owner = np.full(d, -1)
    if sum(sizes) == d - 1 and all(1 <= min(b) and max(b) < d for b in blocks if b):
        indices = np.fromiter(itertools.chain.from_iterable(blocks), np.intp, d - 1)
        owner[indices] = np.repeat(np.arange(len(blocks)), sizes)
    if (owner[1:] < 0).any():  # d - 1 indices in 1..d-1 cover it unless one repeats
        raise BadPartitionError(f"blocks {[sorted(b) for b in blocks]} do not split 1..{d - 1}")
    return owner


def last_parties(p: int, q: int) -> tuple[int, ...]:
    """Default participation convention: the last q parties, in order."""
    return tuple(range(p - q, p))


def w_assignment(spec: WSpec) -> FilterAssignment:
    """W filters: parties 1..p-1 participate, party j attenuating its |0>
    component by beta_{p-1-j}/beta_{p-1}; party 0 stays idle."""
    table = np.ones((spec.p - 1, 2))
    table[:, 0] = pivot_ratios(spec, make_compact(spec))
    return FilterAssignment(spec.p, last_parties(spec.p, spec.p - 1), table)


def zero_layer_multiplier(spec: Spec, coeffs: np.ndarray) -> np.ndarray:
    """The all-zeros outcome's multiplier of every layer ``ted.assignment_for``
    builds for ``spec``, bit for bit, read from :func:`pivot_ratios` of
    ``coeffs`` (the spec's ``make_compact`` array, which the caller converts
    once) without a table.  A GHZ table holds each index's ratio on its
    owner's row and 1.0 on every other, so its product over rows is the
    ratio profile itself, whatever the split and q (the caller checks
    those).  W parties 1..p-1 all participate, party j changing row p-1-j,
    with index-1 entry 1.0."""
    if isinstance(spec, GhzSpec):
        return pivot_ratios(spec, coeffs)
    return _w_rows(pivot_ratios(spec, coeffs), np.s_[-2::-1], spec.p)
