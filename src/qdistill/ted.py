"""Threshold entanglement distillation engine.

Protocol over N >= 2 shared copies: the participating parties apply their
dichotomic filters to copies 1..N-1 and broadcast the outcome strings; a
copy survives iff every participant reported outcome 0.  The per-copy
success probability is

    GHZ:  p_u = d * alpha_0^2          (any 1 <= Q <= P-1, any partition)
    W:    p_u = P * prod(beta_i^2) / beta_{P-1}^(2(P-1))   (Q = P-1)

and the overall success probability over N-1 filtered copies is
1 - (1 - p_u)^(N-1).  The distilled output is modeled as the convex mixture
P_s |perfect><perfect| + (1 - P_s) |initial><initial|, which gives the
closed-form fidelity against the uniform-coefficient target

    F = 1 - (1/d) (1 - p_u)^(N-1) (d - (sum_i alpha_i)^2)

(and the same shape with P for W).  N enters only through (1 - p_u)^(N-1),
so p_u, the coefficients, the target's one number g, their overlap and the
closed form's terms (its own p_u, the size and the gap, :func:`closed_form_terms`)
are fixed by the spec alone: GHZ p_u depends on neither q nor the split,
and W uses all p-1 parties.  :class:`ProtocolConfig` checks the counts, q
and the split once, when it is built.  :func:`spec_context` builds that
set, reading p_u from the filters' pivot-ratio profile with no filter table
(``filters.zero_layer_multiplier``; :func:`assignment_for` and
:func:`apply_filter_layer` are the reference layer it equals bit for bit),
and every run path (``run_ted``, ``run_tsd``, ``run_stats``, ``simulate``,
sweep curves) reads it by spec through one small ``lru_cache``
(``_compact_zero_layer``).  A warm call to :func:`run_ted` does only the
per-N work, O(1) at any d: one lookup (a spec keeps its hash) and
:func:`results_at`, the one per-N step (``run_tsd`` and sweep rows too,
without building a report).  Reports are immutable records of numbers
(``typing.NamedTuple``), built positionally in one call, equal to
themselves alone and hashed by identity.  The sampled,
per-copy view of the same protocol lives in :mod:`qdistill.montecarlo`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadPartitionError, InvalidSpecError
from .filters import (
    FilterAssignment,
    IndexPartition,
    check_pivot,
    checked_split,
    ghz_partition_assignment,
    span_multiplier,
    w_assignment,
    zero_layer_multiplier,
)
from .states import (
    Family,
    GhzSpec,
    Spec,
    family_of,
    make_compact,
)

REPORT_FIDELITY_TOL = 1e-9

# size of the spec context cache, keyed on the spec alone, and of the (spec,
# q, partition) assignment cache the reference outcome enumeration reads: run
# paths vary n innermost, so an entry is reused only by the calls right
# after it; a few entries keep those hits and bound the O(d) data held
SPEC_CACHE_SIZE = 4


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to run one distillation instance.

    ``partition`` applies to GHZ only and defaults to a contiguous even
    split of {1..d-1} over the last q parties.  The counts, q and the split are checked here.
    """

    n_copies: int
    family: Family
    spec: Spec
    q: int
    partition: IndexPartition | None = None

    def __post_init__(self) -> None:
        if self.n_copies < 2:
            raise InvalidSpecError(
                f"protocol needs n_copies >= 2 (one copy is held back unfiltered), got {self.n_copies}"
            )
        if family_of(self.spec) is not self.family:
            raise InvalidSpecError("family does not match the spec type")
        p = self.spec.p
        if self.family is Family.GHZ_DIAGONAL:
            if not 1 <= self.q <= p - 1:
                raise InvalidSpecError(f"GHZ threshold requires 1 <= q <= {p - 1}, got {self.q}")
            checked_split(self.spec, self.partition, self.q)
        elif self.q != p - 1:
            raise InvalidSpecError(f"W distillation requires q = p-1 = {p - 1}, got {self.q}")
        elif self.partition is not None:
            raise InvalidSpecError("partitions only apply to the GHZ family")
        operator.index(self.n_copies), operator.index(self.q)  # counts: a float, even 2.0, is a TypeError


class DistillationReport(NamedTuple):
    """The numbers of one run, an immutable record built in one call.  A
    report equals itself alone and hashes by identity: a twin with equal
    fields is another report.  Being a tuple, it also unpacks, indexes and
    orders like one."""

    n_copies: int
    p_success_per_copy: float
    p_success_overall: float
    fidelity_closed_form: float
    fidelity_numeric: float

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    __hash__ = object.__hash__


def assignment_for(
    spec: Spec, q: int, partition: IndexPartition | None = None
) -> FilterAssignment:
    """Filter assignment under the default participation convention
    (the last q parties participate, a GHZ partition defaulting to the even
    contiguous split); W always uses all p-1 of them, so any other q, or a
    partition, is refused.  The reference layer: no run path builds it
    (:func:`spec_context` reads p_u without it)."""
    if isinstance(spec, GhzSpec):
        return ghz_partition_assignment(spec, partition, q)
    if q != spec.p - 1 or partition is not None:
        raise BadPartitionError(f"W filters need q = {spec.p - 1} and no partition, got q = {q}")
    return w_assignment(spec)


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _cached_assignment(
    spec: Spec, q: int, partition: IndexPartition | None
) -> FilterAssignment:
    return assignment_for(spec, q, partition)


def apply_filter_layer(
    coeffs: np.ndarray,
    spec: Spec,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
) -> tuple[np.ndarray, float]:
    """Apply one joint filter layer for the given outcome bits to ``coeffs``.

    Returns the unnormalized post-measurement coefficients together with
    their squared norm, i.e. the probability of this outcome string.  Summed
    over all 2^Q outcome strings the probabilities add to 1.
    """
    out = coeffs * span_multiplier(spec, assignment, outcomes)
    return out, float((out * out).sum())


def overall_success(p_per_copy: float, n: int) -> float:
    """1 - (1 - p)^(n-1): at least one of the n-1 filtered copies survives."""
    if not 0.0 <= p_per_copy <= 1.0 + 1e-12:
        raise InvalidSpecError(f"per-copy probability {p_per_copy!r} outside [0, 1]")
    if n < 2:
        raise InvalidSpecError(f"n must be >= 2, got {n}")
    operator.index(n)  # a count: a float, even 2.0 or NaN, is a TypeError
    # past 1e308 copies, which no float holds, any base below 1 gives 0: take the limit
    base = 1.0 - (p_per_copy if p_per_copy < 1.0 else 1.0)
    return 1.0 - base ** (n - 1 if n < 1e308 else math.inf)


def spec_context(
    spec: Spec,
) -> tuple[float, np.ndarray, float, float, tuple[float, int, float]]:
    """Everything of a run that N does not enter, fixed by the spec alone:
    p_u, the spec's coefficients (``make_compact``, converted once), g, their
    squared overlap with the uniform target and :func:`closed_form_terms`
    (computed apart from that p_u, the W one from the same array).
    g = 1/sqrt(span) is every entry of the target, bit for bit
    ``make_compact(perfect_like(spec))``'s, so the overlap multiplies by g
    itself.
    p_u, the all-zeros outcome's probability, is read from the pivot-ratio
    profile (``zero_layer_multiplier``) with the bits of :func:`apply_filter_layer`
    on ``assignment_for`` at every q and split a config accepts; no filter
    table is built.  Reductions are ``np.add.reduce``, the pairwise sum
    ``.sum()`` calls, without its Python wrapper (and with no BLAS threads)."""
    initial = make_compact(spec)
    out = initial * zero_layer_multiplier(spec, initial)
    pu = float(np.add.reduce(out * out))
    g = 1.0 / math.sqrt(len(initial))
    overlap = float(np.add.reduce(initial * g)) ** 2
    return pu, initial, g, overlap, closed_form_terms(spec, initial)


_compact_zero_layer = lru_cache(maxsize=SPEC_CACHE_SIZE)(spec_context)


def success_prob_per_copy(config: ProtocolConfig) -> float:
    """Probability that every participant reports outcome 0 on one copy."""
    return _compact_zero_layer(config.spec)[0]


def closed_form_terms(spec: Spec, coeffs: np.ndarray) -> tuple[float, int, float]:
    """The closed form's spec-only terms (p_u, size, gap): (d a_0^2, d,
    d - (sum a)^2) for GHZ, (the W p_u, P, P - (sum b)^2) for W, the W p_u
    read from ``coeffs``, the spec's ``make_compact`` array; the caller
    checks the pivot."""
    if isinstance(spec, GhzSpec):
        return spec.d * spec.alphas[0] ** 2, spec.d, spec.d - sum(spec.alphas) ** 2
    return w_success_probability(coeffs), spec.p, spec.p - math.fsum(spec.betas) ** 2


def fidelity_from_success(pu: float, size: float, gap: float, n: int) -> float:
    """Fidelity of the two-component mixture, parameterized by aggregates only."""
    if n < 2:
        raise InvalidSpecError(f"n must be >= 2, got {n}")
    operator.index(n)  # a count, as in overall_success
    return 1.0 - (1.0 - pu) ** (n - 1 if n < 1e308 else math.inf) * gap / size  # as overall_success


def w_success_probability(betas: np.ndarray) -> float:
    """P b_max^2 prod (b_i/b_max)^2 from a W spec's coefficient array, b_max last."""
    head, top = betas[:-1], float(betas[-1])
    gaps = (head - top) / top  # exact for b_i >= b_max/2; a b_i below gives a gap <= -1/2
    if min(gaps.tolist()) > -0.5:
        logs, shift = np.log1p(gaps), 0
    else:  # below b_max/2, the log of the ratio's mantissa, its power of two applied exactly
        far = head < top / 2
        logs = np.log1p(np.where(far, 0.0, gaps))
        mantissas, twos = np.frexp(head[far] / top)
        logs[far], shift = np.log(mantissas), 2 * int(twos.sum())
    return math.ldexp(len(betas) * top**2 * math.exp(2 * math.fsum(logs.tolist())), shift)


def closed_form_fidelity(spec: Spec, n: int) -> float:
    """Reference closed form 1 - (1 - p_u)^(n-1) gap / size (closed_form_terms)."""
    check_pivot(spec)
    return fidelity_from_success(*closed_form_terms(spec, make_compact(spec)), n)


def results_at(context: tuple, n: int) -> tuple[float, float, float, float]:
    """A run's per-N work on a :func:`spec_context`: p_u, the overall success and
    the closed-form and numeric fidelities.  The one check of a report's numbers:
    fidelities more than ``REPORT_FIDELITY_TOL`` apart (NaN and inf included)
    are refused here, and a p_u outside [0, 1] by :func:`overall_success`."""
    pu, _, _, overlap, terms = context
    ps = overall_success(pu, n)
    closed, numeric = fidelity_from_success(*terms, n), ps + (1.0 - ps) * overlap
    if not abs(closed - numeric) <= REPORT_FIDELITY_TOL:  # NaN fails
        raise InvalidSpecError(f"fidelities disagree: closed form {closed!r}, numeric {numeric!r}")
    return pu, ps, closed, numeric


def run_ted(config: ProtocolConfig) -> DistillationReport:
    """Execute the protocol analytically and report the numbers of the
    distilled mixture P_s |perfect><perfect| + (1 - P_s) |initial><initial|.

    The numeric fidelity comes from the overlap of the initial and perfect
    coefficient vectors, not from the closed form."""
    pu, ps, closed, numeric = results_at(_compact_zero_layer(config.spec), config.n_copies)
    return DistillationReport(config.n_copies, pu, ps, closed, numeric)
