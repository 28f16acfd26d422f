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

(and the same shape with P for W).  The sampled, per-copy view of the same
protocol lives in :mod:`qdistill.montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError
from .filters import (
    FilterAssignment,
    IndexPartition,
    apply_layer,
    ghz_partition_assignment,
    last_parties,
    w_assignment,
)
from .linalg import Ket, Operator
from .states import (
    CompactState,
    Family,
    GhzSpec,
    Spec,
    WSpec,
    compact_to_dense,
    family_of,
    local_indices,
    make_compact,
    perfect_like,
)

REPORT_PROB_TOL = 1e-12
REPORT_FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to run one distillation instance.

    ``partition`` applies to GHZ only and defaults to a contiguous even
    split of {1..d-1} over the last q parties.
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
        else:
            if self.q != p - 1:
                raise InvalidSpecError(f"W distillation requires q = p-1 = {p - 1}, got {self.q}")
            if self.partition is not None:
                raise InvalidSpecError("partitions only apply to the GHZ family")


@dataclass(frozen=True, eq=False)
class StateMixture:
    """Convex mixture of compact states (weights sum to 1)."""

    components: tuple[tuple[float, CompactState], ...]

    def to_dense_operator(self) -> Operator:
        out = None
        for w, st in self.components:
            v = compact_to_dense(st).amplitudes
            term = w * np.outer(v, v.conj())
            out = term if out is None else out + term
        return Operator(out, density=True)


@dataclass(frozen=True, eq=False)
class DistillationReport:
    n_copies: int
    p_success_per_copy: float
    p_success_overall: float
    fidelity_closed_form: float
    fidelity_numeric: float
    distilled_state: StateMixture

    def __post_init__(self) -> None:
        expected = overall_success(self.p_success_per_copy, self.n_copies)
        if not abs(self.p_success_overall - expected) <= REPORT_PROB_TOL:  # NaN fails
            raise InvalidSpecError("overall success inconsistent with per-copy value")
        if not abs(self.fidelity_closed_form - self.fidelity_numeric) <= REPORT_FIDELITY_TOL:
            raise InvalidSpecError(
                "closed-form and numeric fidelities disagree: "
                f"{self.fidelity_closed_form!r} vs {self.fidelity_numeric!r}"
            )


def assignment_for(
    family: Family,
    spec: Spec,
    q: int,
    partition: IndexPartition | None = None,
) -> FilterAssignment:
    """Filter assignment under the default participation convention
    (the last q parties participate)."""
    if family is Family.GHZ_DIAGONAL:
        assert isinstance(spec, GhzSpec)
        if partition is None:
            partition = IndexPartition.contiguous(spec.d, q)
        return ghz_partition_assignment(spec, partition, last_parties(spec.p, q))
    assert isinstance(spec, WSpec)
    return w_assignment(spec)


@lru_cache(maxsize=512)
def _cached_assignment(
    family: Family, spec: Spec, q: int, partition: IndexPartition | None
) -> FilterAssignment:
    return assignment_for(family, spec, q, partition)


def apply_filter_layer(
    state: Ket | CompactState,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
) -> tuple[Ket | CompactState, float]:
    """Apply one joint filter layer for the given outcome bits.

    Returns the unnormalized post-measurement state together with its squared
    norm, i.e. the probability of this outcome string.  Summed over all 2^Q
    outcome strings the probabilities add to 1.
    """
    if isinstance(state, CompactState):
        mult = apply_layer(
            np.ones(len(state.coeffs)), assignment, outcomes, local_indices(state.spec)
        )
        coeffs = state.coeffs * mult
        prob = float(np.sum(coeffs * coeffs))
        out = CompactState(state.family, coeffs, state.spec, normalized=False)
        return out, prob
    # dense reference: the table row of a basis state holds its base-d digits
    participants = assignment.participants
    if not participants:  # no local dimension to read, and no table is needed
        amps = apply_layer(state.amplitudes, assignment, outcomes, None)
        return Ket(amps, normalized=False), 1.0
    local = assignment.pairs[participants[0]].dim
    p = assignment.p
    if state.dim != local**p:
        raise DimensionMismatchError(
            f"state dim {state.dim} does not match {p} parties of local dim {local}"
        )
    table = np.indices((local,) * p).reshape(p, -1).T
    amps = apply_layer(state.amplitudes, assignment, outcomes, table)
    prob = float(np.real(np.vdot(amps, amps)))
    return Ket(amps, normalized=False), prob


def overall_success(p_per_copy: float, n: int) -> float:
    """1 - (1 - p)^(n-1): at least one of the n-1 filtered copies survives."""
    if not 0.0 <= p_per_copy <= 1.0 + 1e-12:
        raise InvalidSpecError(f"per-copy probability {p_per_copy!r} outside [0, 1]")
    if n < 2:
        raise InvalidSpecError(f"n must be >= 2, got {n}")
    return 1.0 - (1.0 - min(p_per_copy, 1.0)) ** (n - 1)


@lru_cache(maxsize=4096)
def _compact_zero_layer(
    family: Family, spec: Spec, q: int, partition: IndexPartition | None
) -> float:
    """Success probability of the all-zeros outcome on the compact state."""
    assignment = _cached_assignment(family, spec, q, partition)
    return apply_filter_layer(make_compact(spec), assignment, (0,) * assignment.q)[1]


def success_prob_per_copy(config: ProtocolConfig) -> float:
    """Probability that every participant reports outcome 0 on one copy."""
    return _compact_zero_layer(config.family, config.spec, config.q, config.partition)


def closed_form_fidelity_ghz(spec: GhzSpec, n: int) -> float:
    """Distilled-vs-perfect fidelity 1 - (1/d)(1 - d a_0^2)^(n-1)(d - (sum a)^2)."""
    if min(spec.alphas) < spec.alphas[0] - 1e-15:
        raise InvalidSpecError("closed form assumes alpha_0 is minimal")
    pu = spec.d * spec.alphas[0] ** 2
    return fidelity_from_success(pu, spec.d, spec.d - sum(spec.alphas) ** 2, n)


def closed_form_fidelity_w(spec: WSpec, n: int) -> float:
    """Distilled-vs-perfect fidelity 1 - (1/P)(1 - p_u)^(n-1)(P - (sum b)^2)."""
    if max(spec.betas) > spec.betas[-1] + 1e-15:
        raise InvalidSpecError("closed form assumes beta_{p-1} is maximal")
    return fidelity_from_success(
        w_success_probability(spec), spec.p, spec.p - math.fsum(spec.betas) ** 2, n
    )


def fidelity_from_success(pu: float, size: float, gap: float, n: int) -> float:
    """Fidelity of the two-component mixture, parameterized by aggregates only."""
    if n < 2:
        raise InvalidSpecError(f"n must be >= 2, got {n}")
    return 1.0 - (1.0 - pu) ** (n - 1) * gap / size


def w_success_probability(spec: WSpec) -> float:
    be = np.array(spec.betas)  # P b_max^2 prod (b_i/b_max)^2, multiplied as a sum of logs
    logs = np.log1p((be[:-1] - be[-1]) / be[-1])  # exact difference for b_i >= b_max/2
    return float(spec.p * be[-1] ** 2 * math.exp(2 * math.fsum(logs)))


def closed_form_fidelity(spec: Spec, n: int) -> float:
    if isinstance(spec, GhzSpec):
        return closed_form_fidelity_ghz(spec, n)
    return closed_form_fidelity_w(spec, n)


def run_ted(config: ProtocolConfig) -> DistillationReport:
    """Execute the protocol analytically and assemble the report.

    The numeric fidelity comes from the overlap of the initial and perfect
    coefficient vectors, not from the closed form.  The report carries the
    two-component mixture; :meth:`StateMixture.to_dense_operator` expands it
    into an explicit density matrix (quadratic memory).
    """
    pu = success_prob_per_copy(config)
    ps = overall_success(pu, config.n_copies)
    initial = make_compact(config.spec)
    perfect = make_compact(perfect_like(config.spec))
    overlap = float(np.dot(perfect.coeffs, initial.coeffs)) ** 2
    return DistillationReport(
        n_copies=config.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(config.spec, config.n_copies),
        fidelity_numeric=ps + (1.0 - ps) * overlap,
        distilled_state=StateMixture(((ps, perfect), (1.0 - ps, initial))),
    )
