"""Threshold steering distillation engine.

The first ``s`` parties of the network are uncharacterized black boxes; each
measures one of two mutually unbiased bases (setting x in {0, 1}) and
announces an outcome a in {0..d-1}.  What remains on the characterized
parties is the steering assemblage: the map

    (x-string, a-string)  ->  unnormalized conditional state sigma_{a|x}

whose outcome-sum recovers the characterized reduced state for every
setting string (non-signaling).  Participating characterized parties then
apply the same local filters as in entanglement distillation, via one-way
classical communication; post-selecting the all-zeros outcome leaves the
perfect assemblage with the same per-copy probability as the entanglement
protocol for the same spec: ``run_tsd`` takes p_u, the overall success,
the closed-form fidelity and both compact states of the mixture from the
``ted.run_ted`` report of its base config.

Measurements are product-basis projections and filters are diagonal, so
every member lives in the compact span of :mod:`qdistill.states` as a
factor whose rows are unnormalized pure components (sigma = sum over rows
of |row><row|), with columns in span coordinates.  Member (x, a) has
column k equal to R[:, k] prod_{j<s} conj(B[x_j][a_j, l_j[k]]), with R
the real factor of the characterized state (one row per pure component),
l_j = ``local_column(spec, j)`` and B the computational (x = 0) or Fourier
(x = 1) basis.  Each member is R times a phase, a scale and a column mask,
so R alone is stored: building takes the coefficient vector as one row,
filtering scales R's columns, and mixing stacks the rows of two factors.
No stage forms a complex array, a basis or an outcome axis, so a run holds
O(span) numbers at any d and s.

The assemblage fidelity of A against B is

    F_a = min_x [ sum_a Tr sqrt( sqrt(A_{a|x}) B_{a|x} sqrt(A_{a|x}) ) ]^2

i.e. root fidelities of the unnormalized members are summed over outcomes
before squaring, and the worst setting string is reported.  On a
self-comparison the inner sum telescopes to Tr rho_ch = 1.  The perfect
assemblage has pure members |g_{a|x}><g_{a|x}|, against which the root
fidelity is ||F_{a|x} conj(g_{a|x})||_2, so no matrix function is needed.
Member phases cancel in that product, which leaves two totals over R and
the perfect coefficients g.  The all-Fourier string scores ||R g||: its
d^s members each give ||R g|| / d^s.  Any string with a computational
party scores sum_a ||sum_{k: l0_k = a} R[:, k] g_k||, with l0 =
``local_column(spec, 0)``: its members vanish unless the
computational outcomes agree on one a, the Fourier outcomes adding only a
phase, and every GHZ party has the same local index on a span row (W
steering has s = 1), so l0 groups the columns for every such string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidSteeringScenarioError, NotPositiveError
from .filters import FilterAssignment, span_multiplier
from .states import CompactState, Family, Spec, local_column, span_shape
from .ted import ProtocolConfig, run_ted

Setting = tuple[int, ...]

FIDELITY_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Unnormalized conditional states on the characterized subsystem, all
    given by one factor (see the module docstring): ``members`` is the real
    (rows, span) array R, one row per pure component, its columns following
    the span rows of ``spec``.  The field keeps the name it had when it
    held every member, since callers and benchmarks read it by that name."""

    s: int
    spec: Spec
    members: np.ndarray

    @property
    def d_out(self) -> int:  # outcomes per uncharacterized party
        return span_shape(self.spec)[1]

    @property
    def settings(self) -> tuple[Setting, ...]:
        """One setting string per Fourier count f = 0..s: (1,)*f + (0,)*(s-f),
        the lexicographically largest string with f Fourier parties."""
        return tuple((1,) * f + (0,) * (self.s - f) for f in range(self.s + 1))


@dataclass(frozen=True)
class SteeringConfig:
    """A protocol instance plus the number of uncharacterized parties.

    The first ``s`` parties are uncharacterized; participating filters sit on
    the last ``q`` parties.  A run counts as *threshold* steering
    distillation only if at least one characterized party stays idle; using
    every characterized party still distills, but is flagged non-threshold.
    W-state steering distillation exists only for s = 1 with q = p-1.
    """

    base: ProtocolConfig
    s: int

    def __post_init__(self) -> None:
        p = self.base.spec.p
        if not 1 <= self.s <= p - 1:
            raise InvalidSteeringScenarioError(
                f"need between 1 and {p - 1} uncharacterized parties, got {self.s}"
            )
        if self.base.family is Family.W_SINGLE_EXCITATION:
            if self.s != 1:
                raise InvalidSteeringScenarioError(
                    "W steering distillation needs p-1 filtering parties, so only "
                    "the one-sided scenario (s = 1) is available"
                )
        elif self.base.q > p - self.s:
            raise InvalidSteeringScenarioError(
                f"q = {self.base.q} filters do not fit on {p - self.s} characterized parties"
            )

    @property
    def threshold(self) -> bool:
        p = self.base.spec.p
        if self.base.family is Family.W_SINGLE_EXCITATION:
            return False
        return self.s <= p - 2 and self.base.q <= p - self.s - 1


@dataclass(frozen=True, eq=False)
class SteeringReport:
    n_copies: int
    p_success_per_copy: float
    p_success_overall: float
    fidelity_closed_form: float
    fidelity_assemblage: float
    minimizing_setting: Setting
    threshold: bool
    distilled: Assemblage


def build_assemblage(state: CompactState, config: SteeringConfig) -> Assemblage:
    """The assemblage the uncharacterized parties' measurements leave on
    the characterized rest: the state's coefficients as a 1-row factor."""
    spec = config.base.spec
    if len({(type(sp), sp.p, span_shape(sp)) for sp in (state.spec, spec)}) != 1:
        raise DimensionMismatchError("state does not match the configured spec's span")
    return Assemblage(config.s, state.spec, state.coeffs[None, :])


def filter_assemblage(
    asm: Assemblage,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
) -> tuple[Assemblage, float]:
    """One-way-LOCC filter layer on the characterized side: the
    post-measurement assemblage, normalized by the outcome probability, and
    that probability Tr[K rho_ch K^dag].  An outcome of probability 0
    (possible once p_u underflows) leaves the zero assemblage."""
    if any(j < asm.s for j in assignment.participants):
        raise InvalidSteeringScenarioError(
            "filters may only touch characterized parties (index >= s); "
            f"assignment touches {sorted(j for j in assignment.participants if j < asm.s)}"
        )
    mult = span_multiplier(asm.spec, assignment, outcomes)
    weight = (asm.members * asm.members).sum(axis=0)  # diagonal of rho_ch
    prob = float((mult * mult * weight).sum())
    if prob == 0.0:
        return replace(asm, members=np.zeros_like(asm.members)), 0.0
    return replace(asm, members=asm.members * (mult / np.sqrt(prob))), prob


def _check_shapes(a: Assemblage, b: Assemblage) -> None:
    if (a.s, a.d_out, a.members.shape[1]) != (b.s, b.d_out, b.members.shape[1]):
        raise DimensionMismatchError("assemblages differ in s, outcome count or span width")


def mix_assemblages(weight: float, a: Assemblage, b: Assemblage) -> Assemblage:
    """weight * a + (1 - weight) * b, member-wise, by stacking factor rows."""
    _check_shapes(a, b)
    members = np.concatenate([np.sqrt(weight) * a.members, np.sqrt(1.0 - weight) * b.members])
    return Assemblage(a.s, a.spec, members)


def assemblage_fidelity_by_setting(a: Assemblage, b: Assemblage) -> dict[Setting, float]:
    """[sum_a Tr sqrt(sqrt(A) B sqrt(A))]^2 for each of ``a.settings``, every
    member of ``b`` pure (one row g): ||R g|| for the all-Fourier string,
    sum_a ||sum_{k: l0_k = a} R[:, k] g_k|| for a string with a
    computational party (see the module docstring)."""
    _check_shapes(a, b)
    if len(b.members) != 1:
        raise DimensionMismatchError("reference assemblage members must be pure (one row)")
    weighted = a.members * b.members  # column k is R[:, k] g_k
    grouped = np.zeros((a.d_out, len(weighted)))
    np.add.at(grouped, local_column(a.spec, 0), weighted.T)
    computational = _squared_unit(np.sqrt(np.square(grouped).sum(axis=1)).sum())
    fourier = _squared_unit(math.hypot(*weighted.sum(axis=1)))
    return {x: fourier if all(x) else computational for x in a.settings}


def _squared_unit(total: float) -> float:
    """A root-fidelity total squared, roundoff above 1 clamped; a square is never below 0."""
    value = float(total * total)
    if not value <= 1.0 + FIDELITY_CLAMP_TOL:  # NaN fails too
        raise NotPositiveError(f"assemblage fidelity {value!r} outside [0, 1] beyond tolerance")
    return min(value, 1.0)


def run_tsd(config: SteeringConfig) -> SteeringReport:
    """Full steering-distillation run: build, filter, mix, and score.

    The distilled assemblage (``report.distilled``) is the convex mixture of
    the perfect and initial assemblages with the overall success probability
    as weight.  ``minimizing_setting`` is the lexicographically largest
    setting string within FIDELITY_CLAMP_TOL of the minimum, so the tie on
    uniform specs (every setting scores 1) resolves to the all-Fourier
    string that non-uniform specs converge to.
    """
    ted = run_ted(config.base)
    (ps, perfect), (_, initial) = ted.distilled_state.components
    perf = build_assemblage(perfect, config)
    dist = mix_assemblages(ps, perf, build_assemblage(initial, config))
    per_setting = assemblage_fidelity_by_setting(dist, perf)
    lowest = min(per_setting.values())
    return SteeringReport(
        n_copies=ted.n_copies,
        p_success_per_copy=ted.p_success_per_copy,
        p_success_overall=ps,
        fidelity_closed_form=ted.fidelity_closed_form,
        fidelity_assemblage=lowest,
        minimizing_setting=max(
            x for x, f in per_setting.items() if f <= lowest + FIDELITY_CLAMP_TOL
        ),
        threshold=config.threshold,
        distilled=dist,
    )
