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
protocol for the same spec.

Measurements are product-basis projections and filters are diagonal, so
members stay in the compact span of :mod:`qdistill.states`: a member is a
factor F whose rows are unnormalized pure components (sigma = sum over rows
of |row><row|), with columns in span coordinates.  On the GHZ span member
(x, a) has entry c_k prod_{j in C} delta(a_j, k) d^(-|F|/2) omega^(-k sum_{j in F} a_j),
C and F being the parties measuring the computational (x = 0) and Fourier
(x = 1) bases: with C non-empty it is zero unless those outcomes agree on
one k, the Fourier outcomes adding only a phase; with C empty it depends on
a only through m = sum(a) mod d.  Folding multiplicities into the scale, the
(2d)^s members reduce to the d members c_k e_k and the d members
c_k omega^(-k m)/sqrt(d): the s = 1 assemblage (W steering has s = 1 only),
stored as one (2 d_out, rows, span) array, computational block first, so
each stage (build, filter, mix, score) is one numpy expression over it.

The assemblage fidelity of A against B is

    F_a = min_x [ sum_a Tr sqrt( sqrt(A_{a|x}) B_{a|x} sqrt(A_{a|x}) ) ]^2

i.e. root fidelities of the unnormalized members are summed over outcomes
before squaring, and the worst setting string is reported.  On a
self-comparison the inner sum telescopes to Tr rho_ch = 1.  The perfect
assemblage has pure members |g><g|, against which the root fidelity is
||F conj(g)||_2, so no matrix function is needed.  Folding is exact in this
sum: a string scores the computational block if any party measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidSteeringScenarioError, WorkCapExceededError
from .filters import FilterAssignment, span_multiplier
from .linalg import FIDELITY_CLAMP_TOL, _clamp_unit
from .states import CompactState, Family, GhzSpec, Spec, family_of, local_indices, make_compact
from .states import perfect_like
from .ted import ProtocolConfig, assignment_for, closed_form_fidelity, overall_success

D_OUT_CAP = 1000

Setting = tuple[int, ...]


@lru_cache(maxsize=4)  # an entry holds 32 d^2 bytes, 32 MB at the cap
def mub_family(d: int) -> np.ndarray:
    """Two mutually unbiased orthonormal bases as a read-only (2, d, d)
    array whose row B[x][a] is basis vector a: computational (x = 0) and
    Fourier (x = 1), e_a = (1/sqrt(d)) sum_l omega^(a l mod d) |l>."""
    fourier = np.exp(2j * np.pi * (np.outer(np.arange(d), np.arange(d)) % d) / d)
    bases = np.stack([np.eye(d, dtype=complex), fourier / np.sqrt(d)])
    bases.flags.writeable = False
    return bases


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Unnormalized conditional states on the characterized subsystem, with
    multiplicities folded in (see the module docstring): ``members`` is one
    complex (2 d_out, rows, span) array, computational member k (outcomes
    all k) first, then Fourier member m (outcome sum m mod d_out).  Its
    columns follow the rows of ``local_indices(spec)``."""

    s: int
    d_out: int
    spec: Spec
    members: np.ndarray

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
        elif self.base.spec.d > D_OUT_CAP:  # memory grows as d^2
            raise WorkCapExceededError(f"d = {self.base.spec.d} exceeds the cap {D_OUT_CAP}")

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
    """Project the uncharacterized parties onto their measurement bases and
    keep the (unnormalized) conditional states of the characterized rest,
    as 1-row factors.  Party 0's projection gives every block: the GHZ
    parties are exchangeable, and W steering has s = 1."""
    spec = config.base.spec
    d_out = spec.d if isinstance(spec, GhzSpec) else 2
    local = local_indices(state.spec)
    if family_of(state.spec) is not config.base.family or local.shape != local_indices(spec).shape:
        raise DimensionMismatchError("state does not match the configured spec's span")
    bases = mub_family(d_out)[:, :, local[:, 0]]
    members = state.coeffs.astype(complex) * np.conjugate(bases)
    return Assemblage(config.s, d_out, state.spec, members.reshape(2 * d_out, 1, len(local)))


def _filter_weights(
    asm: Assemblage, assignment: FilterAssignment, outcomes: Sequence[int]
) -> tuple[np.ndarray, float]:
    """The layer's multiplier on the span and its outcome probability
    Tr[K rho_ch K^dag]."""
    if any(j < asm.s for j in assignment.participants):
        raise InvalidSteeringScenarioError(
            "filters may only touch characterized parties (index >= s); "
            f"assignment touches {sorted(j for j in assignment.participants if j < asm.s)}"
        )
    mult = span_multiplier(asm.spec, assignment, outcomes)
    # diagonal of rho_ch, read off the computational block
    weight = (np.abs(asm.members[: asm.d_out]) ** 2).sum(axis=(0, 1))
    return mult, float((mult * mult * weight).sum())


def filter_assemblage(
    asm: Assemblage,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
) -> tuple[Assemblage, float]:
    """One-way-LOCC filter layer on the characterized side: the
    post-measurement assemblage, normalized by the outcome probability, and
    that probability.  An outcome of probability 0 (possible once p_u
    underflows) leaves the zero assemblage."""
    mult, prob = _filter_weights(asm, assignment, outcomes)
    if prob == 0.0:
        return replace(asm, members=np.zeros_like(asm.members)), 0.0
    return replace(asm, members=asm.members * (mult / np.sqrt(prob))), prob


def _check_shapes(a: Assemblage, b: Assemblage) -> None:
    if (a.s, *a.members.shape[::2]) != (b.s, *b.members.shape[::2]):  # s, members, span
        raise DimensionMismatchError("assemblages differ in s, member count or span width")


def mix_assemblages(weight: float, a: Assemblage, b: Assemblage) -> Assemblage:
    """weight * a + (1 - weight) * b, member-wise, by stacking factors."""
    _check_shapes(a, b)
    wa, wb = np.sqrt(weight), np.sqrt(1.0 - weight)
    members = np.concatenate([wa * a.members, wb * b.members], axis=1)
    return Assemblage(a.s, a.d_out, a.spec, members)


def assemblage_fidelity_by_setting(a: Assemblage, b: Assemblage) -> dict[Setting, float]:
    """[sum_a Tr sqrt(sqrt(A) B sqrt(A))]^2 for each of ``a.settings``, every
    member of ``b`` pure: the root fidelity is ||F_a conj(g)||.  A string
    with a computational party scores that block, the all-Fourier string
    the Fourier block."""
    _check_shapes(a, b)
    if b.members.shape[1] != 1:
        raise DimensionMismatchError("reference assemblage members must be pure (one row)")
    roots = np.linalg.norm(a.members @ b.members.conj().transpose(0, 2, 1), axis=(1, 2))
    # cumulative sums add in outcome order, left to right
    totals = np.cumsum(roots.reshape(2, -1), axis=1)[:, -1]
    computational, fourier = (_clamp_unit(float(t * t), "assemblage fidelity") for t in totals)
    return {x: fourier if all(x) else computational for x in a.settings}


def run_tsd(config: SteeringConfig) -> SteeringReport:
    """Full steering-distillation run: build, filter, mix, and score.

    The distilled assemblage (``report.distilled``) is the convex mixture of
    the perfect and initial assemblages with the overall success probability
    as weight.  ``minimizing_setting`` is the lexicographically largest
    setting string within FIDELITY_CLAMP_TOL of the minimum, so the tie on
    uniform specs (every setting scores 1) resolves to the all-Fourier
    string that non-uniform specs converge to.
    """
    spec = config.base.spec
    ini = build_assemblage(make_compact(spec), config)
    perf = build_assemblage(make_compact(perfect_like(spec)), config)
    assignment = assignment_for(
        config.base.family, spec, config.base.q, config.base.partition
    )
    _, pu = _filter_weights(ini, assignment, (0,) * assignment.q)
    ps = overall_success(pu, config.base.n_copies)
    dist = mix_assemblages(ps, perf, ini)
    per_setting = assemblage_fidelity_by_setting(dist, perf)
    lowest = min(per_setting.values())
    return SteeringReport(
        n_copies=config.base.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(spec, config.base.n_copies),
        fidelity_assemblage=lowest,
        minimizing_setting=max(
            x for x, f in per_setting.items() if f <= lowest + FIDELITY_CLAMP_TOL
        ),
        threshold=config.threshold,
        distilled=dist,
    )
