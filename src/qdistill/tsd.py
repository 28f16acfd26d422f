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
protocol for the same spec: ``run_tsd`` reads the base config's spec
context, the one ``ted.run_ted`` reads, and takes p_u, the overall success
and the closed-form fidelity from ``ted.results_at`` on it, the spec's
coefficients and the target's one number g from the context itself.

Measurements are product-basis projections and filters are diagonal, so
every member lives in the compact span of :mod:`qdistill.states` as a
factor whose rows are unnormalized pure components (sigma = sum over rows
of |row><row|), with columns in span coordinates.  Member (x, a) has
column k equal to R[:, k] prod_{j<s} conj(B[x_j][a_j, l_j[k]]), with R
the real factor of the characterized state (one row per pure component),
l_j = ``local_column(spec, j)`` and B the computational (x = 0) or Fourier
(x = 1) basis.  Each member is R times a phase, a scale and a column mask,
so R alone determines the assemblage.  The distilled one is the ``run_ted``
mixture, R = (sqrt(P_s) g, sqrt(1 - P_s) c) with g the uniform target's
coefficients and c the spec's, so ``run_tsd`` scores it from the context
alone: no stage forms an assemblage, a report, a complex array, a basis or
an outcome axis, and a run holds O(span) numbers at any d and s.
:class:`Assemblage` and its build, filter and mix steps are the reference
that the tests rebuild members from.

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
Party 0's ``changed_rows`` gives those groups without forming l0: for GHZ
l0 is the identity, one column per group; for W it marks row p-1 alone,
which leaves that column and the sum of the others, taken left to right.

This links threshold entanglement and steering distillation exactly: g is
a unit vector, so the all-Fourier score ||R g||^2 = P_s + (1 - P_s)
(g . c)^2 is the entanglement run's ``fidelity_numeric``.  That identity is
a law the tests check (within 2e-15 on the steering corpus), not the run
path: ``run_tsd`` takes the row sums of R g in the reference route's float
operations, which keeps every bit of ``fidelity_assemblage``, where
reading the score off ``fidelity_numeric`` moves it by up to 10 ulp
(seen on 3662 steering configs).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidSteeringScenarioError, NotPositiveError
from .filters import FilterAssignment, span_multiplier
from .states import GhzSpec, Spec, changed_rows, span_shape
from .ted import ProtocolConfig, _compact_zero_layer, results_at

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
    def settings(self) -> tuple[Setting, ...]:
        """One setting string per Fourier count f = 0..s: (1,)*f + (0,)*(s-f),
        the lexicographically largest string with f Fourier parties."""
        return tuple((1,) * f + (0,) * (self.s - f) for f in range(self.s + 1))


@dataclass(frozen=True)
class SteeringConfig:
    """A protocol instance plus the number of uncharacterized parties.

    The first ``s`` parties are uncharacterized; the ``q`` filters sit on
    the last parties and must fit on the p - s characterized ones.  A run
    counts as *threshold* steering distillation only if at least one
    characterized party stays idle (q < p - s).  W has q = p-1, so it fits
    only at s = 1 and is never threshold.
    """

    base: ProtocolConfig
    s: int

    def __post_init__(self) -> None:
        p = self.base.spec.p
        if not 1 <= self.s <= p - 1:
            raise InvalidSteeringScenarioError(
                f"need between 1 and {p - 1} uncharacterized parties, got {self.s}"
            )
        if self.base.q > p - self.s:
            raise InvalidSteeringScenarioError(
                f"q = {self.base.q} filters do not fit on {p - self.s} characterized parties"
            )
        operator.index(self.s)  # a count, as the base config's

    @property
    def threshold(self) -> bool:
        return self.base.q < self.base.spec.p - self.s


@dataclass(frozen=True, eq=False)
class SteeringReport:
    n_copies: int
    p_success_per_copy: float
    p_success_overall: float
    fidelity_closed_form: float
    fidelity_assemblage: float
    minimizing_setting: Setting
    threshold: bool


def build_assemblage(coeffs: np.ndarray, config: SteeringConfig) -> Assemblage:
    """The assemblage the uncharacterized parties' measurements leave on the
    characterized rest: ``coeffs``, on the configured spec's span, as a 1-row factor."""
    spec = config.base.spec
    if len(coeffs) != span_shape(spec)[0]:
        raise DimensionMismatchError("coefficients do not match the configured spec's span")
    return Assemblage(config.s, spec, coeffs[None, :])


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
    # one family and one span width fix the outcome count too
    if a.s != b.s or type(a.spec) is not type(b.spec) or a.members.shape[1] != b.members.shape[1]:
        raise DimensionMismatchError("assemblages differ in s, family or span width")


def mix_assemblages(weight: float, a: Assemblage, b: Assemblage) -> Assemblage:
    """weight * a + (1 - weight) * b, member-wise, by stacking factor rows."""
    _check_shapes(a, b)
    members = np.concatenate([np.sqrt(weight) * a.members, np.sqrt(1.0 - weight) * b.members])
    return Assemblage(a.s, a.spec, members)


def assemblage_fidelity_by_setting(a: Assemblage, b: Assemblage) -> dict[Setting, float]:
    """[sum_a Tr sqrt(sqrt(A) B sqrt(A))]^2 for each of ``a.settings``, every
    member of ``b`` pure (one row g): :func:`_setting_totals` of R g (see
    the module docstring)."""
    _check_shapes(a, b)
    if len(b.members) != 1:
        raise DimensionMismatchError("reference assemblage members must be pure (one row)")
    computational, fourier = _setting_totals(a.spec, a.members * b.members)
    return {x: fourier if all(x) else computational for x in a.settings}


def _setting_totals(spec: Spec, weighted: np.ndarray) -> tuple[float, float]:
    """The two scores of a factor R against pure members g, from the
    (rows, span) array R g (column k is R[:, k] g_k): for every string with
    a computational party sum_a ||sum_{k: l0_k = a} R[:, k] g_k||, and for
    the all-Fourier string ||R g||, each squared by :func:`_squared_unit`.
    The reference scorer behind :func:`assemblage_fidelity_by_setting`;
    :func:`run_tsd` takes the same sums on its two rows without the array."""
    grouped, changed = weighted, changed_rows(spec, (0,))  # GHZ: a group per column
    if changed is not None:  # W: column p-1 alone, the others summed left to right
        (c,) = changed
        rest = np.concatenate((weighted[:, :c], weighted[:, c + 1:]), axis=1)
        ends = np.add.accumulate(rest, axis=1)[:, -1:]
        grouped = np.concatenate((ends, weighted[:, c:c + 1]), axis=1)
    computational = _squared_unit(np.sqrt(np.square(grouped).sum(axis=0)).sum())
    fourier = _squared_unit(math.hypot(*weighted.sum(axis=1)))
    return computational, fourier


def _squared_unit(total: float) -> float:
    """A root-fidelity total squared, roundoff above 1 clamped; a square is never below 0."""
    value = float(total * total)
    if not value <= 1.0 + FIDELITY_CLAMP_TOL:  # NaN fails too
        raise NotPositiveError(f"assemblage fidelity {value!r} outside [0, 1] beyond tolerance")
    return min(value, 1.0)


def run_tsd(config: SteeringConfig) -> SteeringReport:
    """Full steering-distillation run on the base config's spec context and
    ``ted.results_at`` (no filter layer runs here, and no report or
    assemblage is built).

    The distilled assemblage is the convex mixture of the perfect and
    initial assemblages with the overall success probability P_s as
    weight, so its factor R has the rows sqrt(P_s) g and sqrt(1 - P_s) c,
    with g the perfect and c the initial coefficients.  Against the perfect
    assemblage it scores the two totals of :func:`_setting_totals` on R g,
    the rows sqrt(P_s) g g and sqrt(1 - P_s) c g, in the same float
    operations.  g is uniform (one number in the context), so the first row
    is one number, ``top``, and only the second is an array, ``low``.
    ``minimizing_setting`` is the lexicographically largest setting string
    within FIDELITY_CLAMP_TOL of the minimum: the all-Fourier string if its
    score is, else (1,)*(s-1) + (0,), the largest string with a
    computational party.  So the tie on uniform specs (every setting
    scores 1) resolves to the all-Fourier string that non-uniform specs
    converge to.
    """
    base = config.base
    _, initial, g, _, _ = context = _compact_zero_layer(base.spec)
    pu, ps, closed, _ = results_at(context, base.n_copies)
    top, low = math.sqrt(ps) * g * g, math.sqrt(1.0 - ps) * initial * g
    tops = np.full(len(low), top)  # the first row, for the sums numpy takes over it
    if isinstance(base.spec, GhzSpec):  # a group per column
        total = np.add.reduce(np.sqrt(top * top + low * low))
    else:  # W: column p-1 (party 0's row, the last) alone, the others summed left to right
        head_top = np.add.accumulate(tops[:-1])[-1]
        head_low = np.add.accumulate(low[:-1])[-1]
        total = (math.sqrt(head_top * head_top + head_low * head_low)
                 + math.sqrt(top * top + low[-1] * low[-1]))
    computational = _squared_unit(total)
    fourier = _squared_unit(math.hypot(np.add.reduce(tops), np.add.reduce(low)))
    lowest, s = min(computational, fourier), config.s
    fourier_lowest = fourier <= lowest + FIDELITY_CLAMP_TOL
    return SteeringReport(
        n_copies=base.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed,
        fidelity_assemblage=lowest,
        minimizing_setting=(1,) * s if fourier_lowest else (1,) * (s - 1) + (0,),
        threshold=config.threshold,
    )
