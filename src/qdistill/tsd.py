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

The assemblage fidelity of A against B is

    F_a = min_x [ sum_a Tr sqrt( sqrt(A_{a|x}) B_{a|x} sqrt(A_{a|x}) ) ]^2

i.e. root fidelities of the unnormalized members are summed over outcomes
before squaring, and the worst setting string is reported.  On a
self-comparison the inner sum telescopes to Tr rho_ch = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    InvalidSteeringScenarioError,
    NotPositiveError,
)
from .filters import FilterAssignment, apply_layer
from .linalg import Ket, _clamp_unit, _root_fidelity
from .states import Family, GhzSpec, make_dense, perfect_like
from .ted import (
    ProtocolConfig,
    assignment_for,
    closed_form_fidelity,
    overall_success,
)

MUB_DIMS = (2, 3, 5, 7)
NONSIGNALING_TOL = 1e-10
MEMBER_PSD_TOL = -1e-10

Setting = tuple[int, ...]
Outcome = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MubFamily:
    """Two mutually unbiased orthonormal bases: computational (x = 0) and
    Fourier (x = 1), e_a = (1/sqrt(d)) sum_l omega^(a l) |l>."""

    d: int
    bases: tuple[tuple[Ket, ...], tuple[Ket, ...]]


def mub_family(d: int) -> MubFamily:
    if d not in MUB_DIMS:
        raise InvalidSpecError(
            f"measurement bases are provided for prime dimensions {MUB_DIMS}, got {d}"
        )
    comp = tuple(Ket(np.eye(d, dtype=complex)[a]) for a in range(d))
    omega = np.exp(2j * np.pi / d)
    fourier = tuple(
        Ket(np.array([omega ** (a * l) for l in range(d)]) / np.sqrt(d))
        for a in range(d)
    )
    return MubFamily(d, (comp, fourier))


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Unnormalized conditional states on the characterized subsystem,
    keyed by (setting string, outcome string) of the uncharacterized
    parties.  Strings are tuples ordered by party index."""

    s: int
    d_out: int
    char_dims: tuple[int, ...]
    members: Mapping[tuple[Setting, Outcome], np.ndarray]

    @property
    def char_dim(self) -> int:
        out = 1
        for d in self.char_dims:
            out *= d
        return out

    @property
    def settings(self) -> tuple[Setting, ...]:
        return tuple(itertools.product((0, 1), repeat=self.s))

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(itertools.product(range(self.d_out), repeat=self.s))

    def member(self, x: Setting, a: Outcome) -> np.ndarray:
        return self.members[(tuple(x), tuple(a))]

    def reduced_state(self, x: Setting | None = None) -> np.ndarray:
        """sum_a sigma_{a|x}; non-signaling makes this x-independent."""
        x = self.settings[0] if x is None else tuple(x)
        out = np.zeros((self.char_dim, self.char_dim), dtype=complex)
        for a in self.outcomes:
            out += self.member(x, a)
        return out


def validate_assemblage(asm: Assemblage, tol: float = NONSIGNALING_TOL) -> None:
    """Check member positivity, unit-trace reduced state, and non-signaling."""
    ref = asm.reduced_state(asm.settings[0])
    if not abs(complex(np.trace(ref)) - 1.0) <= tol:  # NaN fails
        raise NotPositiveError("reduced state trace differs from 1")
    for x in asm.settings[1:]:
        dev = float(np.max(np.abs(asm.reduced_state(x) - ref)))
        if not dev <= tol:
            raise NotPositiveError(f"non-signaling violated by {dev:.3e} at x={x}")
    for key, m in asm.members.items():
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w[0] < MEMBER_PSD_TOL:
            raise NotPositiveError(f"member {key} has eigenvalue {w[0]:.3e}")


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


def build_assemblage(state: Ket, config: SteeringConfig) -> Assemblage:
    """Project the uncharacterized parties onto their measurement bases and
    keep the (unnormalized) conditional states of the characterized rest."""
    spec = config.base.spec
    local = spec.d if isinstance(spec, GhzSpec) else 2
    p = spec.p
    if state.dim != local**p:
        raise DimensionMismatchError(
            f"state dim {state.dim} does not match {p} parties of local dim {local}"
        )
    bases = mub_family(local).bases
    tensor = state.amplitudes.reshape((local,) * p)
    char_dims = (local,) * (p - config.s)
    members: dict[tuple[Setting, Outcome], np.ndarray] = {}
    for x in itertools.product((0, 1), repeat=config.s):
        for a in itertools.product(range(local), repeat=config.s):
            cond = tensor
            for xi, ai in zip(x, a):
                cond = np.tensordot(bases[xi][ai].amplitudes.conj(), cond, axes=([0], [0]))
            v = cond.reshape(-1)
            members[(x, a)] = np.outer(v, v.conj())
    return Assemblage(config.s, local, char_dims, members)


def _char_diagonal(
    asm: Assemblage, assignment: FilterAssignment, outcomes: Sequence[int]
) -> np.ndarray:
    """Joint diagonal of the filter layer on the characterized subsystem."""
    participants = assignment.participants
    s = assignment.p - len(asm.char_dims)
    if any(j < s for j in participants):
        raise InvalidSteeringScenarioError(
            "filters may only touch characterized parties (index >= s); "
            f"assignment touches {sorted(j for j in participants if j < s)}"
        )
    table = np.indices((1,) * s + asm.char_dims).reshape(assignment.p, -1).T
    return apply_layer(np.ones(asm.char_dim), assignment, outcomes, table)


def filter_assemblage(
    asm: Assemblage,
    assignment: FilterAssignment,
    outcomes: Sequence[int],
) -> tuple[Assemblage, float]:
    """One-way-LOCC filter layer on the characterized side.

    Returns the post-measurement assemblage, normalized by the outcome
    probability Tr[K rho_ch K^dag], together with that probability.
    """
    diag = _char_diagonal(asm, assignment, outcomes)
    rho = asm.reduced_state()
    prob = float(np.real(np.sum(diag * diag * np.diagonal(rho).real)))
    if prob <= 0.0:
        raise NotPositiveError("filter outcome has zero probability")
    scale = np.outer(diag, diag)
    members = {
        key: scale * m / prob
        for key, m in asm.members.items()
    }
    return Assemblage(asm.s, asm.d_out, asm.char_dims, members), prob


def mix_assemblages(weight: float, a: Assemblage, b: Assemblage) -> Assemblage:
    """weight * a + (1 - weight) * b, member-wise."""
    if set(a.members) != set(b.members):
        raise DimensionMismatchError("assemblages have different member keys")
    members = {
        key: weight * a.members[key] + (1.0 - weight) * b.members[key]
        for key in a.members
    }
    return Assemblage(a.s, a.d_out, a.char_dims, members)


def assemblage_fidelity_by_setting(a: Assemblage, b: Assemblage) -> dict[Setting, float]:
    """[sum_a Tr sqrt(sqrt(A) B sqrt(A))]^2 for each setting string."""
    if set(a.members) != set(b.members):
        raise DimensionMismatchError("assemblages have different member keys")
    out: dict[Setting, float] = {}
    for x in a.settings:
        total = sum(
            _root_fidelity(a.member(x, oc), b.member(x, oc)) for oc in a.outcomes
        )
        out[x] = _clamp_unit(total * total, f"assemblage fidelity at x={x}")
    return out


def assemblage_fidelity(a: Assemblage, b: Assemblage) -> float:
    """Worst-setting assemblage fidelity (the minimized value only; the
    minimizing setting is reported by :func:`run_tsd`)."""
    return min(assemblage_fidelity_by_setting(a, b).values())


def run_tsd(config: SteeringConfig) -> SteeringReport:
    """Full steering-distillation run: build, filter, mix, and score.

    The distilled assemblage (``report.distilled``) is the convex mixture of
    the perfect and initial assemblages with the overall success probability
    as weight.  The dense states it is built from are subject to the cap.
    """
    spec = config.base.spec
    ini = build_assemblage(make_dense(spec), config)
    perf = build_assemblage(make_dense(perfect_like(spec)), config)
    assignment = assignment_for(
        config.base.family, spec, config.base.q, config.base.partition
    )
    _, pu = filter_assemblage(ini, assignment, (0,) * assignment.q)
    ps = overall_success(pu, config.base.n_copies)
    dist = mix_assemblages(ps, perf, ini)
    per_setting = assemblage_fidelity_by_setting(dist, perf)
    minimizer = min(per_setting, key=lambda x: (per_setting[x], x))
    return SteeringReport(
        n_copies=config.base.n_copies,
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(spec, config.base.n_copies),
        fidelity_assemblage=per_setting[minimizer],
        minimizing_setting=minimizer,
        threshold=config.threshold,
        distilled=dist,
    )
