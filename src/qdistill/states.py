"""GHZ and W state families.

A protocol instance is pinned down by a validated parameter vector
(:class:`GhzSpec` or :class:`WSpec`).  Every engine runs on a
:class:`CompactState`, which holds only the nonzero coefficient vector:
every filter in this package is diagonal in the computational basis, so GHZ
states never leave span{|ii...i>} and W states never leave the
single-excitation span.  ``make_dense`` places a spec's coefficients on the
full product space as a plain amplitude array, the tests' reference
(subject to the dense cap).  Coefficients are restricted to strictly
positive reals; the filter construction divides by them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .linalg import check_dense_cap

SPEC_NORM_TOL = 1e-9


class Family(str, enum.Enum):
    GHZ_DIAGONAL = "ghz"
    W_SINGLE_EXCITATION = "w"


def _validated_coeffs(values, count: int, what: str) -> tuple[float, ...]:
    try:
        vec = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{what} must be real numbers: {exc}") from exc
    if len(vec) != count:
        raise InvalidSpecError(f"expected {count} {what}, got {len(vec)}")
    if any(not math.isfinite(v) or v <= 0.0 for v in vec):
        raise InvalidSpecError(f"all {what} must be finite and strictly positive")
    norm = math.sqrt(sum(v * v for v in vec))
    if abs(norm - 1.0) > SPEC_NORM_TOL:
        raise InvalidSpecError(
            f"{what} have norm {norm!r}; more than {SPEC_NORM_TOL} from 1"
        )
    return tuple(v / norm for v in vec)


@dataclass(frozen=True)
class GhzSpec:
    """Parameters of sum_i alpha_i |i i ... i> on p parties of local dim d."""

    d: int
    p: int
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InvalidSpecError(f"local dimension must be >= 2, got {self.d}")
        if self.p < 2:
            raise InvalidSpecError(f"party count must be >= 2, got {self.p}")
        object.__setattr__(
            self, "alphas", _validated_coeffs(self.alphas, self.d, "alphas")
        )


@dataclass(frozen=True)
class WSpec:
    """Parameters of the single-excitation state sum_i beta_i |...0 1_i 0...>
    on p qubits; beta_i excites party p-1-i."""

    p: int
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise InvalidSpecError(f"party count must be >= 2, got {self.p}")
        object.__setattr__(
            self, "betas", _validated_coeffs(self.betas, self.p, "betas")
        )


Spec = GhzSpec | WSpec


@dataclass(frozen=True, eq=False)
class CompactState:
    """Coefficient vector on the invariant span of the spec's family
    (``family_of(spec)``).

    For GHZ the k-th coefficient multiplies |k k ... k>; for W it multiplies
    the basis state whose only excitation sits on party p-1-k.
    """

    coeffs: np.ndarray
    spec: Spec
    normalized: bool = True

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if self.normalized and not abs(float(np.linalg.norm(c)) - 1.0) <= 1e-12:
            raise InvalidSpecError("compact state flagged normalized is not")


def local_indices(spec: Spec) -> np.ndarray:
    """The basis placement table: row k holds, per party, the local index
    of the basis state that carries coefficient k (|k k ... k> for GHZ;
    for W, 1 at party p-1-k and 0 elsewhere)."""
    if isinstance(spec, GhzSpec):
        return np.repeat(np.arange(spec.d)[:, None], spec.p, axis=1)
    return np.eye(spec.p, dtype=np.intp)[:, ::-1]


def make_compact(spec: Spec) -> CompactState:
    coeffs = spec.alphas if isinstance(spec, GhzSpec) else spec.betas
    return CompactState(np.array(coeffs), spec)


def make_dense(spec: Spec) -> np.ndarray:
    """The spec's complex amplitude vector over the full product space, its
    coefficients placed by ``local_indices`` (subject to the dense cap)."""
    local = spec.d if isinstance(spec, GhzSpec) else 2
    check_dense_cap(local**spec.p)
    amps = np.zeros(local**spec.p, dtype=complex)
    amps[local_indices(spec) @ local ** np.arange(spec.p - 1, -1, -1)] = make_compact(spec).coeffs
    return amps


def perfect_ghz(d: int, p: int) -> GhzSpec:
    """Uniform-coefficient GHZ target (alpha_i = 1/sqrt(d))."""
    return GhzSpec(d, p, (1.0 / math.sqrt(d),) * d)


def perfect_w(p: int) -> WSpec:
    """Uniform-coefficient W target (beta_i = 1/sqrt(p))."""
    return WSpec(p, (1.0 / math.sqrt(p),) * p)


def perfect_like(spec: Spec) -> Spec:
    if isinstance(spec, GhzSpec):
        return perfect_ghz(spec.d, spec.p)
    return perfect_w(spec.p)


def family_of(spec: Spec) -> Family:
    return Family.GHZ_DIAGONAL if isinstance(spec, GhzSpec) else Family.W_SINGLE_EXCITATION
