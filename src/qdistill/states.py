"""GHZ and W state families.

A protocol instance is pinned down by a validated parameter vector
(:class:`GhzSpec` or :class:`WSpec`).  Every engine runs on the spec plus
one coefficient array, :func:`make_compact`'s read-only nonzero
coefficients: every filter in this package is diagonal in the
computational basis, so GHZ states never leave span{|ii...i>} and W states
never leave the single-excitation span, whose shape and placement this
module states (:func:`span_shape`, :func:`local_column`, and
:func:`changed_rows`, the same placement in the form the filter kernel
takes: the one span row on which a W party holds |1>, or none for GHZ,
where every row changes with every party).  Three run-path steps restate
the W placement inline: ``filters.pivot_ratios`` (``coeffs[-2::-1]``,
party j's ratio from beta_{p-1-j}), ``filters.zero_layer_multiplier``
(rows ``np.s_[-2::-1]``) and ``tsd.run_tsd`` (party 0's |1> on column p-1
alone); the tests tie each to this module's rule.  ``make_dense`` places
a spec's coefficients on the full product space by that rule, the tests'
reference (subject to the dense cap).  Coefficients are strictly positive
reals (the filters divide by them) that the spec alone normalizes, by
their exactly rounded norm.
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


def _validated_coeffs(values, count: int, what: str, tol: float = SPEC_NORM_TOL) -> tuple[float, ...]:
    if count < 2:  # the size floor, checked before the count it sets
        raise InvalidSpecError(f"span size (d for GHZ, P for W) must be >= 2, got {count}")
    try:
        vec = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{what} must be real numbers: {exc}") from exc
    if len(vec) != count:
        raise InvalidSpecError(f"expected {count} {what}, got {len(vec)}")
    if any(not math.isfinite(v) or v <= 0.0 for v in vec):
        raise InvalidSpecError(f"all {what} must be finite and strictly positive")
    try:
        norm = math.sqrt(math.fsum([v * v for v in vec]))  # exactly rounded at any count
    except OverflowError:  # a partial sum past float range
        norm = math.inf
    if abs(norm - 1.0) > tol:
        raise InvalidSpecError(f"{what} have norm {norm!r}; more than {tol} from 1")
    if abs(norm - 1.0) <= 4 * 2.0**-52:  # normalized up to rounding: dividing by
        return tuple(vec)  # the norm would move it by an ulp and back on each rebuild
    return tuple(v / norm for v in vec)


@dataclass(frozen=True)
class GhzSpec:
    """Parameters of sum_i alpha_i |i i ... i> on p parties of local dim d."""

    d: int
    p: int
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        # the coefficients (with the d floor) first, in the CLI's order
        object.__setattr__(self, "alphas", _validated_coeffs(self.alphas, self.d, "alphas"))
        if self.p < 2:
            raise InvalidSpecError(f"party count must be >= 2, got {self.p}")
        object.__setattr__(self, "_hash", hash((self.d, self.p, self.alphas)))

    def __hash__(self) -> int:  # the dataclass's field hash, computed once
        return self._hash


@dataclass(frozen=True)
class WSpec:
    """Parameters of the single-excitation state sum_i beta_i |...0 1_i 0...>
    on p qubits; beta_i excites party p-1-i."""

    p: int
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", _validated_coeffs(self.betas, self.p, "betas"))
        object.__setattr__(self, "_hash", hash((self.p, self.betas)))

    def __hash__(self) -> int:
        return self._hash


Spec = GhzSpec | WSpec


def span_shape(spec: Spec) -> tuple[int, int]:
    """(rows, local dimension) of the spec's span: (d, d) for GHZ, (P, 2) for W."""
    return (spec.d, spec.d) if isinstance(spec, GhzSpec) else (spec.p, 2)


def local_column(spec: Spec, j: int) -> np.ndarray:
    """The local index party j holds on each span row: row k is |k k ... k>
    for GHZ, so k at every party; for W row k has its excitation on party
    p-1-k, so party j holds 1 on row p-1-j and 0 elsewhere."""
    if isinstance(spec, GhzSpec):
        return np.arange(spec.d)
    return (np.arange(spec.p) == spec.p - 1 - j).astype(np.intp)


def changed_rows(spec: Spec, parties) -> np.ndarray | None:
    """The span row on which each of ``parties`` holds a nonzero local index,
    the same placement as :func:`local_column`: for W party j holds 0 on
    every row but p-1-j, where it holds 1; GHZ gives None, since party j
    holds k on row k and so changes every row."""
    if isinstance(spec, GhzSpec):
        return None
    return spec.p - 1 - np.asarray(parties, dtype=np.intp)


def make_compact(spec: Spec) -> np.ndarray:
    """The spec's coefficients, read-only since the cache shares them: the k-th
    multiplies |k k ... k> for GHZ, the state excited on party p-1-k for W."""
    coeffs = spec.alphas if isinstance(spec, GhzSpec) else spec.betas
    compact = np.fromiter(coeffs, float, len(coeffs))
    compact.flags.writeable = False
    return compact


def make_dense(spec: Spec) -> np.ndarray:
    """The spec's complex amplitude vector over the full product space: span
    row k at sum_j local_column(spec, j)[k] dim^(p-1-j) (dense cap applies)."""
    dim = span_shape(spec)[1]
    check_dense_cap(dim**spec.p)
    amps = np.zeros(dim**spec.p, dtype=complex)
    index = sum(local_column(spec, j) * dim ** (spec.p - 1 - j) for j in range(spec.p))
    amps[index] = make_compact(spec)
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
