"""Shared fixtures, seeded corpora, and independent oracles.

The oracles here deliberately avoid the package's own code paths: partial
traces are explicit index loops, root fidelities go through
scipy.linalg.sqrtm (Schur-based, unlike the package's eigendecomposition),
filter layers are built as full Kronecker-product matrices, and the GHZ
and W fidelity laws are evaluated in 50-digit decimal arithmetic from exact
coefficients.
"""

from __future__ import annotations

import decimal
import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

from types import SimpleNamespace

from qdistill import Family, GhzSpec, ProtocolConfig, WSpec, apply_filter_layer, make_dense
from qdistill.states import perfect_like
from qdistill.ted import assignment_for, closed_form_fidelity, overall_success

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CORPUS_SEED = 20260810


def random_ghz_spec(rng: np.random.Generator, d: int, p: int) -> GhzSpec:
    """Random spec with alpha_0 minimal (coefficients sorted ascending)."""
    v = rng.uniform(0.2, 1.0, d)
    v /= np.linalg.norm(v)
    v.sort()
    return GhzSpec(d, p, tuple(v))


def random_w_spec(rng: np.random.Generator, p: int) -> WSpec:
    """Random spec with beta_{p-1} maximal."""
    v = rng.uniform(0.2, 1.0, p)
    v /= np.linalg.norm(v)
    v.sort()
    return WSpec(p, tuple(v))


def ghz_corpus(count: int = 200) -> list[GhzSpec]:
    """Seeded corpus over d in 2..6, p in 2..6."""
    rng = np.random.default_rng(CORPUS_SEED)
    combos = list(itertools.product(range(2, 7), range(2, 7)))
    specs = []
    while len(specs) < count:
        for d, p in combos:
            if len(specs) >= count:
                break
            specs.append(random_ghz_spec(rng, d, p))
    return specs


def w_corpus(count: int = 100) -> list[WSpec]:
    """Seeded corpus over p in 3..8."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    specs = []
    while len(specs) < count:
        for p in range(3, 9):
            if len(specs) >= count:
                break
            specs.append(random_w_spec(rng, p))
    return specs


def ghz_config(spec: GhzSpec, n: int = 2, q: int = 1, **kw) -> ProtocolConfig:
    return ProtocolConfig(n, Family.GHZ_DIAGONAL, spec, q, **kw)


def w_config(spec: WSpec, n: int = 2, **kw) -> ProtocolConfig:
    return ProtocolConfig(n, Family.W_SINGLE_EXCITATION, spec, spec.p - 1, **kw)


def labeled_partitions(d: int, q: int):
    """All assignments of indices 1..d-1 to q labeled blocks (empty allowed)."""
    from qdistill import IndexPartition

    for owners in itertools.product(range(q), repeat=d - 1):
        blocks = [set() for _ in range(q)]
        for idx, owner in zip(range(1, d), owners):
            blocks[owner].add(idx)
        yield IndexPartition(tuple(frozenset(b) for b in blocks))


# ---------------------------------------------------------------- oracles


def oracle_partial_trace(rho: np.ndarray, dims: tuple[int, ...], traced) -> np.ndarray:
    """Partial trace by explicit index arithmetic (no reshapes)."""
    traced = sorted(set(traced))
    kept = [j for j in range(len(dims)) if j not in traced]
    kept_dims = [dims[j] for j in kept]
    out_dim = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def global_index(assign):
        g = 0
        for j, dj in enumerate(dims):
            g = g * dj + assign[j]
        return g

    kept_states = list(itertools.product(*[range(dims[j]) for j in kept]))
    traced_states = list(itertools.product(*[range(dims[j]) for j in traced]))
    for r, row_kept in enumerate(kept_states):
        for c, col_kept in enumerate(kept_states):
            acc = 0.0 + 0.0j
            for tr in traced_states:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for j, v in zip(kept, row_kept):
                    row[j] = v
                for j, v in zip(kept, col_kept):
                    col[j] = v
                for j, v in zip(traced, tr):
                    row[j] = v
                    col[j] = v
                acc += rho[global_index(row), global_index(col)]
            out[r, c] = acc
    return out


# scipy's Schur-based sqrtm leaves ~1e-8 noise on the zero modes of
# rank-deficient inputs, so oracle comparisons use a 1e-7 tolerance; the
# package's truncated-eigendecomposition path is the tighter of the two.
ORACLE_FIDELITY_TOL = 1e-7


def oracle_root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)) via scipy's Schur-based sqrtm."""
    prod = scipy.linalg.sqrtm(a) @ scipy.linalg.sqrtm(b)
    return float(np.sum(scipy.linalg.svdvals(prod)))


def oracle_state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return oracle_root_fidelity(a, b) ** 2


def oracle_ghz_deviation(alpha_squares: tuple[Fraction, ...], n: int) -> decimal.Decimal:
    """Exact 1 - F(n) = (1/d)(1 - d a_0^2)^(n-1)(d - (sum a)^2) to 50 digits.

    ``alpha_squares`` are the exact squared coefficients with alpha_0^2 first;
    every intermediate is rounded at the 50th significant digit only.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        squares = [decimal.Decimal(a.numerator) / a.denominator for a in alpha_squares]
        d = len(squares)
        total = sum(a.sqrt() for a in squares)
        return (1 - d * squares[0]) ** (n - 1) * (d - total * total) / d


def oracle_w_law(betas: tuple[float, ...], n: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """Exact W law (p_u, F(n)) to 50 digits, with beta_{P-1} maximal:

        p_u = P prod_i beta_i^2 / beta_{P-1}^(2(P-1))
        F(n) = 1 - (1/P)(1 - p_u)^(n-1)(P - (sum beta)^2)

    Every float in ``betas`` is taken exactly; decimal exponents do not
    underflow, so the literal quotient is used at any P.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b = [decimal.Decimal(x) for x in betas]
        p = len(b)
        prod = decimal.Decimal(1)
        for x in b:
            prod *= x * x
        pu = p * prod / b[-1] ** (2 * (p - 1))
        total = sum(b)
        return pu, 1 - (1 - pu) ** (n - 1) * (p - total * total) / p


def dense_report(config: ProtocolConfig) -> SimpleNamespace:
    """The run_ted report fields recomputed on dense state vectors.

    p_u is the squared norm of the all-zeros filter layer applied to the full
    d^P vector, and the numeric fidelity is ps + (1 - ps) |<perfect|initial>|^2
    on dense vectors, so neither touches the compact route.  Subject to the
    dense cap.
    """
    spec = config.spec
    assignment = assignment_for(config.family, spec, config.q, config.partition)
    initial = make_dense(spec)
    _, pu = apply_filter_layer(initial, assignment, (0,) * assignment.q)
    ps = overall_success(pu, config.n_copies)
    perfect = make_dense(perfect_like(spec))
    overlap = abs(np.vdot(perfect.amplitudes, initial.amplitudes)) ** 2
    return SimpleNamespace(
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(spec, config.n_copies),
        fidelity_numeric=ps + (1.0 - ps) * float(overlap),
    )


def oracle_filter_matrix(assignment, outcomes) -> np.ndarray:
    """Full joint filter operator built by chained Kronecker products."""
    participants = assignment.participants
    by_party = dict(zip(participants, outcomes))
    local = assignment.pairs[participants[0]].dim
    mat = np.eye(1)
    for j in range(assignment.p):
        if j in by_party:
            block = np.diag(assignment.pairs[j].diag(by_party[j]))
        else:
            block = np.eye(local, dtype=complex)
        mat = np.kron(mat, block)
    return mat


def oracle_layer(assignment, outcomes, psi: np.ndarray) -> tuple[np.ndarray, float]:
    mat = oracle_filter_matrix(assignment, outcomes)
    out = mat @ psi
    return out, float(np.real(np.vdot(out, out)))


def random_density(rng: np.random.Generator, dim: int, floor: float = 0.1) -> np.ndarray:
    """Well-conditioned random density matrix (spectrum bounded away from 0)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T + floor * dim * np.eye(dim)
    return rho / np.trace(rho).real


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x @ x.conj().T


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(CORPUS_SEED)
