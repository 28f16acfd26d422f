"""Shared fixtures, seeded corpora, and independent oracles.

The oracles here avoid the package's filter and steering kernels: partial
traces are explicit index loops, ``oracle_root_fidelity`` goes through
scipy.linalg.sqrtm (Schur-based, unlike the package's eigendecomposition),
filter layers are Kronecker products of the per-party filter diagonals
applied to ``make_dense`` vectors, and the GHZ and W fidelity laws are
evaluated in 50-digit decimal arithmetic from exact coefficients.
Steering members are rebuilt from an assemblage's stored factor by
projecting onto the explicit bases of ``mub_family``, a test-only helper.

``dense_vector`` and the member rebuilders place coefficients by their own
``placement_table``, every party's local index per span row written out
from the family definitions, not by the package's per-party rule
``states.local_column`` (which ``make_dense`` uses); a test checks that
the two agree column by column on the corpora.  From the package the
oracles take only specs, filter assignments, the dense constructor, the
closed-form fidelity that a report carries, and one scorer:
``oracle_steering`` scores its dense members with the package's
eigendecomposition root fidelity ``linalg._root_fidelity``, because on
its rank-1 targets scipy's sqrtm drifts from it by up to about 1e-9 (GHZ,
d = 2..5, P = 3..8), far over that oracle's 1e-12 bound.  The dense
oracles compute P_s themselves, in 60-digit decimals.
``tests/test_package.py`` pins this import list.

``oracle_rows_text`` is the CLI's CSV writer as it was when every row was
formatted cell by cell, one dict per line, with its own copy of the cell
tables, so it reads nothing of the block writer it checks.
"""

from __future__ import annotations

import decimal
import itertools
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

from types import SimpleNamespace

from qdistill import (
    Family,
    GhzSpec,
    ProtocolConfig,
    WSpec,
)
from qdistill.linalg import _root_fidelity
from qdistill.states import make_dense, perfect_like
from qdistill.ted import assignment_for, closed_form_fidelity

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


def contiguous_partition(d: int, q: int):
    """The default even split of {1..d-1} into q contiguous blocks, the
    first (d - 1) mod q one index longer, by numpy's ``array_split`` rule."""
    from qdistill import IndexPartition

    return IndexPartition(tuple(frozenset(b.tolist()) for b in np.array_split(np.arange(1, d), q)))


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


def oracle_w_fmax(betas: tuple[float, ...], idle) -> float:
    """Best fidelity with the uniform P-party W state that diagonal filters
    on every party outside ``idle`` can post-select from
    sum_i beta_i |1 on party P-1-i>, with I the idle parties and Q = P - |I|:

        F_max = (Q + (sum_I beta)^2 / sum_I beta^2) / P

    Every participant's |0> entry scales all coefficients but its own, so
    the idle coefficients share one factor and keep their ratios, while
    each participant's own coefficient is free: the best state is the
    all-ones vector projected onto that span.  Exact in fractions.
    """
    p = len(betas)
    chosen = [Fraction(betas[p - 1 - j]) for j in idle]
    total, squares = sum(chosen), sum(b * b for b in chosen)
    return float((p - len(chosen) + total * total / squares) / p)


def oracle_ghz_settings(alphas: tuple[float, ...], n: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """Exact GHZ steering per-setting law to 50 digits, alpha_0 minimal:
    (all-Fourier value, value of any string with a computational party)

        all-Fourier:    F = ps + (1 - ps) (sum alpha)^2 / d
        computational:  (sum_i sqrt((ps/d + (1 - ps) alpha_i^2) / d))^2

    with ps = 1 - (1 - d alpha_0^2)^(n-1).  Every float is taken exactly.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = [decimal.Decimal(x) for x in alphas]
        d = len(a)
        ps = 1 - (1 - d * a[0] ** 2) ** (n - 1)
        fourier = ps + (1 - ps) * sum(a) ** 2 / d
        computational = sum(((ps / d + (1 - ps) * x * x) / d).sqrt() for x in a) ** 2
        return fourier, computational


def oracle_w_settings(betas: tuple[float, ...], n: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """Exact W steering (S = 1) per-setting law to 50 digits, beta_{P-1}
    maximal: (Hadamard value, computational value)

        Hadamard:       F(n) of ``oracle_w_law``
        computational:  (sqrt(ps ((P-1)/P)^2 + (1 - ps) (sum_{k<P-1} beta_k)^2 / P)
                         + sqrt(ps / P^2 + (1 - ps) beta_{P-1}^2 / P))^2
    """
    pu, fidelity = oracle_w_law(betas, n)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b = [decimal.Decimal(x) for x in betas]
        p = len(b)
        ps = 1 - (1 - pu) ** (n - 1)
        head = (ps * ((p - 1) / decimal.Decimal(p)) ** 2 + (1 - ps) * sum(b[:-1]) ** 2 / p).sqrt()
        tail = (ps / p**2 + (1 - ps) * b[-1] ** 2 / p).sqrt()
        return fidelity, (head + tail) ** 2


def oracle_overall_success(pu: float, n: int) -> float:
    """1 - (1 - p_u)^(n-1) to 60 digits, the float p_u taken exactly, then
    rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(1 - (1 - decimal.Decimal(pu)) ** (n - 1))


def dense_report(config: ProtocolConfig) -> SimpleNamespace:
    """The run_ted report fields recomputed on dense state vectors.

    p_u is the squared norm of the all-zeros ``oracle_layer`` applied to the
    full d^P vector, P_s is ``oracle_overall_success`` of that p_u, and the
    numeric fidelity is ps + (1 - ps) |<perfect|initial>|^2 on dense
    vectors, so none of them touches the compact route.  Subject to the
    dense cap.
    """
    spec = config.spec
    assignment = assignment_for(spec, config.q, config.partition)
    initial = make_dense(spec)
    _, pu = oracle_layer(assignment, (0,) * assignment.q, initial)
    ps = oracle_overall_success(pu, config.n_copies)
    perfect = make_dense(perfect_like(spec))
    overlap = abs(np.vdot(perfect, initial)) ** 2
    return SimpleNamespace(
        p_success_per_copy=pu,
        p_success_overall=ps,
        fidelity_closed_form=closed_form_fidelity(spec, config.n_copies),
        fidelity_numeric=ps + (1.0 - ps) * float(overlap),
    )


def local_dim(spec) -> int:
    """Local dimension of every party: d for GHZ, 2 for W (a qubit)."""
    return spec.d if isinstance(spec, GhzSpec) else 2


def placement_table(spec) -> np.ndarray:
    """The (span, P) basis placement table: row k holds, per party, the
    local index of the basis state that carries coefficient k (|k k ... k>
    for GHZ; for W, 1 at party P-1-k and 0 elsewhere)."""
    if isinstance(spec, GhzSpec):
        return np.repeat(np.arange(spec.d)[:, None], spec.p, axis=1)
    return np.eye(spec.p, dtype=np.intp)[:, ::-1]


def dense_vector(coeffs, spec) -> np.ndarray:
    """Coefficients on the span of ``spec`` placed on the full product
    space: coefficient r sits at global index sum_j local[r, j] dim^(P-1-j),
    with local = placement_table(spec) and dim the local dimension."""
    dim = local_dim(spec)
    v = np.zeros(dim**spec.p, dtype=complex)
    v[placement_table(spec) @ dim ** np.arange(spec.p - 1, -1, -1)] = coeffs
    return v


def dense_mixture(mixture, spec) -> np.ndarray:
    """Density matrix sum_k w_k |v_k><v_k| of a report's (w_k, coefficient
    array) pairs on the span of ``spec``."""
    out = 0
    for w, coeffs in mixture:
        v = dense_vector(coeffs, spec)
        out = out + w * np.outer(v, v.conj())
    return out


def member_keys(asm):
    """Every (setting string, outcome string) of an assemblage's
    uncharacterized parties, settings first, both in row-major order."""
    settings = itertools.product((0, 1), repeat=asm.s)
    return itertools.product(settings, itertools.product(range(local_dim(asm.spec)), repeat=asm.s))


def class_of(x) -> tuple[int, ...]:
    """The class representative that run_tsd scores setting string x under:
    (1,)*f + (0,)*(s-f), with f the number of Fourier parties of x."""
    return (1,) * sum(x) + (0,) * (len(x) - sum(x))


@lru_cache(maxsize=4)  # an entry holds 32 d^2 bytes
def mub_family(d: int) -> np.ndarray:
    """Two mutually unbiased orthonormal bases as a read-only (2, d, d)
    array whose row B[x][a] is basis vector a: computational (x = 0) and
    Fourier (x = 1), e_a = (1/sqrt(d)) sum_l omega^(a l mod d) |l>."""
    fourier = np.exp(2j * np.pi * (np.outer(np.arange(d), np.arange(d)) % d) / d)
    bases = np.stack([np.eye(d, dtype=complex), fourier / np.sqrt(d)])
    bases.flags.writeable = False
    return bases


def rebuilt_member(asm, x, a) -> np.ndarray:
    """Member (x, a) as a complex (rows, span) factor, rebuilt from the
    stored real factor R by the measurement itself: column k is R[:, k]
    times conj(B[x_j][a_j, local[k, j]]) for each uncharacterized party j,
    with B = ``mub_family(local_dim(spec))`` and local = ``placement_table(spec)``."""
    bases = mub_family(local_dim(asm.spec)).conj()
    local = placement_table(asm.spec)
    member = asm.members.astype(complex)
    for j, (xj, aj) in enumerate(zip(x, a)):
        member = member * bases[xj, aj, local[:, j]]
    return member


def dense_member(asm, x, a) -> np.ndarray:
    """A member of a span assemblage as a matrix on the d^(P-S)
    characterized space: span row r sits at sum_{j>=s} local[r, j] d^(P-1-j)."""
    factor = rebuilt_member(asm, x, a)
    p, dim = asm.spec.p, local_dim(asm.spec)
    index = placement_table(asm.spec)[:, asm.s:] @ dim ** np.arange(p - 1 - asm.s, -1, -1)
    rows = np.zeros((len(factor), dim ** (p - asm.s)), dtype=complex)
    rows[:, index] = factor
    return rows.T @ rows.conj()


def rebuilt_scores(a, b) -> dict:
    """Fidelity of every setting string of ``a`` against the pure ``b``, by
    a loop over its outcome strings, member by member, on rebuilt members."""
    scores = {}
    for x, o in member_keys(a):
        root = float(np.linalg.norm(rebuilt_member(a, x, o) @ rebuilt_member(b, x, o)[0].conj()))
        scores[x] = scores.get(x, 0.0) + root
    return {x: t * t for x, t in scores.items()}


NONSIGNALING_TOL = 1e-10


def nonsignaling_deviation(asm) -> float:
    """Largest of |Tr rho_ch - 1| and the entrywise distance between the
    outcome sums sum_a sigma_{a|x} of each setting string and of the first,
    on dense rebuilt members.  NaN members give NaN, which fails any ``<=``
    bound."""
    reduced = {}
    for x, a in member_keys(asm):
        reduced[x] = reduced.get(x, 0) + dense_member(asm, x, a)
    reduced = list(reduced.values())
    trace = abs(complex(np.trace(reduced[0])) - 1.0)
    shifts = [np.max(np.abs(r - reduced[0])) for r in reduced[1:]]
    return float(np.max([trace, *shifts]))


def completeness_deviation(k0, k1) -> float:
    """max |K0^dag K0 + K1^dag K1 - I| over diagonal filter pairs, given as
    their K0 and K1 rows."""
    k0, k1 = np.asarray(k0), np.asarray(k1)
    return float(np.max(np.abs(k0 * k0 + k1 * k1 - 1.0)))


def oracle_projections(spec, s: int):
    """(x, a, v): the unnormalized conditional vector v on the d^(P-S)
    characterized space left when the first s parties of the dense state
    project onto explicit basis vectors (computational, and Fourier
    exp(2 pi i a l / d) / sqrt(d)), for every setting and outcome string.
    Subject to the dense cap."""
    d = local_dim(spec)
    fourier = np.exp(2j * np.pi * np.outer(range(d), range(d)) / d) / np.sqrt(d)
    bases = (np.eye(d), fourier)
    psi = make_dense(spec).reshape(d**s, -1)
    for x in itertools.product((0, 1), repeat=s):
        for a in itertools.product(range(d), repeat=s):
            bra = np.ones(1)
            for xk, ak in zip(x, a):
                bra = np.kron(bra, bases[xk][ak].conj())
            yield x, a, bra @ psi


def oracle_steering(config) -> SimpleNamespace:
    """run_tsd's per-copy success and the fidelity of every setting string
    recomputed on dense d^P vectors.

    The uncharacterized parties are projected by ``oracle_projections``, p_u
    is the squared norm of the Kronecker-product filter layer, and every
    member pair is scored by the package's eigendecomposition root fidelity
    ``_root_fidelity`` on the d^(P-S)-square matrices (see the module
    docstring for why not scipy's), with P_s ``oracle_overall_success`` of
    that p_u.  Subject to the dense cap.
    """
    base, s = config.base, config.s
    spec = base.spec
    assignment = assignment_for(spec, base.q, base.partition)
    _, pu = oracle_layer(assignment, (0,) * assignment.q, make_dense(spec))
    ps = oracle_overall_success(pu, base.n_copies)
    per_setting = {}
    pairs = zip(oracle_projections(spec, s), oracle_projections(perfect_like(spec), s))
    for (x, _, v), (_, _, g) in pairs:
        target = np.outer(g, g.conj())
        root = _root_fidelity(ps * target + (1 - ps) * np.outer(v, v.conj()), target)
        per_setting[x] = per_setting.get(x, 0.0) + root
    return SimpleNamespace(
        p_success_per_copy=pu, per_setting={x: t * t for x, t in per_setting.items()}
    )


def oracle_filter_diagonal(assignment, outcomes) -> np.ndarray:
    """Diagonal of the joint filter operator, built by chained Kronecker
    products of the per-party diagonals (all ones for an idle party).  Every
    filter is diagonal, so it carries the whole operator at d^P cost."""
    rows = zip(assignment.participants, outcomes, assignment.k0, assignment.k1)
    by_party = {j: row0 if o == 0 else row1 for j, o, row0, row1 in rows}
    local = assignment.k0.shape[1]
    diag = np.ones(1)
    for j in range(assignment.p):
        diag = np.kron(diag, by_party.get(j, np.ones(local)))
    return diag


def oracle_layer(assignment, outcomes, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """The filter layer applied to a dense vector, with its squared norm."""
    out = oracle_filter_diagonal(assignment, outcomes) * psi
    return out, float(np.real(np.vdot(out, out)))


def random_density(rng: np.random.Generator, dim: int, floor: float = 0.1) -> np.ndarray:
    """Well-conditioned random density matrix (spectrum bounded away from 0)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T + floor * dim * np.eye(dim)
    return rho / np.trace(rho).real


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x @ x.conj().T


# --------------------------------------------------- the row-by-row CSV writer

# a cell's text by its exact type, as a ``%`` conversion where the type has one
# (a bool has none: %d or %s would print it as 1 or True); any other type
# (numpy's ints and bools, subclasses) by str()
CELL_CONVERSIONS = {float: "%.12g", np.float64: "%.12g", int: "%d", str: "%s"}
CELL_FORMATS = {**{kind: conversion.__mod__ for kind, conversion in CELL_CONVERSIONS.items()},
                bool: {True: "true", False: "false"}.__getitem__,
                tuple: lambda t: "".join(map(str, t))}


def _fmt(value) -> str:
    return CELL_FORMATS.get(type(value), str)(value)


def oracle_rows_text(rows, columns: tuple[str, ...], fmt: str) -> str:
    """Header plus one line per row, each newline-terminated and each one
    ``%`` of a template.  A column whose cells share one type of
    ``CELL_CONVERSIONS`` takes that conversion; any other column is placed
    with ``%s`` as text, of its one type's formatter or of ``_fmt`` per cell."""
    sep, rows, cells, conversions = "\t" if fmt == "tsv" else ",", list(rows), [], []
    for values in (list(map(itemgetter(column), rows)) for column in columns):
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        conversion = CELL_CONVERSIONS.get(kind)
        conversions.append(conversion or "%s")
        cells.append(values if conversion else map(CELL_FORMATS.get(kind, _fmt), values))
    template = sep.join(conversions) + "\n"
    return sep.join(columns) + "\n" + "".join(map(template.__mod__, zip(*cells)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(CORPUS_SEED)
