"""Parameter sweeps over the closed-form protocol performance.

The closed-form fidelity depends on the coefficient vector only through the
aggregates (p_u, gap), where gap = d - (sum_i alpha_i)^2 (or the P analog),
so contour grids are evaluated directly from those scalars without building
states.  Where a row is feasible, an explicit coefficient vector is also
solved (one distinct coefficient, the rest equal, pivot minimal) and the
protocol engine is run on it to fill the independent ``fidelity_numeric``
column.  Infeasible grid points are emitted with ``feasible=False`` rather
than dropped, so grids keep their full rectangular shape.

N enters only through (1 - p_u)^(N-1), so the engine runs once per curve
(driver value and size), not once per row: each row of a curve takes
``run_ted``'s per-N step, :func:`~qdistill.ted.results_at`, on one context.
A row built from a spec holds the closed form's own gap as ``coeff_gap``
(:func:`~qdistill.ted.closed_form_terms`, read from the spec context).
:func:`report_row` builds the row of one ``run_ted`` or ``run_tsd`` run.

Rows run over driver value, then size (d or P), then copy count, each in its
axis's order (see :data:`PRESETS`).  A grid of more than ``ROW_CAP`` rows or
``SIZE_CAP`` coefficients (each curve counting its size, d or P, plus
``CURVE_COEFFS`` for its fixed cost), with a d, p or n below 2 or not an int,
or overriding an axis its preset does not read is refused before any row is built.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .errors import InvalidSpecError, WorkCapExceededError
from .states import Family, GhzSpec, WSpec, family_of, span_shape
from .ted import (
    ProtocolConfig,
    _compact_zero_layer,
    fidelity_from_success,
    overall_success,
    results_at,
)
from .tsd import SteeringConfig

CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "family", "d", "p", "q", "s", "n",
    "alpha0_or_pu", "coeff_gap",
    "ps_per_copy", "ps_overall",
    "fidelity_closed", "fidelity_numeric",
    "feasible",
)

STEERING_COLUMNS = CSV_COLUMNS + ("fidelity_assemblage", "minimizing_setting", "threshold")

FEAS_TOL = 1e-12

# grid_rows on 10^5 rows: 0.22 s (ghz-convergence) to 0.32 s (w-contour) of CPU
# at 80-86 MB peak RSS; the largest default preset has 342 rows
ROW_CAP = 100_000

# a curve costs its spec and context once, then about 0.5 us per coefficient (the
# context is linear in the size, d or P), so it counts as its size plus CURVE_COEFFS
# coefficients: a small W curve takes about 60 us, as much as ~100 coefficients
CURVE_COEFFS = 100

# the worst admitted W grids each take 0.22-0.39 s of CPU, as ROW_CAP's worst does:
# one w-convergence curve at P = 509900 (49 rows) at 65 MB peak RSS, and 4900 one-row
# curves at P = 2..6 at 32 MB; GHZ at d = 509900, 0.16-0.19 s at 55 MB (one process
# per grid); a grid of at most 10^4 coefficients, the former cap, counts at most
# 10^4 + 5000 CURVE_COEFFS; the default presets count at most 2007.  The caps are
# checked apart, so one grid may sit at both, their joint worst case: w-convergence
# with 980 beta0 values, P = 2..6 and 20 n is 98000 rows and 509600 coefficients,
# 0.41-0.43 s of CPU at 83 MB peak RSS (one process per run, 3 runs, 2-core Xeon)
SIZE_CAP = 510_000


def solve_ghz_coefficients(d: int, alpha0: float, gap: float) -> tuple[float, ...] | None:
    """A coefficient vector with the given first entry and gap, or None.

    Searches the one-distinct-rest-equal family: alpha = (a, y, ..., y, z)
    with (d-2) copies of y, subject to sum of squares 1, sum of entries
    sqrt(d - gap), and a remaining the minimum.
    """
    a = float(alpha0)
    if not 0.0 < a < 1.0:
        return None
    if d * a * a > 1.0 + FEAS_TOL:
        return None  # a cannot be the minimal coefficient
    t2 = d - gap
    if t2 < 0.0:
        return None
    s1 = math.sqrt(t2) - a       # required tail sum
    s2 = 1.0 - a * a             # required tail power
    if s1 <= 0.0 or s2 <= 0.0:
        return None
    if d == 2:
        z = math.sqrt(s2)
        if not abs(s1 * s1 - s2) <= 1e-9 or z < a - FEAS_TOL:
            return None
        return (a, z)
    k = d - 2
    inner = k * ((k + 1) * s2 - s1 * s1)
    if inner < -1e-9:
        return None
    inner = max(inner, 0.0)
    for sign in (1.0, -1.0):
        y = (s1 * k + sign * math.sqrt(inner)) / (k * (k + 1))
        z = s1 - k * y
        if y >= a - FEAS_TOL and z >= a - FEAS_TOL:
            return (a,) + (y,) * k + (z,)
    return None


def equal_tail_ghz(d: int, p: int, alpha0: float) -> GhzSpec:
    """GHZ spec with all tail coefficients equal: the convergence-curve family."""
    if not 0.0 < alpha0 < 1.0:
        raise InvalidSpecError(f"alpha0 = {alpha0} is outside (0, 1)")
    tail = math.sqrt((1.0 - alpha0 * alpha0) / (d - 1))
    return GhzSpec(d, p, (alpha0,) + (tail,) * (d - 1))


def equal_head_w(p: int, beta0: float) -> WSpec:
    """W spec with the first p-1 coefficients equal to beta0."""
    last = 1.0 - (p - 1) * beta0 * beta0
    if last < beta0 * beta0 - FEAS_TOL:
        raise InvalidSpecError(f"beta0 = {beta0} leaves no maximal last coefficient")
    return WSpec(p, (beta0,) * (p - 1) + (math.sqrt(max(last, 0.0)),))


def _row(family: str, d: int, p: int, q: int, s: int, n: int, driver: float, gap: float,
         pu=math.nan, ps=math.nan, closed=math.nan, numeric=math.nan, feasible=False) -> dict:
    """One row of the CSV schema, built in ``CSV_COLUMNS`` order."""
    return {"family": family, "d": d, "p": p, "q": q, "s": s, "n": n,
            "alpha0_or_pu": driver, "coeff_gap": gap, "ps_per_copy": pu, "ps_overall": ps,
            "fidelity_closed": closed, "fidelity_numeric": numeric, "feasible": feasible}


def report_row(config: ProtocolConfig | SteeringConfig, report) -> dict:
    """The CSV row of one run: ``CSV_COLUMNS`` for a ``run_ted`` report on a
    ``ProtocolConfig``, ``STEERING_COLUMNS`` for a ``run_tsd`` report on a
    ``SteeringConfig`` (its numeric fidelity is the assemblage fidelity).
    The driver column is alpha_0 for GHZ and p_u for W."""
    steering = isinstance(config, SteeringConfig)
    base = config.base if steering else config
    spec = base.spec
    driver = spec.alphas[0] if isinstance(spec, GhzSpec) else report.p_success_per_copy
    row = _row(
        family_of(spec).value, span_shape(spec)[1], spec.p, base.q, config.s if steering else 0,
        base.n_copies, driver, _compact_zero_layer(spec)[4][2],
        report.p_success_per_copy, report.p_success_overall, report.fidelity_closed_form,
        report.fidelity_assemblage if steering else report.fidelity_numeric, True,
    )
    if steering:
        row.update(fidelity_assemblage=report.fidelity_assemblage,
                   minimizing_setting=report.minimizing_setting, threshold=report.threshold)
    return row


def _closed_columns(pu: float, size: int, gap: float, n: int) -> tuple[float, float, float]:
    """ps_per_copy, ps_overall and fidelity_closed from the aggregates, or
    NaN where no coefficient vector has them: p_u in (0, 1] and
    gap = size - (sum of coefficients)^2 in [0, size - 1]."""
    if not (0.0 < pu <= 1.0 + FEAS_TOL and 0.0 <= gap <= size - 1):
        return (math.nan,) * 3
    pu = min(pu, 1.0)
    return pu, overall_success(pu, n), fidelity_from_success(pu, size, gap, n)


def _ghz_gap_rows(axes: dict, a0: float, d: int) -> list[dict]:
    p, gap, family = axes["p"][0], axes["gap"], Family.GHZ_DIAGONAL.value
    pu = d * a0 * a0 if 0.0 < a0 < 1.0 else math.nan  # no closed columns off (0, 1)
    coeffs = solve_ghz_coefficients(d, a0, gap)
    context = None if coeffs is None else _compact_zero_layer(GhzSpec(d, p, coeffs))
    rows, feasible, numeric = [], context is not None, math.nan
    for n in axes["n"]:
        pu_n, ps, closed = _closed_columns(pu, d, gap, n)
        if feasible:  # the engine's columns; fidelity_closed stays the aggregates'
            pu_n, ps, _, numeric = results_at(context, n)
        rows.append(_row(family, d, p, 1, 0, n, a0, gap, pu_n, ps, closed, numeric, feasible))
    return rows


def _convergence_rows(axes: dict, driver: float, size: int) -> list[dict]:
    """Fidelity vs N along one equal-tail GHZ (an alpha0 axis) or equal-head W curve."""
    if "alpha0" in axes:
        q, spec = 1, equal_tail_ghz(size, axes["p"][0], driver)
    else:
        q, spec = size - 1, equal_head_w(size, driver)
    context = _compact_zero_layer(spec)
    family, d, gap = family_of(spec).value, span_shape(spec)[1], context[4][2]
    return [_row(family, d, spec.p, q, 0, n, driver, gap, *results_at(context, n), True)
            for n in axes["n"]]


def _w_contour_rows(axes: dict, pu: float, p: int) -> list[dict]:
    family, gap, rows = Family.W_SINGLE_EXCITATION.value, axes["gap"], []
    for n in axes["n"]:
        closed = _closed_columns(pu, p, gap, n)
        rows.append(_row(family, 2, p, p - 1, 0, n, pu, gap, *closed,
                         feasible=not math.isnan(closed[0])))
    return rows


class Preset(NamedTuple):
    """``build(axes, driver, size)`` gives one (driver, size) point's rows
    over the ``n`` axis; ``defaults`` are the only axes the preset reads,
    each named as its ``sweep`` flag."""

    build: Callable[[dict, float, int], list[dict]]
    driver: str
    size: str
    defaults: dict


PRESETS = {
    # fidelity contour over (N, d) at fixed alpha0 and gap
    "ghz-contour": Preset(_ghz_gap_rows, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(10.0),), gap=0.5,
        d=tuple(range(2, 11)), n=tuple(range(2, 21)), p=(2,),
    )),
    # fidelity vs N for three starting overlaps, equal tail coefficients
    "ghz-convergence": Preset(_convergence_rows, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(8.0), 1.0 / math.sqrt(9.0), 1.0 / math.sqrt(10.0)),
        d=(3,), n=tuple(range(2, 51)), p=(3,),
    )),
    # fidelity and success probability vs d at fixed N
    "ghz-dimension": Preset(_ghz_gap_rows, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(10.0),), gap=0.5, d=tuple(range(2, 11)), n=(2,), p=(2,),
    )),
    # fidelity contour over (N, P) driven directly by (p_u, gap)
    "w-contour": Preset(_w_contour_rows, "pu", "p", dict(
        pu=(0.3,), gap=0.5, p=tuple(range(3, 21)), n=tuple(range(2, 21)),
    )),
    # fidelity vs N for three starting first coefficients
    "w-convergence": Preset(_convergence_rows, "beta0", "p", dict(
        beta0=(0.5, 1.0 / math.sqrt(5.0), 1.0 / math.sqrt(6.0)), p=(3,), n=tuple(range(2, 51)),
    )),
}


def grid_rows(name: str, **overrides) -> list[dict]:
    """The CSV-ready rows of a named sweep, in deterministic order, with some
    of its axes overridden; overriding an axis the preset does not read is
    refused."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    preset = PRESETS[name]
    unread = sorted(overrides.keys() - preset.defaults.keys())
    if unread:
        raise InvalidSpecError(f"preset {name} reads only {sorted(preset.defaults)}, not {unread}")
    axes = {**preset.defaults, **overrides}
    if "alpha0" in axes and len(axes["p"]) != 1:
        raise InvalidSpecError("GHZ sweeps take a single --p value")
    if min(counts := (*axes.get("d", ()), *axes["p"], *axes["n"]), default=2) < 2:
        raise InvalidSpecError("sweeps need every d, p and n >= 2")
    list(map(operator.index, counts))  # counts: a float, even 2.0 or NaN, is a TypeError
    drivers, sizes = axes[preset.driver], axes[preset.size]
    count = len(drivers) * len(sizes) * len(axes["n"])
    total = len(drivers) * (sum(map(operator.index, sizes)) + CURVE_COEFFS * len(sizes))  # no wrap
    for value, what, cap in ((count, "rows", ROW_CAP), (total, "coefficients", SIZE_CAP)):
        if value > cap:
            raise WorkCapExceededError(f"{name} grid has {value} {what}, over the cap {cap}")
    return [row for driver in drivers for size in sizes
            for row in preset.build(axes, driver, size)]
