"""Parameter sweeps over the closed-form protocol performance.

The closed-form fidelity depends on the coefficient vector only through the
aggregates (p_u, gap), where gap = d - (sum_i alpha_i)^2 (or the P analog),
so contour grids are evaluated directly from those scalars without building
states.  Where a row is feasible, an explicit coefficient vector is also
solved (one distinct coefficient, the rest equal, pivot minimal) and the
protocol engine is run on it to fill the independent ``fidelity_numeric``
column.  Infeasible grid points are emitted with ``feasible=False`` rather
than dropped, so grids keep their full rectangular shape.

N enters only through (1 - p_u)^(N-1), so a sweep is a list of curves, one
per driver value and size: a :class:`Curve` holds the cells its spec sets once
and one ``LINE_COLUMNS`` line per n.  The engine runs once per curve, and
each line of a curve takes ``run_ted``'s per-N step,
:func:`~qdistill.ted.results_at`, on one context.  A curve built from a spec
holds the closed form's own gap as ``coeff_gap``
(:func:`~qdistill.ted.closed_form_terms`, read from the spec context).
:func:`grid_rows` is the same grid as one dict per line, and :func:`report_row`
builds the row of one ``run_ted`` or ``run_tsd`` run.

Every CSV schema sits here beside ``CSV_SCHEMA_VERSION``, which versions
them; the columns that change line by line are stated once with their cells'
type (``LINE_COLUMNS``, ``SIMULATE_LINE_COLUMNS``), which sets their text in
the CLI's writer.

Curves run over driver value, then size (d or P), and lines over copy count,
each in its axis's order (see :data:`PRESETS`).  A grid of more than
``ROW_CAP`` lines or ``SIZE_CAP`` coefficients (each curve counting its size,
d or P, plus ``CURVE_COEFFS`` for its fixed cost), with a d, p or n below 2 or
not an int, or overriding an axis its preset does not read is refused before
any curve is built.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
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

# the columns that change along a curve, in CSV_COLUMNS order, each with the
# one type of its cells; a curve's spec alone sets the others
LINE_COLUMNS = {"n": int, "ps_overall": float, "fidelity_closed": float, "fidelity_numeric": float}

SIMULATE_COLUMNS = (
    "family", "d", "p", "q", "n", "trials", "seed",
    "ps_per_copy", "ps_overall_expected", "success_rate",
    "kept_count", "count",
)
SIMULATE_LINE_COLUMNS = {"kept_count": int, "count": int}  # a line per histogram entry

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
         pu: float, ps: float, closed: float, numeric: float, feasible: bool) -> dict:
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


class Curve(NamedTuple):
    """One curve of a sweep: its cells of the ``CSV_COLUMNS`` not in
    ``LINE_COLUMNS``, and per n of the axis a line of ``LINE_COLUMNS`` cells,
    each in ``CSV_COLUMNS`` order."""

    cells: tuple
    lines: list[tuple]


def _closed_columns(pu: float, size: int, gap: float, ns) -> tuple[float, list[float]]:
    """p_u and fidelity_closed at each n of a curve's axis from the aggregates,
    or NaN where no coefficient vector has them: p_u in (0, 1] and
    gap = size - (sum of coefficients)^2 in [0, size - 1].  The range is
    checked and p_u clamped to 1 once per curve."""
    if not (0.0 < pu <= 1.0 + FEAS_TOL and 0.0 <= gap <= size - 1):
        return math.nan, [math.nan] * len(ns)
    pu = min(pu, 1.0)
    return pu, [fidelity_from_success(pu, size, gap, n) for n in ns]


def _overall_column(pu: float, ns) -> list[float]:
    """ps_overall at each n from the aggregates' p_u, NaN where p_u is."""
    return [math.nan] * len(ns) if math.isnan(pu) else [overall_success(pu, n) for n in ns]


def _aggregate_lines(pu: float, ns, closed) -> list[tuple]:
    """The lines of a curve with no engine run: no numeric fidelity."""
    return list(zip(ns, _overall_column(pu, ns), closed, repeat(math.nan)))


def _ghz_gap_curve(axes: dict, a0: float, d: int) -> Curve:
    p, gap, ns, family = axes["p"][0], axes["gap"], axes["n"], Family.GHZ_DIAGONAL.value
    # no closed columns for an a0 off (0, 1)
    pu, closed = _closed_columns(d * a0 * a0 if 0.0 < a0 < 1.0 else math.nan, d, gap, ns)
    coeffs = solve_ghz_coefficients(d, a0, gap)
    if coeffs is None:
        return Curve((family, d, p, 1, 0, a0, gap, pu, False), _aggregate_lines(pu, ns, closed))
    context, lines = _compact_zero_layer(GhzSpec(d, p, coeffs)), []
    for n, fidelity in zip(ns, closed):
        _, ps, _, numeric = results_at(context, n)  # fidelity_closed stays the aggregates'
        lines.append((n, ps, fidelity, numeric))
    return Curve((family, d, p, 1, 0, a0, gap, context[0], True), lines)


def _convergence_curve(axes: dict, driver: float, size: int) -> Curve:
    """Fidelity vs N along one equal-tail GHZ (an alpha0 axis) or equal-head W curve."""
    if "alpha0" in axes:
        q, spec = 1, equal_tail_ghz(size, axes["p"][0], driver)
    else:
        q, spec = size - 1, equal_head_w(size, driver)
    context = _compact_zero_layer(spec)
    cells = (family_of(spec).value, span_shape(spec)[1], spec.p, q, 0, driver, context[4][2],
             context[0], True)
    return Curve(cells, [(n, *results_at(context, n)[1:]) for n in axes["n"]])


def _w_contour_curve(axes: dict, pu: float, p: int) -> Curve:
    gap, ns, family = axes["gap"], axes["n"], Family.W_SINGLE_EXCITATION.value
    pu_closed, closed = _closed_columns(pu, p, gap, ns)
    cells = (family, 2, p, p - 1, 0, pu, gap, pu_closed, not math.isnan(pu_closed))
    return Curve(cells, _aggregate_lines(pu_closed, ns, closed))


class Preset(NamedTuple):
    """``build(axes, driver, size)`` gives one (driver, size) point's curve
    over the ``n`` axis; ``defaults`` are the only axes the preset reads,
    each named as its ``sweep`` flag."""

    build: Callable[[dict, float, int], Curve]
    driver: str
    size: str
    defaults: dict


PRESETS = {
    # fidelity contour over (N, d) at fixed alpha0 and gap
    "ghz-contour": Preset(_ghz_gap_curve, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(10.0),), gap=0.5,
        d=tuple(range(2, 11)), n=tuple(range(2, 21)), p=(2,),
    )),
    # fidelity vs N for three starting overlaps, equal tail coefficients
    "ghz-convergence": Preset(_convergence_curve, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(8.0), 1.0 / math.sqrt(9.0), 1.0 / math.sqrt(10.0)),
        d=(3,), n=tuple(range(2, 51)), p=(3,),
    )),
    # fidelity and success probability vs d at fixed N
    "ghz-dimension": Preset(_ghz_gap_curve, "alpha0", "d", dict(
        alpha0=(1.0 / math.sqrt(10.0),), gap=0.5, d=tuple(range(2, 11)), n=(2,), p=(2,),
    )),
    # fidelity contour over (N, P) driven directly by (p_u, gap)
    "w-contour": Preset(_w_contour_curve, "pu", "p", dict(
        pu=(0.3,), gap=0.5, p=tuple(range(3, 21)), n=tuple(range(2, 21)),
    )),
    # fidelity vs N for three starting first coefficients
    "w-convergence": Preset(_convergence_curve, "beta0", "p", dict(
        beta0=(0.5, 1.0 / math.sqrt(5.0), 1.0 / math.sqrt(6.0)), p=(3,), n=tuple(range(2, 51)),
    )),
}


def grid_curves(name: str, **overrides) -> list[Curve]:
    """The curves of a named sweep, in deterministic order, with some of its
    axes overridden; overriding an axis the preset does not read is
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
    return [preset.build(axes, driver, size) for driver in drivers for size in sizes]


def grid_rows(name: str, **overrides) -> list[dict]:
    """:func:`grid_curves` as CSV-ready rows, one per line of each curve."""
    return [_row(family, d, p, q, s, n, driver, gap, pu, ps, closed, numeric, feasible)
            for (family, d, p, q, s, driver, gap, pu, feasible), lines
            in grid_curves(name, **overrides)
            for n, ps, closed, numeric in lines]
