"""Parameter sweeps over the closed-form protocol performance.

The closed-form fidelity depends on the coefficient vector only through the
aggregates (p_u, gap), where gap = d - (sum_i alpha_i)^2 (or the P analog),
so contour grids are evaluated directly from those scalars without building
states.  Where a row is feasible, an explicit coefficient vector is also
solved (one distinct coefficient, the rest equal, pivot minimal) and the
protocol engine is run on it to fill the independent ``fidelity_numeric``
column.  Infeasible grid points are emitted with ``feasible=False`` rather
than dropped, so grids keep their full rectangular shape.

Rows are emitted in deterministic lexicographic order: driver value, then
dimension/party axis, then copy count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpecError
from .states import Family, GhzSpec, WSpec
from .ted import (
    ProtocolConfig,
    fidelity_from_success,
    overall_success,
    run_ted,
)

CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "family", "d", "p", "q", "s", "n",
    "alpha0_or_pu", "coeff_gap",
    "ps_per_copy", "ps_overall",
    "fidelity_closed", "fidelity_numeric",
    "feasible",
)

FEAS_TOL = 1e-12


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
    tail = math.sqrt((1.0 - alpha0 * alpha0) / (d - 1))
    return GhzSpec(d, p, (alpha0,) + (tail,) * (d - 1))


def equal_head_w(p: int, beta0: float) -> WSpec:
    """W spec with the first p-1 coefficients equal to beta0."""
    last = 1.0 - (p - 1) * beta0 * beta0
    if last < beta0 * beta0 - FEAS_TOL:
        raise InvalidSpecError(f"beta0 = {beta0} leaves no maximal last coefficient")
    return WSpec(p, (beta0,) * (p - 1) + (math.sqrt(max(last, 0.0)),))


@dataclass(frozen=True)
class SweepGrid:
    """Axis definitions for one sweep; see the preset constructors below."""

    mode: str
    n_values: tuple[int, ...]
    d_values: tuple[int, ...] = ()
    p_values: tuple[int, ...] = ()
    alpha0_values: tuple[float, ...] = ()
    beta0_values: tuple[float, ...] = ()
    pu: float | None = None
    gap: float | None = None
    p: int = 2


def _row(
    family: Family, d: int, p: int, q: int, n: int, driver: float, gap: float,
    s: int = 0, **results,
) -> dict:
    """One row of the CSV schema; result columns not given stay NaN/false."""
    row = {
        "family": family.value, "d": d, "p": p, "q": q, "s": s, "n": n,
        "alpha0_or_pu": driver, "coeff_gap": gap,
        "ps_per_copy": math.nan, "ps_overall": math.nan,
        "fidelity_closed": math.nan, "fidelity_numeric": math.nan,
        "feasible": False,
    }
    row.update(results)
    return row


def report_row(
    config: ProtocolConfig, report, driver: float | None = None, s: int = 0
) -> dict:
    """The CSV row of one protocol run.

    ``report`` comes from :func:`~qdistill.ted.run_ted`, or from
    :func:`~qdistill.tsd.run_tsd` when ``s`` (the number of uncharacterized
    parties) is positive; a steering row's numeric fidelity is the assemblage
    fidelity.  ``driver`` defaults to alpha_0 for GHZ and p_u for W.
    """
    spec = config.spec
    if isinstance(spec, GhzSpec):
        d, size, coeffs, default = spec.d, spec.d, spec.alphas, spec.alphas[0]
    else:
        d, size, coeffs, default = 2, spec.p, spec.betas, report.p_success_per_copy
    return _row(
        config.family, d, spec.p, config.q, config.n_copies,
        default if driver is None else driver, size - sum(coeffs) ** 2, s,
        ps_per_copy=report.p_success_per_copy,
        ps_overall=report.p_success_overall,
        fidelity_closed=report.fidelity_closed_form,
        fidelity_numeric=report.fidelity_assemblage if s else report.fidelity_numeric,
        feasible=True,
    )


def _ghz_gap_rows(grid: SweepGrid) -> list[dict]:
    rows = []
    for a0 in grid.alpha0_values:
        for d in grid.d_values:
            coeffs = solve_ghz_coefficients(d, a0, grid.gap)
            spec = GhzSpec(d, grid.p, coeffs) if coeffs is not None else None
            pu = d * a0 * a0
            for n in grid.n_values:
                row = _row(Family.GHZ_DIAGONAL, d, grid.p, 1, n, a0, grid.gap)
                if pu <= 1.0 + FEAS_TOL:
                    row.update(
                        ps_per_copy=min(pu, 1.0),
                        ps_overall=overall_success(pu, n),
                        fidelity_closed=fidelity_from_success(min(pu, 1.0), d, grid.gap, n),
                    )
                if spec is not None:
                    report = run_ted(ProtocolConfig(n, Family.GHZ_DIAGONAL, spec, q=1))
                    row.update(
                        ps_per_copy=report.p_success_per_copy,
                        ps_overall=report.p_success_overall,
                        fidelity_numeric=report.fidelity_numeric,
                        feasible=True,
                    )
                rows.append(row)
    return rows


def _convergence_rows(grid: SweepGrid) -> list[dict]:
    """Fidelity vs N along equal-tail GHZ or equal-head W curves, one curve
    per starting coefficient."""
    if grid.mode == "ghz-convergence":
        if len(grid.d_values) != 1:
            raise InvalidSpecError("convergence sweeps take a single dimension value")
        family, q = Family.GHZ_DIAGONAL, 1
        curves = [(a0, equal_tail_ghz(grid.d_values[0], grid.p, a0))
                  for a0 in grid.alpha0_values]
    else:
        if len(grid.p_values) != 1:
            raise InvalidSpecError("convergence sweeps take a single party count")
        family, q = Family.W_SINGLE_EXCITATION, grid.p_values[0] - 1
        curves = [(b0, equal_head_w(grid.p_values[0], b0)) for b0 in grid.beta0_values]
    rows = []
    for driver, spec in curves:
        for n in grid.n_values:
            config = ProtocolConfig(n, family, spec, q)
            rows.append(report_row(config, run_ted(config), driver))
    return rows


def _w_contour_rows(grid: SweepGrid) -> list[dict]:
    rows = []
    pu = grid.pu
    for p in grid.p_values:
        feasible = 0.0 < pu <= 1.0 and 0.0 <= grid.gap <= p - 1
        for n in grid.n_values:
            row = _row(Family.W_SINGLE_EXCITATION, 2, p, p - 1, n, pu, grid.gap,
                       feasible=feasible)
            if 0.0 < pu <= 1.0:
                row.update(
                    ps_per_copy=pu,
                    ps_overall=overall_success(pu, n),
                    fidelity_closed=fidelity_from_success(pu, p, grid.gap, n),
                )
            rows.append(row)
    return rows


def grid_rows(grid: SweepGrid) -> list[dict]:
    """Materialize a grid as CSV-ready row dicts in deterministic order."""
    if grid.mode in ("ghz-contour", "ghz-dimension"):
        return _ghz_gap_rows(grid)
    if grid.mode in ("ghz-convergence", "w-convergence"):
        return _convergence_rows(grid)
    if grid.mode == "w-contour":
        return _w_contour_rows(grid)
    raise ValueError(f"unknown sweep mode {grid.mode!r}")


def preset_grid(name: str, **overrides) -> SweepGrid:
    """Named sweeps for the standard performance grids."""
    presets = {
        # fidelity contour over (N, d) at fixed alpha0 and gap
        "ghz-contour": dict(
            mode="ghz-contour",
            alpha0_values=(1.0 / math.sqrt(10.0),), gap=0.5,
            d_values=tuple(range(2, 11)), n_values=tuple(range(2, 21)), p=2,
        ),
        # fidelity vs N for three starting overlaps, equal tail coefficients
        "ghz-convergence": dict(
            mode="ghz-convergence",
            alpha0_values=(
                1.0 / math.sqrt(8.0), 1.0 / math.sqrt(9.0), 1.0 / math.sqrt(10.0)
            ),
            d_values=(3,), n_values=tuple(range(2, 51)), p=3,
        ),
        # fidelity and success probability vs d at fixed N
        "ghz-dimension": dict(
            mode="ghz-dimension",
            alpha0_values=(1.0 / math.sqrt(10.0),), gap=0.5,
            d_values=tuple(range(2, 11)), n_values=(2,), p=2,
        ),
        # fidelity contour over (N, P) driven directly by (p_u, gap)
        "w-contour": dict(
            mode="w-contour",
            pu=0.3, gap=0.5,
            p_values=tuple(range(3, 21)), n_values=tuple(range(2, 21)),
        ),
        # fidelity vs N for three starting first coefficients
        "w-convergence": dict(
            mode="w-convergence",
            beta0_values=(0.5, 1.0 / math.sqrt(5.0), 1.0 / math.sqrt(6.0)),
            p_values=(3,), n_values=tuple(range(2, 51)),
        ),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    cfg = presets[name]
    cfg.update(overrides)
    return SweepGrid(**cfg)
