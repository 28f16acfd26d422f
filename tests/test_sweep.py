import argparse
import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qdistill
from qdistill import (
    Family,
    GhzSpec,
    InvalidSpecError,
    ProtocolConfig,
    SteeringConfig,
    WorkCapExceededError,
    make_compact,
    run_ted,
    run_tsd,
)
from qdistill.cli import build_parser
from qdistill.sweep import (
    CSV_COLUMNS,
    CURVE_COEFFS,
    PRESETS,
    ROW_CAP,
    SIZE_CAP,
    equal_head_w,
    equal_tail_ghz,
    grid_rows,
    report_row,
    solve_ghz_coefficients,
)
from qdistill.ted import _compact_zero_layer, closed_form_terms, fidelity_from_success

from conftest import ghz_config, random_ghz_spec, random_w_spec, w_config


def subparser(command: str) -> argparse.ArgumentParser:
    """``command``'s node of the CLI's argparse tree."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices[command]


class TestCoefficientSolver:
    def test_recovers_equal_tail_gap(self):
        a0 = 1 / math.sqrt(8)
        spec = equal_tail_ghz(3, 3, a0)
        gap = 3 - sum(spec.alphas) ** 2
        coeffs = solve_ghz_coefficients(3, a0, gap)
        assert coeffs is not None
        assert sum(c * c for c in coeffs) == pytest.approx(1.0, abs=1e-12)
        assert sum(coeffs) == pytest.approx(math.sqrt(3 - gap), abs=1e-12)
        assert min(coeffs) >= a0 - 1e-12

    def test_feasible_region_alpha0_inv_sqrt10(self):
        a0 = 1 / math.sqrt(10)
        feasible = {d: solve_ghz_coefficients(d, a0, 0.5) is not None for d in range(2, 11)}
        assert feasible == {
            2: False, 3: True, 4: True, 5: True, 6: True, 7: True,
            8: False, 9: False, 10: False,
        }

    def test_solution_is_valid_spec(self):
        coeffs = solve_ghz_coefficients(5, 1 / math.sqrt(10), 0.5)
        spec = GhzSpec(5, 2, coeffs)
        assert spec.alphas[0] == min(spec.alphas)

    def test_pivot_violation_infeasible(self):
        # d * a0^2 > 1 means a0 cannot be minimal
        assert solve_ghz_coefficients(11, 1 / math.sqrt(10), 0.5) is None

    def test_negative_target_infeasible(self):
        assert solve_ghz_coefficients(3, 0.5, 4.0) is None


class TestGridRows:
    def test_contour_shape_and_columns(self):
        rows = grid_rows("ghz-contour")
        assert len(rows) == 9 * 19
        assert all(tuple(r.keys()) == CSV_COLUMNS for r in rows)

    def test_contour_row_order_lexicographic(self):
        rows = grid_rows("ghz-contour")
        keys = [(r["alpha0_or_pu"], r["d"], r["n"]) for r in rows]
        assert keys == sorted(keys)

    def test_contour_infeasible_rows_emitted(self):
        rows = grid_rows("ghz-contour")
        by_d = {}
        for r in rows:
            by_d.setdefault(r["d"], set()).add(r["feasible"])
        assert by_d[2] == {False}
        assert by_d[5] == {True}
        assert by_d[9] == {False}
        # infeasible rows still carry the closed-form fast-path value
        d2 = [r for r in rows if r["d"] == 2]
        assert all(not math.isnan(r["fidelity_closed"]) for r in d2)
        assert all(math.isnan(r["fidelity_numeric"]) for r in d2)

    @pytest.mark.parametrize("preset, overrides, filled", [
        ("ghz-contour", dict(gap=-5.0), False),
        ("ghz-dimension", dict(gap=20.0), False),  # over d - 1 for every d
        ("ghz-contour", dict(alpha0=(-0.5,), d=(2,)), False),
        ("w-contour", dict(gap=-5.0, p=(3,)), False),
        ("w-contour", dict(gap=2.5, p=(3,)), False),
        ("w-contour", dict(pu=(0.0,), p=(3,)), False),
        ("ghz-contour", dict(gap=0.0, d=(3,)), True),
        ("w-contour", dict(gap=0.0, p=(3,)), True),
        ("w-contour", dict(gap=2.0, p=(3,)), True),
    ], ids=["ghz-gap-negative", "ghz-gap-over-size", "ghz-alpha0-negative",
            "w-gap-negative", "w-gap-over-size", "w-pu-zero",
            "ghz-gap-zero", "w-gap-zero", "w-gap-size-minus-one"])
    def test_closed_form_columns_only_where_coefficients_exist(self, preset, overrides, filled):
        # 0 < p_u <= 1, 0 <= gap <= size - 1 and, for GHZ, 0 < alpha0 < 1
        rows = grid_rows(preset, n=(2,), **overrides)
        columns = ("ps_per_copy", "ps_overall", "fidelity_closed")
        for r in rows:
            assert [math.isnan(r[c]) for c in columns] == [not filled] * 3
            if filled:
                assert 0.0 <= r["fidelity_closed"] <= 1.0
            else:
                assert r["feasible"] is False

    def test_contour_majority_above_099(self):
        rows = grid_rows("ghz-contour")
        frac = sum(r["fidelity_closed"] > 0.99 for r in rows) / len(rows)
        assert frac > 0.5

    def test_closed_numeric_agree_on_feasible_rows(self):
        for preset in ("ghz-contour", "ghz-convergence", "w-convergence"):
            for r in grid_rows(preset):
                if r["feasible"]:
                    assert abs(r["fidelity_closed"] - r["fidelity_numeric"]) <= 1e-9

    def test_convergence_curves_increase_to_one(self):
        rows = grid_rows("ghz-convergence")
        by_a0 = {}
        for r in rows:
            by_a0.setdefault(r["alpha0_or_pu"], []).append(r["fidelity_closed"])
        assert len(by_a0) == 3
        for values in by_a0.values():
            assert all(b > a for a, b in zip(values, values[1:]))
            assert values[-1] > 1 - 1e-7

    def test_dimension_rows_monotone_in_d(self):
        rows = [r for r in grid_rows("ghz-dimension") if r["feasible"]]
        ps = [r["ps_per_copy"] for r in rows]
        fid = [r["fidelity_closed"] for r in rows]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert all(b > a for a, b in zip(fid, fid[1:]))

    def test_w_contour_driver_is_pu(self):
        rows = grid_rows("w-contour")
        assert len(rows) == 18 * 19
        assert all(r["alpha0_or_pu"] == 0.3 for r in rows)
        assert all(r["ps_per_copy"] == 0.3 for r in rows)
        assert all(r["q"] == r["p"] - 1 for r in rows)
        sample = rows[0]
        assert sample["fidelity_closed"] == pytest.approx(1 - 0.7 * 0.5 / 3, abs=1e-12)

    def test_w_convergence_uses_toy_family(self):
        rows = grid_rows("w-convergence", n=(3,))
        row = next(r for r in rows if r["alpha0_or_pu"] == 0.5)
        assert row["ps_per_copy"] == pytest.approx(0.375, abs=1e-12)
        assert row["fidelity_closed"] == pytest.approx(0.9888298909339968, abs=1e-12)

    def test_preset_overrides(self):
        assert len(grid_rows("ghz-contour", n=(2, 3), d=(3,))) == 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'nope'"):
            grid_rows("nope")

    @pytest.mark.parametrize("preset", ["ghz-contour", "ghz-convergence", "ghz-dimension"])
    def test_ghz_party_count_is_the_single_p_value(self, preset):
        assert {r["p"] for r in grid_rows(preset, p=(4,))} == {4}
        with pytest.raises(InvalidSpecError, match="GHZ sweeps take a single --p value"):
            grid_rows(preset, p=(2, 3))

    def test_row_cap_refused_before_building(self):
        # 18 party counts per copy count: one copy count past the cap
        with pytest.raises(WorkCapExceededError, match="over the cap"):
            grid_rows("w-contour", n=tuple(range(2, 3 + ROW_CAP // 18)))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_size_cap_refused_before_building(self, name):
        # one size past the cap, one far past float range, and a range of
        # sizes each under the cap whose curves total more than it
        size = PRESETS[name].size
        grids = [{size: (SIZE_CAP + 1,)}, {size: (10**400,)},
                 {size: tuple(range(2, 1100)), "n": (2,)}]
        for overrides in grids:
            start = time.process_time()
            with pytest.raises(WorkCapExceededError, match=f"over the cap {SIZE_CAP}$"):
                grid_rows(name, **overrides)
            assert time.process_time() - start < 0.05

    def test_size_cap_counts_every_driver(self):
        # three GHZ curves at the cap, the largest d it admits for three drivers
        axes, d = dict(alpha0=(1e-4, 2e-4, 3e-4), n=(2,)), SIZE_CAP // 3 - CURVE_COEFFS
        with pytest.raises(WorkCapExceededError, match=f"has {3 * (SIZE_CAP // 3 + 1)} coefficients"):
            grid_rows("ghz-convergence", d=(d + 1,), **axes)
        assert len(grid_rows("ghz-convergence", d=(d,), **axes)) == 3

    def test_size_cap_counts_a_fixed_cost_per_curve(self):
        sizes = (2, 3, 4, 5, 6) * 980  # 4900 curves
        assert sum(sizes) + CURVE_COEFFS * len(sizes) == 509600 <= SIZE_CAP
        with pytest.raises(WorkCapExceededError, match="has 520000 coefficients"):
            grid_rows("w-convergence", beta0=(0.05,), p=sizes + (2, 3, 4, 5, 6) * 20, n=(2,))

    @pytest.mark.parametrize("overrides", [
        dict(beta0=(0.5 / math.sqrt(SIZE_CAP - CURVE_COEFFS),), p=(SIZE_CAP - CURVE_COEFFS,)),
        dict(beta0=(0.05,), p=(2, 3, 4, 5, 6) * 980, n=(2,)),
    ], ids=["one-large-curve", "small-curves"])
    def test_the_worst_admitted_w_grids_run_within_a_second(self, overrides):
        # SIZE_CAP's comment: 0.22-0.39 s of CPU each (W is the costlier family;
        # the GHZ grid at the cap is test_size_cap_counts_every_driver's); the
        # budget leaves about a factor of three
        start = time.process_time()
        rows = grid_rows("w-convergence", **overrides)
        assert time.process_time() - start < 1.0
        assert all(row["feasible"] for row in rows)

    def test_the_grid_at_both_caps_runs_within_its_budget(self):
        # SIZE_CAP's joint worst case: 98000 rows and 509600 coefficients,
        # 0.41-0.43 s of CPU where it was measured
        beta0 = tuple(0.05 + 0.35 * k / 979 for k in range(980))  # all under 1/sqrt(6)
        axes = dict(beta0=beta0, p=(2, 3, 4, 5, 6), n=tuple(range(2, 22)))
        assert len(beta0) * (sum(axes["p"]) + CURVE_COEFFS * 5) == 509600 <= SIZE_CAP
        start = time.process_time()
        rows = grid_rows("w-convergence", **axes)
        assert time.process_time() - start < 1.5
        assert len(rows) == 98000 <= ROW_CAP
        assert all(row["feasible"] for row in rows)

    def test_row_cap_is_checked_first(self):
        with pytest.raises(WorkCapExceededError, match=f"101000 rows, over the cap {ROW_CAP}"):
            grid_rows("w-contour", p=tuple(range(3, 1003)), n=tuple(range(2, 103)))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_default_presets_are_under_the_size_cap(self, name):
        preset = PRESETS[name]
        drivers, sizes = preset.defaults[preset.driver], preset.defaults[preset.size]
        assert len(drivers) * sum(sizes) <= 207 < SIZE_CAP


# every sweep axis (the union of the presets' defaults), and each (preset,
# axis) pair whose preset does not read the axis: the API and the CLI
# refusal tests both run on these pairs
SWEEP_AXES = sorted(set().union(*(preset.defaults for preset in PRESETS.values())))
UNREAD_AXES = [(name, axis) for name in sorted(PRESETS) for axis in SWEEP_AXES
               if axis not in PRESETS[name].defaults]


class TestPresetTable:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_overrides_the_preset_does_not_read_are_refused(self, name):
        unread = [axis for preset, axis in UNREAD_AXES if preset == name]
        assert unread
        for axis in unread:
            with pytest.raises(InvalidSpecError, match=rf"reads only .*, not \['{axis}'\]$"):
                grid_rows(name, **{axis: (0.5,)})
        with pytest.raises(InvalidSpecError, match="reads only"):
            grid_rows(name, mode="w-contour")

    def test_every_axis_is_a_sweep_flag(self):
        # the CLI passes each set flag to grid_rows under the flag's own name
        assert sorted(qdistill.cli.SWEEP_AXES) == SWEEP_AXES
        sweep = subparser("sweep")
        assert {a.dest for a in sweep._actions} >= set(SWEEP_AXES)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_row_count_is_the_axis_product(self, name):
        preset = PRESETS[name]
        axes = {**preset.defaults, "n": (2, 3, 5)}
        drivers, sizes = axes[preset.driver], axes[preset.size]
        rows = grid_rows(name, n=axes["n"])
        assert len(rows) == len(drivers) * len(sizes) * len(axes["n"])
        # driver, then size, then n, each in the order its axis gives
        assert [(r["alpha0_or_pu"], r[preset.size], r["n"]) for r in rows] == [
            (driver, s, n) for driver in drivers for s in sizes for n in axes["n"]
        ]

    def test_convergence_presets_take_several_sizes(self):
        rows = grid_rows("ghz-convergence", d=(3, 4), n=(2,))
        assert [(r["d"], r["p"]) for r in rows] == [(3, 3), (4, 3)] * 3
        rows = grid_rows("w-convergence", beta0=(0.4,), p=(3, 4))
        assert {(r["p"], r["q"]) for r in rows} == {(3, 2), (4, 3)}

    def test_every_preset_list_is_the_table(self):
        sweep = subparser("sweep")
        (action,) = [a for a in sweep._actions if a.dest == "preset"]
        assert list(action.choices) == sorted(PRESETS)
        # the benchmark keeps its own copy, which must not drift
        tree = ast.parse((Path(__file__).parents[1] / "bench" / "workloads.py").read_text())
        (bench,) = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "SWEEP_PRESETS"]
        assert sorted(bench) == sorted(PRESETS)


class TestFamilies:
    def test_equal_tail_ghz(self):
        spec = equal_tail_ghz(3, 3, 0.5)
        assert spec.alphas[1] == spec.alphas[2]
        assert sum(a * a for a in spec.alphas) == pytest.approx(1.0, abs=1e-12)

    def test_equal_head_w(self):
        spec = equal_head_w(3, 0.5)
        assert spec.betas[:2] == (0.5, 0.5)
        assert spec.betas[2] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_equal_head_w_rejects_large_beta0(self):
        with pytest.raises(Exception):
            equal_head_w(3, 0.9)


# (preset, overrides): the default grids and a few of their overrides
ENGINE_GRIDS = [
    *((name, {}) for name in sorted(PRESETS)),
    ("ghz-contour", dict(d=(3, 5, 9))),
    ("ghz-contour", dict(n=tuple(range(2, 81)))),
    ("ghz-contour", dict(gap=0.3)),
    ("ghz-dimension", dict(gap=0.3, n=(2, 5, 80))),
    ("ghz-convergence", dict(d=(3, 5, 8))),
    ("ghz-convergence", dict(n=tuple(range(2, 81)), p=(5,))),
    ("w-convergence", dict(beta0=(0.2, 0.3), p=tuple(range(3, 12)))),
    ("w-convergence", dict(n=tuple(range(2, 81)))),
]


def engine_config(row: dict, gap: float | None) -> ProtocolConfig:
    """The protocol instance a feasible sweep row stands for."""
    n, p, driver = row["n"], row["p"], row["alpha0_or_pu"]
    if row["family"] == "w":
        return ProtocolConfig(n, Family.W_SINGLE_EXCITATION, equal_head_w(p, driver), p - 1)
    d = row["d"]
    spec = (equal_tail_ghz(d, p, driver) if gap is None
            else GhzSpec(d, p, solve_ghz_coefficients(d, driver, gap)))
    return ProtocolConfig(n, Family.GHZ_DIAGONAL, spec, 1)


class TestEngineRows:
    """A feasible row holds what ``run_ted`` reports on its instance, bit
    for bit; the rows of a curve share one spec context."""

    @pytest.mark.parametrize("preset, overrides", ENGINE_GRIDS,
                             ids=[f"{p}-{i}" for i, (p, _) in enumerate(ENGINE_GRIDS)])
    def test_feasible_rows_equal_run_ted(self, preset, overrides):
        gap = {**PRESETS[preset].defaults, **overrides}.get("gap")
        rows = [r for r in grid_rows(preset, **overrides) if r["feasible"]]
        assert rows or preset == "w-contour"  # its rows come from (p_u, gap) alone
        for row in rows if preset != "w-contour" else ():
            report = run_ted(engine_config(row, gap))
            assert row["ps_per_copy"] == report.p_success_per_copy
            assert row["ps_overall"] == report.p_success_overall
            assert row["fidelity_numeric"] == report.fidelity_numeric
            if gap is None:
                assert row["fidelity_closed"] == report.fidelity_closed_form
            else:  # a gap row's closed form is the aggregates', not the solved spec's
                d, a0 = row["d"], row["alpha0_or_pu"]
                assert row["fidelity_closed"] == fidelity_from_success(
                    d * a0 * a0, d, gap, row["n"])

    @pytest.fixture
    def lookups(self, monkeypatch):
        """Counts spec-context lookups through every package module's
        reference, as the benchmark's tracer would."""
        counted = {"lookups": 0}

        def lookup(*args):
            counted["lookups"] += 1
            return _compact_zero_layer(*args)
        for module in (qdistill.ted, qdistill.sweep):
            if getattr(module, "_compact_zero_layer", None) is _compact_zero_layer:
                monkeypatch.setattr(module, "_compact_zero_layer", lookup)
        return counted

    @pytest.mark.parametrize("preset, overrides, curves", [
        ("ghz-convergence", {}, 3),
        ("w-convergence", {}, 3),
        ("ghz-contour", {}, 5),  # d = 3..7 have coefficients
        ("ghz-dimension", {}, 5),
        ("w-contour", {}, 0),
        ("ghz-convergence", dict(d=(3, 5, 8), n=tuple(range(2, 81))), 9),
        ("w-convergence", dict(beta0=(0.2, 0.3), p=tuple(range(3, 12))), 18),
    ])
    def test_one_context_lookup_per_curve(self, lookups, preset, overrides, curves):
        rows = grid_rows(preset, **overrides)
        assert lookups["lookups"] == curves < len(rows)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_copy_counts_below_two_are_refused(self, preset):
        # also where a row has no closed-form columns to compute
        overrides = {"gap": -5.0} if "contour" in preset else {}
        with pytest.raises(InvalidSpecError, match="every d, p and n >= 2"):
            grid_rows(preset, n=(3, 1), **overrides)


@st.composite
def curve_points(draw):
    """A convergence curve's (preset, driver, size) whose spec is valid:
    equal-tail GHZ with d <= 12, equal-head W with P <= 40."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 12))
        return "ghz-convergence", draw(st.floats(0.01, 1.0 / math.sqrt(d))), d
    p = draw(st.integers(3, 40))
    return "w-convergence", draw(st.floats(0.01, 1.0 / math.sqrt(p))), p


def run_rows(spec) -> list[dict]:
    """report_row of an entanglement and a one-sided steering run on ``spec``."""
    config = (ghz_config if isinstance(spec, GhzSpec) else w_config)(spec, n=3)
    steering = SteeringConfig(config, 1)
    return [report_row(config, run_ted(config)), report_row(steering, run_tsd(steering))]


class TestOneGapRule:
    """Every row built from a spec holds the closed form's own gap
    (closed_form_terms), bit for bit: one gap rule, not a second sum."""

    @given(curve_points())
    @example(("w-convergence", 1.0 / math.sqrt(6.0), 6))  # uniform W: fsum and sum differ
    def test_convergence_and_run_rows(self, point):
        preset, driver, size = point
        ghz = preset == "ghz-convergence"
        rows = grid_rows(preset, n=(2, 3, 40), **(
            dict(alpha0=(driver,), d=(size,)) if ghz else dict(beta0=(driver,), p=(size,))))
        spec = equal_tail_ghz(size, 3, driver) if ghz else equal_head_w(size, driver)
        gap = closed_form_terms(spec, make_compact(spec))[2]
        assert [row["coeff_gap"] for row in rows] == [gap] * 3
        assert [row["coeff_gap"] for row in run_rows(spec)] == [gap] * 2

    @given(st.booleans(), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_random_spec_run_rows(self, ghz, size, seed):
        rng = np.random.default_rng(seed)
        spec = random_ghz_spec(rng, min(size, 12), 3) if ghz else random_w_spec(rng, size)
        gap = closed_form_terms(spec, make_compact(spec))[2]
        assert [row["coeff_gap"] for row in run_rows(spec)] == [gap] * 2
