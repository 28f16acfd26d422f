import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdistill
from qdistill import Family, InvalidSpecError, WSpec, run_ted
from qdistill import cli
from qdistill.cli import SWEEP_FIELDS, _config_tokens, _parse_int_values, build_parser, main
from qdistill.sweep import CSV_COLUMNS, PRESETS, ROW_CAP

GOLDEN = Path(__file__).parent / "golden"

ALPHAS_SQRT8 = f"{1 / math.sqrt(8)!r},{math.sqrt(7 / 16)!r},{math.sqrt(7 / 16)!r}"
BETAS_TOY = f"0.5,0.5,{1 / math.sqrt(2)!r}"
BETAS_W4 = f"0.45,0.5,0.5,{math.sqrt(0.2975)!r}"

# command lines the parser itself refuses
PARSER_REJECTIONS = {
    "bad-int": ["ted-ghz", "--d", "abc"],
    "unknown-flag": ["ted-ghz", "--bogus", "1"],
    "bad-choice": ["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY, "--format", "xml"],
    "unknown-command": ["frobnicate"],
    "empty": [],
}

BIG = "1" + "0" * 400  # 401 digits: no float holds it
BIG_COMMANDS = {
    "ted-ghz-n": ["ted-ghz", "--d", "3", "--p", "3", "--n", BIG, "--alphas", ALPHAS_SQRT8],
    "tsd-ghz-n": ["tsd-ghz", "--d", "3", "--p", "3", "--s", "1", "--n", BIG,
                  "--alphas", ALPHAS_SQRT8],
    "ted-w-n": ["ted-w", "--p", "3", "--n", BIG, "--betas", BETAS_TOY],
    "sd-w-n": ["sd-w", "--p", "3", "--s", "1", "--n", BIG, "--betas", BETAS_TOY],
    **{f"{preset}-n": ["sweep", "--preset", preset, "--n", BIG] for preset in sorted(PRESETS)},
    **{f"{preset}-{flag}": ["sweep", "--preset", preset, f"--{flag}", BIG]
       for preset, flag in (("ghz-convergence", "d"), ("ghz-contour", "d"),
                            ("ghz-dimension", "d"), ("w-convergence", "p"),
                            ("w-contour", "p"))},
}


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_child(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under a 1 GiB address-space limit,
    so a runaway allocation fails there instead of exhausting the host."""
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
    env = {
        **os.environ, "PYTHONPATH": str(Path(qdistill.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    }
    return subprocess.run([sys.executable, "-c", limit + code], capture_output=True,
                          text=True, env=env, timeout=timeout)


def parse_report(stdout: str) -> dict[str, str]:
    pairs = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            pairs[key] = val
    return pairs


def assert_simulate_within_5_sigma(stdout: str, trials: int) -> dict[str, str]:
    """The histogram covers every trial and the rate lies within 5 sigma of
    the printed expectation."""
    report = parse_report(stdout)
    counts = [int(kv.split(":")[1]) for kv in report["kept_count_histogram"].split()]
    assert sum(counts) == trials
    expected = float(report["ps_overall_expected"])
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(float(report["success_rate"]) - expected) <= 5 * sigma
    return report


class TestRunCommands:
    def test_ted_ghz_rounded_inputs(self, capsys):
        rc, out, _ = run(
            capsys, "ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
            "--alphas", "0.35355,0.66144,0.66144",
        )
        assert rc == 0
        report = parse_report(out)
        assert float(report["ps_per_copy"]) == pytest.approx(0.375, abs=1e-4)
        assert float(report["fidelity_closed"]) == pytest.approx(0.96050, abs=1e-4)

    def test_ted_ghz_perfect_spec(self, capsys):
        a = f"{1 / math.sqrt(3)!r}"
        rc, out, _ = run(
            capsys, "ted-ghz", "--d", "3", "--p", "4", "--q", "2", "--n", "5",
            "--alphas", f"{a},{a},{a}",
        )
        assert rc == 0
        report = parse_report(out)
        assert float(report["fidelity_closed"]) == 1.0
        assert float(report["ps_per_copy"]) == 1.0

    def test_ted_w_rounded_inputs(self, capsys):
        rc, out, _ = run(
            capsys, "ted-w", "--p", "3", "--n", "3", "--betas", "0.5,0.5,0.70711",
        )
        assert rc == 0
        report = parse_report(out)
        assert float(report["fidelity_closed"]) == pytest.approx(0.988830, abs=1e-4)

    def test_tsd_ghz_threshold_run(self, capsys):
        rc, out, _ = run(
            capsys, "tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "1",
            "--n", "4", "--alphas", ALPHAS_SQRT8,
        )
        assert rc == 0
        report = parse_report(out)
        assert report["threshold"] == "true"
        assert report["minimizing_setting"] == "1"
        assert abs(
            float(report["fidelity_assemblage"]) - float(report["fidelity_closed"])
        ) <= 1e-9

    def test_tsd_ghz_s2_flagged_non_threshold(self, capsys):
        rc, out, _ = run(
            capsys, "tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "2",
            "--n", "4", "--alphas", ALPHAS_SQRT8,
        )
        assert rc == 0
        assert parse_report(out)["threshold"] == "false"

    def test_tsd_ghz_explicit_partition(self, capsys):
        # splitting the filter over the two characterized parties changes
        # nothing observable
        rc, with_part, _ = run(
            capsys, "tsd-ghz", "--d", "3", "--p", "3", "--q", "2", "--s", "1",
            "--n", "4", "--alphas", ALPHAS_SQRT8, "--partition", "1|2",
        )
        assert rc == 0
        rc, single, _ = run(
            capsys, "tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "1",
            "--n", "4", "--alphas", ALPHAS_SQRT8,
        )
        assert rc == 0
        a, b = parse_report(with_part), parse_report(single)
        assert a["fidelity_assemblage"] == b["fidelity_assemblage"]
        assert a["ps_per_copy"] == b["ps_per_copy"]
        assert a["threshold"] == "false" and b["threshold"] == "true"

    def test_simulate_w_p40(self, capsys):
        # near-uniform betas with beta_39 maximal: p_u is about 0.47
        b = 1 / math.sqrt(40.02)
        betas = (b,) * 39 + (math.sqrt(1 - 39 * b * b),)
        trials = 20000
        rc, out, err = run(
            capsys, "simulate", "--family", "w", "--p", "40", "--n", "3",
            "--betas", ",".join(repr(x) for x in betas), "--trials", str(trials),
        )
        assert rc == 0 and err == ""
        report = assert_simulate_within_5_sigma(out, trials)
        pu = 40 * math.prod(x * x for x in betas) / betas[-1] ** 78
        assert 0.1 <= pu <= 0.9
        assert float(report["ps_per_copy"]) == pytest.approx(pu, abs=1e-12)

    def test_simulate_w_family(self, capsys):
        rc, out, _ = run(
            capsys, "simulate", "--family", "w", "--p", "3", "--n", "3",
            "--betas", BETAS_TOY, "--trials", "500", "--seed", "3",
        )
        assert rc == 0
        report = parse_report(out)
        assert float(report["ps_per_copy"]) == pytest.approx(0.375, abs=1e-12)
        assert 0.0 <= float(report["success_rate"]) <= 1.0

    def test_sd_w(self, capsys):
        rc, out, _ = run(
            capsys, "sd-w", "--p", "3", "--s", "1", "--n", "3", "--betas", BETAS_TOY,
        )
        assert rc == 0
        report = parse_report(out)
        assert report["threshold"] == "false"
        assert abs(
            float(report["fidelity_assemblage"]) - float(report["fidelity_closed"])
        ) <= 1e-9


class TestErrorReporting:
    def test_pivot_error_category(self, capsys):
        rc, _, err = run(
            capsys, "ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
            "--alphas", "0.8,0.3,0.519615242271",
        )
        assert rc == 2
        assert "category=PivotNotMinimal" in err

    def test_dense_cap_category(self, capsys):
        # steering holds no dense state, never builds the (2 d)^S members
        # and keeps one O(d) factor, so 2^13 amplitudes, S = 17 and any
        # outcome count d run
        for p, s, n in ((13, 1, 4), (20, 17, 2)):
            rc, out, err = run(
                capsys, "tsd-ghz", "--d", "2", "--p", str(p), "--q", "1", "--s", str(s),
                "--n", str(n), "--alphas", "0.6,0.8",
            )
            assert rc == 0 and err == ""
            report = parse_report(out)
            closed = 1 - (1 - 2 * 0.36) ** (n - 1) * (2 - 1.4**2) / 2
            assert abs(float(report["fidelity_assemblage"]) - closed) <= 1e-12
        d = 1001
        rc, out, err = run(
            capsys, "tsd-ghz", "--d", str(d), "--p", "3", "--q", "1", "--s", "1",
            "--n", "2", "--alphas", ",".join([repr(1 / math.sqrt(d))] * d),
        )
        assert rc == 0 and err == ""
        report = parse_report(out)
        closed = float(report["fidelity_closed"])
        assert abs(float(report["fidelity_assemblage"]) - closed) <= 1e-12

    def test_bad_partition_category(self, capsys):
        rc, _, err = run(
            capsys, "ted-ghz", "--d", "3", "--p", "3", "--q", "2", "--n", "2",
            "--alphas", ALPHAS_SQRT8, "--partition", "1|1,2",
        )
        assert rc == 2
        assert "category=BadPartition" in err

    def test_work_cap_category(self, capsys):
        # WorkCapExceeded bounds only the 2^Q reference enumeration; simulate
        # needs p_u alone, so Q = 29 runs and must pass the 5-sigma check
        trials = 20000
        rc, out, err = run(
            capsys, "simulate", "--family", "ghz", "--d", "2", "--p", "30", "--q", "29",
            "--n", "3", "--alphas", "0.6,0.8", "--trials", str(trials),
        )
        assert rc == 0 and err == ""
        report = assert_simulate_within_5_sigma(out, trials)
        assert float(report["ps_per_copy"]) == pytest.approx(2 * 0.6**2, abs=1e-12)

    def test_steering_scenario_category(self, capsys):
        rc, _, err = run(
            capsys, "sd-w", "--p", "3", "--s", "2", "--n", "3", "--betas", BETAS_TOY,
        )
        assert rc == 2
        assert "category=InvalidSteeringScenario" in err

    @pytest.mark.parametrize("argv", [
        ["tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "0", "--n", "2",
         "--alphas", ALPHAS_SQRT8],
        ["sd-w", "--p", "3", "--s", "0", "--n", "3", "--betas", BETAS_TOY],
    ], ids=["tsd-ghz", "sd-w"])
    def test_no_uncharacterized_party_category(self, capsys, argv):
        # s = 0 is refused, not run as entanglement distillation
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error category=InvalidSteeringScenario: ")

    def test_unnormalized_input_category(self, capsys):
        rc, _, err = run(
            capsys, "ted-ghz", "--d", "2", "--p", "2", "--q", "1", "--n", "2",
            "--alphas", "0.9,0.9",
        )
        assert rc == 2
        assert "category=InvalidSpec" in err

    @staticmethod
    def assert_invalid_spec(rc, err):
        assert rc == 2
        assert err.startswith("error category=InvalidSpec: ")
        assert "Traceback" not in err

    def test_negative_seed_category(self, capsys):
        rc, _, err = run(
            capsys, "simulate", "--family", "ghz", "--d", "3", "--p", "3", "--q", "1",
            "--n", "5", "--alphas", ALPHAS_SQRT8, "--trials", "10", "--seed", "-1",
        )
        self.assert_invalid_spec(rc, err)

    def test_missing_config_file_category(self, capsys, tmp_path):
        rc, _, err = run(capsys, "ted-w", "--config", str(tmp_path / "absent.cfg"))
        self.assert_invalid_spec(rc, err)

    def test_non_integer_config_value_category(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 3\nn = two\nbetas = {BETAS_TOY}\n")
        rc, _, err = run(capsys, "ted-w", "--config", str(cfg))
        self.assert_invalid_spec(rc, err)

    def test_unknown_family_in_config_category(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family = qubit\np = 3\nn = 3\nbetas = {BETAS_TOY}\n")
        rc, _, err = run(capsys, "simulate", "--config", str(cfg), "--trials", "10")
        self.assert_invalid_spec(rc, err)

    def test_missing_manifest_category(self, capsys, tmp_path):
        rc, _, err = run(capsys, "replay", str(tmp_path / "absent.manifest.json"))
        self.assert_invalid_spec(rc, err)

    def test_non_json_manifest_category(self, capsys, tmp_path):
        manifest = tmp_path / "run.manifest.json"
        manifest.write_text("family,d,p\n")
        rc, _, err = run(capsys, "replay", str(manifest))
        self.assert_invalid_spec(rc, err)

    @pytest.mark.parametrize("argv, out", [
        (["sweep", "--preset", "ghz-dimension"], "nosuchdir/x.csv"),
        (["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY], "."),
        (["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY], "run.csv"),
    ], ids=["missing-directory", "directory", "manifest-is-directory"])
    def test_unwritable_out_category(self, capsys, tmp_path, argv, out):
        (tmp_path / "run.manifest.json").mkdir()
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path / out))
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1

    def test_inverted_range_category(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "ghz-convergence", "--n", "10:2")
        self.assert_invalid_spec(rc, err)
        assert out == ""


    @pytest.mark.parametrize("preset, flag, value", [
        ("ghz-contour", "--alpha0", "nan"),
        ("ghz-convergence", "--alpha0", "0.3,inf"),
        ("w-contour", "--beta0", "nan"),  # not read by this preset, still refused
        ("w-contour", "--pu", "nan"),
        ("ghz-contour", "--gap", "nan"),
        ("w-contour", "--gap", "inf"),
    ])
    def test_non_finite_sweep_override_category(self, capsys, preset, flag, value):
        rc, out, err = run(capsys, "sweep", "--preset", preset, flag, value)
        self.assert_invalid_spec(rc, err)
        assert out == ""

    @pytest.mark.parametrize("preset, flag, value", [
        ("ghz-contour", "--d", "1"),
        ("ghz-contour", "--d", "0:3"),
        ("ghz-dimension", "--d", "1"),
        ("ghz-convergence", "--d", "1"),
        ("ghz-convergence", "--alpha0", "2"),
        ("ghz-convergence", "--alpha0", "0.3,1"),
        ("w-contour", "--p", "0"),
        ("w-contour", "--p", "1"),
        ("ghz-convergence", "--n", "1"),
        ("w-contour", "--n", "0:3"),
    ])
    def test_degenerate_sweep_axis_category(self, capsys, preset, flag, value):
        # refused before any row is built: no traceback and no q = 0 rows
        rc, out, err = run(capsys, "sweep", "--preset", preset, flag, value)
        self.assert_invalid_spec(rc, err)
        assert out == ""

    # a value each sweep flag accepts
    SWEEP_VALUES = {"alpha0": "0.3", "beta0": "0.5", "pu": "0.3", "gap": "0.5",
                    "d": "3", "p": "3", "n": "2"}

    @pytest.mark.parametrize("preset, flag", [
        (preset, flag) for preset in PRESETS for flag, field in SWEEP_FIELDS.items()
        if field not in PRESETS[preset].defaults
    ])
    def test_sweep_flag_the_preset_does_not_read_category(self, capsys, preset, flag):
        # these used to be dropped without a word, printing the default grid
        value = self.SWEEP_VALUES[flag]
        rc, out, err = run(capsys, "sweep", "--preset", preset, f"--{flag}", value)
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("family_flags", [
        ["--family", "w", "--p", "3", "--betas", BETAS_TOY, "--d", "9"],
        ["--family", "w", "--p", "3", "--betas", BETAS_TOY, "--alphas", "1,2"],
        ["--family", "ghz", "--d", "2", "--p", "3", "--alphas", "0.6,0.8", "--betas", "0.1"],
    ], ids=["w-d", "w-alphas", "ghz-betas"])
    def test_other_family_simulate_flag_category(self, capsys, family_flags):
        # the other family's coefficients used to be dropped without a word
        rc, out, err = run(capsys, "simulate", *family_flags, "--n", "3", "--trials", "10")
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("n, trials", [("5", "100000000000"), ("100000000", "1")],
                             ids=["many-trials", "many-copies"])
    def test_monte_carlo_work_cap_category(self, n, trials):
        # both ran past 20 s with no output; now refused before any sampling
        argv = ["simulate", "--family", "ghz", "--d", "3", "--p", "3", "--n", n,
                "--alphas", ALPHAS_SQRT8, "--trials", trials]
        done = run_child(f"from qdistill.cli import main; raise SystemExit(main({argv!r}))",
                         timeout=20)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error category=WorkCapExceeded: ")
        assert done.stderr.count("\n") == 1

    def test_pivot_tie_within_the_filters_tolerance_runs(self, capsys):
        # alpha_1 lies 1e-12 relative below alpha_0, inside the filters'
        # pivot tolerance: simulate ran, ted-ghz and tsd-ghz exited 2
        spec = ["--d", "3", "--p", "3", "--n", "3",
                "--alphas", "0.5,0.4999999999995,0.7071067811868"]
        for argv in (["ted-ghz", *spec], ["tsd-ghz", *spec, "--s", "1"],
                     ["simulate", "--family", "ghz", *spec, "--trials", "10"]):
            rc, _, err = run(capsys, *argv)
            assert rc == 0 and err == ""

    def test_w_partition_category(self, capsys):
        # partitions apply to GHZ only; W used to drop the flag silently
        rc, out, err = run(
            capsys, "simulate", "--family", "w", "--p", "3", "--n", "3",
            "--betas", BETAS_TOY, "--partition", "1", "--trials", "10",
        )
        self.assert_invalid_spec(rc, err)
        assert out == ""

    def test_non_finite_sweep_config_value_category(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("preset = w-contour\npu = nan\n")
        rc, out, err = run(capsys, "sweep", "--config", str(cfg))
        self.assert_invalid_spec(rc, err)
        assert out == ""

    @pytest.mark.parametrize("argv", list(PARSER_REJECTIONS.values()), ids=list(PARSER_REJECTIONS))
    def test_parser_rejection_category(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1 and out == ""

    def test_parser_rejection_from_the_shell(self):
        done = run_child("from qdistill.cli import main; raise SystemExit(main(['ted-ghz', '--d', 'abc']))")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error category=InvalidSpec: argument --d: invalid int value: 'abc'\n"

    def test_replay_of_a_replay_category(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"command": ["replay", str(manifest)]}))
        rc, _, err = run(capsys, "replay", str(manifest))
        self.assert_invalid_spec(rc, err)

    def test_sweep_row_cap_category(self, capsys):
        # 1000 party counts x 100 copy counts is exactly the cap; one more N is over
        rc, _, err = run(capsys, "sweep", "--preset", "w-contour", "--p", "3:1002", "--n", "2:102")
        assert rc == 2
        assert err == f"error category=WorkCapExceeded: w-contour grid has 101000 rows, over the cap {ROW_CAP}\n"

    def test_count_is_checked_before_the_norm(self, capsys):
        rc, out, err = run(capsys, "ted-ghz", "--d", "3", "--p", "3", "--n", "2",
                           "--alphas", "0.5,0.5")
        assert (rc, out, err) == (2, "", "error category=InvalidSpec: expected 3 alphas, got 2\n")

    def test_norm_error_names_the_input_tolerance(self, capsys):
        for alphas, norm in (("0.9,0.9", repr(math.hypot(0.9, 0.9))), ("1e154,1e154", "inf")):
            rc, out, err = run(capsys, "ted-ghz", "--d", "2", "--p", "2", "--n", "2",
                               "--alphas", alphas)
            assert (rc, out) == (2, "")
            assert err == f"error category=InvalidSpec: alphas have norm {norm}; more than 0.001 from 1\n"

    @pytest.mark.parametrize("argv", list(BIG_COMMANDS.values()), ids=list(BIG_COMMANDS))
    def test_integers_past_float_range_run_or_are_refused(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        if "--n" in argv:  # (1 - p_u)^(n-1) takes its limit
            assert (rc, err) == (0, "")
            assert "1," in out or "= 1\n" in out
        else:  # d or P itself is past the sweep's size cap
            assert (rc, out) == (2, "")
            assert err.startswith("error category=WorkCapExceeded: ") and err.count("\n") == 1

    def test_w_ratio_below_float_range_runs_silently(self):
        # b_0 - b_1 rounded to -b_1 here, and log1p(-1) warned on stderr
        done = run_child("from qdistill.cli import main; raise SystemExit(main("
                         "['ted-w', '--p', '2', '--n', '2', '--betas', '1e-200,1']))")
        assert (done.returncode, done.stderr) == (0, "")
        assert "fidelity_closed = 0.5\n" in done.stdout

    def test_huge_range_refused_before_it_is_built(self):
        # 2e9 values would take tens of GB; the child's 1 GiB limit makes a
        # build fail with MemoryError instead of exhausting the host
        done = run_child(
            "from qdistill.cli import main; "
            "raise SystemExit(main(['sweep', '--preset', 'w-contour', '--n', '2:2000000000']))"
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error category=WorkCapExceeded: ")
        assert done.stderr.count("\n") == 1


class TestCoefficientRule:
    def test_typed_coefficients_build_the_spec_they_round_to(self, capsys, monkeypatch):
        # a vector normalized up to rounding is kept bit for bit, as a spec keeps it
        seen = []
        monkeypatch.setattr(cli, "run_ted", lambda config: seen.append(config) or run_ted(config))
        rc, _, err = run(capsys, "ted-w", "--p", "3", "--n", "3",
                         "--betas", "0.5,0.5,0.7071067811865475")
        assert (rc, err) == (0, "")
        assert seen[0].spec == WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6), st.floats(-9e-4, 9e-4))
    def test_typed_coefficients_follow_the_spec_rule(self, values, error):
        # hand-typed coefficients within the input tolerance are divided by
        # their exactly rounded norm, as a spec divides its own
        norm = math.sqrt(math.fsum(v * v for v in values))
        typed = [v / norm * (1 + error) for v in values]
        args = build_parser("ted-w").parse_args(
            ["--p", str(len(typed)), "--n", "2", "--betas", ",".join(map(repr, typed))])
        spec = cli._protocol_config(args, Family.W_SINGLE_EXCITATION).spec
        typed_norm = math.sqrt(math.fsum(v * v for v in typed))
        expected = tuple(typed) if abs(typed_norm - 1) <= 4 * 2.0**-52 else tuple(
            v / typed_norm for v in typed)
        assert spec.betas == expected


class TestSweepConsistency:
    def test_single_point_sweep_equals_ted_ghz(self, capsys):
        rc, sweep_out, _ = run(
            capsys, "sweep", "--preset", "ghz-convergence",
            "--alpha0", f"{1 / math.sqrt(8)!r}", "--d", "3", "--p", "3", "--n", "2:2",
        )
        assert rc == 0
        header, row = [ln.split(",") for ln in sweep_out.strip().splitlines()]
        sweep_vals = dict(zip(header, row))
        rc, ted_out, _ = run(
            capsys, "ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
            "--alphas", ALPHAS_SQRT8,
        )
        assert rc == 0
        report = parse_report(ted_out)
        for key in ("ps_per_copy", "ps_overall", "fidelity_closed", "fidelity_numeric"):
            assert sweep_vals[key] == report[key]

    def test_uniform_w_gap_is_the_closed_forms(self, capsys):
        # coeff_gap is P - fsum(b)^2, the closed form's gap: -8.9e-16 on the
        # uniform W state at P = 6, where a left-to-right sum gives +8.9e-16
        rc, out, _ = run(capsys, "sweep", "--preset", "w-convergence", "--p", "6",
                         "--beta0", "0.4082482904638631")
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 49
        assert {row[CSV_COLUMNS.index("coeff_gap")] for row in rows} == {"-8.881784197e-16"}


class TestOutputsAndManifests:
    def test_manifest_written_and_replay_reproduces(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        argv = [
            "ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
            "--alphas", ALPHAS_SQRT8, "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        first = out.read_bytes()
        manifest_path = tmp_path / "run.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == argv
        assert manifest["outputs"] == [str(out)]
        assert manifest["tool"] == "qdistill"
        assert all(isinstance(manifest[k], str) and manifest[k]
                   for k in ("python", "numpy", "platform"))
        out.unlink()
        assert main(["replay", str(manifest_path)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_sweep_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--preset", "w-contour", "--n", "2:6", "--p", "3:6"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_determinism_and_histogram(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "simulate", "--family", "ghz", "--d", "3", "--p", "3", "--q", "1",
            "--n", "5", "--alphas", ALPHAS_SQRT8, "--trials", "2000", "--seed", "42",
        ]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        header = lines[0].split(",")
        count_col = header.index("count")
        total = sum(int(ln.split(",")[count_col]) for ln in lines[1:])
        assert total == 2000

    @pytest.mark.parametrize("value, text", [
        (1 / 3, "0.333333333333"),
        (np.float64(1 / 3), "0.333333333333"),
        (2.5e-20, "2.5e-20"),
        (1.0, "1"),
        (math.nan, "nan"),
        (True, "true"),
        (False, "false"),
        (7, "7"),
        (np.int64(-3), "-3"),
        ("ghz", "ghz"),
        ((0, 1, 1), "011"),
    ])
    def test_cell_formatting(self, value, text):
        assert cli._fmt(value) == text

    def test_tsv_format(self, capsys, tmp_path):
        out = tmp_path / "run.tsv"
        assert main([
            "ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY,
            "--out", str(out), "--format", "tsv",
        ]) == 0
        capsys.readouterr()
        assert "\t" in out.read_text().splitlines()[0]



def oracle_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return "".join(str(v) for v in value)
    return str(value)


CELLS = {
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "numpy-float": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "int": st.integers(-10**20, 10**20),
    "numpy-int": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "tuple": st.tuples(st.integers(0, 1), st.integers(0, 1)),
    "str": st.text("abcxyz_-.", max_size=6),
}
ANY_CELL = st.one_of(*CELLS.values())


@st.composite
def row_sets(draw):
    """(columns, rows): each column holds one cell type or any mix of them."""
    columns = tuple(f"c{i}" for i in range(draw(st.integers(1, 5))))
    kinds = [draw(st.sampled_from([*CELLS.values(), ANY_CELL])) for _ in columns]
    rows = draw(st.lists(st.fixed_dictionaries(dict(zip(columns, kinds))), max_size=6))
    return columns, rows


class TestRowsText:
    """The CSV writer gives the text of the cell-by-cell rule, whatever mix
    of cell types a column holds."""

    @given(row_sets(), st.sampled_from(["csv", "tsv"]), st.booleans())
    def test_rows_text_matches_the_cell_rule(self, row_set, fmt, as_generator):
        columns, rows = row_set
        sep = "\t" if fmt == "tsv" else ","
        expected = "".join(sep.join(line) + "\n" for line in [
            columns, *([oracle_cell(row[c]) for c in columns] for row in rows)])
        given_rows = (row for row in rows) if as_generator else rows
        assert cli._rows_text(given_rows, columns, fmt) == expected
        assert all(cli._fmt(row[c]) == oracle_cell(row[c]) for row in rows for c in columns)

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_zero_rows_give_the_header(self, fmt):
        sep = "\t" if fmt == "tsv" else ","
        assert cli._rows_text(iter(()), CSV_COLUMNS, fmt) == sep.join(CSV_COLUMNS) + "\n"


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "d = 3\np = 3\nq = 1\nn = 2\n"
            f"alphas = {ALPHAS_SQRT8}\n"
            "# comment line\n"
        )
        rc, out, _ = run(capsys, "ted-ghz", "--config", str(cfg))
        assert rc == 0
        assert parse_report(out)["n"] == "2"
        rc, out, _ = run(capsys, "ted-ghz", "--config", str(cfg), "--n", "5")
        assert rc == 0
        assert parse_report(out)["n"] == "5"

    @pytest.mark.parametrize("fmt", ["tsv", "xml"])
    def test_config_format_is_checked_like_the_flag(self, capsys, tmp_path, fmt):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 3\nn = 3\nbetas = {BETAS_TOY}\nformat = {fmt}\n")
        out = tmp_path / "run.out"
        rc, _, err = run(capsys, "ted-w", "--config", str(cfg), "--out", str(out))
        if fmt == "tsv":
            assert rc == 0
            assert out.read_text().splitlines()[0] == "\t".join(CSV_COLUMNS)
        else:
            TestErrorReporting.assert_invalid_spec(rc, err)
            assert not out.exists()

    def test_unknown_and_prefix_keys_are_ignored(self, capsys, tmp_path):
        # keys must name a flag exactly: 'alpha' does not set --alphas
        flags = ["--d", "3", "--p", "3", "--n", "2", "--alphas", ALPHAS_SQRT8]
        rc, expected, _ = run(capsys, "ted-ghz", *flags)
        assert rc == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 7\ntrials = x\nalpha = 0.1,0.2\nq = -1\n")
        rc, out, _ = run(capsys, "ted-ghz", "--config", str(cfg), *flags, "--q", "1")
        assert rc == 0 and out == expected
        cfg.write_text(f"d = 3\np = 3\nn = 2\nalpha = {ALPHAS_SQRT8}\n")
        rc, _, err = run(capsys, "ted-ghz", "--config", str(cfg))
        assert rc == 2
        assert err == "error category=InvalidSpec: missing required option --alphas\n"


# the flags of each subcommand as the parser must present them in --help
SPEC_FLAGS = ["p", "q", "n"]
PARTITION = ("partition", {"help": "blocks like '1,3|2'"})
COMMON_FLAGS = [
    ("config", {"help": "flat key = value config file; flags win"}),
    ("format", {"choices": ("csv", "tsv")}),
    ("out", {"help": "write CSV and a run manifest here"}),
]
SUBCOMMANDS = {
    "ted-ghz": ("GHZ entanglement distillation", ["d", *SPEC_FLAGS, "alphas", PARTITION]),
    "ted-w": ("W entanglement distillation", [*SPEC_FLAGS, "betas"]),
    "tsd-ghz": ("GHZ steering distillation", ["d", *SPEC_FLAGS, "alphas", PARTITION, "s"]),
    "sd-w": ("W steering distillation (one-sided only)", [*SPEC_FLAGS, "betas", "s"]),
    "sweep": ("grid sweep to CSV", [
        ("preset", {"choices": (
            "ghz-contour", "ghz-convergence", "ghz-dimension", "w-contour", "w-convergence",
        )}),
        "alpha0", "beta0", "pu", "gap", "d", "p", "n",
    ]),
    "simulate": ("Monte Carlo protocol run", [
        ("family", {"choices": ("ghz", "w")}),
        "d", *SPEC_FLAGS, "alphas", "betas", "partition", "trials", "seed",
    ]),
}


def reference_parser() -> tuple[argparse.ArgumentParser, dict]:
    """A plain argparse tree declaring the CLI's flags with no types or
    defaults: its --help text is what the real parser must print."""
    parser = argparse.ArgumentParser(
        prog="qdistill",
        description="Threshold distillation of GHZ/W entanglement and steering",
    )
    parser.add_argument("--version", action="version", version="")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in flags + COMMON_FLAGS:
            flag, kwargs = flag if isinstance(flag, tuple) else (flag, {})
            sub.add_argument(f"--{flag}", **kwargs)
    subs.add_parser("replay", help="re-run a recorded manifest").add_argument("manifest")
    return parser, subs.choices


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"qdistill {qdistill.__version__}\n"

    @pytest.mark.parametrize("command", [None, *SUBCOMMANDS, "replay"])
    def test_help_text_unchanged(self, capsys, command):
        parser, subs = reference_parser()
        expected = (parser if command is None else subs[command]).format_help()
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command is None else [command, "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""

    @pytest.mark.parametrize("columns", ["60", "200"])
    @pytest.mark.parametrize("command", [None, "sweep", "simulate"])
    def test_help_text_follows_the_terminal_width(self, capsys, monkeypatch, columns, command):
        # the width is read once per parser, when it is built
        monkeypatch.setenv("COLUMNS", columns)
        def reference_help():
            parser, subs = reference_parser()
            return (parser if command is None else subs[command]).format_help()
        expected = reference_help()
        with pytest.raises(SystemExit):
            main(["--help"] if command is None else [command, "--help"])
        assert capsys.readouterr().out == expected
        monkeypatch.setenv("COLUMNS", "200" if columns == "60" else "60")
        assert reference_help() != expected  # the width shows in the text

    @pytest.mark.parametrize("text, values", [
        ("2:7:2", (2, 4, 6)),
        ("10:2:-1", (10, 9, 8, 7, 6, 5, 4, 3, 2)),
        ("6:2:-2", (6, 4, 2)),
        ("6:3:-2", (6, 4)),
        ("4:4:-1", (4,)),
    ])
    def test_int_ranges_include_their_end(self, text, values):
        assert _parse_int_values(text) == values

    @pytest.mark.parametrize("text", ["2:6:0", "2:6:-1"])
    def test_zero_step_or_empty_range_refused(self, text):
        with pytest.raises(InvalidSpecError):
            _parse_int_values(text)

    def test_range_of_more_than_three_fields_refused(self, capsys):
        # ran as 2:6:2, dropping the fourth field without a word
        rc, out, err = run(capsys, "sweep", "--preset", "w-convergence", "--n", "2:6:2:99")
        TestErrorReporting.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1 and out == ""

    def test_descending_sweep_range_keeps_its_end(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--preset", "w-convergence", "--n", "6:2:-2")
        assert rc == 0
        assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["6", "4", "2"] * 3


class TestGoldenFiles:
    CASES = {
        "ted_ghz3.csv": [
            "ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
            "--alphas", ALPHAS_SQRT8,
        ],
        "ted_w3.csv": ["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY],
        "tsd_ghz3.csv": [
            "tsd-ghz", "--d", "3", "--p", "3", "--q", "1", "--s", "1", "--n", "2",
            "--alphas", ALPHAS_SQRT8,
        ],
        "sd_w3.csv": ["sd-w", "--p", "3", "--s", "1", "--n", "3", "--betas", BETAS_TOY],
        "sweep_ghz_convergence.csv": ["sweep", "--preset", "ghz-convergence", "--n", "2:6"],
        "sweep_ghz_contour.csv": ["sweep", "--preset", "ghz-contour", "--n", "2:4"],
        "sweep_ghz_dimension.csv": ["sweep", "--preset", "ghz-dimension"],
        "sweep_w_contour.csv": ["sweep", "--preset", "w-contour", "--n", "2:4", "--p", "3:6"],
        "sweep_w_convergence.csv": ["sweep", "--preset", "w-convergence", "--n", "2:6"],
        # the default grids (ghz-dimension's is sweep_ghz_dimension.csv above)
        "sweep_ghz_contour_default.csv": ["sweep", "--preset", "ghz-contour"],
        "sweep_ghz_contour_default.tsv": ["sweep", "--preset", "ghz-contour", "--format", "tsv"],
        "sweep_ghz_convergence_default.csv": ["sweep", "--preset", "ghz-convergence"],
        "sweep_w_contour_default.csv": ["sweep", "--preset", "w-contour"],
        "sweep_w_convergence_default.csv": ["sweep", "--preset", "w-convergence"],
        "simulate_ghz3.csv": [
            "simulate", "--family", "ghz", "--d", "3", "--p", "3", "--q", "1",
            "--n", "5", "--alphas", ALPHAS_SQRT8, "--trials", "2000", "--seed", "42",
        ],
        "simulate_w4.csv": [
            "simulate", "--family", "w", "--p", "4", "--n", "6", "--betas", BETAS_W4,
            "--trials", "10000", "--seed", "18446744073709551615",
        ],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_regression(self, capsys, tmp_path, name):
        out = tmp_path / name
        assert main(self.CASES[name] + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", ["ted_ghz3", "ted_w3", "tsd_ghz3", "sd_w3",
                                      "simulate_ghz3", "simulate_w4"])
    def test_stdout_golden(self, capsys, name):
        # the report lines byte for byte: keys, their order and the text
        rc, out, err = run(capsys, *self.CASES[f"{name}.csv"])
        assert (rc, err) == (0, "")
        assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


CONFIG = "<config file>"  # stands for the written config file in an argv

# (config file text or None for no file, argv): the --config command lines
# of TestConfigFile and TestErrorReporting
CONFIG_CASES = {
    "values": ("d = 3\np = 3\nq = 1\nn = 2\n"
               f"alphas = {ALPHAS_SQRT8}\n# comment line\n", ["ted-ghz", "--config", CONFIG]),
    "flag-wins": ("d = 3\np = 3\nq = 1\nn = 2\n"
                  f"alphas = {ALPHAS_SQRT8}\n", ["ted-ghz", "--config", CONFIG, "--n", "5"]),
    "format-tsv": (f"p = 3\nn = 3\nbetas = {BETAS_TOY}\nformat = tsv\n",
                   ["ted-w", "--config", CONFIG, "--out", "run.out"]),
    "format-xml": (f"p = 3\nn = 3\nbetas = {BETAS_TOY}\nformat = xml\n",
                   ["ted-w", "--config", CONFIG, "--out", "run.out"]),
    "unknown-keys": ("bogus = 7\ntrials = x\nalpha = 0.1,0.2\nq = -1\n",
                     ["ted-ghz", "--config", CONFIG, "--d", "3", "--p", "3", "--n", "2",
                      "--alphas", ALPHAS_SQRT8, "--q", "1"]),
    "missing-file": (None, ["ted-w", "--config", CONFIG]),
    "non-integer": (f"p = 3\nn = two\nbetas = {BETAS_TOY}\n", ["ted-w", "--config", CONFIG]),
    "unknown-family": (f"family = qubit\np = 3\nn = 3\nbetas = {BETAS_TOY}\n",
                       ["simulate", "--config", CONFIG, "--trials", "10"]),
    "non-finite-sweep": ("preset = w-contour\npu = nan\n", ["sweep", "--config", CONFIG]),
}


def tree_parse(argv: list[str]):
    """A command line parsed by the full tree alone, config lines in front
    of the command's flags: the reference for the per-command parser."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
    return args


class TestPerCommandParser:
    @staticmethod
    def outcome(parse, argv, capsys):
        """What ``parse`` makes of ``argv``: the namespace, with ``func``
        compared by its function and keywords, or the refusal or exit, and
        what was printed."""
        try:
            args = parse(argv)
        except InvalidSpecError as exc:
            result = ("InvalidSpec", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
        else:
            fields = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
            result = ("args", fields, getattr(args.func, "func", args.func),
                      getattr(args.func, "keywords", {}))
        printed = capsys.readouterr()
        return result, printed.out, printed.err

    def assert_same_as_tree(self, argv, capsys):
        assert self.outcome(cli._parse, argv, capsys) == self.outcome(tree_parse, argv, capsys)

    @pytest.mark.parametrize("argv", [
        *TestGoldenFiles.CASES.values(),
        *PARSER_REJECTIONS.values(),
        *([command, "--help"] for command in cli.COMMANDS),
        ["ted-ghz", "--version"],
        ["--", "ted-ghz"],
    ], ids=[*TestGoldenFiles.CASES, *PARSER_REJECTIONS,
            *(f"{command}-help" for command in cli.COMMANDS), "ted-ghz-version", "dashes"])
    def test_command_line_parses_as_the_full_tree_does(self, capsys, argv):
        self.assert_same_as_tree(argv, capsys)

    @pytest.mark.parametrize("text, argv", list(CONFIG_CASES.values()), ids=list(CONFIG_CASES))
    def test_config_command_line_parses_as_the_full_tree_does(self, capsys, tmp_path, text, argv):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        self.assert_same_as_tree([str(cfg) if tok == CONFIG else tok for tok in argv], capsys)


class TestParserCost:
    """Counts, not timings: a command declares the flags of the commands it
    runs and no other, so building the whole tree per command fails here."""

    @pytest.fixture
    def declared(self, monkeypatch):
        declared = []
        for name, (help_text, add_flags) in list(cli.COMMANDS.items()):
            def counted(sub, name=name, add_flags=add_flags):
                declared.append(name)
                add_flags(sub)
            monkeypatch.setitem(cli.COMMANDS, name, (help_text, counted))
        return declared

    @pytest.mark.parametrize("name", ["ted_ghz3.csv", "sweep_w_contour.csv"])
    def test_a_command_declares_only_its_own_flags(self, capsys, tmp_path, declared, name):
        argv = TestGoldenFiles.CASES[name]
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        assert declared == [argv[0]]

    def test_replay_declares_its_own_and_the_recorded_commands_flags(
            self, capsys, tmp_path, declared):
        out = tmp_path / "run.csv"
        assert main(TestGoldenFiles.CASES["ted_w3.csv"] + ["--out", str(out)]) == 0
        declared.clear()
        assert main(["replay", str(tmp_path / "run.manifest.json")]) == 0
        assert declared == ["replay", "ted-w"]

    def test_help_without_a_command_declares_every_command(self, capsys, declared):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert declared == list(cli.COMMANDS)
