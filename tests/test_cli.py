import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdistill
from qdistill import (Family, GhzSpec, IndexPartition, InvalidSpecError, ProtocolConfig,
                      QdistillError, SteeringConfig, WSpec, overall_success, run_stats, run_ted,
                      run_tsd, success_prob_per_copy)
from qdistill import cli
from qdistill.cli import _config_tokens, _parse_int_values, build_parser, main
from qdistill.sweep import (CSV_COLUMNS, LINE_COLUMNS, PRESETS, ROW_CAP, SIMULATE_COLUMNS,
                            SIMULATE_LINE_COLUMNS, STEERING_COLUMNS, grid_curves, grid_rows,
                            report_row)

from conftest import ghz_config, ghz_corpus, oracle_rows_text, w_config, w_corpus
from test_sweep import UNREAD_AXES, subparser

GOLDEN = Path(__file__).parent / "golden"

SQRT8 = (1 / math.sqrt(8), math.sqrt(7 / 16), math.sqrt(7 / 16))
TOY = (0.5, 0.5, 1 / math.sqrt(2))
ALPHAS_SQRT8, BETAS_TOY = ",".join(map(repr, SQRT8)), ",".join(map(repr, TOY))
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

    @pytest.mark.parametrize("argv", [
        # s = 2 leaves one characterized party for q = 2 filters
        ["tsd-ghz", "--d", "3", "--p", "3", "--q", "2", "--s", "2", "--n", "2",
         "--alphas", ALPHAS_SQRT8, "--partition", "1|1,2"],
        ["simulate", "--family", "ghz", "--d", "3", "--p", "3", "--q", "2", "--n", "2",
         "--alphas", ALPHAS_SQRT8, "--partition", "1|1,2", "--trials", "0"],
    ], ids=["tsd-ghz", "simulate"])
    def test_a_bad_partition_is_refused_before_the_run_is_set_up(self, capsys, argv):
        # the split is checked when the protocol config is built, so it is
        # the first fault reported even where the steering scenario or the
        # trial count is bad too
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error category=BadPartition: blocks [[1], [1, 2]] do not split 1..2\n"

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
        (["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY], "new/"),
    ], ids=["missing-directory", "directory", "manifest-is-directory", "trailing-separator"])
    def test_unwritable_out_category(self, capsys, tmp_path, argv, out):
        (tmp_path / "run.manifest.json").mkdir()
        # joined as text: tmp_path / "new/" would drop the separator
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path) + "/" + out)
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1
        assert not (tmp_path / "new").exists() and not (tmp_path / "new.manifest.json").exists()

    @pytest.mark.parametrize("tokens", [
        ["--out", ""], ["--out="], ["--config", ""], ["--config="], ["--config", "run.cfg"],
    ], ids=["out", "out=", "config", "config=", "config-line"])
    @pytest.mark.parametrize("argv", [
        ["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY],
        ["sweep", "--preset", "w-contour"],
    ], ids=["ted-w", "sweep"])
    def test_empty_out_or_config_category(self, capsys, tmp_path, monkeypatch, argv, tokens):
        # an empty path names no file, so it is refused as open() or read_text() refuses it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out =\n")
        rc, _, err = run(capsys, *argv, *tokens)
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

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
        # an empty float list printed a header-only CSV and exited 0
        ("ghz-contour", "--alpha0", ""),
        ("w-convergence", "--beta0", ","),
    ])
    def test_degenerate_sweep_axis_category(self, capsys, preset, flag, value):
        # refused before any row is built: no traceback and no q = 0 rows
        rc, out, err = run(capsys, "sweep", "--preset", preset, flag, value)
        self.assert_invalid_spec(rc, err)
        assert out == ""

    # a value each sweep flag accepts
    SWEEP_VALUES = {"alpha0": "0.3", "beta0": "0.5", "pu": "0.3", "gap": "0.5",
                    "d": "3", "p": "3", "n": "2"}

    @pytest.mark.parametrize("preset, flag", UNREAD_AXES)
    def test_sweep_flag_the_preset_does_not_read_category(self, capsys, preset, flag):
        # these used to be dropped without a word, printing the default grid
        value = self.SWEEP_VALUES[flag]
        rc, out, err = run(capsys, "sweep", "--preset", preset, f"--{flag}", value)
        self.assert_invalid_spec(rc, err)
        assert err.count("\n") == 1 and out == ""
        # the refusal names the flag as typed, not a field name behind it
        assert err.rstrip().endswith(f"not [{flag!r}]") and "_values" not in err

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

    @pytest.mark.parametrize("argv, size", [
        (("ted-ghz", "--d", "0", "--p", "3", "--alphas", "1"), 0),
        (("ted-ghz", "--d", "-3", "--p", "3", "--alphas", "0.6,0.8"), -3),
        (("ted-w", "--p", "0", "--betas", "1"), 0),
        (("sd-w", "--p", "1", "--s", "1", "--betas", "1"), 1),
    ])
    def test_size_floor_is_checked_before_the_count(self, capsys, argv, size):
        rc, out, err = run(capsys, *argv, "--n", "2")
        assert (rc, out) == (2, "")
        assert err == ("error category=InvalidSpec: span size (d for GHZ, P for W) "
                       f"must be >= 2, got {size}\n")

    @pytest.mark.parametrize("d, p", [(0, 0), (1, 1), (0, 5), (3, 0)])
    def test_api_and_cli_name_the_same_fault(self, capsys, d, p):
        # the spec checks its coefficients and their d floor before p, as the CLI does
        alphas = tuple(float(a) for a in ALPHAS_SQRT8.split(","))
        with pytest.raises(InvalidSpecError) as caught:
            qdistill.GhzSpec(d, p, alphas)
        rc, out, err = run(capsys, "ted-ghz", "--d", str(d), "--p", str(p), "--n", "2",
                           "--alphas", ALPHAS_SQRT8)
        assert (rc, out) == (2, "")
        assert err == f"error category=InvalidSpec: {caught.value}\n"

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
        args = subparser("ted-w").parse_args(
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


# command tokens and keys: non-ASCII, quotes, backslashes and control characters
TOKENS = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u00e9\U0001f600'),
                           st.characters()), max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), TOKENS)


def manifests():
    """Manifest-shaped dicts: leaves, lists of tokens and flat dicts, any of
    them empty."""
    values = st.one_of(LEAVES, st.lists(TOKENS, max_size=6),
                       st.dictionaries(TOKENS, LEAVES, max_size=5))
    return st.dictionaries(TOKENS, values, max_size=8)


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

    def test_longer_outputs_are_cut_to_the_new_bytes(self, capsys, tmp_path):
        # --out files are written over in place, not truncated first
        out, manifest = tmp_path / "run.csv", tmp_path / "run.manifest.json"
        for path in (out, manifest):
            path.write_text("x" * 10_000 + "\n")
        assert main(TestGoldenFiles.CASES["ted_w3.csv"] + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / "ted_w3.csv").read_bytes()
        text = manifest.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_a_symlink_at_out_stays_and_its_target_takes_the_bytes(self, capsys, tmp_path):
        target, out = tmp_path / "target.csv", tmp_path / "run.csv"
        target.write_text("x" * 10_000 + "\n")
        out.symlink_to(target)
        assert main(TestGoldenFiles.CASES["ted_w3.csv"] + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.is_symlink() and out.readlink() == target
        assert target.read_bytes() == (GOLDEN / "ted_w3.csv").read_bytes()

    def test_both_names_of_a_hard_link_read_the_new_bytes(self, capsys, tmp_path):
        out, other = tmp_path / "run.csv", tmp_path / "other.csv"
        other.write_text("x" * 10_000 + "\n")
        out.hardlink_to(other)
        assert main(TestGoldenFiles.CASES["ted_w3.csv"] + ["--out", str(out)]) == 0
        capsys.readouterr()
        expected = (GOLDEN / "ted_w3.csv").read_bytes()
        assert out.read_bytes() == other.read_bytes() == expected
        assert out.stat().st_ino == other.stat().st_ino

    @given(manifest=manifests())
    @example(manifest={"command": ["ted-w", "--betas", "0.5,\u00e9\"\\\x00\x1f\x7f\u2028"],
                       "config": {}, "outputs": [], "seed": None, "trials": 2**64, "ok": True})
    def test_manifest_text_is_the_json_layout(self, manifest):
        text = cli._json_text(manifest)
        assert text == json.dumps(manifest, indent=2, sort_keys=True)
        assert json.loads(text) == manifest  # what replay reads

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
    "str": st.text("abcxyz_-.%{,", max_size=6),  # no cell text is read as a conversion
}
ANY_CELL = st.one_of(*CELLS.values())
# the cells of a lined column by its declared type, each a key of CELL_CONVERSIONS
LINE_CELLS = {float: CELLS["float"], np.float64: CELLS["numpy-float"], int: CELLS["int"],
              str: CELLS["str"]}


@st.composite
def block_sets(draw):
    """(columns, lined, blocks): a drawn subset of the columns changes line
    by line, each mapped to a type of ``CELL_CONVERSIONS`` that all its cells
    have, and every other column holds one cell type or any mix of them; a
    block is its fixed columns' cells and up to six lines."""
    columns = tuple(f"c{i}" for i in range(draw(st.integers(1, 5))))
    lined = {column: draw(st.sampled_from(list(LINE_CELLS)))
             for column in columns if draw(st.booleans())}
    fixed = st.tuples(*(draw(st.sampled_from([*CELLS.values(), ANY_CELL]))
                        for column in columns if column not in lined))
    lines = st.lists(st.tuples(*map(LINE_CELLS.get, lined.values())), max_size=6)
    return columns, lined, draw(st.lists(st.tuples(fixed, lines), max_size=4))


def block_rows(columns, lined, blocks) -> list[dict]:
    """One dict per line of ``blocks``, its fixed cells repeated."""
    rows = []
    for fixed, lines in blocks:
        for line in lines:
            cells, fixed_cells = iter(line), iter(fixed)
            rows.append({column: next(cells if column in lined else fixed_cells)
                         for column in columns})
    return rows


class TestRowsText:
    """The CSV block writer gives the text of the cell-by-cell rule: a lined
    column's cells all of its declared type, and a fixed column's of any type
    or mix, within a block or across blocks."""

    @given(block_sets(), st.sampled_from(["csv", "tsv"]), st.booleans())
    def test_rows_text_matches_the_cell_rule(self, block_set, fmt, as_generator):
        assert LINE_CELLS.keys() == cli.CELL_CONVERSIONS.keys()  # every declarable type drawn
        columns, lined, blocks = block_set
        rows = block_rows(columns, lined, blocks)
        sep = "\t" if fmt == "tsv" else ","
        expected = "".join(sep.join(line) + "\n" for line in [
            columns, *([oracle_cell(row[c]) for c in columns] for row in rows)])
        given_blocks = (block for block in blocks) if as_generator else blocks
        assert cli._csv_text(columns, lined, given_blocks, fmt) == expected
        assert oracle_rows_text(rows, columns, fmt) == expected
        assert all(cli._fmt(row[c]) == oracle_cell(row[c]) for row in rows for c in columns)

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_zero_rows_give_the_header(self, fmt):
        sep = "\t" if fmt == "tsv" else ","
        text = cli._csv_text(CSV_COLUMNS, LINE_COLUMNS, iter(()), fmt)
        assert text == sep.join(CSV_COLUMNS) + "\n"


def float_axis(draw, low: float, high: float) -> tuple[float, ...]:
    return tuple(draw(st.lists(st.floats(low, high), min_size=1, max_size=3)))


def int_axis(draw, low: int, high: int) -> tuple[int, ...]:
    return tuple(draw(st.lists(st.integers(low, high), min_size=1, max_size=3)))


@st.composite
def sweep_runs(draw):
    """(preset, axes): a preset and some of its axes overridden with small
    drawn values that run.  Contour drivers and gaps run wide of the
    feasible region, so curves with no coefficients and ``nan`` cells are
    drawn; a convergence driver stays under 1/sqrt(size), so its spec is
    valid at every drawn size."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    driver, size = PRESETS[preset].driver, PRESETS[preset].size
    sizes = int_axis(draw, 2, 10)
    axes = {size: sizes, "n": int_axis(draw, 2, 40)}
    if preset.endswith("convergence"):
        axes[driver] = float_axis(draw, 0.02, 0.98 / math.sqrt(max(sizes)))
    else:  # --pu takes one value
        drivers = float_axis(draw, -0.2, 1.2)
        axes.update({driver: drivers[:1] if driver == "pu" else drivers},
                    gap=draw(st.floats(-1.0, 12.0)))
    if driver == "alpha0":
        axes["p"] = (draw(st.integers(2, 5)),)
    kept = set(draw(st.lists(st.sampled_from(sorted(axes)))))  # the others at default
    if preset.endswith("convergence") and size in kept:
        kept.add(driver)  # a default driver may give no spec at a drawn size
    return preset, {axis: axes[axis] for axis in sorted(kept)}


class TestSweepWriter:
    """``qdistill sweep`` writes, curve by curve, the bytes that the
    row-by-row writer gives for ``grid_rows`` of the same grid."""

    @given(sweep=sweep_runs(), fmt=st.sampled_from(["csv", "tsv"]), to_file=st.booleans())
    @example(sweep=("ghz-contour", dict(gap=-5.0, n=(3,))), fmt="csv", to_file=True)
    @example(sweep=("w-contour", dict(pu=(0.0,), p=(3, 4), n=(2,))), fmt="tsv", to_file=False)
    @example(sweep=("ghz-dimension", dict(alpha0=(-0.5, 0.3))), fmt="csv", to_file=False)
    @example(sweep=("w-convergence", dict(n=(7,))), fmt="tsv", to_file=True)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sweep_bytes_are_the_row_writers(self, capsys, tmp_path, sweep, fmt, to_file):
        preset, axes = sweep
        argv = ["sweep", "--preset", preset, "--format", fmt]
        for axis, values in axes.items():  # a float as its repr, which reads back exactly
            argv.append(f"--{axis}=" + ",".join(map(repr, values if axis != "gap" else (values,))))
        rows = grid_rows(preset, **axes)
        expected = oracle_rows_text(rows, CSV_COLUMNS, fmt)
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / f"sweep.{fmt}"
        rc, stdout, err = run(capsys, *argv, *(["--out", str(out)] if to_file else []))
        assert (rc, err) == (0, "")
        if to_file:
            assert stdout == f"wrote {len(rows)} rows to {out}\n"
            assert out.read_bytes() == expected.encode()
        else:
            assert stdout == expected


def assert_line_types(lined: dict, lines) -> None:
    """Every cell of ``lines`` has exactly the type ``lined`` declares for
    its column: the writer formats a lined column by that type alone, so
    ``%d`` would print a float ``n`` truncated, and a bool as 1."""
    kinds = tuple(lined.values())
    for line in lines:
        assert tuple(map(type, line)) == kinds, line


class TestLineTypes:
    """The package hands the writer line cells of exactly their declared
    types: sweep curves, ``simulate`` histograms and the per-N cells of a run
    row."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_default_grid_lines(self, preset):
        for curve in grid_curves(preset):
            assert_line_types(LINE_COLUMNS, curve.lines)

    @given(sweep=sweep_runs())
    @example(sweep=("ghz-contour", dict(gap=-5.0, n=(3,))))  # infeasible, nan cells
    @example(sweep=("w-contour", dict(pu=(0.0,), p=(3, 4), n=(2,))))
    @example(sweep=("ghz-dimension", dict(alpha0=(-0.5, 0.3))))
    @example(sweep=("w-convergence", dict(n=(7,))))
    @settings(max_examples=60)
    def test_drawn_grid_lines(self, sweep):
        preset, axes = sweep
        for curve in grid_curves(preset, **axes):
            assert_line_types(LINE_COLUMNS, curve.lines)

    @pytest.mark.parametrize("config", [
        ghz_config(ghz_corpus(6)[5], n=7), ghz_config(ghz_corpus(8)[7], n=40, q=2),
        w_config(w_corpus(2)[1], n=5), w_config(w_corpus(3)[2], n=30),
    ], ids=["ghz-n7", "ghz-n40-q2", "w-n5", "w-n30"])
    def test_simulate_histogram_lines(self, config):
        histogram = run_stats(config, 500, 11).kept_count_histogram
        assert_line_types(SIMULATE_LINE_COLUMNS, histogram.items())

    @pytest.mark.parametrize("config", [
        *(ghz_config(spec, n=n) for spec in ghz_corpus(6) for n in (2, 9)),
        *(w_config(spec, n=n) for spec in w_corpus(3) for n in (2, 9)),
    ])
    def test_run_row_per_n_cells(self, config):
        steering = SteeringConfig(config, 1)
        for row in report_row(config, run_ted(config)), report_row(steering, run_tsd(steering)):
            assert_line_types(LINE_COLUMNS, [tuple(map(row.get, LINE_COLUMNS))])


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
        # argparse reads the terminal width whenever it formats a help text
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
    """A command line parsed by the argparse tree alone, config lines in
    front of the command's flags: the reference for the flag-table reader."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
    return args


# a drawn flag's values: well formed for the flag of that name in some command
WELL_FORMED = {
    "d": ("3", "2,3"), "p": ("3", "3:5"), "q": ("1",), "n": ("3", "2:4"), "s": ("1",),
    "alphas": (ALPHAS_SQRT8, "0.5,0.5"), "betas": (BETAS_TOY,), "partition": ("1,3|2",),
    "preset": ("w-contour", "ghz-dimension"), "alpha0": ("0.2,0.3",), "beta0": ("0.5",),
    "pu": ("0.5",), "gap": ("0.1",), "family": ("ghz", "w"), "trials": ("10",),
    "seed": ("7",), "format": ("csv", "tsv"), "out": ("run.csv",),
}
# values at the edges of a type function or of argparse's token rules
EDGE_VALUES = ("", "-1", "-", "--", "--p", "nan", "inf", "abc", str(2**64), "1e308", "10:2",
               "2:6:2:99", "2:200001", "1,3|2")
# tokens that are not a table flag with its value
ODD_TOKENS = ("-h", "--help", "--", "--al", "--bogus", "run.manifest.json", "x")


@st.composite
def command_lines(draw):
    """(argv, config text or None): a command and well-formed flags drawn
    from its table, as ``--f v`` or ``--f=v`` and repeats, with up to two
    faults put among them: a flag with an edge value (a near miss of its
    choices for a flag with choices), a flag without its value, or an odd
    token.  With a config, ``--config`` (CONFIG) is put first or last."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = [flag for flag in cli.COMMANDS[command].flags if flag.name != "config"]

    def pair(flag, values):
        text = draw(st.sampled_from(values))
        return [f"--{flag.name}={text}"] if draw(st.booleans()) else [f"--{flag.name}", text]

    drawn = draw(st.lists(st.sampled_from(flags), max_size=6)) if flags else []
    groups = [pair(flag, WELL_FORMED.get(flag.name, ("7",))) for flag in drawn]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.integers(0, 2)) if flags else 2
        if fault < 2:
            flag = draw(st.sampled_from(flags))
            edges = (*(c.upper() for c in flag.choices), "") if flag.choices else EDGE_VALUES
            group = pair(flag, edges) if fault == 0 else [f"--{flag.name}"]
        else:
            group = [draw(st.sampled_from(ODD_TOKENS))]
        groups.insert(draw(st.integers(0, len(groups))), group)
    argv = [command, *(tok for group in groups for tok in group)]
    if not flags or draw(st.integers(0, 2)):
        return argv, None
    keys = draw(st.lists(st.sampled_from([flag.name for flag in flags] + ["bogus"]), max_size=5))
    lines = [f"{key} = {draw(st.sampled_from(WELL_FORMED.get(key, EDGE_VALUES)))}" for key in keys]
    if draw(st.integers(0, 7)) == 0:
        lines.append("a line without an equals sign")
    at = draw(st.sampled_from([1, len(argv)]))
    return argv[:at] + ["--config", CONFIG] + argv[at:], "\n".join(lines) + "\n"


class TestPerCommandParser:
    """``cli._parse`` reads a command line as the argparse tree does: a line
    the flag table reads (``cli._read``) gives the tree's namespace, and any
    other line goes to the tree itself, so its help, exit or refusal is the
    tree's."""

    @staticmethod
    def outcome(parse, argv, capsys):
        """What ``parse`` makes of ``argv``: the namespace, with ``func``
        compared by its function and keywords, or the refusal or exit, and
        what was printed."""
        try:
            args = parse(argv)
        except QdistillError as exc:
            result = (exc.category, str(exc))
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

    GHZ_LINE = ["ted-ghz", "--d", "3", "--p", "3", "--n", "2", "--alphas", ALPHAS_SQRT8]

    @given(line=command_lines())
    @example(line=([*GHZ_LINE, "--q", "-1"], None))
    @example(line=([*GHZ_LINE, "--q=-1"], None))
    @example(line=(["ted-ghz", "--al", ALPHAS_SQRT8, "--d", "3", "--p", "3"], None))
    @example(line=(["ted-w", "--p", "3", "--", "--n", "3"], None))
    @example(line=(["sweep", "--preset", "w-contour", "-h"], None))
    @example(line=(["sweep", "--preset", "w-contour", "--help"], None))
    @example(line=(["ted-w", "--p", "3", "--betas", ""], None))
    @example(line=(["ted-w", "--p", "3", "--betas="], None))
    @example(line=(["sweep", "--preset", "w-contour", "--gap", "nan"], None))
    @example(line=(["sweep", "--preset", "w-contour", "--pu=inf"], None))
    @example(line=(["simulate", "--seed", str(2**64)], None))
    @example(line=(["sweep", "--preset", "w-contour", "--gap", "1e308"], None))
    @example(line=(["ted-ghz", "--d", "1e308"], None))
    @example(line=(["ted-ghz", "--d", "abc"], None))
    @example(line=(["sweep", "--preset", "w-contour", "--gap", "abc"], None))
    @example(line=(["ted-w", "--p", "3", "--format", "CSV"], None))
    @example(line=(["ted-w", "--n", "3", "--out", "--p=3"], None))
    @example(line=(["sweep", "--preset", "ghz-convergence", "--n", "10:2"], None))
    @example(line=(["sweep", "--preset", "w-convergence", "--n", "2:6:2:99"], None))
    @example(line=(["ted-w", "--p"], None))
    @example(line=(["replay"], None))
    @example(line=(["replay", "a.json", "b.json"], None))
    @example(line=(["replay", "a.json"], None))
    @example(line=(["ted-w", "--config", CONFIG], "p = 3\nn = 3\nseed = -1\nq = -1\n"))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])
    def test_drawn_command_line_parses_as_the_full_tree_does(self, capsys, tmp_path, line):
        argv, text = line
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        self.assert_same_as_tree([str(cfg) if tok == CONFIG else tok for tok in argv], capsys)


# the categories README says the CLI prints
CLI_CATEGORIES = ("InvalidSpec", "PivotNotMinimal", "PivotNotMaximal", "WorkCapExceeded",
                  "BadPartition", "InvalidSteeringScenario", "NotPositiveSemidefinite")
ERROR_LINE = re.compile(rf"error category=(?:{'|'.join(CLI_CATEGORIES)}): [^\n]*\n")


class TestMainOnAnyLine:
    @staticmethod
    def outcome(argv, capsys):
        """``main``'s exit code, stdout and stderr for ``argv``, and the bytes
        of every file in the working directory but run manifests, which
        record the time."""
        try:
            rc = main(argv)
        except SystemExit as exc:  # help
            rc = exc.code
        printed = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(Path().iterdir())
                 if path.is_file() and not path.name.endswith(".manifest.json")}
        return rc, printed.out, printed.err, files

    @staticmethod
    def non_finite(text: str, command: str) -> list[str]:
        """The cells of ``text`` that read as a float but not a finite one; a
        sweep prints ``nan`` for a fidelity its infeasible rows do not have."""
        text = re.sub(r"^(wrote \d+ rows to ).*$", r"\1", text, flags=re.M)  # a path, not a cell
        cells = []
        for cell in re.split(r"[\s,=]+", text):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value) and not (command == "sweep" and cell == "nan"):
                cells.append(cell)
        return cells

    W_LINE = ["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY]

    @given(line=command_lines())
    @example(line=(["ted-ghz", "--d", "0", "--p", "0", "--n", "2", "--alphas", "1"], None))
    @example(line=(["ted-w", "--p", "3", "--n", "-1", "--betas", BETAS_TOY], None))
    @example(line=(["ted-w", "--p", "3", "--n", "1e308", "--betas", BETAS_TOY], None))
    @example(line=(["ted-w", "--p", "3", "--n", str(2**64), "--betas", BETAS_TOY], None))
    @example(line=(["simulate", "--family", "w", "--p", "3", "--n", "3", "--betas", BETAS_TOY,
                    "--trials", "10", "--seed", str(2**64)], None))
    @example(line=(["simulate", "--family", "ghz", "--d", "3", "--p", "3", "--n", "3",
                    "--alphas", ALPHAS_SQRT8, "--trials", "10", "--out", "run.csv"], None))
    @example(line=(["sweep", "--preset", "w-contour", "--pu", "nan"], None))
    @example(line=(["sweep", "--preset", "ghz-contour", "--alpha0", "inf"], None))
    @example(line=(["sweep", "--preset", "ghz-contour", "--alpha0", ""], None))
    @example(line=(["sweep", "--preset", "ghz-contour", "--n", "2:4"], None))
    @example(line=(["sweep", "--preset", "ghz-contour", "--n", "2:4", "--out", "inf"], None))
    @example(line=(["sweep", "--preset", "ghz-convergence", "--n", "10:2"], None))
    @example(line=(["sweep", "--preset", "w-convergence", "--n", "2:6:2:99"], None))
    @example(line=(["ted-ghz", "--d", "abc"], None))
    @example(line=(["tsd-ghz", "--d", "3", "--p", "3", "--s", "0", "--n", "2",
                    "--alphas", ALPHAS_SQRT8], None))
    @example(line=([*W_LINE, "--out", "nosuchdir/run.csv"], None))
    @example(line=([*W_LINE, "--out", ""], None))
    @example(line=([*W_LINE, "--out="], None))
    @example(line=(["sweep", "--preset", "w-contour", "-h"], None))
    @example(line=(["replay", "run.manifest.json"], None))
    @example(line=(["ted-w", "--config", CONFIG], f"p = 3\nn = 3\nbetas = {BETAS_TOY}\n"))
    @example(line=(["ted-w", "--config", CONFIG], "out =\n"))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])
    def test_drawn_command_line_exits_typed_and_repeats(self, capsys, tmp_path, monkeypatch,
                                                        line):
        # each line in a directory of its own, holding a manifest to replay
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        Path("run.manifest.json").write_text(json.dumps({"command": self.W_LINE}))
        argv, text = line
        if text is not None:
            Path("run.cfg").write_text(text)
        argv = ["run.cfg" if tok == CONFIG else tok for tok in argv]
        rc, out, err, files = first = self.outcome(argv, capsys)
        assert rc in (0, 2)
        if rc == 2:
            assert ERROR_LINE.fullmatch(err)
            return
        assert err == ""
        assert self.non_finite(out, argv[0]) == []
        for name, data in files.items():
            if name != "run.cfg":
                assert self.non_finite(data.decode(), argv[0]) == []
        assert self.outcome(argv, capsys) == first


GHZ_COMMANDS = ("ted-ghz", "tsd-ghz")


def coefficients(draw, size: int) -> tuple[float, ...]:
    """``size`` positive coefficients of unit norm in ascending order, so
    alpha_0 is a GHZ spec's minimum and beta_{P-1} a W spec's maximum."""
    values = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
    return tuple(sorted((values / np.linalg.norm(values)).tolist()))


@st.composite
def run_lines(draw):
    """(command, flags): a run command or ``simulate`` with a valid value for
    each flag it needs and for some of its optional ones, in a drawn order.
    Coefficients are a tuple of floats, a partition a tuple of index blocks
    (some possibly empty), every other value as typed."""
    command = draw(st.sampled_from(["ted-ghz", "ted-w", "tsd-ghz", "sd-w", "simulate"]))
    ghz = command in GHZ_COMMANDS or (command == "simulate" and draw(st.booleans()))
    flags = {"family": "ghz" if ghz else "w"} if command == "simulate" else {}
    p = draw(st.integers(2, 4 if ghz else 6))
    flags.update(p=p, n=draw(st.integers(2, 12 if command == "simulate" else 60)))
    s = draw(st.integers(1, p - 1)) if command == "tsd-ghz" else int(command == "sd-w")  # W: s = 1
    if ghz:
        d = draw(st.integers(2, 5))
        q = draw(st.integers(1, p - max(s, 1)))  # the filters fit on the characterized parties
        flags.update(d=d, alphas=coefficients(draw, d))
        if q > 1 or draw(st.booleans()):
            flags["q"] = q
        if draw(st.booleans()):
            labels = draw(st.lists(st.integers(0, q - 1), min_size=d - 1, max_size=d - 1))
            flags["partition"] = tuple(tuple(i for i, label in enumerate(labels, 1) if label == b)
                                       for b in range(q))
    else:
        flags["betas"] = coefficients(draw, p)
        if draw(st.booleans()):
            flags["q"] = p - 1
    if s:
        flags["s"] = s
    if command == "simulate":
        flags["trials"] = draw(st.integers(1, 300))
        if draw(st.booleans()):
            flags["seed"] = draw(st.integers(0, 2**64 - 1))
    if fmt := draw(st.sampled_from(["csv", "tsv", None])):
        flags["format"] = fmt
    return command, {name: flags[name] for name in draw(st.permutations(list(flags)))}


def flag_text(name: str, value) -> str:
    """A flag's value as typed: coefficients as their reprs, which read back
    exactly, and a partition as ``1,3|2``."""
    if name in ("alphas", "betas"):
        return ",".join(map(repr, value))
    if name == "partition":
        return "|".join(",".join(map(str, block)) for block in value)
    return str(value)


class TestMainOnRunLines:
    """A complete, valid line of a run command or ``simulate`` exits 0 with
    nothing on stderr, prints the cells of the package's own row and writes
    the row-by-row writer's text of the same rows."""

    @staticmethod
    def expected(command: str, flags: dict) -> tuple[tuple[str, ...], list[dict], dict]:
        """The line's CSV schema and rows, built through the package API, and
        the cells its report prints."""
        n, p = flags["n"], flags["p"]
        if command in GHZ_COMMANDS or flags.get("family") == "ghz":
            blocks = flags.get("partition")
            config = ProtocolConfig(n, Family.GHZ_DIAGONAL, GhzSpec(flags["d"], p, flags["alphas"]),
                                    flags.get("q", 1),
                                    blocks and IndexPartition(tuple(map(frozenset, blocks))))
        else:
            config = ProtocolConfig(n, Family.W_SINGLE_EXCITATION, WSpec(p, flags["betas"]),
                                    flags.get("q", p - 1))
        if "s" in flags:
            config = SteeringConfig(config, flags["s"])
            row = report_row(config, run_tsd(config))
            return STEERING_COLUMNS, [row], row
        if command != "simulate":
            row = report_row(config, run_ted(config))
            return CSV_COLUMNS, [row], row
        trials, seed, pu = flags["trials"], flags.get("seed", 0), success_prob_per_copy(config)
        stats = run_stats(config, trials, seed)
        run = {"family": flags["family"], "n": n, "trials": trials, "seed": seed, "ps_per_copy": pu,
               "ps_overall_expected": overall_success(pu, n), "success_rate": stats.success_rate}
        histogram = stats.kept_count_histogram
        rows = [{**run, "d": flags.get("d", 2), "p": p, "q": config.q, "kept_count": kept,
                 "count": count} for kept, count in histogram.items()]
        return SIMULATE_COLUMNS, rows, {
            **run, "kept_count_histogram": " ".join(f"{k}:{v}" for k, v in histogram.items())}

    @given(line=run_lines(), to_file=st.booleans())
    @example(line=("ted-ghz", {"d": 3, "p": 3, "n": 2, "alphas": SQRT8}), to_file=True)
    @example(line=("ted-ghz", {"partition": ((1, 3), (2,)), "d": 4, "p": 3, "q": 2, "n": 5,
                               "alphas": (0.4, 0.5, 0.5, math.sqrt(0.34)), "format": "tsv"}),
             to_file=True)
    @example(line=("ted-w", {"p": 3, "n": 3, "betas": TOY}), to_file=False)
    @example(line=("tsd-ghz", {"d": 3, "p": 3, "q": 1, "s": 1, "n": 2, "alphas": SQRT8,
                               "format": "tsv"}), to_file=True)
    @example(line=("sd-w", {"p": 3, "s": 1, "n": 3, "betas": TOY}), to_file=True)
    @example(line=("simulate", {"family": "ghz", "d": 3, "p": 3, "q": 1, "n": 5, "alphas": SQRT8,
                                "trials": 200, "seed": 42}), to_file=True)
    @example(line=("simulate", {"family": "w", "p": 4, "n": 6, "format": "tsv",
                                "betas": (0.45, 0.5, 0.5, math.sqrt(0.2975)), "trials": 300,
                                "seed": 2**64 - 1}), to_file=True)
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_line_prints_and_writes_the_package_rows(self, capsys, tmp_path, line, to_file):
        command, flags = line
        argv = [command, *(tok for name, value in flags.items()
                           for tok in (f"--{name}", flag_text(name, value)))]
        fmt = flags.get("format", "csv")
        columns, rows, report = self.expected(command, flags)
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / f"run.{fmt}"
        rc, stdout, err = run(capsys, *argv, *(["--out", str(out)] if to_file else []))
        assert (rc, err) == (0, "")
        assert stdout == "".join(f"{key} = {oracle_cell(value)}\n" for key, value in report.items())
        if to_file:
            text = out.read_text()
            assert text == oracle_rows_text(rows, columns, fmt)
            header, first = (line.split("\t" if fmt == "tsv" else ",")
                             for line in text.splitlines()[:2])
            printed = parse_report(stdout)
            assert all(printed[key] == cell for key, cell in zip(header, first) if key in printed)


class TestParserCost:
    """Counts, not timings: a well-formed command line builds no parser, and
    help, a refusal or a line the flag table does not read builds the tree
    once, so building a parser for a well-formed line, or keeping one across
    lines, fails here."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        return built

    @pytest.mark.parametrize("name", ["ted_ghz3.csv", "sweep_w_contour.csv"])
    def test_a_well_formed_command_builds_no_parser(self, capsys, tmp_path, built, name):
        argv = TestGoldenFiles.CASES[name]
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        assert built == []

    def test_a_well_formed_config_line_builds_no_parser(self, capsys, tmp_path, built):
        cfg = tmp_path / "run.cfg"
        text, argv = CONFIG_CASES["flag-wins"]
        cfg.write_text(text)
        assert main([str(cfg) if tok == CONFIG else tok for tok in argv]) == 0
        assert built == []

    def test_replay_of_a_well_formed_command_builds_no_parser(self, capsys, tmp_path, built):
        out = tmp_path / "run.csv"
        assert main(TestGoldenFiles.CASES["ted_w3.csv"] + ["--out", str(out)]) == 0
        assert main(["replay", str(tmp_path / "run.manifest.json")]) == 0
        assert built == []

    @pytest.mark.parametrize("argv", [
        *([command, "--help"] for command in cli.COMMANDS),
        PARSER_REJECTIONS["bad-int"],
        PARSER_REJECTIONS["unknown-flag"],
        PARSER_REJECTIONS["bad-choice"],
        ["replay"],
    ], ids=[*(f"{command}-help" for command in cli.COMMANDS),
            "bad-int", "unknown-flag", "bad-choice", "replay-no-manifest"])
    def test_help_or_a_refusal_builds_its_own_commands_parser(self, capsys, built, argv):
        # its command's parser is its node of the tree, built whole once
        with pytest.raises((SystemExit, InvalidSpecError)):
            cli._parse(argv)
        assert len(built) == 1

    def test_an_abbreviated_line_that_runs_builds_the_tree_once(self, capsys, built):
        # argparse reads --al as --alphas; the flag table does not
        assert main(["ted-ghz", "--d", "3", "--p", "3", "--n", "2", "--al", ALPHAS_SQRT8]) == 0
        assert len(built) == 1

    def test_help_without_a_command_declares_every_command(self, capsys, built):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert len(built) == 1
