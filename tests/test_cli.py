import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdistill
from qdistill import InvalidSpecError
from qdistill.cli import _parse_int_values, main
from qdistill.sweep import CSV_COLUMNS, ROW_CAP

GOLDEN = Path(__file__).parent / "golden"

ALPHAS_SQRT8 = f"{1 / math.sqrt(8)!r},{math.sqrt(7 / 16)!r},{math.sqrt(7 / 16)!r}"
BETAS_TOY = f"0.5,0.5,{1 / math.sqrt(2)!r}"
BETAS_W4 = f"0.45,0.5,0.5,{math.sqrt(0.2975)!r}"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under a 1 GiB address-space limit,
    so a runaway allocation fails there instead of exhausting the host."""
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
    env = {
        **os.environ, "PYTHONPATH": str(Path(qdistill.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    }
    return subprocess.run([sys.executable, "-c", limit + code], capture_output=True,
                          text=True, env=env, timeout=120)


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
    ])
    def test_degenerate_sweep_axis_category(self, capsys, preset, flag, value):
        # refused before any row is built: no traceback and no q = 0 rows
        rc, out, err = run(capsys, "sweep", "--preset", preset, flag, value)
        self.assert_invalid_spec(rc, err)
        assert out == ""

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

    @pytest.mark.parametrize("argv", [
        ["ted-ghz", "--d", "abc"],
        ["ted-ghz", "--bogus", "1"],
        ["ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY, "--format", "xml"],
        ["frobnicate"],
        [],
    ], ids=["bad-int", "unknown-flag", "bad-choice", "unknown-command", "empty"])
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

    def test_tsv_format(self, capsys, tmp_path):
        out = tmp_path / "run.tsv"
        assert main([
            "ted-w", "--p", "3", "--n", "3", "--betas", BETAS_TOY,
            "--out", str(out), "--format", "tsv",
        ]) == 0
        capsys.readouterr()
        assert "\t" in out.read_text().splitlines()[0]


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
