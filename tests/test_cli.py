import json
import math
from pathlib import Path

import pytest

from qdistill.cli import main

GOLDEN = Path(__file__).parent / "golden"

ALPHAS_SQRT8 = f"{1 / math.sqrt(8)!r},{math.sqrt(7 / 16)!r},{math.sqrt(7 / 16)!r}"
BETAS_TOY = f"0.5,0.5,{1 / math.sqrt(2)!r}"
BETAS_W4 = f"0.45,0.5,0.5,{math.sqrt(0.2975)!r}"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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

    def test_dense_cap_category(self, capsys, monkeypatch):
        monkeypatch.delenv("QDISTILL_DENSE_CAP", raising=False)
        a = f"{1 / math.sqrt(4)!r}"
        rc, _, err = run(
            capsys, "tsd-ghz", "--d", "4", "--p", "7", "--q", "1", "--s", "1",
            "--n", "2", "--alphas", ",".join([a] * 4),
        )
        assert rc == 2
        assert "category=DenseCapExceeded" in err

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

    def test_non_finite_sweep_config_value_category(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("preset = w-contour\npu = nan\n")
        rc, out, err = run(capsys, "sweep", "--config", str(cfg))
        self.assert_invalid_spec(rc, err)
        assert out == ""

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
