"""The four benchmark workloads: seeded inputs, the ops that run them, and
the output check of every op.

Every workload is a closed loop with one caller: the runner calls one op,
waits for it to return, checks its output, then calls the next.  Ops reach
the program only through ``qdistill``'s public names, looked up at call
time, so the tracer's wrappers see every call.

Inputs come only from the workload seed.  Pass ``i`` draws its inputs from
the stream ``(seed, 1, i)`` and the warm-up op from ``(seed, 0)``, so a
pass is the same on every run with the same seed, and distinct passes use
distinct states (nothing is served from a previous pass's caches).
"""

from __future__ import annotations

import io
import math
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

import qdistill
import qdistill.cli
from qdistill import Family, GhzSpec, ProtocolConfig, SteeringConfig, WSpec

TED_CHECK_TOL = 1e-12
TSD_CHECK_TOL = 1e-9
MC_CHECK_SIGMAS = 5.0


@dataclass(frozen=True)
class Op:
    """One timed call.  ``work`` is what it contributes to the workload's
    throughput (runs, trials or commands); ``check`` returns an error
    message, or None when the output is correct."""

    kind: str
    work: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None  # runs untimed before ``call``


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def ghz_spec(rng: np.random.Generator, d: int, p: int) -> GhzSpec:
    """Fresh GHZ spec with alpha_0 minimal; d * alpha_0^2 lies in [0.1, 0.4],
    so Monte Carlo success rates stay away from 0 and 1."""
    a0 = math.sqrt(rng.uniform(0.1, 0.4) / d)
    tail = rng.uniform(1.0, 1.5, d - 1)
    tail *= math.sqrt(1.0 - a0 * a0) / np.linalg.norm(tail)
    return GhzSpec(d, p, (a0, *tail.tolist()))


def w_spec(rng: np.random.Generator, p: int, lo: float, hi: float) -> WSpec:
    """Fresh W spec with beta_{p-1} maximal: the other coefficients are
    drawn as ratios to it in [lo, hi]."""
    r = np.append(rng.uniform(lo, hi, p - 1), 1.0)
    return WSpec(p, tuple((r / np.linalg.norm(r)).tolist()))


def bad_ghz_spec(p: int = 3) -> GhzSpec:
    """alpha_0 is not minimal, so the filter construction raises
    PivotNotMinimalError."""
    return GhzSpec(3, p, (0.7, 0.5, math.sqrt(1.0 - 0.74)))


def ghz_config(spec: GhzSpec, n: int, q: int = 1) -> ProtocolConfig:
    return ProtocolConfig(n, Family.GHZ_DIAGONAL, spec, q)


def w_config(spec: WSpec, n: int) -> ProtocolConfig:
    return ProtocolConfig(n, Family.W_SINGLE_EXCITATION, spec, spec.p - 1)


def per_copy_success(spec) -> float:
    """d alpha_0^2 for GHZ, P prod(beta^2) / beta_{P-1}^(2(P-1)) for W,
    computed here rather than by the package."""
    if isinstance(spec, GhzSpec):
        return spec.d * spec.alphas[0] ** 2
    prod = math.prod(b * b for b in spec.betas)
    return spec.p * prod / spec.betas[-1] ** (2 * (spec.p - 1))


class Workload:
    """``pass_ops(i)`` gives the ops of pass ``i``; ``warmup_op`` is the
    untimed op of set-up; ``bad_op`` is an op whose input the package must
    reject, for the self-test."""

    name = ""
    # names under which the end-to-end rate and latency are printed
    rate_name = ""
    latency_name = ""
    latency_scale = 1e3  # seconds -> printed latency unit
    latency_unit = "ms"
    # passes per round in a traced run; sized so a round takes about a second
    trace_passes = 1

    def __init__(self, seed: int, quick: bool, root: Path, counts: dict) -> None:
        self.seed = seed
        self.quick = quick
        self.root = root
        self.counts = counts

    def pass_ops(self, index: int) -> Iterable[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def bad_op(self) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- ted-sweep


class TedSweep(Workload):
    """100 random GHZ specs at d = P = 50, Q = 1, crossed with N = 2..101:
    10^4 compact run_ted calls per pass.  The package's caches key on the
    spec, not N, so 99% of calls hit them."""

    name = "ted-sweep"
    rate_name = "ted_runs_per_s"
    latency_name = "ted_run_p50_us"
    latency_scale = 1e6
    latency_unit = "us"

    def _sizes(self) -> tuple[int, int, range]:
        if self.quick:
            return 50, 4, range(2, 7)
        return 50, 100, range(2, 102)

    def _op(self, spec: GhzSpec, n: int) -> Op:
        config = ghz_config(spec, n)
        d, alphas = spec.d, spec.alphas
        pu = d * alphas[0] ** 2
        gap = d - sum(alphas) ** 2

        def check(report) -> str | None:
            fid = 1.0 - (1.0 / d) * (1.0 - pu) ** (n - 1) * gap
            if abs(report.p_success_per_copy - pu) > TED_CHECK_TOL:
                return f"p_success_per_copy {report.p_success_per_copy!r} != {pu!r}"
            if abs(report.fidelity_closed_form - fid) > TED_CHECK_TOL:
                return f"fidelity_closed_form {report.fidelity_closed_form!r} != {fid!r}"
            return None

        return Op("run_ted", 1, lambda: qdistill.run_ted(config), check)

    def pass_ops(self, index: int) -> Iterable[Op]:
        d, count, ns = self._sizes()
        rng = _rng(self.seed, 1, index)
        specs = [ghz_spec(rng, d, d) for _ in range(count)]
        # built one at a time, so 10^4 ops need not be held in memory at once
        return (self._op(spec, n) for spec in specs for n in ns)

    def warmup_op(self) -> Op:
        d, _, _ = self._sizes()
        return self._op(ghz_spec(_rng(self.seed, 0), d, d), 2)

    def bad_op(self) -> Op:
        return self._op(bad_ghz_spec(), 2)


# ---------------------------------------------------------------------- mc


class MonteCarlo(Workload):
    """run_stats jobs on freshly drawn specs, so every cache misses.  The
    first three jobs are dominated by per-trial set-up and sampling; the W
    P=12 job makes the 2^Q outcome enumeration visible."""

    name = "mc"
    rate_name = "mc_trials_per_s"

    # (label, family, d, p, q, n, trials)
    JOBS = (
        ("ghz-d3p3q1n5", "ghz", 3, 3, 1, 5, 10_000),
        ("ghz-d2p4q2n4", "ghz", 2, 4, 2, 4, 10_000),
        ("w-p4n6", "w", 2, 4, 3, 6, 10_000),
        ("w-p12n3", "w", 2, 12, 11, 3, 2_000),
    )

    def _op(self, label, config: ProtocolConfig, trials: int, seed: int) -> Op:
        ps = 1.0 - (1.0 - per_copy_success(config.spec)) ** (config.n_copies - 1)
        tol = MC_CHECK_SIGMAS * math.sqrt(ps * (1.0 - ps) / trials)

        def check(stats) -> str | None:
            total = sum(stats.kept_count_histogram.values())
            if total != trials:
                return f"histogram sums to {total}, expected {trials}"
            if abs(stats.success_rate - ps) > tol:
                return f"success rate {stats.success_rate!r} not within 5 sigma of {ps!r}"
            return None

        return Op(label, trials, lambda: qdistill.run_stats(config, trials, seed), check)

    def _job(self, rng, label, family, d, p, q, n, trials) -> Op:
        if self.quick:
            trials = max(trials // 50, 40)
        if family == "ghz":
            config = ghz_config(ghz_spec(rng, d, p), n, q)
        else:
            # ratio ranges keep the per-copy success away from 0 and 1
            lo, hi = (0.5, 0.85) if p < 8 else (0.75, 0.95)
            config = w_config(w_spec(rng, p, lo, hi), n)
        return self._op(label, config, trials, int(rng.integers(2**31)))

    def pass_ops(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 1, index)
        return [self._job(rng, *job) for job in self.JOBS]

    def warmup_op(self) -> Op:
        rng = _rng(self.seed, 0)
        label, family, d, p, q, n, _ = self.JOBS[0]
        return self._job(rng, label, family, d, p, q, n, 200)

    def bad_op(self) -> Op:
        return self._op("bad", ghz_config(bad_ghz_spec(), 3), 100, 0)


# ------------------------------------------------------------------- steer


class Steer(Workload):
    """The dense steering pipeline on fresh specs: build, filter, mix and
    score assemblages whose members live on d^(P-S)-dimensional spaces."""

    name = "steer"
    rate_name = "tsd_runs_per_s"
    trace_passes = 2

    # (label, family, d, p, s, n)
    CASES = (
        ("ghz-d3p4s2", "ghz", 3, 4, 2, 4),
        ("ghz-d5p4s2", "ghz", 5, 4, 2, 4),
        ("ghz-d7p4s2", "ghz", 7, 4, 2, 4),
        ("ghz-d3p6s3", "ghz", 3, 6, 3, 4),
        ("ghz-d2p8s3", "ghz", 2, 8, 3, 4),
        ("w-p8s1", "w", 2, 8, 1, 3),
    )

    def _op(self, label: str, steering: SteeringConfig) -> Op:
        def check(report) -> str | None:
            dev = abs(report.fidelity_assemblage - report.fidelity_closed_form)
            if dev > TSD_CHECK_TOL:
                return f"assemblage and closed-form fidelities differ by {dev:.3e}"
            return None

        return Op(label, 1, lambda: qdistill.run_tsd(steering), check)

    def _case(self, rng, label, family, d, p, s, n) -> Op:
        if family == "ghz":
            base = ghz_config(ghz_spec(rng, d, p), n)
        else:
            base = w_config(w_spec(rng, p, 0.5, 0.9), n)
        return self._op(label, SteeringConfig(base, s))

    def pass_ops(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 1, index)
        return [self._case(rng, *case) for case in self.CASES]

    def warmup_op(self) -> Op:
        return self._case(_rng(self.seed, 0), *self.CASES[0])

    def bad_op(self) -> Op:
        return self._op("bad", SteeringConfig(ghz_config(bad_ghz_spec(4), 4), 2))


# --------------------------------------------------------------------- cli


ALPHAS_SQRT8 = f"{1 / math.sqrt(8)!r},{math.sqrt(7 / 16)!r},{math.sqrt(7 / 16)!r}"
BETAS_TOY = f"0.5,0.5,{1 / math.sqrt(2)!r}"

GOLDEN_COMMANDS = {
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
}

SWEEP_PRESETS = (
    "ghz-contour", "ghz-convergence", "ghz-dimension", "w-contour", "w-convergence",
)

SIMULATE_TRIALS = 500


def clear_package_caches() -> None:
    """Empty every lru_cache in the package, as a fresh process would have
    them.  Looks through the tracer's wrappers to the caches they wrap."""
    for name, module in list(sys.modules.items()):
        if name == "qdistill" or name.startswith("qdistill."):
            for value in list(vars(module).values()):
                if not hasattr(value, "cache_clear"):
                    value = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Cli(Workload):
    """What users type, run in-process through qdistill.cli.main: the five
    golden commands, the five sweep presets, and a simulate followed by a
    replay of its manifest.  The package caches are emptied before every
    command, since each command a user types is a fresh process."""

    name = "cli"
    rate_name = "cli_cmds_per_s"
    latency_name = "cli_cmd_p50_ms"
    trace_passes = 8

    def __init__(self, seed: int, quick: bool, root: Path, counts: dict) -> None:
        super().__init__(seed, quick, root, counts)
        self.golden_dir = root / "tests" / "golden"
        for name in GOLDEN_COMMANDS:
            if not (self.golden_dir / name).is_file():
                raise FileNotFoundError(f"golden file {self.golden_dir / name} is missing")
        # relative to the checkout root, so outputs do not depend on its location
        self.work = Path(".bench_out") / "cli-work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _command(self, kind: str, argv: list[str], out: Path,
                 check_file: Callable[[bytes], str | None]) -> Op:
        """``argv`` writes its CSV to ``out``; the op checks those bytes."""

        def prepare() -> None:
            clear_package_caches()
            out.unlink(missing_ok=True)  # a stale file must not pass for output

        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    rc = qdistill.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code
            return rc, stdout.getvalue(), stderr.getvalue()

        def check(result) -> str | None:
            rc, stdout, stderr = result
            written = out.read_bytes() if out.is_file() else b""
            self.counts["cli.bytes_written"] += (
                len(stdout.encode()) + len(stderr.encode()) + len(written)
            )
            if rc != 0:
                return f"exit code {rc}: {stderr.strip()}"
            if not written:
                return f"no CSV written to {out}"
            return check_file(written)

        return Op(kind, 1, call, check, prepare)

    def _golden(self, name: str) -> Op:
        expected = (self.golden_dir / name).read_bytes()

        def check_file(data: bytes) -> str | None:
            return None if data == expected else f"{name} differs from tests/golden"

        out = self.work / name
        argv = GOLDEN_COMMANDS[name] + ["--out", str(out)]
        return self._command(name, argv, out, check_file)

    def _sweep(self, preset: str) -> Op:
        def check_file(data: bytes) -> str | None:
            return None if data.count(b"\n") > 1 else f"sweep {preset} wrote no rows"

        out = self.work / f"{preset}.csv"
        argv = ["sweep", "--preset", preset, "--out", str(out)]
        return self._command(preset, argv, out, check_file)

    def _simulate_and_replay(self, rng) -> list[Op]:
        spec = ghz_spec(rng, 3, 3)
        out = self.work / "simulate.csv"
        argv = [
            "simulate", "--family", "ghz", "--d", "3", "--p", "3", "--q", "1",
            "--n", "5", "--alphas", ",".join(repr(a) for a in spec.alphas),
            "--trials", str(SIMULATE_TRIALS), "--seed", str(int(rng.integers(2**31))),
            "--out", str(out),
        ]
        first: list[bytes] = []

        def check_simulate(data: bytes) -> str | None:
            first[:] = [data]
            lines = data.decode().splitlines()
            col = lines[0].split(",").index("count")
            total = sum(int(line.split(",")[col]) for line in lines[1:])
            return None if total == SIMULATE_TRIALS else f"histogram sums to {total}"

        def check_replay(data: bytes) -> str | None:
            return None if first and data == first[0] else "replay output differs"

        manifest = out.with_name(out.stem + ".manifest.json")
        return [
            self._command("simulate", argv, out, check_simulate),
            self._command("replay", ["replay", str(manifest)], out, check_replay),
        ]

    def pass_ops(self, index: int) -> list[Op]:
        ops = [self._golden(name) for name in GOLDEN_COMMANDS]
        ops += [self._sweep(preset) for preset in SWEEP_PRESETS]
        return ops + self._simulate_and_replay(_rng(self.seed, 1, index))

    def warmup_op(self) -> Op:
        return self._golden("ted_ghz3.csv")

    def bad_op(self) -> Op:
        alphas = ",".join(repr(a) for a in bad_ghz_spec().alphas)
        out = self.work / "bad.csv"
        argv = ["ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
                "--alphas", alphas, "--out", str(out)]
        return self._command("bad", argv, out, lambda data: None)


WORKLOADS = {w.name: w for w in (TedSweep, MonteCarlo, Steer, Cli)}
