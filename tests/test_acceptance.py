"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and are not calibration knobs.

Criterion 8a checks the three d = 3 equal-tail convergence curves
(alpha_0^2 in {1/8, 1/9, 1/10}) against the exact law
1 - F(N) = (1/d)(1 - d alpha_0^2)^(N-1)(d - (sum alpha)^2), evaluated in
50-digit decimal arithmetic by ``conftest.oracle_ghz_deviation``, to 1e-15
at every N in 2..50, and checks that the decay ratio 1 - d alpha_0^2 lies
in [0, 1), so that F(N) -> 1.  The deviations at N = 50 are 6.29e-12,
1.74e-10 and 2.15e-9; the law first falls below 1e-9 at N = 40, 46 and 53.

Timing gates (criteria 1, 2, 7 and 9) measure this process's CPU time with
``time.process_time``, so that load from other processes on the host does
not count against them.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qdistill import (
    Family,
    GhzSpec,
    ProtocolConfig,
    SteeringConfig,
    WSpec,
    make_compact,
    run_stats,
    run_ted,
    run_tsd,
)
from qdistill.cli import main as cli_main
from qdistill.filters import ghz_partition_assignment
from qdistill.linalg import _root_fidelity
from qdistill.montecarlo import outcome_distribution
from qdistill.states import make_dense, perfect_ghz, perfect_like, perfect_w
from qdistill.sweep import grid_rows
from qdistill.ted import assignment_for, closed_form_fidelity, overall_success
from qdistill.tsd import build_assemblage, filter_assemblage

from conftest import (
    NONSIGNALING_TOL,
    contiguous_partition,
    dense_report,
    ghz_corpus,
    labeled_partitions,
    oracle_ghz_deviation,
    oracle_layer,
    nonsignaling_deviation,
    rebuilt_scores,
    w_corpus,
)
from test_montecarlo import binomial_chi2_pvalue
from test_tsd import distilled_assemblage


def check(cid: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid:>3} {status} {name}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {cid}: {name} {detail}"


@pytest.fixture(scope="module")
def ghz_specs():
    return ghz_corpus(200)


@pytest.fixture(scope="module")
def w_specs():
    return w_corpus(100)


_LAYER_CACHE: dict = {}


def _ghz_layer_sweep(specs):
    """All-zeros Kronecker-product oracle layers on the dense vector for every
    q (and every labeled partition when d <= 4) of every corpus spec."""
    if "layers" in _LAYER_CACHE:
        return _LAYER_CACHE["layers"]
    results = []
    for spec in specs:
        psi = make_dense(spec)
        per_spec = []
        for q in range(1, spec.p):
            if spec.d <= 4:
                partitions = list(labeled_partitions(spec.d, q))
            else:
                partitions = [contiguous_partition(spec.d, q)]
            for partition in partitions:
                assignment = ghz_partition_assignment(spec, partition, q)
                out, prob = oracle_layer(assignment, (0,) * q, psi)
                state = out / np.sqrt(prob)
                per_spec.append((q, prob, state))
        results.append((spec, per_spec))
    _LAYER_CACHE["layers"] = results
    return results


def test_criterion_01_ghz_per_copy_success(ghz_specs):
    start = time.process_time()
    worst = 0.0
    cases = 0
    for spec, layers in _ghz_layer_sweep(ghz_specs):
        expected = spec.d * spec.alphas[0] ** 2
        for _, prob, _ in layers:
            worst = max(worst, abs(prob - expected))
            cases += 1
    elapsed = time.process_time() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    check("1", "GHZ per-copy success = d*alpha0^2 (dense)", ok,
          f"{cases} cases over 200 specs, worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ghz_fidelity_closed_vs_oracle(ghz_specs):
    start = time.process_time()
    worst = 0.0
    worst_matrix = 0.0
    for spec in ghz_specs:
        psi = make_dense(spec)
        perfect_ket = make_dense(perfect_ghz(spec.d, spec.p))
        assignment = assignment_for(spec, 1)
        _, pu = oracle_layer(assignment, (0,), psi)
        overlap = abs(np.vdot(perfect_ket, psi)) ** 2
        for n in (2, 3, 5, 10):
            ps = overall_success(pu, n)
            uhlmann = ps + (1.0 - ps) * overlap  # pure target, mixture linearity
            closed = closed_form_fidelity(spec, n)
            worst = max(worst, abs(closed - uhlmann))
        if spec.d**spec.p <= 81:
            # tie the shortcut to the full matrix-square-root fidelity
            ps = overall_success(pu, 3)
            target = np.outer(perfect_ket, perfect_ket.conj())
            rho = ps * target + (1 - ps) * np.outer(psi, psi.conj())
            full = _root_fidelity(rho, target) ** 2
            worst_matrix = max(worst_matrix, abs(closed_form_fidelity(spec, 3) - full))
    elapsed = time.process_time() - start
    ok = worst <= 1e-9 and worst_matrix <= 1e-9 and elapsed < 30.0
    check("2", "GHZ closed-form fidelity vs Uhlmann oracle", ok,
          f"worst dev {worst:.2e}, matrix-path dev {worst_matrix:.2e}, {elapsed:.1f}s")


def test_criterion_03_q_invariance(ghz_specs):
    worst_prob = 0.0
    worst_state = 0.0
    worst_fid = 0.0
    for spec, layers in _ghz_layer_sweep(ghz_specs):
        ref_q, ref_prob, ref_state = layers[0]
        for _, prob, state in layers[1:]:
            worst_prob = max(worst_prob, abs(prob - ref_prob))
            worst_state = max(worst_state, float(np.max(np.abs(state - ref_state))))
            gap = spec.d - sum(spec.alphas) ** 2
            fid_ref = 1 - (1 - ref_prob) ** 2 * gap / spec.d
            fid = 1 - (1 - prob) ** 2 * gap / spec.d
            worst_fid = max(worst_fid, abs(fid - fid_ref))
    ok = worst_prob <= 1e-12 and worst_state <= 1e-12 and worst_fid <= 1e-12
    check("3", "Q- and partition-invariance of state, p_u, fidelity", ok,
          f"devs prob {worst_prob:.2e}, state {worst_state:.2e}, fid {worst_fid:.2e}")


def test_criterion_04_w_success_and_fidelity(w_specs):
    start = time.perf_counter()
    worst_prob = 0.0
    worst_fid = 0.0
    for spec in w_specs:
        be = np.array(spec.betas)
        expected = spec.p * float(np.prod(be**2)) / be[-1] ** (2 * (spec.p - 1))
        psi = make_dense(spec)
        assignment = assignment_for(spec, spec.p - 1)
        _, prob = oracle_layer(assignment, (0,) * (spec.p - 1), psi)
        worst_prob = max(worst_prob, abs(prob - expected))
        perfect_ket = make_dense(perfect_w(spec.p))
        overlap = abs(np.vdot(perfect_ket, psi)) ** 2
        for n in (2, 3, 5, 10):
            ps = overall_success(prob, n)
            uhlmann = ps + (1.0 - ps) * overlap
            worst_fid = max(worst_fid, abs(closed_form_fidelity(spec, n) - uhlmann))
    elapsed = time.perf_counter() - start
    ok = worst_prob <= 1e-12 and worst_fid <= 1e-9
    check("4", "W per-copy success and closed-form fidelity", ok,
          f"100 specs, prob dev {worst_prob:.2e}, fid dev {worst_fid:.2e}, {elapsed:.1f}s")


def test_criterion_05_assemblage_equals_state_fidelity():
    ghz_spec = GhzSpec(3, 3, (0.3, 0.5, math.sqrt(1 - 0.09 - 0.25)))
    w_spec = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))
    worst = worst_rebuilt = 0.0
    scenarios = [
        (ghz_spec, Family.GHZ_DIAGONAL, 1, 1),
        (ghz_spec, Family.GHZ_DIAGONAL, 1, 2),
        (ghz_spec, Family.GHZ_DIAGONAL, 2, 1),
        (GhzSpec(3, 4, ghz_spec.alphas), Family.GHZ_DIAGONAL, 3, 1),
        (w_spec, Family.W_SINGLE_EXCITATION, 1, 2),
    ]
    for spec, family, s, q in scenarios:
        for n in (2, 3, 5):
            config = SteeringConfig(ProtocolConfig(n, family, spec, q), s)
            report = run_tsd(config)
            worst = max(worst, abs(report.fidelity_assemblage - closed_form_fidelity(spec, n)))
            if s >= 2:  # the minimum over all (2 d)^S members, rebuilt one by one
                perfect = build_assemblage(make_compact(perfect_like(spec)), config)
                rebuilt = min(rebuilt_scores(distilled_assemblage(config), perfect).values())
                worst_rebuilt = max(worst_rebuilt, abs(rebuilt - report.fidelity_assemblage))
    ok = worst <= 1e-9 and worst_rebuilt <= 1e-12
    check("5", "assemblage fidelity equals state fidelity (incl. S = 2, 3 rebuilt members)", ok,
          f"worst dev {worst:.2e}, rebuilt {worst_rebuilt:.2e}")


def test_criterion_06_non_signaling(rng):
    deviations = []
    ghz_toy = GhzSpec(3, 3, (0.3, 0.5, math.sqrt(1 - 0.09 - 0.25)))
    w_toy = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))
    cases = [(ghz_toy, Family.GHZ_DIAGONAL, 1, 1), (ghz_toy, Family.GHZ_DIAGONAL, 2, 1),
             (GhzSpec(3, 4, ghz_toy.alphas), Family.GHZ_DIAGONAL, 3, 1),
             (w_toy, Family.W_SINGLE_EXCITATION, 1, 2)]
    for _ in range(8):
        v = rng.uniform(0.2, 1.0, 3)
        v /= np.linalg.norm(v)
        v.sort()
        cases.append((GhzSpec(3, 4, tuple(v)), Family.GHZ_DIAGONAL, int(rng.integers(1, 4)), 1))
        w = rng.uniform(0.2, 1.0, 4)
        w /= np.linalg.norm(w)
        w.sort()
        cases.append((WSpec(4, tuple(w)), Family.W_SINGLE_EXCITATION, 1, 3))
    for spec, family, s, q in cases:
        config = SteeringConfig(ProtocolConfig(2, family, spec, q), s)
        asm = build_assemblage(make_compact(spec), config)
        deviations.append(nonsignaling_deviation(asm))
        assignment = assignment_for(spec, q)
        for outcome in [(0,) * assignment.q, (1,) + (0,) * (assignment.q - 1)]:
            filtered, _ = filter_assemblage(asm, assignment, outcome)
            deviations.append(nonsignaling_deviation(filtered))
        deviations.append(nonsignaling_deviation(distilled_assemblage(config)))
    ok = all(dev <= NONSIGNALING_TOL for dev in deviations)  # NaN fails
    check("6", "non-signaling of constructed, filtered, distilled assemblages",
          ok, f"{len(deviations)} assemblages, worst {max(deviations):.2e} at 1e-10")


def test_criterion_07_monte_carlo():
    start = time.process_time()
    ghz8 = GhzSpec(3, 3, (1 / math.sqrt(8), math.sqrt(7 / 16), math.sqrt(7 / 16)))
    ghz_asym = GhzSpec(3, 3, (0.3, 0.5, math.sqrt(1 - 0.09 - 0.25)))
    ghz_d2 = GhzSpec(2, 4, (0.6, 0.8))
    w_toy = WSpec(3, (0.5, 0.5, 1 / math.sqrt(2)))
    w4 = WSpec(4, (0.4, 0.45, 0.5, math.sqrt(1 - 0.16 - 0.2025 - 0.25)))
    fixtures = [
        (ProtocolConfig(5, Family.GHZ_DIAGONAL, ghz8, 1), 42),
        (ProtocolConfig(3, Family.GHZ_DIAGONAL, ghz_asym, 1), 7),
        (ProtocolConfig(4, Family.GHZ_DIAGONAL, ghz_d2, 2), 11),
        (ProtocolConfig(3, Family.W_SINGLE_EXCITATION, w_toy, 2), 19),
        (ProtocolConfig(6, Family.W_SINGLE_EXCITATION, w4, 3), 23),
    ]
    trials = 100_000
    all_ok = True
    details = []
    for config, seed in fixtures:
        stats = run_stats(config, trials, seed)
        pu = outcome_distribution(config)[1][0]
        expected = overall_success(pu, config.n_copies)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        dev = abs(stats.success_rate - expected)
        pvalue = binomial_chi2_pvalue(
            stats.kept_count_histogram, config.n_copies - 1, pu, trials
        )
        ok = dev <= 3 * sigma and pvalue > 0.001
        all_ok = all_ok and ok
        details.append(f"seed{seed}: dev/sigma {dev / sigma:.2f}, chi2 p {pvalue:.3f}")
    elapsed = time.process_time() - start
    all_ok = all_ok and elapsed < 60.0
    check("7", "Monte Carlo success rate and kept-copy histogram", all_ok,
          "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_08a_convergence_curves():
    deviations = {}
    worst = 0.0
    monotone = True
    contracting = True
    for a0sq in (Fraction(1, 8), Fraction(1, 9), Fraction(1, 10)):
        tailsq = (1 - a0sq) / 2
        spec = GhzSpec(3, 3, (math.sqrt(a0sq), math.sqrt(tailsq), math.sqrt(tailsq)))
        curve = [closed_form_fidelity(spec, n) for n in range(2, 51)]
        monotone = monotone and all(b > a for a, b in zip(curve, curve[1:]))
        for n, fid in zip(range(2, 51), curve):
            exact = oracle_ghz_deviation((a0sq, tailsq, tailsq), n)
            worst = max(worst, abs(1.0 - fid - float(exact)))
        # 1 - F(N) shrinks by this factor per copy, so F(N) -> 1
        contracting = contracting and 0 <= 1 - 3 * a0sq < 1
        deviations[a0sq] = 1.0 - curve[-1]
    ok = monotone and contracting and worst <= 1e-15
    detail = ", ".join(f"1-F(50)={dev:.3e}" for dev in deviations.values())
    check("8a", "convergence curves strictly increase with limit 1 (exact geometric law)",
          ok, f"{detail}; worst dev from exact law {worst:.1e}")


def test_criterion_08b_contour_majority_above_099():
    rows = grid_rows("ghz-contour")
    frac = sum(r["fidelity_closed"] > 0.99 for r in rows) / len(rows)
    check("8b", "contour grid has F > 0.99 on a majority of points",
          frac > 0.5, f"fraction {frac:.3f} of {len(rows)} points")


def test_criterion_08c_dimension_trend():
    rows = grid_rows("ghz-dimension")
    fid = [r["fidelity_closed"] for r in rows]
    ps = [r["ps_per_copy"] for r in rows]
    ok = all(b > a for a, b in zip(fid, fid[1:])) and all(
        b > a for a, b in zip(ps, ps[1:])
    )
    check("8c", "fidelity and per-copy success strictly increase with d", ok,
          f"d={rows[0]['d']}..{rows[-1]['d']}")


def test_criterion_09_compact_dense_equivalence(ghz_specs, w_specs, rng):
    worst = 0.0
    compared = 0
    fields = ("p_success_per_copy", "p_success_overall",
              "fidelity_closed_form", "fidelity_numeric")
    for spec in ghz_specs:
        if spec.d**spec.p > 4096:
            continue
        config = ProtocolConfig(3, Family.GHZ_DIAGONAL, spec, 1)
        compact, dense = run_ted(config), dense_report(config)
        for f in fields:
            worst = max(worst, abs(getattr(compact, f) - getattr(dense, f)))
        compared += 1
    for spec in w_specs:
        if 2**spec.p > 4096:
            continue
        config = ProtocolConfig(3, Family.W_SINGLE_EXCITATION, spec, spec.p - 1)
        compact, dense = run_ted(config), dense_report(config)
        for f in fields:
            worst = max(worst, abs(getattr(compact, f) - getattr(dense, f)))
        compared += 1
    # compact-path throughput: d = 50, p = 50, 10^4 grid points
    specs50 = []
    for _ in range(100):
        v = rng.uniform(0.2, 1.0, 50)
        v /= np.linalg.norm(v)
        v.sort()
        specs50.append(GhzSpec(50, 50, tuple(v)))
    start = time.process_time()
    points = 0
    for spec in specs50:
        for n in range(2, 102):
            run_ted(ProtocolConfig(n, Family.GHZ_DIAGONAL, spec, 1))
            points += 1
    elapsed = time.process_time() - start
    ok = worst <= 1e-12 and elapsed < 1.0 and points == 10_000
    check("9", "compact run vs dense-vector oracle, and compact throughput", ok,
          f"{compared} spec pairs, worst dev {worst:.2e}; 1e4 points in {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    alphas = f"{1 / math.sqrt(8)!r},{math.sqrt(7 / 16)!r},{math.sqrt(7 / 16)!r}"
    runs = {
        "sweep": ["sweep", "--preset", "w-contour", "--n", "2:8", "--p", "3:8"],
        "simulate": ["simulate", "--family", "ghz", "--d", "3", "--p", "3",
                     "--q", "1", "--n", "5", "--alphas", alphas,
                     "--trials", "5000", "--seed", "42"],
        "ted": ["ted-ghz", "--d", "3", "--p", "3", "--q", "1", "--n", "2",
                "--alphas", alphas],
    }
    all_ok = True
    for name, argv in runs.items():
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        identical = a.read_bytes() == b.read_bytes()
        # replaying the recorded manifest reproduces the bytes too
        manifest = tmp_path / f"{name}_a.manifest.json"
        snapshot = a.read_bytes()
        a.unlink()
        assert cli_main(["replay", str(manifest)]) == 0
        replay_ok = a.read_bytes() == snapshot
        json.loads(manifest.read_text())  # manifest is well-formed JSON
        all_ok = all_ok and identical and replay_ok
    capsys.readouterr()
    check("10", "CLI and manifest replay are byte-deterministic", all_ok)
