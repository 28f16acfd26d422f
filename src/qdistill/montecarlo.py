"""Stochastic simulation of the N-copy protocol with explicit bookkeeping.

One trial plays the protocol out literally: for each of the copies 1..N-1
the participants' joint outcome string is drawn from the exact joint
distribution over all 2^Q strings (outcomes of different participants on one
copy are correlated through the state, so they are never sampled as
independent locals).  A copy is kept iff every participant reported 0.  If
none of the first N-1 copies survives, the participants declare 0 for the
held-back last copy, which is then kept unfiltered so the network never ends
up empty-handed; otherwise the last copy is discarded.

Reproducibility: trial ``i`` of a run with master seed ``s`` always uses the
counter-based Philox stream keyed by (s, i), so results are identical no
matter how trials are scheduled or parallelized.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import InvalidSpecError
from .states import make_compact
from .ted import ProtocolConfig, _cached_assignment, apply_filter_layer

DISTRIBUTION_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TrialRecord:
    """One protocol trial.  ``outcome_strings[k]`` is participant k's bit
    string over all N copies, including the declared last-copy bit; copies
    are numbered 1..N."""

    outcome_strings: tuple[tuple[int, ...], ...]
    kept_copies: tuple[int, ...]
    success: bool
    final_copy_is_unfiltered: bool


@dataclass(frozen=True)
class EmpiricalStats:
    trials: int
    success_rate: float
    kept_count_histogram: Mapping[int, int]
    rng_seed: int


@lru_cache(maxsize=256)
def outcome_distribution(
    config: ProtocolConfig,
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Joint distribution over the 2^Q per-copy outcome strings.

    Strings are enumerated with the all-zeros string first; probabilities
    come from the exact filter layer and must sum to 1.
    """
    assignment = _cached_assignment(
        config.family, config.spec, config.q, config.partition
    )
    state = make_compact(config.spec)
    strings = tuple(itertools.product((0, 1), repeat=assignment.q))
    probs = []
    for outcome in strings:
        _, prob = apply_filter_layer(state, assignment, outcome)
        probs.append(prob)
    total = float(sum(probs))
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        raise InvalidSpecError(
            f"outcome probabilities sum to {total!r}, expected 1"
        )
    return strings, tuple(probs)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Substream for one trial, derived by counter from the master seed."""
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_trial(
    config: ProtocolConfig,
    rng: np.random.Generator,
    _dist: tuple[tuple[tuple[int, ...], ...], tuple[float, ...]] | None = None,
) -> TrialRecord:
    """Play out one trial of the N-copy protocol."""
    strings, probs = _dist if _dist is not None else outcome_distribution(config)
    n = config.n_copies
    cum = np.cumsum(probs)
    draws = np.searchsorted(cum, rng.random(n - 1), side="right")
    draws = np.minimum(draws, len(strings) - 1)  # guard the cum[-1]=1-eps edge
    kept = tuple(int(u) + 1 for u in np.nonzero(draws == 0)[0])
    success = bool(kept)
    last_bit = 1 if success else 0
    q = len(strings[0])
    outcome_strings = tuple(
        tuple(int(strings[idx][k]) for idx in draws) + (last_bit,)
        for k in range(q)
    )
    return TrialRecord(
        outcome_strings=outcome_strings,
        kept_copies=kept if success else (n,),
        success=success,
        final_copy_is_unfiltered=not success,
    )


def run_stats(config: ProtocolConfig, trials: int, seed: int) -> EmpiricalStats:
    """Run ``trials`` independent trials on per-trial substreams.

    Deterministic for fixed (config, trials, seed) regardless of evaluation
    order.  The histogram counts surviving copies among the first N-1 per
    trial (the unfiltered last copy of a failed trial does not count).
    """
    if trials < 1:
        raise InvalidSpecError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise InvalidSpecError(f"seed must lie in [0, 2**64), got {seed}")
    dist = outcome_distribution(config)
    histogram: Counter[int] = Counter()
    successes = 0
    for i in range(trials):
        record = simulate_trial(config, trial_rng(seed, i), dist)
        kept_filtered = len(record.kept_copies) if record.success else 0
        histogram[kept_filtered] += 1
        successes += record.success
    return EmpiricalStats(
        trials=trials,
        success_rate=successes / trials,
        kept_count_histogram=dict(sorted(histogram.items())),
        rng_seed=seed,
    )
