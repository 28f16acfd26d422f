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

The run path needs only p_u: :func:`run_stats` keeps a copy iff its uniform
``(w >> 11) * 2**-53`` is below ``success_prob_per_copy(config)`` (bit for
bit ``outcome_distribution(config)[1][0]``).  It never forms that float:
:func:`survives` compares ``w >> 11`` with the integer ``ceil(p_u * 2**53)``,
which is the same test.  The words come from :func:`philox_words`, bit for
bit ``trial_rng(s, i)``'s, in tiles of at most ``_CHUNK_BLOCKS`` blocks:
many short trials a tile, or one long trial split into block ranges whose
counts add, so memory stays O(tile) at any N.  The capped 2^Q
:func:`outcome_distribution` and the one-trial :func:`simulate_trial` with
its full outcome record are reference only.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import InvalidSpecError, WorkCapExceededError
from .states import make_compact
from .ted import ProtocolConfig, _cached_assignment, apply_filter_layer, success_prob_per_copy

DISTRIBUTION_SUM_TOL = 1e-12
MAX_OUTCOME_STRINGS = 2**16  # cap on the 2^Q strings enumerated per config

# run_stats draws at most this many Philox blocks (4 words each) per tile:
# about 0.6 MiB of traced buffers
_CHUNK_BLOCKS = 4096

# trials x (N - 1): 0.5-0.65 s of CPU at the measured 1.6-2e7 copies/s for
# N - 1 >= 4, in many trials or one (29 MB max RSS for one trial at the cap,
# 1.3 MB above the import); 2.3 s at N = 2, where each trial encrypts a whole
# block for one copy; 20x the largest test run (1e5 x 5), 200x a bench mc job
MC_WORK_CAP = 10**7

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


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


@lru_cache(maxsize=256)
def outcome_distribution(
    config: ProtocolConfig,
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Joint distribution over the 2^Q per-copy outcome strings.

    Strings are enumerated with the all-zeros string first; probabilities
    come from the exact filter layer and must sum to 1.  More than
    ``MAX_OUTCOME_STRINGS`` strings raise :class:`WorkCapExceededError`.
    """
    if 2**config.q > MAX_OUTCOME_STRINGS:
        raise WorkCapExceededError(
            f"q = {config.q} needs 2**{config.q} outcome strings, "
            f"over the cap of {MAX_OUTCOME_STRINGS}"
        )
    assignment = _cached_assignment(config.spec, config.q, config.partition)
    state = make_compact(config.spec)
    strings = tuple(itertools.product((0, 1), repeat=assignment.q))
    probs = []
    for outcome in strings:
        _, prob = apply_filter_layer(state, config.spec, assignment, outcome)
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


def simulate_trial(config: ProtocolConfig, rng: np.random.Generator) -> TrialRecord:
    """Play out one trial of the N-copy protocol."""
    strings, probs = outcome_distribution(config)
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


def _mulhi(multiplier: int, x: np.ndarray) -> np.ndarray:
    """High 64-bit word of ``multiplier * x``, from 32-bit halves.

    ``u`` and ``v`` fold the carries of the two cross products; each is at
    most 2**64 - 2**32, so neither sum can wrap.
    """
    m_hi, m_lo = np.uint64(multiplier >> 32), np.uint64(multiplier & 0xFFFFFFFF)
    x_hi, x_lo = x >> _S32, x & _LO32
    u = m_hi * x_lo + (m_lo * x_lo >> _S32)
    v = m_lo * x_hi + (u & _LO32)
    return m_hi * x_hi + (u >> _S32) + (v >> _S32)


def philox_words(seed: int, start: int, count: int, first: int, blocks: int) -> np.ndarray:
    """64-bit words of blocks ``first .. first+blocks-1`` of the trials
    ``start .. start+count-1``: four words a block, one trial a column.

    The key is (seed, trial index), and block ``b`` encrypts the counter
    (b+1, 0, 0, 0) because numpy bumps the counter before its first block,
    so with ``first = 0`` column ``t`` holds ``trial_rng(seed, start + t)``'s
    words in order.  The state starts in shapes that broadcast: round 0
    multiplies only the block counters and round 1's first product is one
    number per tile.
    """
    c0 = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k1 = np.arange(count, dtype=np.uint64)[None, :] + np.uint64(start)
    m0, m1 = (np.uint64(m) for m in _PHILOX_M)
    for r in range(10):
        round_k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        round_k1 = k1 + np.uint64(r * _PHILOX_W[1] % 2**64)
        hi0, hi1 = _mulhi(_PHILOX_M[0], c0), _mulhi(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ (c1 ^ round_k0), m1 * c2, hi0 ^ c3 ^ round_k1, m0 * c0
    return np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, count)


def survives(words: np.ndarray, pu: float) -> np.ndarray:
    """``(w >> 11) * 2**-53 < pu`` for each word ``w``, compared as integers.

    For an integer k, ``k * 2**-53 < pu`` iff ``k < ceil(pu * 2**53)``, and
    both sides are exact for every finite ``pu >= 0``: scaling by 2**53 is
    exact and ``w >> 11`` is an integer below 2**53, which is why capping
    the threshold at 2**53 (so that it fits a word) changes nothing.
    """
    threshold = np.uint64(min(math.ceil(pu * 2.0**53), 2**53))
    return words >> np.uint64(11) < threshold


def run_stats(config: ProtocolConfig, trials: int, seed: int) -> EmpiricalStats:
    """Run ``trials`` independent trials on per-trial substreams.

    Deterministic for fixed (config, trials, seed) regardless of evaluation
    order, and equal to looping :func:`simulate_trial` over
    ``trial_rng(seed, i)``.  The histogram counts surviving copies among the
    first N-1 per trial (the unfiltered last copy of a failed trial does not
    count).
    """
    if trials < 1:
        raise InvalidSpecError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise InvalidSpecError(f"seed must lie in [0, 2**64), got {seed}")
    trials, seed = operator.index(trials), operator.index(seed)  # a float seed keys another stream
    filtered = operator.index(config.n_copies) - 1  # Python ints: a numpy int's width would wrap
    if trials * filtered > MC_WORK_CAP:
        raise WorkCapExceededError(f"{trials} trials x {filtered} copies > the cap {MC_WORK_CAP}")
    pu = success_prob_per_copy(config)
    per_trial = -(-filtered // 4)  # Philox blocks per trial
    span = min(per_trial, _CHUNK_BLOCKS)
    chunk = max(1, _CHUNK_BLOCKS // per_trial)
    histogram: dict[int, int] = {}
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        kept = np.zeros(count, dtype=np.int64)
        for first in range(0, per_trial, span):
            words = philox_words(seed, start, count, first, min(span, per_trial - first))
            # simulate_trial keeps a copy iff u < cumsum(probs)[0], which is p_u
            kept += np.count_nonzero(survives(words[: filtered - 4 * first], pu), axis=0)
        low = int(kept.min())  # bins span this tile's counts, not 0..N-1
        counts = np.bincount(kept - low)
        for k in np.flatnonzero(counts).tolist():
            histogram[low + k] = histogram.get(low + k, 0) + int(counts[k])
    return EmpiricalStats(
        trials=trials,
        success_rate=(trials - histogram.get(0, 0)) / trials,
        kept_count_histogram=dict(sorted(histogram.items())),
    )
