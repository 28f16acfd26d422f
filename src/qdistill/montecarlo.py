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
:func:`survives` keeps a word ``w`` iff ``w < ceil(p_u * 2**53) * 2**11``,
which is the same test in one integer compare.  The words come from
:func:`philox_words`, bit for bit ``trial_rng(s, i)``'s, in tiles of at most
``_CHUNK_BLOCKS`` blocks: many short trials a tile, or one long trial split
into block ranges whose counts add, so memory stays O(tile) at any N.
Survivors are counted per word of a block, with no copy of the words.  The
capped 2^Q :func:`outcome_distribution` and the one-trial
:func:`simulate_trial` with its full outcome record are reference only.
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
# 0.4-0.5 MiB of traced buffers
_CHUNK_BLOCKS = 4096

# trials x (N - 1): 0.35-0.55 s of CPU at the cap, at the measured
# 1.8-2.9e7 copies/s, for N - 1 = 4 or one long trial (29 MB max RSS for one
# trial at the cap, under 1 MB above the import); up to 0.75 s at N = 6,
# whose second block holds one used word, and 1.4-1.6 s at N = 2, where each
# trial encrypts a whole block for one copy; 20x the largest test run
# (1e5 x 5), 200x a bench mc job
MC_WORK_CAP = 10**7


def _u64(value: int) -> np.ndarray:
    """``value mod 2**64`` as a 0-d uint64 array, which a ufunc takes as it is."""
    return np.array(value % 2**64, dtype=np.uint64)


# Philox4x64-10 (Salmon et al., SC'11): round multipliers, their 32-bit
# halves and the key increments, built once
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M0, _M1 = (_u64(m) for m in _PHILOX_M)
_M0_HALVES, _M1_HALVES = ((_u64(m >> 32), _u64(m & 0xFFFFFFFF)) for m in _PHILOX_M)
_K1_STEPS = tuple(_u64(r * _PHILOX_W[1]) for r in range(10))
_LO32, _S32 = _u64(0xFFFFFFFF), _u64(32)


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


def _mulhi(halves: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """High 64-bit word of ``m * x`` in a new array, from the 32-bit halves
    ``(m_hi, m_lo)`` of m and the halves of x; x is left as it is.

    ``u`` and ``v`` fold the carries of the two cross products; each is at
    most 2**64 - 2**32, so neither sum can wrap.  The partial products are
    updated in place, in four arrays of x's shape.
    """
    m_hi, m_lo = halves
    lo = x & _LO32
    u = lo * m_lo
    u >>= _S32
    lo *= m_hi
    u += lo  # m_hi * x_lo + (m_lo * x_lo >> 32)
    np.bitwise_and(u, _LO32, out=lo)
    u >>= _S32
    hi = x >> _S32
    v = hi * m_lo
    v += lo  # m_lo * x_hi + (u & (2**32 - 1))
    v >>= _S32
    hi *= m_hi
    hi += u
    hi += v
    return hi


def philox_words(
    seed: int, start: int, count: int, first: int, blocks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Blocks ``first .. first+blocks-1`` of the trials ``start .. start+count-1``
    as four ``(blocks, count)`` arrays of 64-bit words, one per word of a
    block: trial ``t``'s word ``4*b + j`` of the range is ``words[j][b, t]``.

    The key is (seed, trial index), and block ``b`` encrypts the counter
    (b+1, 0, 0, 0) because numpy bumps the counter before its first block,
    so with ``first = 0`` trial ``t`` reads ``trial_rng(seed, start + t)``'s
    words in that order.  The state starts in shapes that broadcast: round 0
    multiplies only the block counters and round 1's first product is one
    number per tile.  Products and exclusive ors update tile-sized arrays in
    place; only rounds 0 and 1, where c0 or c3 does not span the tile yet,
    build the new c2 in a new array.
    """
    c0 = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)[:, None]
    c1, c2, c3 = (np.zeros((1, 1), dtype=np.uint64) for _ in range(3))
    k1 = np.arange(count, dtype=np.uint64)[None, :]
    k1 += np.uint64(start)
    for r in range(10):
        hi1 = _mulhi(_M1_HALVES, c2)
        hi1 ^= c1
        hi1 ^= _u64(seed + r * _PHILOX_W[0])
        hi0 = _mulhi(_M0_HALVES, c0)
        round_k1 = k1 + _K1_STEPS[r]
        if r < 2:
            hi0 = hi0 ^ c3 ^ round_k1
        else:
            hi0 ^= c3
            hi0 ^= round_k1
        c2 *= _M1
        c0 *= _M0
        c0, c1, c2, c3 = hi1, c2, hi0, c0
    return c0, c1, c2, c3


def survives(words: np.ndarray, pu: float) -> np.ndarray:
    """``(w >> 11) * 2**-53 < pu`` for each word ``w``, compared as
    ``w < ceil(pu * 2**53) * 2**11``.

    For an integer k, ``k * 2**-53 < pu`` iff ``k < ceil(pu * 2**53)``, and
    both sides are exact for every finite ``pu >= 0``: scaling by 2**53 is
    exact.  For ``k = w >> 11`` and an integer c, ``k < c`` iff
    ``w < c * 2**11``.  ``w >> 11`` is below 2**53, so capping c at 2**53
    changes nothing; at the cap (``pu >= 1``) the bound 2**64 does not fit
    a word, and every word survives.
    """
    bound = min(math.ceil(pu * 2.0**53), 2**53) << 11
    if bound == 2**64:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(bound)


def _tiling(filtered: int) -> tuple[int, int, int]:
    """Philox blocks per trial of ``filtered`` copies, blocks per tile of
    one trial and trials per tile, for tiles of ``_CHUNK_BLOCKS`` blocks."""
    per_trial = -(-filtered // 4)
    return per_trial, min(per_trial, _CHUNK_BLOCKS), max(1, _CHUNK_BLOCKS // per_trial)


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
    per_trial, span, chunk = _tiling(filtered)
    histogram: dict[int, int] = {}
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        kept = np.zeros(count, dtype=np.int64)
        for first in range(0, per_trial, span):
            blocks = min(span, per_trial - first)
            used = min(4 * blocks, filtered - 4 * first)  # words of these blocks the trial reads
            words = philox_words(seed, start, count, first, blocks)
            # simulate_trial keeps a copy iff u < cumsum(probs)[0], which is p_u
            for j, word in enumerate(words[:used]):
                hits = survives(word[: (used - j + 3) // 4], pu)  # the blocks whose word j is used
                kept += hits[0] if blocks == 1 else np.count_nonzero(hits, axis=0)
        low = int(kept.min())  # bins span this tile's counts, not 0..N-1
        counts = np.bincount(kept - low)
        for k in np.flatnonzero(counts).tolist():
            histogram[low + k] = histogram.get(low + k, 0) + int(counts[k])
    return EmpiricalStats(
        trials=trials,
        success_rate=(trials - histogram.get(0, 0)) / trials,
        kept_count_histogram=dict(sorted(histogram.items())),
    )
