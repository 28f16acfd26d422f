#!/usr/bin/env python3
"""Compare Monte Carlo success rates against the closed forms.

Plays the N-copy protocol for a few instances and prints empirical vs
predicted overall success probabilities with the sampling error.

Usage: python scripts/montecarlo_check.py [--trials 100000] [--seed 42]
"""

import argparse
import math

from qdistill import Family, GhzSpec, ProtocolConfig, WSpec, run_stats
from qdistill.ted import overall_success, success_prob_per_copy

INSTANCES = [
    ("GHZ d=3 a0=1/sqrt(8), N=5",
     ProtocolConfig(5, Family.GHZ_DIAGONAL,
                    GhzSpec(3, 3, (1 / math.sqrt(8), math.sqrt(7 / 16), math.sqrt(7 / 16))), 1)),
    ("GHZ d=2 P=4 Q=2, N=4",
     ProtocolConfig(4, Family.GHZ_DIAGONAL, GhzSpec(2, 4, (0.6, 0.8)), 2)),
    ("W P=3 betas=(.5,.5,1/sqrt(2)), N=3",
     ProtocolConfig(3, Family.W_SINGLE_EXCITATION,
                    WSpec(3, (0.5, 0.5, 1 / math.sqrt(2))), 2)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    print(f"{'instance':<40} {'predicted':>12} {'empirical':>12} {'dev/sigma':>10}")
    for label, config in INSTANCES:
        stats = run_stats(config, args.trials, args.seed)
        pu = success_prob_per_copy(config)
        expected = overall_success(pu, config.n_copies)
        sigma = math.sqrt(expected * (1 - expected) / args.trials)
        pull = (stats.success_rate - expected) / sigma
        print(f"{label:<40} {expected:>12.6f} {stats.success_rate:>12.6f} {pull:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
