#!/usr/bin/env python3
"""Emit the CSV data for the standard performance figures.

Runs every sweep preset of ``qdistill.sweep.PRESETS`` through the CLI, with
its default grid, so each output comes with a run manifest; the table
documents what each preset draws.  Plotting is left to whatever tool you
prefer; the columns are documented in the README.

Usage: python scripts/reproduce_figures.py [--outdir results]
"""

import argparse
from pathlib import Path

from qdistill.cli import main as qdistill
from qdistill.sweep import PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for preset in PRESETS:
        out = args.outdir / f"{preset.replace('-', '_')}.csv"
        rc = qdistill(["sweep", "--preset", preset, "--out", str(out)])
        if rc != 0:
            return rc
    print(f"done; data and manifests in {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
