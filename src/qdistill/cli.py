"""Command-line front end.

Subcommands
-----------
ted-ghz / ted-w     run one entanglement-distillation instance
tsd-ghz / sd-w      run one steering-distillation instance
sweep               emit a long-format CSV over a parameter grid
simulate            Monte Carlo run of the N-copy protocol
replay              re-execute the command recorded in a run manifest

Reports go to stdout as ``key = value`` lines; ``--out`` additionally writes
a CSV (or TSV) with a fixed, versioned schema plus a JSON run manifest next
to it (``<out stem>.manifest.json``).  Numeric fields are printed with 12
significant digits, so repeated runs are byte-identical.  Flags override
values read from ``--config`` files (flat ``key = value`` lines, keys named
after the long flags).

On failure the process exits nonzero after printing a single line
``error category=<Category>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import InvalidSpecError, QdistillError
from .filters import IndexPartition
from .states import Family, GhzSpec, WSpec
from .sweep import CSV_COLUMNS, CSV_SCHEMA_VERSION, grid_rows, preset_grid, report_row
from .ted import ProtocolConfig, overall_success, run_ted, success_prob_per_copy
from .tsd import SteeringConfig, run_tsd
from .montecarlo import run_stats

CLI_NORM_TOL = 1e-3

SIMULATE_COLUMNS = (
    "family", "d", "p", "q", "n", "trials", "seed",
    "ps_per_copy", "ps_overall_expected", "success_rate",
    "kept_count", "count",
)

STEERING_COLUMNS = CSV_COLUMNS + ("fidelity_assemblage", "minimizing_setting", "threshold")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return "".join(str(v) for v in value)
    return str(value)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse float list {text!r}: {exc}") from exc


def _parse_int_values(text: str) -> tuple[int, ...]:
    """Accept '5', '2:10', '2:10:2', or '3,4,7' (ranges are inclusive)."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(tok) for tok in text.split(":")]
            lo, hi = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            values = tuple(range(lo, hi + 1, step))
        else:
            values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except (ValueError, IndexError) as exc:
        raise InvalidSpecError(f"cannot parse integer range {text!r}") from exc
    if not values:
        raise InvalidSpecError(f"integer range {text!r} is empty")
    return values


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise InvalidSpecError(f"sweep value {number!r} is not finite")
    return number


def _finite_floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in _parse_floats(text))


# (flag, SweepGrid field, parser of the flag or config-file value); a GHZ
# preset takes its single --p as the field ``p``
SWEEP_OVERRIDES = (
    ("alpha0", "alpha0_values", _finite_floats),
    ("beta0", "beta0_values", _finite_floats),
    ("pu", "pu", _finite),
    ("gap", "gap", _finite),
    ("d", "d_values", _parse_int_values),
    ("n", "n_values", _parse_int_values),
    ("p", "p_values", _parse_int_values),
)


def _parse_partition(text: str) -> IndexPartition:
    """Blocks separated by '|', indices within a block by ',': '1,3|2'."""
    try:
        blocks = tuple(
            frozenset(int(tok) for tok in part.split(",") if tok.strip())
            for part in text.split("|")
        )
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse partition {text!r}") from exc
    return IndexPartition(blocks)


def _cli_coeffs(values: list[float], what: str) -> tuple[float, ...]:
    """Renormalize hand-typed coefficients; reject anything grossly off."""
    norm = math.sqrt(sum(v * v for v in values))
    if abs(norm - 1.0) > CLI_NORM_TOL:
        raise InvalidSpecError(
            f"{what} have norm {norm:.6f}; expected a normalized vector "
            f"(tolerance {CLI_NORM_TOL} for input rounding)"
        )
    return tuple(v / norm for v in values)


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpecError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpecError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _opt(args, cfg: dict[str, str], name: str, default=None, kind=None):
    """Flag value if given, else config-file value, else default; ``kind``
    converts a present value (config-file values arrive as text)."""
    val = getattr(args, name, None)
    if val is None:
        val = cfg.get(name, default)
    if val is None or kind is None:
        return val
    try:
        return kind(val)
    except ValueError as exc:
        raise InvalidSpecError(
            f"invalid value {val!r} for --{name.replace('_', '-')}"
        ) from exc


def _require(args, cfg, name: str, kind=None):
    val = _opt(args, cfg, name, kind=kind)
    if val is None:
        raise InvalidSpecError(f"missing required option --{name.replace('_', '-')}")
    return val


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def _write_manifest(out: Path, argv: list[str], config: dict, seed: int | None) -> None:
    manifest = {
        "tool": "qdistill",
        "version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "command": argv,
        "config": config,
        "seed": seed,
        "outputs": [str(out)],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    _manifest_path(out).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _rows_text(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    """Header plus one line per row, every line newline-terminated."""
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(columns)]
    lines.extend(sep.join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _write_rows(
    out: Path, rows: list[dict], columns: tuple[str, ...], fmt: str
) -> None:
    out.write_text(_rows_text(rows, columns, fmt), encoding="utf-8", newline="\n")


def _print_report(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


def _ghz_spec(args, cfg) -> tuple[GhzSpec, int, IndexPartition | None]:
    d = _require(args, cfg, "d", int)
    p = _require(args, cfg, "p", int)
    alphas = _cli_coeffs(_parse_floats(_require(args, cfg, "alphas", str)), "alphas")
    spec = GhzSpec(d, p, alphas)
    q = _opt(args, cfg, "q", 1, int)
    part_text = _opt(args, cfg, "partition")
    partition = _parse_partition(str(part_text)) if part_text else None
    return spec, q, partition


def _w_spec(args, cfg) -> tuple[WSpec, int]:
    p = _require(args, cfg, "p", int)
    betas = _cli_coeffs(_parse_floats(_require(args, cfg, "betas", str)), "betas")
    spec = WSpec(p, betas)
    q = _opt(args, cfg, "q", p - 1, int)
    return spec, q


def _protocol_config(args, cfg, family: Family) -> ProtocolConfig:
    n = _require(args, cfg, "n", int)
    if family is Family.GHZ_DIAGONAL:
        spec, q, partition = _ghz_spec(args, cfg)
        return ProtocolConfig(n, family, spec, q, partition)
    spec, q = _w_spec(args, cfg)
    return ProtocolConfig(n, family, spec, q)


def _finish_run(args, cfg, row: dict, columns, report_pairs, seed=None) -> int:
    _print_report(report_pairs)
    out_text = _opt(args, cfg, "out")
    if out_text:
        out = Path(str(out_text))
        fmt = str(_opt(args, cfg, "format", "csv"))
        _write_rows(out, [row], columns, fmt)
        _write_manifest(out, list(args.argv), {k: _fmt(v) for k, v in row.items()}, seed)
    return 0


def _cmd_ted(args, family: Family) -> int:
    cfg = _load_config_file(_opt(args, {}, "config"))
    config = _protocol_config(args, cfg, family)
    row = report_row(config, run_ted(config))
    pairs = [(k, row[k]) for k in CSV_COLUMNS]
    return _finish_run(args, cfg, row, CSV_COLUMNS, pairs)


def _cmd_tsd(args, family: Family) -> int:
    cfg = _load_config_file(_opt(args, {}, "config"))
    base = _protocol_config(args, cfg, family)
    s = _require(args, cfg, "s", int)
    report = run_tsd(SteeringConfig(base, s))
    row = {
        **report_row(base, report, s=s),
        "fidelity_assemblage": report.fidelity_assemblage,
        "minimizing_setting": report.minimizing_setting,
        "threshold": report.threshold,
    }
    pairs = [(k, row[k]) for k in STEERING_COLUMNS]
    return _finish_run(args, cfg, row, STEERING_COLUMNS, pairs)


def _cmd_sweep(args) -> int:
    cfg = _load_config_file(_opt(args, {}, "config"))
    preset = _require(args, cfg, "preset", str)
    overrides = {}
    for flag, field, parse in SWEEP_OVERRIDES:
        value = _opt(args, cfg, flag, kind=parse)
        if value is not None:
            overrides[field] = value
    if preset.startswith("ghz") and "p_values" in overrides:
        values = overrides.pop("p_values")
        if len(values) != 1:
            raise InvalidSpecError("GHZ sweeps take a single --p value")
        overrides["p"] = values[0]
    rows = grid_rows(preset_grid(preset, **overrides))
    out_text = _opt(args, cfg, "out")
    fmt = str(_opt(args, cfg, "format", "csv"))
    if out_text:
        out = Path(str(out_text))
        _write_rows(out, rows, CSV_COLUMNS, fmt)
        _write_manifest(out, list(args.argv), {"preset": preset}, None)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(_rows_text(rows, CSV_COLUMNS, fmt), end="")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config_file(_opt(args, {}, "config"))
    family = _require(args, cfg, "family", Family)
    config = _protocol_config(args, cfg, family)
    trials = _opt(args, cfg, "trials", 100000, int)
    seed = _opt(args, cfg, "seed", 0, int)
    stats = run_stats(config, trials, seed)
    pu = success_prob_per_copy(config)
    expected = overall_success(pu, config.n_copies)
    _print_report([
        ("family", family.value), ("n", config.n_copies),
        ("trials", trials), ("seed", seed),
        ("ps_per_copy", pu), ("ps_overall_expected", expected),
        ("success_rate", stats.success_rate),
        ("kept_count_histogram",
         " ".join(f"{k}:{v}" for k, v in stats.kept_count_histogram.items())),
    ])
    out_text = _opt(args, cfg, "out")
    if out_text:
        spec = config.spec
        d = spec.d if isinstance(spec, GhzSpec) else 2
        rows = [
            {
                "family": family.value, "d": d, "p": spec.p, "q": config.q,
                "n": config.n_copies, "trials": trials, "seed": seed,
                "ps_per_copy": pu, "ps_overall_expected": expected,
                "success_rate": stats.success_rate,
                "kept_count": kept, "count": count,
            }
            for kept, count in stats.kept_count_histogram.items()
        ]
        out = Path(str(out_text))
        fmt = str(_opt(args, cfg, "format", "csv"))
        _write_rows(out, rows, SIMULATE_COLUMNS, fmt)
        _write_manifest(out, list(args.argv), {"trials": trials}, seed)
    return 0


def _cmd_replay(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidSpecError(f"cannot read manifest {args.manifest}: {exc}") from exc
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, list):
        raise InvalidSpecError(f"manifest {args.manifest} has no recorded command")
    return main([str(tok) for tok in command])


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags win")
    sub.add_argument("--format", choices=("csv", "tsv"))
    sub.add_argument("--out", help="write CSV and a run manifest here")


def _add_ghz_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--alphas")
    sub.add_argument("--partition", help="blocks like '1,3|2'")


def _add_w_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--betas")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdistill",
        description="Threshold distillation of GHZ/W entanglement and steering",
    )
    parser.add_argument("--version", action="version", version=f"qdistill {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    ted_ghz = subs.add_parser("ted-ghz", help="GHZ entanglement distillation")
    _add_ghz_flags(ted_ghz)
    _add_common(ted_ghz)
    ted_ghz.set_defaults(func=lambda a: _cmd_ted(a, Family.GHZ_DIAGONAL))

    ted_w = subs.add_parser("ted-w", help="W entanglement distillation")
    _add_w_flags(ted_w)
    _add_common(ted_w)
    ted_w.set_defaults(func=lambda a: _cmd_ted(a, Family.W_SINGLE_EXCITATION))

    tsd_ghz = subs.add_parser("tsd-ghz", help="GHZ steering distillation")
    _add_ghz_flags(tsd_ghz)
    tsd_ghz.add_argument("--s", type=int)
    _add_common(tsd_ghz)
    tsd_ghz.set_defaults(func=lambda a: _cmd_tsd(a, Family.GHZ_DIAGONAL))

    sd_w = subs.add_parser("sd-w", help="W steering distillation (one-sided only)")
    _add_w_flags(sd_w)
    sd_w.add_argument("--s", type=int)
    _add_common(sd_w)
    sd_w.set_defaults(func=lambda a: _cmd_tsd(a, Family.W_SINGLE_EXCITATION))

    sweep = subs.add_parser("sweep", help="grid sweep to CSV")
    sweep.add_argument("--preset", choices=(
        "ghz-contour", "ghz-convergence", "ghz-dimension",
        "w-contour", "w-convergence",
    ))
    sweep.add_argument("--alpha0")
    sweep.add_argument("--beta0")
    sweep.add_argument("--pu", type=float)
    sweep.add_argument("--gap", type=float)
    sweep.add_argument("--d")
    sweep.add_argument("--p")
    sweep.add_argument("--n")
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    simulate = subs.add_parser("simulate", help="Monte Carlo protocol run")
    simulate.add_argument("--family", choices=("ghz", "w"))
    simulate.add_argument("--d", type=int)
    simulate.add_argument("--p", type=int)
    simulate.add_argument("--q", type=int)
    simulate.add_argument("--n", type=int)
    simulate.add_argument("--alphas")
    simulate.add_argument("--betas")
    simulate.add_argument("--partition")
    simulate.add_argument("--trials", type=int)
    simulate.add_argument("--seed", type=int)
    _add_common(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    replay = subs.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("manifest")
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except QdistillError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
