"""Command-line front end.

Subcommands
-----------
ted-ghz / ted-w     run one entanglement-distillation instance
tsd-ghz / sd-w      run one steering-distillation instance
sweep               emit a long-format CSV over a parameter grid
simulate            Monte Carlo run of the N-copy protocol
replay              re-execute the command recorded in a run manifest

A command builds only its own parser from the ``COMMANDS`` table; ``--help``
without a command shows the whole tree.

Reports go to stdout as ``key = value`` lines; ``--out`` additionally writes
a CSV (or TSV) with a fixed, versioned schema plus a JSON run manifest next
to it (``<out stem>.manifest.json``).  Numeric fields are printed with 12
significant digits, so repeated runs are byte-identical.

``--config FILE`` lines ``key = value`` are parsed as flags ``--key=value``
put before the command-line flags: they are checked like flags, a flag on the
command line wins, and keys that name no flag of the command are ignored.

On failure the process exits nonzero after printing a single line
``error category=<Category>: <message>`` to stderr; a command line or config
value the parser rejects is ``InvalidSpec``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import sys
from datetime import datetime, timezone
from functools import cached_property, partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidSpecError, QdistillError, WorkCapExceededError
from .filters import IndexPartition
from .states import Family, GhzSpec, WSpec, _validated_coeffs, span_shape
from .sweep import (CSV_COLUMNS, CSV_SCHEMA_VERSION, PRESETS, ROW_CAP, STEERING_COLUMNS,
                    grid_rows, preset_grid, report_row)
from .ted import ProtocolConfig, overall_success, run_ted, success_prob_per_copy
from .tsd import SteeringConfig, run_tsd
from .montecarlo import run_stats

CLI_NORM_TOL = 1e-3  # hand-typed coefficients are renormalized within this of unit norm

SIMULATE_COLUMNS = (
    "family", "d", "p", "q", "n", "trials", "seed",
    "ps_per_copy", "ps_overall_expected", "success_rate",
    "kept_count", "count",
)

SWEEP_FIELDS = {  # sweep flag -> SweepGrid field
    "alpha0": "alpha0_values", "beta0": "beta0_values", "pu": "pu", "gap": "gap",
    "d": "d_values", "n": "n_values", "p": "p_values",
}


# a cell's text by its exact type; any other (numpy's ints and bools, subclasses) by str()
CELL_FORMATS = {float: "{:.12g}".format, np.float64: "{:.12g}".format, int: str, str: str,
                bool: {True: "true", False: "false"}.__getitem__,
                tuple: lambda t: "".join(map(str, t))}


def _fmt(value) -> str:
    return CELL_FORMATS.get(type(value), str)(value)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse float list {text!r}: {exc}") from exc


def _parse_int_values(text: str) -> tuple[int, ...]:
    """Accept '5', '2:10', '2:10:2', '10:2:-2' or '3,4,7' (ranges include
    their end for either sign of the step).  A range of more than three
    fields ('2:6:2:99') is refused, as is one longer than the sweep row cap,
    before it is built."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, *step = (int(tok) for tok in text.split(":"))
            (step,) = step or (1,)  # ValueError past three fields
            values = range(start, stop + (1 if step > 0 else -1), step)
        else:
            values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse integer range {text!r}") from exc
    if not values:
        raise InvalidSpecError(f"integer range {text!r} is empty")
    if values[ROW_CAP:]:  # not len(): it overflows past sys.maxsize
        raise WorkCapExceededError(
            f"integer range {text!r} has more than {ROW_CAP} values, the sweep row cap"
        )
    return tuple(values)


def _finite(text: str) -> float:
    try:
        number = float(text)
    except ValueError as exc:  # argparse adds the flag: "argument --pu: invalid ..."
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(number):
        raise InvalidSpecError(f"sweep value {number!r} is not finite")
    return number


def _finite_floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in _parse_floats(text))


def _parse_partition(text: str) -> IndexPartition | None:
    """Blocks separated by '|', indices within a block by ',': '1,3|2'; '' is none."""
    if not text:
        return None
    try:
        blocks = tuple(
            frozenset(int(tok) for tok in part.split(",") if tok.strip())
            for part in text.split("|")
        )
    except ValueError as exc:
        raise InvalidSpecError(f"cannot parse partition {text!r}") from exc
    return IndexPartition(blocks)


def _config_tokens(args) -> list[str]:
    """The ``--config`` lines whose key names a flag of the command, as
    ``--key=value`` (so a value starting with '-' is not read as a flag)."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpecError(f"cannot read config file {args.config!r}: {exc}") from exc
    flags = vars(args).keys() - {"command", "func"}  # the rest are flag dests, named as the flags
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpecError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        if key.strip() in flags:
            tokens.append(f"--{key.strip()}={val.strip()}")
    return tokens


def _need(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise InvalidSpecError(f"missing required option --{name}")
    return value


def _rows_text(rows, columns: tuple[str, ...], fmt: str) -> str:
    """Header plus one line per row, each newline-terminated; a column whose
    cells share a type takes that type's formatter once, not per cell."""
    sep, rows, cells = "\t" if fmt == "tsv" else ",", list(rows), []
    for values in (list(map(itemgetter(column), rows)) for column in columns):
        kinds = set(map(type, values))
        cells.append(map(CELL_FORMATS.get(kinds.pop(), str) if len(kinds) == 1 else _fmt, values))
    return "\n".join([sep.join(columns), *map(sep.join, zip(*cells))]) + "\n"


def _write_out(args, rows, columns, manifest_config: dict, seed=None) -> Path | None:
    """Write ``rows`` to ``--out`` and a run manifest next to it
    (``<out stem>.manifest.json``); the path, or None without ``--out``."""
    if not args.out:
        return None
    out = Path(args.out)
    manifest = {
        "tool": "qdistill",
        "version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "command": args.argv,
        "config": manifest_config,
        "seed": seed,
        "outputs": [str(out)],
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
    }
    try:
        out.write_text(_rows_text(rows, columns, args.format), encoding="utf-8", newline="\n")
        out.with_name(out.stem + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise InvalidSpecError(f"cannot write --out {args.out}: {exc}") from exc
    return out


def _print_report(pairs) -> None:
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


def _protocol_config(args, family: Family) -> ProtocolConfig:
    other = ("betas",) if family is Family.GHZ_DIAGONAL else ("d", "alphas")
    given = [f"--{name}" for name in other if getattr(args, name, None) is not None]
    if given:
        raise InvalidSpecError(f"the {family.value} family does not read {', '.join(given)}")
    n = _need(args, "n")
    if family is Family.GHZ_DIAGONAL:
        d, p = _need(args, "d"), _need(args, "p")
        spec = GhzSpec(d, p, _validated_coeffs(_need(args, "alphas"), d, "alphas", CLI_NORM_TOL))
        q = 1 if args.q is None else args.q
    else:
        p = _need(args, "p")
        spec = WSpec(p, _validated_coeffs(_need(args, "betas"), p, "betas", CLI_NORM_TOL))
        q = p - 1 if args.q is None else args.q
    return ProtocolConfig(n, family, spec, q, getattr(args, "partition", None))


def _cmd_run(args, family: Family, steering: bool) -> int:
    config = _protocol_config(args, family)
    if steering:
        config = SteeringConfig(config, _need(args, "s"))
    row = report_row(config, run_tsd(config) if steering else run_ted(config))
    _print_report(row.items())
    columns = STEERING_COLUMNS if steering else CSV_COLUMNS
    _write_out(args, [row], columns, {k: _fmt(v) for k, v in row.items()})
    return 0


def _cmd_sweep(args) -> int:
    preset = _need(args, "preset")
    overrides = {field: getattr(args, flag) for flag, field in SWEEP_FIELDS.items()
                 if getattr(args, flag) is not None}
    rows = grid_rows(preset_grid(preset, **overrides))
    out = _write_out(args, rows, CSV_COLUMNS, {"preset": preset})
    if out:
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(_rows_text(rows, CSV_COLUMNS, args.format), end="")
    return 0


def _cmd_simulate(args) -> int:
    family = Family(_need(args, "family"))
    config = _protocol_config(args, family)
    stats = run_stats(config, args.trials, args.seed)
    pu = success_prob_per_copy(config)
    run = {
        "family": family.value, "n": config.n_copies, "trials": args.trials, "seed": args.seed,
        "ps_per_copy": pu, "ps_overall_expected": overall_success(pu, config.n_copies),
        "success_rate": stats.success_rate,
    }
    histogram = stats.kept_count_histogram
    _print_report([*run.items(),
                   ("kept_count_histogram", " ".join(f"{k}:{v}" for k, v in histogram.items()))])
    run.update(d=span_shape(config.spec)[1], p=config.spec.p, q=config.q)
    # a generator, built only if written: the histogram can have N entries
    rows = ({**run, "kept_count": k, "count": c} for k, c in histogram.items())
    _write_out(args, rows, SIMULATE_COLUMNS, {"trials": args.trials}, args.seed)
    return 0


def _cmd_replay(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidSpecError(f"cannot read manifest {args.manifest}: {exc}") from exc
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, list):
        raise InvalidSpecError(f"manifest {args.manifest} has no recorded command")
    replayed = _parse([str(tok) for tok in command])
    if replayed.command == "replay":
        raise InvalidSpecError(f"manifest {args.manifest} records a replay, not a run")
    return replayed.func(replayed)


class _Parser(argparse.ArgumentParser):
    """Rejects a command line by raising InvalidSpecError, not by exiting."""

    # argparse's default help width, read once, not once per flag declared
    _width = cached_property(lambda self: shutil.get_terminal_size().columns - 2)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=self._width)

    def error(self, message: str):
        raise InvalidSpecError(message)


def _add_ints(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", type=int)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags win")
    sub.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sub.add_argument("--out", help="write CSV and a run manifest here")


def _add_run(sub: argparse.ArgumentParser, family: Family, steering: bool) -> None:
    if family is Family.GHZ_DIAGONAL:
        _add_ints(sub, "d", "p", "q", "n")
        sub.add_argument("--alphas", type=_parse_floats)
        sub.add_argument("--partition", type=_parse_partition, help="blocks like '1,3|2'")
    else:
        _add_ints(sub, "p", "q", "n")
        sub.add_argument("--betas", type=_parse_floats)
    if steering:
        _add_ints(sub, "s")
    _add_common(sub)
    sub.set_defaults(func=partial(_cmd_run, family=family, steering=steering))


def _add_sweep(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_argument("--alpha0", type=_finite_floats)
    sub.add_argument("--beta0", type=_finite_floats)
    sub.add_argument("--pu", type=_finite)
    sub.add_argument("--gap", type=_finite)
    for name in ("d", "p", "n"):
        sub.add_argument(f"--{name}", type=_parse_int_values)
    _add_common(sub)
    sub.set_defaults(func=_cmd_sweep)


def _add_simulate(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("ghz", "w"))
    _add_ints(sub, "d", "p", "q", "n")
    sub.add_argument("--alphas", type=_parse_floats)
    sub.add_argument("--betas", type=_parse_floats)
    sub.add_argument("--partition", type=_parse_partition)
    sub.add_argument("--trials", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)
    sub.set_defaults(func=_cmd_simulate)


def _add_replay(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("manifest")
    sub.set_defaults(func=_cmd_replay)


# subcommand -> (its line in the top-level help, the function that declares
# its flags and its ``func``), in the order the help lists them
COMMANDS = {
    "ted-ghz": ("GHZ entanglement distillation",
                partial(_add_run, family=Family.GHZ_DIAGONAL, steering=False)),
    "ted-w": ("W entanglement distillation",
              partial(_add_run, family=Family.W_SINGLE_EXCITATION, steering=False)),
    "tsd-ghz": ("GHZ steering distillation",
                partial(_add_run, family=Family.GHZ_DIAGONAL, steering=True)),
    "sd-w": ("W steering distillation (one-sided only)",
             partial(_add_run, family=Family.W_SINGLE_EXCITATION, steering=True)),
    "sweep": ("grid sweep to CSV", _add_sweep),
    "simulate": ("Monte Carlo protocol run", _add_simulate),
    "replay": ("re-run a recorded manifest", _add_replay),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full tree of subcommands, or with ``command`` that subcommand's
    parser alone, named and behaving as its node of the tree; its namespace
    carries ``command`` as the tree's does."""
    if command is not None:
        parser = _Parser(prog=f"qdistill {command}")
        COMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = _Parser(
        prog="qdistill",
        description="Threshold distillation of GHZ/W entanglement and steering",
    )
    parser.add_argument("--version", action="version", version=f"qdistill {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in COMMANDS.items():
        add_flags(subs.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a command line, with its ``--config`` lines in front of the
    command's own flags.  Only the parser of the command in ``argv[0]`` is
    built; any other command line goes to the full tree, which prints the
    help or version and exits, or refuses the line."""
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)
        # the tree takes a command only as the first token
        raise InvalidSpecError(f"the command must come first: {' '.join(argv)!r}")
    parser = build_parser(argv[0])
    args = parser.parse_args(argv[1:])
    if getattr(args, "config", None):
        args = parser.parse_args(_config_tokens(args) + argv[1:])
    args.argv = argv
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
        return args.func(args)
    except QdistillError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
