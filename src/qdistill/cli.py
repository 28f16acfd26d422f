"""Command-line front end.

Subcommands
-----------
ted-ghz / ted-w     run one entanglement-distillation instance
tsd-ghz / sd-w      run one steering-distillation instance
sweep               emit a long-format CSV over a parameter grid
simulate            Monte Carlo run of the N-copy protocol
replay              re-execute the command recorded in a run manifest

Each command's flags are one table, ``COMMANDS``: a row per flag with its
type, choices, default and help.  A well-formed command line is read
straight from that table, with no parser built.  Any other line (``--help``,
``--version``, an abbreviated or unknown flag, ``--``, a missing, dash-led or
invalid value) goes to the one argparse tree of all commands, declared from
the same table, which prints the help or version or refuses the line.

Reports go to stdout as ``key = value`` lines; ``--out`` additionally writes
a CSV (or TSV) with a fixed, versioned schema plus a JSON run manifest next
to it (``<out stem>.manifest.json``).  The schemas, with the type of each
column that changes line by line, are :mod:`qdistill.sweep`'s; one block
writer formats every CSV by them.  Numeric fields are printed with 12
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
import os
import platform
import stat
import sys
from datetime import datetime, timezone
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import InvalidSpecError, QdistillError, WorkCapExceededError
from .filters import IndexPartition
from .states import Family, GhzSpec, WSpec, _validated_coeffs, span_shape
from .sweep import (CSV_COLUMNS, CSV_SCHEMA_VERSION, LINE_COLUMNS, PRESETS, ROW_CAP,
                    SIMULATE_COLUMNS, SIMULATE_LINE_COLUMNS, STEERING_COLUMNS, grid_curves,
                    report_row)
from .ted import ProtocolConfig, overall_success, run_ted, success_prob_per_copy
from .tsd import SteeringConfig, run_tsd
from .montecarlo import run_stats

CLI_NORM_TOL = 1e-3  # hand-typed coefficients are renormalized within this of unit norm

# the sweep flags, each passed to grid_curves as the axis of its own name
SWEEP_AXES = ("alpha0", "beta0", "pu", "gap", "d", "p", "n")


# a cell's text by its exact type, as a ``%`` conversion where the type has one
# (a bool has none: %d or %s would print it as 1 or True); any other type
# (numpy's ints and bools, subclasses) by str()
CELL_CONVERSIONS = {float: "%.12g", np.float64: "%.12g", int: "%d", str: "%s"}
CELL_FORMATS = {**{kind: conversion.__mod__ for kind, conversion in CELL_CONVERSIONS.items()},
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
    values = tuple(_finite(v) for v in _parse_floats(text))
    if not values:
        raise InvalidSpecError(f"float list {text!r} is empty")
    return values


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


def _csv_text(columns: tuple[str, ...], lined: dict[str, type], blocks, fmt: str) -> str:
    """Header plus each block's lines, each newline-terminated.  ``lined``
    maps each column that changes line by line, in ``columns`` order, to the
    one type of its cells, a key of ``CELL_CONVERSIONS``.  A block is
    ``(fixed, lines)``: a cell of every other column, in ``columns`` order,
    and a sized collection of lines, each a tuple of a cell per ``lined``
    column.  A block's lines are each ``%`` of one template: its fixed cells'
    text (a ``%`` doubled) and each ``lined`` column's conversion."""
    sep = "\t" if fmt == "tsv" else ","
    # a fixed cell's slot, or a lined column's conversion with its % doubled
    layout = sep.join(CELL_CONVERSIONS[lined[column]].replace("%", "%%") if column in lined
                      else "%s" for column in columns) + "\n"
    parts = [sep.join(columns) + "\n"]
    for fixed, lines in blocks:
        if lines:
            template = layout % tuple(_fmt(value).replace("%", "%%") for value in fixed)
            parts.append("".join(map(template.__mod__, lines)))
    return "".join(parts)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for what a manifest
    holds (dicts with str keys, lists, str, int, bool and None), without the
    pure-Python encoder that any ``indent`` selects."""
    if isinstance(value, (dict, list)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        if isinstance(value, list):
            return "[" + ",".join(inner + _json_text(v, inner) for v in value) + indent + "]"
        return "{" + ",".join(f"{inner}{encode_basestring_ascii(key)}: {_json_text(v, inner)}"
                              for key, v in sorted(value.items())) + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a manifest holds no {type(value).__name__}")


def _overwrite(path: str | Path, text: str) -> None:
    """Write ``text`` over ``path`` in place as utf-8, then cut a regular file
    to its length.  Nothing truncates the file to zero, which ext4 answers
    with a flush when the file is closed (``auto_da_alloc``), so a rewrite
    does not wait on the disk.  As with ``Path.write_text``, a symlink's
    target or a hard link's one file takes the bytes."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:  # a write may take fewer bytes than given
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a FIFO or device has no length
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_out(args, columns, lined, blocks, manifest_config: dict, seed=None) -> Path | None:
    """Write the CSV of ``blocks`` (see :func:`_csv_text`) to ``--out`` and a
    run manifest next to it (``<out stem>.manifest.json``); the path, or
    None without ``--out``."""
    if args.out is None:
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
    try:  # the path as typed: Path() drops a trailing separator, open() refuses it
        _overwrite(args.out, _csv_text(columns, lined, blocks, args.format))
        _overwrite(out.with_name(out.stem + ".manifest.json"), _json_text(manifest) + "\n")
    except OSError as exc:
        raise InvalidSpecError(f"cannot write --out {args.out}: {exc}") from exc
    return out


def _print_report(cells: dict[str, str]) -> None:
    """The report's ``key = text`` lines, in one write."""
    sys.stdout.write("".join(f"{key} = {text}\n" for key, text in cells.items()))


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
    cells = {key: _fmt(value) for key, value in row.items()}  # the report, config and CSV line
    _print_report(cells)
    # one block of one line, the cells in the schema's order (report_row's)
    _write_out(args, STEERING_COLUMNS if steering else CSV_COLUMNS, {}, [(cells.values(), [()])],
               cells)
    return 0


def _cmd_sweep(args) -> int:
    preset = _need(args, "preset")
    overrides = {axis: value for axis in SWEEP_AXES if (value := getattr(args, axis)) is not None}
    curves = grid_curves(preset, **overrides)
    out = _write_out(args, CSV_COLUMNS, LINE_COLUMNS, curves, {"preset": preset})
    if out:
        print(f"wrote {sum(len(curve.lines) for curve in curves)} rows to {out}")
    else:
        sys.stdout.write(_csv_text(CSV_COLUMNS, LINE_COLUMNS, curves, args.format))
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
    _print_report({**{key: _fmt(value) for key, value in run.items()},
                   "kept_count_histogram": " ".join(f"{k}:{v}" for k, v in histogram.items())})
    run.update(d=span_shape(config.spec)[1], p=config.spec.p, q=config.q)
    # one block, its lines formatted only if written: the histogram can have N entries
    fixed = [run[column] for column in SIMULATE_COLUMNS if column not in SIMULATE_LINE_COLUMNS]
    _write_out(args, SIMULATE_COLUMNS, SIMULATE_LINE_COLUMNS, [(fixed, histogram.items())],
               {"trials": args.trials}, args.seed)
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

    def error(self, message: str):
        raise InvalidSpecError(message)


class Flag(NamedTuple):
    """One ``--name`` of a command: the function that converts its text
    (None keeps the text), the values it may take, its value when absent and
    its line in ``--help``."""

    name: str
    type: Callable[[str], object] | None = None
    choices: tuple | None = None
    default: object = None
    help: str | None = None


class Command(NamedTuple):
    """A subcommand: its line in the top-level help, the function that runs
    it, its flags in ``--help`` order and its one positional, if it takes one."""

    help: str
    func: Callable
    flags: tuple[Flag, ...] = ()
    positional: str | None = None


COMMON_FLAGS = (
    Flag("config", help="flat key = value config file; flags win"),
    Flag("format", choices=("csv", "tsv"), default="csv"),
    Flag("out", help="write CSV and a run manifest here"),
)
GHZ_FLAGS = (*(Flag(name, int) for name in ("d", "p", "q", "n")), Flag("alphas", _parse_floats))
W_FLAGS = (*(Flag(name, int) for name in ("p", "q", "n")), Flag("betas", _parse_floats))
GHZ_RUN_FLAGS = (*GHZ_FLAGS, Flag("partition", _parse_partition, help="blocks like '1,3|2'"))

# subcommand -> its row, in the order the help lists them
COMMANDS = {
    "ted-ghz": Command("GHZ entanglement distillation",
                       partial(_cmd_run, family=Family.GHZ_DIAGONAL, steering=False),
                       (*GHZ_RUN_FLAGS, *COMMON_FLAGS)),
    "ted-w": Command("W entanglement distillation",
                     partial(_cmd_run, family=Family.W_SINGLE_EXCITATION, steering=False),
                     (*W_FLAGS, *COMMON_FLAGS)),
    "tsd-ghz": Command("GHZ steering distillation",
                       partial(_cmd_run, family=Family.GHZ_DIAGONAL, steering=True),
                       (*GHZ_RUN_FLAGS, Flag("s", int), *COMMON_FLAGS)),
    "sd-w": Command("W steering distillation (one-sided only)",
                    partial(_cmd_run, family=Family.W_SINGLE_EXCITATION, steering=True),
                    (*W_FLAGS, Flag("s", int), *COMMON_FLAGS)),
    "sweep": Command("grid sweep to CSV", _cmd_sweep, (
        Flag("preset", choices=tuple(sorted(PRESETS))),
        Flag("alpha0", _finite_floats),
        Flag("beta0", _finite_floats),
        Flag("pu", lambda text: (_finite(text),)),  # one value, a 1-tuple axis
        Flag("gap", _finite),
        *(Flag(name, _parse_int_values) for name in ("d", "p", "n")),
        *COMMON_FLAGS,
    )),
    "simulate": Command("Monte Carlo protocol run", _cmd_simulate, (
        Flag("family", choices=("ghz", "w")),
        *GHZ_FLAGS,
        Flag("betas", _parse_floats),
        Flag("partition", _parse_partition),
        Flag("trials", int, default=100000),
        Flag("seed", int, default=0),
        *COMMON_FLAGS,
    )),
    "replay": Command("re-run a recorded manifest", _cmd_replay, positional="manifest"),
}


def build_parser() -> argparse.ArgumentParser:
    """The tree of every subcommand, each declared from its row of
    ``COMMANDS``: flags, positional and ``func``."""
    parser = _Parser(
        prog="qdistill",
        description="Threshold distillation of GHZ/W entanglement and steering",
    )
    parser.add_argument("--version", action="version", version=f"qdistill {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        sub = subs.add_parser(name, help=row.help)
        for flag in row.flags:
            sub.add_argument(f"--{flag.name}", type=flag.type, choices=flag.choices,
                             default=flag.default, help=flag.help)
        if row.positional:
            sub.add_argument(row.positional)
        sub.set_defaults(func=row.func)
    return parser


def _read(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the tree gives ``[command, *tokens]``, read from the
    command's flag table, or None for argparse to read and word.  None is
    any line with a token that is not exactly ``--flag`` or ``--flag=value``
    of the table, a separate value missing or starting with '-', a value its
    type raises on or its choices exclude, or the wrong number of
    positionals."""
    row = COMMANDS[command]
    flags = {flag.name: flag for flag in row.flags}
    values = {flag.name: flag.default for flag in row.flags}
    positionals = []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, text = token[2:].partition("=")
        flag = flags.get(name) if token.startswith("--") else None
        if flag is None:
            return None
        if not eq:
            text = next(tokens, "-")  # a missing value fails as a dash-led one
            if text.startswith("-"):
                return None
        try:
            value = text if flag.type is None else flag.type(text)
        except Exception:  # argparse calls the type again, and words or raises it
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[name] = value
    if len(positionals) != (row.positional is not None):
        return None
    if positionals:
        values[row.positional] = positionals[0]
    return argparse.Namespace(command=command, func=row.func, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a command line, with its ``--config`` lines in front of the
    command's own flags.  A well-formed line is read from the command's flag
    table; any other line goes to the argparse tree, which prints the help or
    version and exits, or refuses the line."""
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)
        # the tree takes a command only as the first token; how it reads a
        # leading '--' differs across Python versions
        raise InvalidSpecError(f"the command must come first: {' '.join(argv)!r}")
    command, tokens = argv[0], argv[1:]
    args = _read(command, tokens) or build_parser().parse_args(argv)
    if getattr(args, "config", None) is not None:
        tokens = _config_tokens(args) + tokens
        args = _read(command, tokens) or build_parser().parse_args([command, *tokens])
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
