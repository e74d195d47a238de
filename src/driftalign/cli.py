"""Command-line front end: run | sweep | compare-means | generate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Each subcommand accepts only the flags it reads (``COMMANDS``). They can
also come from a flat key=value config file via --config, whose keys are
checked against the same flags; explicit command-line flags win over file
values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import BadParameter, CsvParseError, DriftAlignError, LabelOutOfRange
from .pipeline import VARIANTS, PipelineConfig
from .experiments import compare_means, run_experiment, sweep
from .streams import (
    DRIFT_KINDS, DatasetSpec, DriftParams, stream_from_params, write_csv_stream,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Every flag, with its argparse keywords. A flag's dest is the dataclass
# field it sets, in DriftParams or DatasetSpec (the stream), PipelineConfig
# (the run) or both; a flag that is not given sets nothing, so the
# dataclasses hold every default.
_FLAGS = {
    "--config": dict(help="flat key=value config file"),
    "--seed": dict(type=int),
    "--output": dict(help="report JSON path (default: stdout); "
                          "for generate, the CSV path (required)"),
    "--data": dict(dest="path", help="CSV stream path (omit to use --generate)"),
    "--feature-dim": dict(type=int),
    "--classes": dict(dest="n_classes", type=int),
    "--source-fraction": dict(type=float),
    "--header": dict(dest="has_header", action="store_true",
                     help="CSV has one header line"),
    "--generate": dict(dest="drift_kind", choices=DRIFT_KINDS,
                       help="synthesize a stream of this drift kind"),
    "--batches": dict(dest="n_batches", type=int),
    "--drift-rate": dict(type=float),
    "--noise": dict(type=float),
    "--signal-dim": dict(type=int),
    "--source-size": dict(dest="n_source", type=int),
    "--class-sep": dict(type=float, help="centroid scale of the synthetic classes"),
    "--batch-size": dict(type=int),
    "--subspace-dim": dict(type=int, help="default: d/2 capped at 100"),
    "--variant": dict(choices=sorted(VARIANTS)),
    "--classifier": dict(dest="classifier_kind",
                         choices=["nearest-class-mean", "linear-margin"]),
    "--adaptive": dict(dest="adaptive_classifier", action="store_true"),
    "--blend": dict(type=float),
    "--update-rate": dict(type=float),
    "--csv": dict(help="also write a flat per-batch CSV here"),
    "--k-values": dict(help="comma-separated subspace dims"),
    "--batch-sizes": dict(help="comma-separated batch sizes"),
}

_DATA = (
    "--data", "--feature-dim", "--classes", "--source-fraction", "--header",
    "--generate", "--batches", "--drift-rate", "--noise", "--signal-dim",
    "--source-size", "--class-sep",
)
_CLASSIFIER = ("--classifier", "--adaptive", "--update-rate")

# Each subcommand's help line and the flags it reads; it accepts no other.
# sweep takes its subspace dims and batch sizes from its grid, and
# compare-means runs its own three variants, none of which predicts.
COMMANDS = {
    "run": ("run one variant over a stream", (
        "--config", "--seed", "--output", *_DATA, "--batch-size",
        "--subspace-dim", "--variant", "--blend", *_CLASSIFIER, "--csv",
    )),
    "sweep": ("grid over subspace dims and batch sizes", (
        "--config", "--seed", "--output", *_DATA, "--variant", "--blend",
        *_CLASSIFIER, "--k-values", "--batch-sizes",
    )),
    "compare-means": ("compare mean-computation methods", (
        "--config", "--seed", "--output", *_DATA, "--batch-size",
        "--subspace-dim", *_CLASSIFIER,
    )),
    "generate": ("write a stream to CSV", (
        "--config", "--seed", "--output", *_DATA, "--batch-size",
    )),
}

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures at exit code 1
        raise UsageError(message)


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for line_number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line_number}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="driftalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in COMMANDS.items():
        command = sub.add_parser(
            name, help=help_line, argument_default=argparse.SUPPRESS
        )
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser, sub.choices


def _config_value(action: argparse.Action, key: str, raw: str):
    """A config-file string converted and checked as its flag would be."""
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        if raw.lower() not in ("true", "false"):
            raise UsageError(f"config key {key}: expected true or false, got {raw!r}")
        value = raw.lower() == "true"
    elif action.type is not None:
        try:
            value = action.type(raw)
        except ValueError as err:
            raise UsageError(f"config key {key}: {err}") from None
    else:
        value = raw
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {key}: invalid choice {value!r} "
            f"(choose from {', '.join(map(str, action.choices))})"
        )
    return value


def _parse_args(
    parser: _Parser, commands: dict[str, _Parser], argv: list[str]
) -> argparse.Namespace:
    # A first parse finds the subcommand and --config; the file's values
    # become the subcommand's defaults, and a second parse lets every flag
    # on the command line, in full or abbreviated form, override them.
    args = parser.parse_args(argv)
    own = COMMANDS[args.command][1]
    for token in argv:
        # Refused by its full name, not read as an abbreviation of a flag
        # this subcommand takes (sweep's --batch-sizes for --batch-size).
        flag = token.split("=", 1)[0]
        if flag in _FLAGS and flag not in own:
            raise UsageError(f"{args.command} takes no {flag}")
    if "config" not in args:
        return args
    file_values = _read_config_file(args.config)
    command = commands[args.command]
    # Keys are flag names; each value lands on its flag's dest.
    actions = {flag[2:]: command._option_string_actions[flag] for flag in own}
    unknown = set(file_values) - set(actions)
    if unknown:
        raise UsageError(f"unknown {args.command} config keys: {sorted(unknown)}")
    command.set_defaults(
        **{
            actions[key].dest: _config_value(actions[key], key, raw)
            for key, raw in file_values.items()
        }
    )
    return parser.parse_args(argv)


def _given(args: argparse.Namespace, *specs: type) -> dict:
    """The given flags whose dest is a field of one of the dataclasses."""
    names = {f.name for spec in specs for f in fields(spec)}
    return {key: value for key, value in vars(args).items() if key in names}


def _stream_params(args: argparse.Namespace) -> dict:
    """The stream flags given, as ``stream_from_params`` reads them."""
    params = _given(args, DriftParams, DatasetSpec)
    if "path" in params and "drift_kind" in params:
        raise UsageError("give either --data or --generate, not both")
    if "path" in params:
        return {"kind": "csv", **params}
    if "drift_kind" in params:
        return {"kind": "synthetic", **params}
    raise UsageError("either --data or --generate is required")


def _pipeline_config(args: argparse.Namespace, subspace_dim: int) -> PipelineConfig:
    """The config flags given, with ``subspace_dim`` unless --subspace-dim is."""
    values = {"subspace_dim": subspace_dim, **_given(args, PipelineConfig)}
    return PipelineConfig(**values)


def _parse_int_list(text: str, flag: str) -> list[int]:
    if not text:
        raise UsageError(f"{flag} is required")
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise UsageError(f"{flag}: {err}") from None


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = _parse_args(parser, commands, argv)
        params = _stream_params(args)
        output = getattr(args, "output", None)
        if args.command == "generate":
            if not output:
                raise UsageError("--output is required")
            write_csv_stream(stream_from_params(params), output)
            print(f"wrote {output}")
            return EXIT_OK

        if args.command == "sweep":
            k_values = _parse_int_list(getattr(args, "k_values", ""), "--k-values")
            batch_sizes = _parse_int_list(
                getattr(args, "batch_sizes", ""), "--batch-sizes"
            )
            # Each cell sets its own subspace dim; 1 is valid at every d.
            cells = sweep(params, _pipeline_config(args, 1), k_values, batch_sizes)
            _emit({"grid": [asdict(c) for c in cells]}, output)
            return EXIT_OK

        stream = stream_from_params(params)
        cfg = _pipeline_config(args, min(stream.feature_dim // 2, 100))
        if args.command == "run":
            report = run_experiment(
                stream, cfg, output_path=output, csv_path=getattr(args, "csv", None)
            )
            if not output:
                _emit(report.to_dict(), None)
            else:
                print(f"A(B) = {report.summary['average_accuracy']}")
            return EXIT_OK

        rows = compare_means(stream, cfg)
        _emit({"rows": [asdict(r) for r in rows]}, output)
        return EXIT_OK
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CsvParseError, LabelOutOfRange, BadParameter, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except DriftAlignError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
