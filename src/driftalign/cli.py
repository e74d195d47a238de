"""Command-line front end: run | sweep | compare-means | generate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Each subcommand accepts only the flags it reads (``COMMANDS``). They can
also come from a flat key=value config file via --config: each line is the
flag it names, read before the command line, so command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .classifiers import KINDS
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


def _int_list(text: str) -> list[int]:
    """A comma-separated list of at least one integer."""
    values = [int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no integer in {text!r}")
    return values


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
    "--classifier": dict(dest="classifier_kind", choices=KINDS),
    "--adaptive": dict(dest="adaptive_classifier", action="store_true"),
    "--blend": dict(type=float),
    "--update-rate": dict(type=float),
    "--csv": dict(help="also write a flat per-batch CSV here"),
    "--k-values": dict(type=_int_list, help="comma-separated subspace dims"),
    "--batch-sizes": dict(type=_int_list, help="comma-separated batch sizes"),
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


def _build_parser() -> _Parser:
    """The top-level parser, with one subparser per subcommand."""
    parser = _Parser(prog="driftalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in COMMANDS.items():
        command = sub.add_parser(
            name, help=help_line, argument_default=argparse.SUPPRESS
        )
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def _read_config_file(path: str, own: tuple[str, ...]) -> list[str]:
    """A flat key=value file's lines as the flags they name, full names of ``own``."""
    tokens = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if not equals:
            raise UsageError(f"{path}:{number}: expected key=value")
        if flag not in own:
            raise UsageError(f"{path}:{number}: no flag {flag} here")
        if _FLAGS[flag].get("action") != "store_true":
            tokens.append(f"{flag}={value}")  # "=" keeps a value such as -3 one
        elif value.lower() not in ("true", "false"):
            raise UsageError(f"{path}:{number}: expected true or false, got {value!r}")
        elif value.lower() == "true":
            tokens.append(flag)  # and false adds none, as if it were left out
    return tokens


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # The first parse finds the subcommand and --config. The file's flags go
    # before the command line's, and argparse keeps the last value given.
    parser = _build_parser()
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
    file_tokens = _read_config_file(args.config, own)
    return parser.parse_args([args.command, *file_tokens, *argv[1:]])


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


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        params = _stream_params(args)
        output = getattr(args, "output", None)
        if args.command == "generate":
            if not output:
                raise UsageError("--output is required")
            write_csv_stream(stream_from_params(params), output)
            print(f"wrote {output}")
            return EXIT_OK

        if args.command == "sweep":
            # Not required=True: the first parse runs before the file's flags.
            if "k_values" not in args or "batch_sizes" not in args:
                raise UsageError("--k-values and --batch-sizes are required")
            cfg = _pipeline_config(args, 1)  # each cell sets its own; 1 fits any d
            cells = sweep(params, cfg, args.k_values, args.batch_sizes)
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
