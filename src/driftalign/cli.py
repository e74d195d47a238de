"""Command-line front end: run | sweep | compare-means | generate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All flags can also come from a flat key=value config file via --config;
explicit command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import BadParameter, CsvParseError, DriftAlignError, LabelOutOfRange
from .pipeline import VARIANTS, PipelineConfig
from .experiments import compare_means, run_experiment, sweep
from .streams import (
    DRIFT_KINDS,
    DatasetSpec,
    DriftParams,
    Stream,
    generate_drift_stream,
    load_csv_stream,
    write_csv_stream,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


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
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="driftalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="report JSON path")
        data = p.add_argument_group("data")
        data.add_argument("--data", help="CSV stream path (omit to use --generate)")
        data.add_argument("--feature-dim", type=int)
        data.add_argument("--classes", type=int, default=2)
        data.add_argument("--source-fraction", type=float, default=0.1)
        data.add_argument("--header", action="store_true",
                          help="CSV has one header line")
        data.add_argument("--generate", choices=DRIFT_KINDS,
                          help="synthesize a stream of this drift kind")
        data.add_argument("--batches", type=int, default=100)
        data.add_argument("--drift-rate", type=float, default=0.0)
        data.add_argument("--noise", type=float, default=0.0)
        data.add_argument("--signal-dim", type=int, default=5)
        data.add_argument("--source-size", type=int, default=200)
        data.add_argument("--class-sep", type=float, default=12.0,
                          help="centroid scale of the synthetic classes")
        pipe = p.add_argument_group("pipeline")
        pipe.add_argument("--batch-size", type=int, default=2)
        pipe.add_argument("--subspace-dim", type=int,
                          help="default: d/2 capped at 100")
        pipe.add_argument("--variant", default="icms", choices=sorted(VARIANTS))
        pipe.add_argument("--classifier", default="nearest-class-mean",
                          choices=["nearest-class-mean", "linear-margin"])
        pipe.add_argument("--adaptive", action="store_true")
        pipe.add_argument("--blend", type=float, default=0.5)
        pipe.add_argument("--update-rate", type=float, default=0.1)

    run = sub.add_parser("run", help="run one variant over a stream")
    add_common(run)
    run.add_argument("--csv", help="also write a flat per-batch CSV here")

    sw = sub.add_parser("sweep", help="grid over subspace dims and batch sizes")
    add_common(sw)
    sw.add_argument("--k-values", default="",
                    help="comma-separated subspace dims")
    sw.add_argument("--batch-sizes", default="",
                    help="comma-separated batch sizes")

    cm = sub.add_parser("compare-means", help="compare mean-computation methods")
    add_common(cm)

    gen = sub.add_parser("generate", help="write a synthetic stream to CSV")
    add_common(gen)
    gen.add_argument("--out", required=True, help="CSV output path")

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


def _apply_config_file(
    parser: _Parser, commands: dict[str, _Parser], argv: list[str]
) -> argparse.Namespace:
    # A first parse finds --config; the file's values become the
    # subcommand's defaults, and a second parse lets every flag on the
    # command line, in full or abbreviated form, override them.
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    file_values = _read_config_file(args.config)
    actions = {
        action.dest: action
        for command in commands.values()
        for action in command._actions
    }
    unknown = set(file_values) - set(actions)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    commands[args.command].set_defaults(
        **{
            key: _config_value(actions[key], key, raw)
            for key, raw in file_values.items()
        }
    )
    return parser.parse_args(argv)


def _load_stream(args: argparse.Namespace) -> Stream:
    if args.data:
        if args.feature_dim is None:
            raise UsageError("--feature-dim is required with --data")
        spec = DatasetSpec(
            path=args.data,
            feature_dim=args.feature_dim,
            n_classes=args.classes,
            source_fraction=args.source_fraction,
            has_header=args.header,
        )
        return load_csv_stream(args.data, spec, args.batch_size)
    if args.generate:
        params = DriftParams(
            seed=args.seed,
            feature_dim=args.feature_dim or 30,
            n_classes=args.classes,
            n_batches=args.batches,
            batch_size=args.batch_size,
            drift_kind=args.generate,
            drift_rate=args.drift_rate,
            noise=args.noise,
            signal_dim=args.signal_dim,
            class_sep=args.class_sep,
            n_source=args.source_size,
        )
        return generate_drift_stream(params)
    raise UsageError("either --data or --generate is required")


def _pipeline_config(args: argparse.Namespace, feature_dim: int) -> PipelineConfig:
    k = args.subspace_dim
    if k is None:
        k = min(feature_dim // 2, 100)
    return PipelineConfig(
        subspace_dim=k,
        batch_size=args.batch_size,
        variant=args.variant,
        adaptive_classifier=args.adaptive,
        blend=args.blend,
        classifier_kind=args.classifier,
        update_rate=args.update_rate,
        seed=args.seed,
    )


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
        args = _apply_config_file(parser, commands, argv)
        if args.command == "generate":
            stream = _load_stream(args)
            write_csv_stream(stream, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        stream = _load_stream(args)
        cfg = _pipeline_config(args, stream.feature_dim)

        if args.command == "run":
            report = run_experiment(
                stream, cfg, output_path=args.output, csv_path=args.csv
            )
            if not args.output:
                _emit(report.to_dict(), None)
            else:
                print(f"A(B) = {report.summary['average_accuracy']}")
            return EXIT_OK

        if args.command == "sweep":
            k_values = _parse_int_list(args.k_values, "--k-values")
            batch_sizes = _parse_int_list(args.batch_sizes, "--batch-sizes")
            cells = sweep(stream.params, cfg, k_values, batch_sizes)
            _emit({"grid": [asdict(c) for c in cells]}, args.output)
            return EXIT_OK

        if args.command == "compare-means":
            rows = compare_means(stream, cfg)
            _emit({"rows": [asdict(r) for r in rows]}, args.output)
            return EXIT_OK

        raise UsageError(f"unknown command {args.command!r}")
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
