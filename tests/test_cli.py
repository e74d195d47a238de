import itertools
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from driftalign import cli
from driftalign.cli import main
from driftalign.experiments import MeanComparisonRow, SweepCell


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_writes_reloadable_csv(self, tmp_path, capsys):
        out = tmp_path / "stream.csv"
        code = run_cli(
            "generate", "--out", str(out), "--generate", "rotation",
            "--feature-dim", "12", "--batches", "8", "--batch-size", "5",
            "--drift-rate", "0.01", "--signal-dim", "3", "--source-size", "20",
            "--seed", "4",
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 20 + 8 * 5
        assert len(rows[0].split(",")) == 13


class TestRun:
    def test_run_on_generated_stream(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "12", "--batch-size", "10", "--signal-dim", "4",
            "--source-size", "80", "--subspace-dim", "4",
            "--variant", "icms", "--seed", "3", "--output", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["variant"] == "icms"
        assert len(payload["records"]) == 12
        assert 0.0 <= payload["summary"]["average_accuracy"] <= 1.0

    def test_run_on_csv_stream(self, tmp_path):
        stream_path = tmp_path / "data.csv"
        run_cli(
            "generate", "--out", str(stream_path), "--generate", "rotation",
            "--feature-dim", "12", "--batches", "10", "--batch-size", "5",
            "--drift-rate", "0.01", "--signal-dim", "3", "--source-size", "10",
            "--seed", "4",
        )
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--data", str(stream_path), "--feature-dim", "12",
            "--source-fraction", str(10 / 60), "--batch-size", "5",
            "--subspace-dim", "3", "--output", str(report_path),
        )
        assert code == 0
        assert json.loads(report_path.read_text())["summary"]["batches"] == 10

    def test_default_subspace_dim_is_half_capped(self, tmp_path, capsys):
        code = run_cli(
            "run", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "5", "--batch-size", "12", "--signal-dim", "4",
            "--source-size", "60", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["subspace_dim"] == 10

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "generate=stationary\nfeature-dim=20\nbatches=6\nbatch-size=10\n"
            "signal-dim=4\nsource-size=60\nsubspace-dim=4\nseed=9\n"
        )
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--config", str(cfg), "--batches", "4",
            "--output", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["batches"] == 4  # flag beats file
        assert payload["config"]["subspace_dim"] == 4  # file beats default

    def test_abbreviated_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "variant=avg\ngenerate=stationary\nfeature-dim=20\nbatches=4\n"
            "batch-size=10\nsignal-dim=4\nsource-size=60\nsubspace-dim=4\n"
        )
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--config", str(cfg), "--var", "icms", "--batch-s", "12",
            "--output", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["variant"] == "icms"  # abbreviated --variant
        assert payload["config"]["batch_size"] == 12  # abbreviated --batch-size
        assert payload["summary"]["batches"] == 4  # file beats default

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana=1\n")
        assert run_cli("run", "--config", str(cfg), "--generate", "stationary") == 1

    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys):
        # File values go through the same choices check as flags.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classifier=nope\n")
        code = run_cli(
            "run", "--config", str(cfg), "--generate", "stationary",
            "--feature-dim", "20", "--batches", "4", "--batch-size", "10",
            "--signal-dim", "4", "--source-size", "60",
        )
        assert code == 1
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_config_boolean_other_than_true_or_false_is_usage_error(
        self, tmp_path, capsys
    ):
        flags = (
            "--generate", "stationary", "--feature-dim", "20", "--batches", "4",
            "--batch-size", "10", "--signal-dim", "4", "--source-size", "60",
            "--subspace-dim", "4",
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text("adaptive=yes\n")
        assert run_cli("run", "--config", str(cfg), *flags) == 1
        assert "expected true or false, got 'yes'" in capsys.readouterr().err
        cfg.write_text("adaptive=TRUE\n")
        assert run_cli("run", "--config", str(cfg), *flags) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["adaptive_classifier"] is True

    @pytest.mark.parametrize("line", ["header=false", "adaptive=false"])
    def test_config_switch_false_is_the_flag_left_out(self, line, tmp_path):
        # header=false with --generate is no flag, not a has_header the
        # synthetic stream would refuse.
        cfg = tmp_path / "run.cfg"
        base = (
            "generate=stationary\nfeature-dim=20\nbatches=4\nbatch-size=10\n"
            "signal-dim=4\nsource-size=60\nsubspace-dim=4\n"
        )
        reports = []
        for text in (base, base + line + "\n"):
            cfg.write_text(text)
            report_path = tmp_path / "report.json"
            code = run_cli("run", "--config", str(cfg), "--output", str(report_path))
            assert code == 0
            reports.append(json.loads(report_path.read_text()))
        without, with_line = reports
        assert with_line["config"] == without["config"]
        assert _computed(with_line) == _computed(without)

    def test_defaults_alone_run(self, capsys):
        # The default batch (20 rows) carries the default subspace dim
        # (d/2 = 15 at the default d = 30).
        assert run_cli("run", "--generate", "stationary") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["skipped_batches"] == 0


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("run") == 1  # neither --data nor --generate

    def test_unknown_flag(self):
        assert run_cli("run", "--no-such-flag") == 1

    def test_data_error_missing_file(self, tmp_path):
        assert (
            run_cli(
                "run", "--data", str(tmp_path / "absent.csv"), "--feature-dim", "3"
            )
            == 2
        )

    def test_data_error_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n1.0,zap,1\n1.0,2.0,0\n1.0,2.0,1\n"
                       "1.0,2.0,0\n1.0,2.0,1\n1.0,2.0,0\n1.0,2.0,1\n"
                       "1.0,2.0,0\n1.0,2.0,1\n")
        assert run_cli("run", "--data", str(bad), "--feature-dim", "2") == 2

    def test_batch_size_below_one_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        path.write_text("".join(f"{i}.0,{i % 3}.5,{i % 2}\n" for i in range(20)))
        for size in ("0", "-5"):
            code = run_cli(
                "run", "--data", str(path), "--feature-dim", "2",
                "--batch-size", size,
            )
            assert code == 2
            assert f"got {size}" in capsys.readouterr().err

    def test_data_and_generate_together_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        path.write_text("1.0,2.0,0\n")
        flags = ("--data", str(path), "--feature-dim", "2")
        assert run_cli("run", *flags, "--generate", "stationary") == 1
        assert "not both" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("generate=stationary\n")
        assert run_cli("run", "--config", str(cfg), *flags) == 1
        assert "not both" in capsys.readouterr().err

    def test_zero_feature_dim_is_data_error(self, tmp_path, capsys):
        # 0 is a given value, not an absent flag: it is refused, not run at
        # the default d=30.
        flags = (
            "--generate", "stationary", "--feature-dim", "0", "--batches", "3",
            "--batch-size", "20", "--signal-dim", "2", "--source-size", "40",
        )
        assert run_cli("run", *flags, "--subspace-dim", "2") == 2
        assert "stream sizes must be positive" in capsys.readouterr().err
        output = tmp_path / "stream.csv"
        assert run_cli("generate", *flags, "--output", str(output)) == 2
        assert not output.exists()

    def test_non_finite_stream_parameter_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        path.write_text("".join(f"{i}.0,{i % 3}.5,{i % 2}\n" for i in range(20)))
        synthetic = ("--feature-dim", "12", "--batches", "3", "--signal-dim", "3")
        for argv in (
            ("--generate", "rotation", *synthetic, "--drift-rate", "nan"),
            ("--generate", "rotation", *synthetic, "--class-sep", "nan"),
            ("--generate", "noisy-rotation", *synthetic, "--noise", "inf"),
            ("--data", str(path), "--feature-dim", "2", "--source-fraction", "nan"),
        ):
            assert run_cli("run", *argv) == 2, argv
            assert capsys.readouterr().err.startswith("data error:"), argv

    def test_parameter_the_stream_never_reads_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        path.write_text("".join(f"{i}.0,{i % 3}.5,{i % 2}\n" for i in range(20)))
        csv = ("--data", str(path), "--feature-dim", "2", "--batch-size", "4")
        synthetic = ("--feature-dim", "12", "--batches", "3", "--signal-dim", "3",
                     "--batch-size", "8")
        cfg = tmp_path / "noise.cfg"
        cfg.write_text("noise=0.3\n")
        for argv, name in (
            ((*csv, "--noise", "0.3"), "noise"),
            ((*csv, "--seed", "3"), "seed"),
            ((*csv, "--config", str(cfg)), "noise"),
            (("--generate", "rotation", *synthetic, "--source-fraction", "0.2"),
             "source_fraction"),
            (("--generate", "stationary", *synthetic, "--drift-rate", "0.2"),
             "drift_rate"),
            (("--generate", "mean-shift", *synthetic, "--noise", "0.2"), "noise"),
        ):
            assert run_cli("run", *argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error:") and name in err, argv

    def test_numerical_error_rank_deficient(self):
        # k = 8 cannot come out of 6-row mini-batches.
        code = run_cli(
            "run", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "4", "--batch-size", "6", "--signal-dim", "4",
            "--source-size", "60", "--subspace-dim", "8", "--seed", "3",
        )
        assert code == 3

    def test_numerical_error_config(self):
        # k = 6 exceeds d/2 = 5: a ConfigError, reported as exit 3.
        code = run_cli(
            "run", "--generate", "stationary", "--feature-dim", "10",
            "--subspace-dim", "6",
        )
        assert code == 3


class TestSweepCommand:
    def test_sweep_report(self, tmp_path):
        out = tmp_path / "grid.json"
        code = run_cli(
            "sweep", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "6", "--signal-dim", "4",
            "--source-size", "60", "--seed", "3",
            "--k-values", "3,4", "--batch-sizes", "10,12",
            "--output", str(out),
        )
        assert code == 0
        grid = json.loads(out.read_text())["grid"]
        assert len(grid) == 4
        assert all(cell["average_accuracy"] is not None for cell in grid)
        keys = [f.name for f in fields(SweepCell)]
        assert all(list(cell) == keys for cell in grid)

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n1.0,zap,1\n" * 10)
        code = run_cli(
            "sweep", "--data", str(bad), "--feature-dim", "2",
            "--k-values", "1", "--batch-sizes", "4",
        )
        assert code == 2

    @pytest.mark.parametrize("feature_dim", ["0", "1"])
    def test_bad_stream_size_is_data_error(self, feature_dim, capsys):
        # Every cell sets its own subspace dim, so the base config's cannot
        # fail first and the stream's own check reports the size.
        code = run_cli(
            "sweep", "--generate", "stationary", "--feature-dim", feature_dim,
            "--batches", "3", "--k-values", "2", "--batch-sizes", "20",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_zero_k_value_is_a_cell_error(self, capsys):
        code = run_cli(
            "sweep", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "3", "--signal-dim", "4", "--source-size", "60",
            "--k-values", "0,2", "--batch-sizes", "20",
        )
        assert code == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        assert "subspace_dim must be positive" in grid[0]["error"]
        assert grid[1]["error"] is None

    def test_grid_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("k-values=2,3\nbatch-sizes=20\n")
        code = run_cli(
            "sweep", "--config", str(cfg), "--generate", "stationary",
            "--feature-dim", "20", "--batches", "3", "--signal-dim", "4",
            "--source-size", "60",
        )
        assert code == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        cells = [(c["subspace_dim"], c["batch_size"]) for c in grid]
        assert cells == [(2, 20), (3, 20)]
        assert all(c["error"] is None for c in grid)

    @pytest.mark.parametrize("flag", ["--k-values", "--batch-sizes"])
    def test_empty_grid_list_is_usage_error(self, flag):
        values = {"--k-values": "2", "--batch-sizes": "20", flag: " "}
        code = run_cli(
            "sweep", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "3", *itertools.chain(*values.items()),
        )
        assert code == 1

    def test_missing_grid_flags_is_usage_error(self):
        assert (
            run_cli(
                "sweep", "--generate", "stationary", "--feature-dim", "20",
                "--batches", "4", "--signal-dim", "4", "--source-size", "60",
            )
            == 1
        )


class TestCompareMeansCommand:
    def test_three_rows(self, tmp_path, capsys):
        code = run_cli(
            "compare-means", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "8", "--batch-size", "10", "--signal-dim", "4",
            "--source-size", "60", "--subspace-dim", "4", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        methods = [row["method"] for row in payload["rows"]]
        assert methods == ["incremental-averaging", "karcher", "icms"]
        assert all(np.isfinite(row["total_seconds"]) for row in payload["rows"])
        keys = [f.name for f in fields(MeanComparisonRow)]
        assert all(list(row) == keys for row in payload["rows"])


# The table-driven flag check. A small synthetic stream, hard enough that
# accuracies sit near 0.65 and so move with any setting that is read, or a
# CSV of another draw of it, feeds every subcommand; "{csv}" stands for
# that file's path.
SYNTH = [
    "--generate", "rotation", "--feature-dim", "12", "--batches", "10",
    "--signal-dim", "3", "--source-size", "80", "--drift-rate", "0.1",
    "--class-sep", "8",
]
CSV = ["--data", "{csv}", "--feature-dim", "12"]


def changed(*tokens, context=SYNTH):
    """A (without, with) pair of command-line tails differing in ``tokens``."""
    return list(context), [*context, *tokens]


DATA_CASES = {
    "--seed": changed("--seed", "1"),
    "--data": (SYNTH, CSV),
    "--feature-dim": changed("--feature-dim", "14"),
    "--classes": changed("--classes", "3"),
    "--source-fraction": changed("--source-fraction", "0.15", context=CSV),
    "--header": changed("--header", context=CSV),
    "--generate": changed("--generate", "mean-shift"),
    "--batches": changed("--batches", "5"),
    "--drift-rate": changed("--drift-rate", "0.2"),
    "--noise": changed(
        "--noise", "0.2", context=[*SYNTH, "--generate", "noisy-rotation"]
    ),
    "--signal-dim": changed("--signal-dim", "4"),
    "--source-size": changed("--source-size", "50"),
    "--class-sep": changed("--class-sep", "6"),
}
CLASSIFIER_CASES = {
    "--classifier": changed("--classifier", "linear-margin"),
    "--adaptive": changed("--adaptive"),
    "--update-rate": changed("--update-rate", "0.5", context=[*SYNTH, "--adaptive"]),
}
VARIANT_CASES = {
    "--variant": changed("--variant", "avg"),
    "--blend": changed(
        "--blend", "0.9", context=[*SYNTH, "--variant", "icms-pred"]
    ),
}

# One case per subcommand: the flags every run of it shares, a pair of
# command lines for each flag it takes (but --config), the flags it no
# longer takes, and a config key that belongs to another subcommand.
CLI_CASES = {
    "run": dict(
        base=["run", "--batch-size", "10", "--subspace-dim", "3"],
        flags={
            **DATA_CASES, **CLASSIFIER_CASES, **VARIANT_CASES,
            "--batch-size": changed("--batch-size", "12"),
            "--subspace-dim": changed("--subspace-dim", "2"),
            "--output": changed("--output", "report.json"),
            "--csv": changed("--csv", "batches.csv"),
        },
        dropped=[],
        foreign_key="k-values=2",
    ),
    "sweep": dict(
        base=["sweep", "--k-values", "3", "--batch-sizes", "10"],
        flags={
            **DATA_CASES, **CLASSIFIER_CASES, **VARIANT_CASES,
            "--k-values": changed("--k-values", "2"),
            "--batch-sizes": changed("--batch-sizes", "12"),
            "--output": changed("--output", "grid.json"),
        },
        dropped=[["--subspace-dim", "3"], ["--batch-size", "24"]],
        foreign_key="csv=batches.csv",
    ),
    "compare-means": dict(
        base=["compare-means", "--batch-size", "10", "--subspace-dim", "3"],
        flags={
            **DATA_CASES, **CLASSIFIER_CASES,
            "--batch-size": changed("--batch-size", "12"),
            "--subspace-dim": changed("--subspace-dim", "2"),
            "--output": changed("--output", "table.json"),
        },
        dropped=[["--variant", "icms"], ["--blend", "0.9"]],
        foreign_key="variant=icms",
    ),
    "generate": dict(
        base=["generate", "--batch-size", "10", "--output", "stream.csv"],
        flags={
            **DATA_CASES,
            "--batch-size": changed("--batch-size", "12"),
            "--output": changed("--output", "other.csv"),
        },
        dropped=[
            ["--variant", "icms-fb"], ["--adaptive"], ["--blend", "0.9"],
            ["--update-rate", "0.5"], ["--classifier", "linear-margin"],
            ["--subspace-dim", "3"],
        ],
        foreign_key="adaptive=true",
    ),
}

# Report keys that repeat a flag's value back, and wall-clock timings.
ECHOED = {"config", "variant", "seed", "subspace_dim", "batch_size"}
TIMINGS = {"elapsed_ms", "total_seconds", "mean_batch_ms", "p95_batch_ms"}


def _computed(value):
    if isinstance(value, dict):
        return {
            k: _computed(v) for k, v in value.items() if k not in ECHOED | TIMINGS
        }
    if isinstance(value, list):
        return [_computed(v) for v in value]
    return value


def _normalized(text):
    """Text output with echoed flag values and timings taken out."""
    try:
        return _computed(json.loads(text))
    except json.JSONDecodeError:
        pass
    if text.startswith("batch,") and "elapsed_ms" in text.splitlines()[0]:
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]
    return text


@pytest.fixture
def cli_output(tmp_path, monkeypatch, capsys):
    """Run a command line in a fresh directory; return what it produced.

    That is the exit code, stdout and every file written, normalized.
    """
    csv = tmp_path / "input.csv"
    generate = ["generate", "--output", str(csv), "--batch-size", "10", *SYNTH]
    assert main([*generate, "--seed", "7"]) == 0
    runs = itertools.count()

    def output(argv):
        work = tmp_path / f"run{next(runs)}"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        code = main([token.replace("{csv}", str(csv)) for token in argv])
        files = {
            path.name: _normalized(path.read_text()) for path in work.iterdir()
        }
        return code, _normalized(capsys.readouterr().out), files

    return output


@pytest.mark.parametrize("command", sorted(CLI_CASES))
class TestEveryFlagIsRead:
    def test_every_flag_changes_the_output(self, command, cli_output):
        case = CLI_CASES[command]
        accepted = set(cli.COMMANDS[command][1]) - {"--config"}
        assert set(case["flags"]) == accepted
        base = case["base"]
        reference = cli_output([*base, *SYNTH])
        assert reference[0] == 0
        assert cli_output([*base, *SYNTH]) == reference  # deterministic
        unread = []
        for flag, (without, with_flag) in case["flags"].items():
            before = cli_output([*base, *without])
            after = cli_output([*base, *with_flag])
            assert before[0] == after[0] == 0, flag
            if before == after:
                unread.append(flag)
        assert unread == []

    def test_dropped_flags_are_usage_errors(self, command, cli_output):
        case = CLI_CASES[command]
        for tokens in case["dropped"]:
            assert cli_output([*case["base"], *SYNTH, *tokens])[0] == 1, tokens

    def test_config_key_of_another_subcommand_is_usage_error(
        self, command, cli_output, tmp_path
    ):
        case = CLI_CASES[command]
        cfg = tmp_path / "other.cfg"
        cfg.write_text(case["foreign_key"] + "\n")
        argv = [*case["base"], *SYNTH, "--config", str(cfg)]
        assert cli_output(argv)[0] == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every ``driftalign ...`` line of README's sh blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("driftalign ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "generate", "run", "run", "sweep", "compare-means",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
