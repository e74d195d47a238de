import json

import numpy as np

from driftalign.cli import main


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
        assert "invalid choice 'nope'" in capsys.readouterr().err


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

    def test_numerical_error_rank_deficient(self):
        # k = 8 cannot come out of 6-row mini-batches.
        code = run_cli(
            "run", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "4", "--batch-size", "6", "--signal-dim", "4",
            "--source-size", "60", "--subspace-dim", "8", "--seed", "3",
        )
        assert code == 3


class TestSweepCommand:
    def test_sweep_report(self, tmp_path):
        out = tmp_path / "grid.json"
        code = run_cli(
            "sweep", "--generate", "stationary", "--feature-dim", "20",
            "--batches", "6", "--batch-size", "10", "--signal-dim", "4",
            "--source-size", "60", "--seed", "3",
            "--k-values", "3,4", "--batch-sizes", "10,12",
            "--output", str(out),
        )
        assert code == 0
        grid = json.loads(out.read_text())["grid"]
        assert len(grid) == 4
        assert all(cell["average_accuracy"] is not None for cell in grid)

    def test_missing_grid_flags_is_usage_error(self):
        assert (
            run_cli(
                "sweep", "--generate", "stationary", "--feature-dim", "20",
                "--batches", "4", "--batch-size", "10", "--signal-dim", "4",
                "--source-size", "60",
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
