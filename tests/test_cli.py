"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "stream"])
        assert args.programs == ["stream"]
        assert args.noise == pytest.approx(0.01)

    def test_schedule_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "Q1", "--method", "magic"])


class TestCommands:
    def test_profile_subset(self, capsys):
        assert main(["profile", "stream", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "stream" in out and "kmeans" in out

    def test_profile_saves_repository(self, tmp_path, capsys):
        out_file = tmp_path / "repo.json"
        assert main(["profile", "stream", "--output", str(out_file)]) == 0
        assert out_file.exists()
        from repro.profiling.repository import ProfileRepository

        assert len(ProfileRepository.load(out_file)) == 1

    def test_classify(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert out.count("CI:") == 1
        assert "stream" in out

    def test_variants(self, capsys):
        assert main(["variants", "--c-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "19" not in out or True
        assert "MIG GI configurations" in out
        assert "C=2" in out and "C=3" in out

    def test_train_tiny(self, tmp_path, capsys):
        out_file = tmp_path / "agent.npz"
        rc = main(
            [
                "train",
                "--window", "4",
                "--queues", "2",
                "--episodes", "5",
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        assert out_file.exists()
        from repro.rl.checkpoint import load_agent

        restored = load_agent(out_file)
        assert restored.config.n_actions == 29

    def test_schedule_unknown_queue(self, capsys):
        assert main(["schedule", "Q99", "--method", "timeshare"]) == 2

    def test_schedule_timeshare(self, capsys):
        assert main(["schedule", "Q1", "--method", "timeshare"]) == 0
        out = capsys.readouterr().out
        assert "throughput x1.000" in out

    def test_schedule_mig(self, capsys):
        assert main(["schedule", "Q1", "--method", "mig"]) == 0
        out = capsys.readouterr().out
        assert "throughput x" in out


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "Q1", "--gpus", "0"],
            ["trace", "Q1", "--window", "0"],
            ["alerts", "Q1", "--repeat", "0"],
            ["cluster", "Q1", "--episodes", "0"],
            ["cluster", "Q1", "--max-retries", "-1"],
            ["cluster", "Q1", "--gpus", "two"],
            ["train", "--episodes", "0"],
            ["train", "--window", "-1"],
            ["schedule", "Q3", "--episodes", "0"],
            ["schedule", "Q3", "--window", "0"],
            ["fleet", "--nodes", "0"],
            ["fleet", "--jobs", "0"],
            ["fleet", "--window", "0"],
            ["fleet", "--episodes", "0"],
            ["fleet", "--jobs-per-episode", "0"],
            ["fleet", "--rate", "0"],
            ["fleet", "--rate", "-2.5"],
            ["fleet", "--rate", "nan"],
            ["fleet", "--rate", "fast"],
            ["fleet", "--pool-size", "-3"],
            ["fleet", "--pool-size", "0"],
            ["fleet", "--placement-episodes", "0"],
            ["fleet", "--c-max", "0"],
            ["fleet", "--max-pending", "0"],
            ["fleet", "--period", "0"],
            ["fleet", "--period", "inf"],
            ["fleet", "--peak-rate", "nan"],
            ["fleet", "--peak-rate", "0"],
            ["fleet", "--peak-rate", "-1"],
            ["fleet", "--admit-rate", "0"],
        ],
    )
    def test_bad_counts_rejected_before_training(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "training" not in captured.out
        flag = next(a for a in argv if a.startswith("--"))
        assert f"argument {flag}:" in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("repro-gpu ")

    def test_domain_error_is_one_line_with_exit_2(self, capsys):
        assert main(["cluster", "Q1", "--c-max", "0", "--episodes", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-gpu cluster: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
