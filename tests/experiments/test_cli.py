"""Tests for the rept-experiment command-line interface."""

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_table2_runs_and_prints(self, capsys):
        exit_code = main(["table2", "--datasets", "youtube-sim", "--max-edges", "800"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "youtube-sim" in captured.out

    def test_figure1_runs(self, capsys):
        exit_code = main(["figure1", "--datasets", "youtube-sim", "--max-edges", "800"])
        assert exit_code == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure4_with_overrides(self, capsys):
        exit_code = main(
            [
                "figure4",
                "--datasets", "youtube-sim",
                "--trials", "2",
                "--max-edges", "800",
                "--c-values", "2", "4",
                "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "REPT" in captured.out

    def test_backends_artefact_runs(self, capsys):
        exit_code = main(
            [
                "backends",
                "--datasets", "youtube-sim",
                "--max-edges", "600",
                "--backends", "serial", "chunked-elastic",
                "--chunk-size", "200",
                "--workers", "2",
                "--seed", "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "chunked-elastic" in captured.out
        assert "yes" in captured.out

    def test_ablation_entry_point(self, capsys):
        exit_code = main(["ablation-hash", "--datasets", "youtube-sim", "--trials", "5"])
        assert exit_code == 0
        assert "splitmix" in capsys.readouterr().out

    def test_monitor_artefact_runs(self, capsys):
        exit_code = main(
            [
                "monitor",
                "--window", "120",
                "--slide", "60",
                "--panes", "4",
                "--duration", "600",
                "--seed", "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Windowed triangle monitoring" in captured.out
        assert "rept_err%" in captured.out

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])
