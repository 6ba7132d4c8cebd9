"""End-to-end CLI behaviour on tiny synthetic runs."""
import dataclasses
import os
import subprocess
import sys

import pytest

from fedpsd import engine
from fedpsd.cli import main
from fedpsd.config import ConfigError, ExperimentConfig, parse_config
from fedpsd.engine import run_ablation, run_experiment
from fedpsd.metrics import ABLATION_HEADER, CSV_HEADER, emit_metrics, emit_sweeps, load_metrics

# Small enough to train in well under a second per run.
TINY = """
dataset = synthetic
synth_classes = 4
synth_dim = 8
synth_per_class = 40
synth_test_per_class = 20
K = 4
C = 0.5
S = 2
t_total = 3
E = 2
batch_size = 16
hidden = 16
sweep_every = 2
seed = 3
"""


def _write_config(tmp_path, text=TINY, **overrides):
    lines = [text]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}\n")
    path = tmp_path / "exp.cfg"
    path.write_text("".join(lines))
    return path


class TestRun:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "sweeps.csv").exists()
        assert (out / "config.txt").exists()
        series = load_metrics(out / "metrics.csv")
        assert [r.round for r in series.rounds] == [1, 2, 3]
        captured = capsys.readouterr()
        assert captured.out.index("dataset = synthetic") < captured.out.index("\n1,")

    def test_echo_precedes_metrics(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path)
        main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        echo_pos = out.index("algorithm = fedavg")
        first_row_pos = out.index("\n1,")
        assert echo_pos < first_row_pos

    def test_seed_override_changes_run(self, tmp_path):
        cfg_path = _write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", str(cfg_path), "--out", str(a)])
        main(["run", str(cfg_path), "--out", str(b), "--seed", "3"])
        main(["run", str(cfg_path), "--out", str(c), "--seed", "9"])
        base = (a / "metrics.csv").read_bytes()
        assert (b / "metrics.csv").read_bytes() == base
        assert (c / "metrics.csv").read_bytes() != base

    def test_emitted_config_reproduces_csv(self, tmp_path):
        cfg_path = _write_config(tmp_path, algorithm="fedpsd")
        first = tmp_path / "first"
        main(["run", str(cfg_path), "--out", str(first)])
        second = tmp_path / "second"
        main(["run", str(first / "config.txt"), "--out", str(second)])
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        assert (first / "sweeps.csv").read_bytes() == (second / "sweeps.csv").read_bytes()

    def test_streamed_csvs_match_batch_emit(self, tmp_path):
        cfg_path = _write_config(tmp_path, algorithm="fedpsd")
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        series = run_experiment(parse_config(cfg_path.read_text()))
        emit_metrics(series, tmp_path / "metrics.csv")
        emit_sweeps(series, tmp_path / "sweeps.csv")
        for name in ("metrics.csv", "sweeps.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_each_row_is_on_disk_before_the_next_round(self, tmp_path, monkeypatch):
        cfg_path = _write_config(tmp_path)
        out = tmp_path / "out"
        line_counts = []
        run_round = engine.run_round

        def counting_round(*args):
            line_counts.append(tuple(
                len((out / name).read_text().splitlines()) for name in ("metrics.csv", "sweeps.csv")
            ))
            return run_round(*args)

        monkeypatch.setattr(engine, "run_round", counting_round)
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        # Header only, then one row per finished round; the sweep after round 2.
        assert line_counts == [(1, 1), (2, 1), (3, 2)]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("K = -3\n")
        assert main(["run", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_bad_seed_override_exits_one_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(_write_config(tmp_path)), "--out", str(out), "--seed", "-1"]) == 1
        assert "invalid value for 'seed': must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_idx_file_exits_one(self, tmp_path, capsys):
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (tmp_path / name).write_bytes(b"")
        text = TINY.replace("dataset = synthetic", f"dataset = mnist\nmnist_dir = {tmp_path}")
        cfg_path = _write_config(tmp_path, text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "truncated images header at byte offset 0" in capsys.readouterr().err


class TestAblate:
    def test_four_rows_and_files(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, algorithm="fedpsd")
        out = tmp_path / "ab"
        assert main(["ablate", str(cfg_path), "--out", str(out)]) == 0
        table = (out / "ablation.csv").read_text().splitlines()
        assert table[0] == ABLATION_HEADER
        assert len(table) == 5
        names = [line.split(",")[0] for line in table[1:]]
        assert names == ["baseline", "rhpk", "rhpk_psd", "fedpsd"]
        for name in names:
            assert (out / f"{name}_metrics.csv").exists()
        assert table[1].split(",")[5] == "+0.000000"

    def test_baseline_row_is_fedavg_bit_exact(self, tmp_path):
        cfg = parse_config(TINY)
        rows = run_ablation(dataclasses.replace(cfg, algorithm="fedpsd"))
        fedavg = run_experiment(dataclasses.replace(cfg, algorithm="fedavg"))
        baseline = rows[0].series
        assert len(baseline.rounds) == len(fedavg.rounds)
        for a, b in zip(baseline.rounds, fedavg.rounds):
            assert a == b

    def test_requires_fedpsd(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, algorithm="fedprox")
        assert main(["ablate", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        assert "fedpsd" in capsys.readouterr().err

    def test_run_ablation_rejects_fedavg(self):
        with pytest.raises(ConfigError, match="fedpsd"):
            run_ablation(ExperimentConfig())


def test_importing_the_package_loads_no_cli():
    # The library must not pull in its front-end or argparse.
    code = (
        "import sys\n"
        "import fedpsd\n"
        "print([m for m in ('argparse', 'fedpsd.cli') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert out.stdout == "[]\n"


class TestSummarize:
    def _metrics_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "1,0.100000,0.050000,2.000000,0\n"
            "2,0.500000,0.300000,1.000000,1\n"
            "3,0.700000,0.600000,0.500000,0;1\n"
        )
        return path

    def test_prints_round(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert main(["summarize", str(path), "--target", "0.5"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_server_metric(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert main(["summarize", str(path), "--target", "0.5", "--metric", "server"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_not_reached_prints_na(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert main(["summarize", str(path), "--target", "0.99"]) == 0
        assert capsys.readouterr().out == "N/A\n"

    def test_bad_target_exits_one(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert main(["summarize", str(path), "--target", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("4,0.8,0.7", "line 5: expected 5 fields, got 3"),
            ("4,0.8,nan,0.4,1", "line 5: server_top1 must be a finite value"),
        ],
        ids=["short", "nan_accuracy"],
    )
    def test_malformed_row_exits_one(self, tmp_path, capsys, row, problem):
        path = self._metrics_file(tmp_path)
        path.write_text(path.read_text() + row + "\n")
        assert main(["summarize", str(path), "--target", "0.5"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and problem in err

    def test_not_a_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("hello\n")
        assert main(["summarize", str(path), "--target", "0.5"]) == 1
        assert "header" in capsys.readouterr().err
