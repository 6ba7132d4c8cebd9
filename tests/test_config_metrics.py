"""Config parsing/echo and metrics CSV round-trips."""
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import fedpsd
from fedpsd.config import ConfigError, ExperimentConfig, echo_config, parse_config
from fedpsd.metrics import (
    CSV_HEADER,
    MetricsSeries,
    RoundRecord,
    SweepRecord,
    emit_metrics,
    emit_sweeps,
    load_metrics,
    rounds_to_target,
)


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.num_clients == 100
        assert cfg.fraction == 0.1
        assert cfg.epochs == 5
        assert cfg.t_total == 200
        assert cfg.batch_size == 50
        assert cfg.base_lr == 0.01
        assert cfg.lr_decay == 0.99
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-5

    def test_basic_keys(self):
        cfg = parse_config("partition = sharding\nS = 2\nalgorithm = fedpsd\nhidden = 64,32\n")
        assert cfg.partition == "sharding"
        assert cfg.shards_per_client == 2
        assert cfg.algorithm == "fedpsd"
        assert cfg.hidden == (64, 32)

    @pytest.mark.parametrize("sizes", ["64,,32", "64,", ",64", " , "])
    def test_hidden_with_an_empty_entry_rejected_with_line(self, sizes):
        with pytest.raises(
            ConfigError, match="line 2: invalid value for 'hidden': expected comma-separated sizes"
        ):
            parse_config(f"K = 10\nhidden = {sizes}\n")

    def test_hidden_entries_may_have_spaces_around_them(self):
        assert parse_config("hidden = 64 , 32\n").hidden == (64, 32)

    def test_comments_and_sections(self):
        text = """
        # top comment
        [data]
        dataset = synthetic  # trailing comment
        [federation]
        K = 12
        """
        cfg = parse_config(text)
        assert cfg.num_clients == 12

    def test_negative_shards_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("K = 10\nS = -1\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3.*mystery"):
            parse_config("K = 10\nC = 0.5\nmystery = 4\n")

    @pytest.mark.parametrize("line", ["psd_fresh_teacher = true", "kd_epoch1_fallback = false"])
    def test_removed_teacher_variant_keys_are_unknown(self, line):
        with pytest.raises(ConfigError, match=r"line 2: unknown key"):
            parse_config(f"K = 10\n{line}\n")

    def test_every_field_is_read_by_the_package(self):
        # An option that no code reads would configure nothing.
        src = "".join(p.read_text() for p in Path(fedpsd.__file__).parent.glob("*.py"))
        unread = [
            f.name for f in dataclasses.fields(ExperimentConfig)
            if not re.search(rf"\bcfg\.{f.name}\b", src)
        ]
        assert unread == []

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("K = 10\nK = 20\n")

    def test_type_error_cites_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("K = ten\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_fraction_domain(self):
        with pytest.raises(ConfigError):
            parse_config("C = 0\n")
        with pytest.raises(ConfigError):
            parse_config("C = 1.2\n")
        assert parse_config("C = 1\n").fraction == 1.0

    @pytest.mark.parametrize("text", ["C = nan", "base_lr = nan", "prox_mu = inf", "dirichlet_alpha = -inf"])
    def test_non_finite_float_rejected(self, text):
        with pytest.raises(ConfigError, match="line 1: .*must be finite"):
            parse_config(text + "\n")

    def test_bool_spellings(self):
        assert parse_config("rhpk = false\n").rhpk is False
        assert parse_config("rhpk = 1\n").rhpk is True
        with pytest.raises(ConfigError):
            parse_config("rhpk = maybe\n")

    def test_echo_round_trip(self):
        cfg = ExperimentConfig(
            algorithm="fedpsd", num_clients=17, fraction=0.33, base_lr=0.007,
            hidden=(40, 20), rhpk=False, synth_spread=0.62, seed=4,
        )
        assert parse_config(echo_config(cfg)) == cfg

    def test_echo_round_trip_defaults(self):
        assert parse_config(echo_config(ExperimentConfig())) == ExperimentConfig()

    @pytest.mark.parametrize(
        "path", ["data#1", " data", "data ", "a\nseed = 5", "a\rb", "a\x0bb", "\n"]
    )
    def test_echo_rejects_value_that_would_not_read_back(self, path):
        with pytest.raises(ConfigError, match="'mnist_dir'"):
            echo_config(ExperimentConfig(mnist_dir=path))

    def test_echo_keeps_interior_space(self):
        cfg = ExperimentConfig(mnist_dir="my data/mnist")
        assert parse_config(echo_config(cfg)) == cfg

    def test_echo_of_the_defaults_is_pinned(self):
        # The config.txt bytes: a reordered field or a renamed key fails here.
        assert echo_config(ExperimentConfig()) == DEFAULT_ECHO

    def test_echo_writes_numpy_numbers_as_the_file_holds_them(self):
        cfg = ExperimentConfig(dirichlet_alpha=np.float64(0.5), num_clients=np.int64(7))
        assert "dirichlet_alpha = 0.5\nK = 7\n" in echo_config(cfg)
        assert parse_config(echo_config(cfg)) == cfg

    def test_readme_config_table_matches_the_declared_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        documented = {}
        for row in readme.splitlines():
            if row.startswith("| `"):
                key_cell, default_cell = row.split("|")[1:3]
                default = default_cell.strip().strip("`")
                for key in re.findall(r"`([^`]+)`", key_cell):
                    documented[key] = "" if default == "(empty)" else default
        declared = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)}
        assert list(documented) == list(declared)
        for key, default in documented.items():
            assert declared[key].metadata["parse"](default) == declared[key].default, key


DEFAULT_ECHO = """\
dataset = synthetic
mnist_dir = 
partition = sharding
S = 2
dirichlet_alpha = 0.1
K = 100
C = 0.1
t_total = 200
E = 5
batch_size = 50
base_lr = 0.01
lr_decay = 0.99
momentum = 0.9
weight_decay = 1e-05
hidden = 128
algorithm = fedavg
prox_mu = 0.01
rhpk = true
psd = true
cll = true
prior_epsilon = 1.0
test_budget = 100
sweep_every = 10
workers = 1
seed = 0
synth_classes = 10
synth_dim = 32
synth_per_class = 500
synth_test_per_class = 100
synth_spread = 0.45
"""


def _replace_defaults(**changes):
    return dataclasses.replace(ExperimentConfig(), **changes)


class TestConstructionCheck:
    """A config built in code is held to the parser of each key."""

    @pytest.mark.parametrize("build", [ExperimentConfig, _replace_defaults], ids=["init", "replace"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", 0, "'E': must be >= 1, got 0"),
            ("t_total", 0, "'t_total': must be >= 1"),
            ("batch_size", 0, "'batch_size': must be >= 1"),
            ("momentum", 1.5, "'momentum': must be < 1"),
            ("lr_decay", 2.0, "'lr_decay': must be <= 1"),
            ("sweep_every", -1, "'sweep_every': must be >= 0"),
            ("hidden", (), "'hidden': expected comma-separated sizes"),
            ("hidden", [64, 32], "'hidden': must be of type tuple"),
            ("num_clients", 10.5, "'K': invalid literal"),
            ("num_clients", "5", "'K': must be of type int"),
            ("dataset", "cifar", "'dataset': expected one of synthetic, mnist"),
            ("base_lr", float("nan"), "'base_lr': must be finite"),
        ],
    )
    def test_out_of_range_or_mistyped_value_is_refused(self, build, field, value, message):
        with pytest.raises(ConfigError, match=f"^invalid value for {re.escape(message)}"):
            build(**{field: value})


class TestSeedStreams:
    def test_stream_tags_are_distinct(self):
        # Each tag keys one consumer's draws from the experiment seed; two
        # consumers sharing a tag would silently draw the same numbers.
        tags = {
            f"{module.__name__}.{name}": value
            for module in (fedpsd.config, fedpsd.data, fedpsd.nn)
            for name, value in vars(module).items()
            if name.endswith("_STREAM") and isinstance(value, int)
        }
        assert len(tags) >= 9, sorted(tags)  # nn 1, data 6, config 2
        assert len(set(tags.values())) == len(tags), tags


def _series():
    rounds = [
        RoundRecord(1, 0.1, 0.2, 2.5, (0, 3)),
        RoundRecord(2, 0.5, 0.4, 1.25, (1, 2)),
        RoundRecord(3, 0.6, 0.55, 0.75, (0, 1)),
    ]
    return MetricsSeries(rounds=rounds, sweeps=[SweepRecord(2, 0.45)])


class TestMetrics:
    def test_emit_single_round(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics(MetricsSeries(rounds=[RoundRecord(1, 0.5, 0.25, 1.0, (4,))]), path)
        lines = path.read_text().splitlines()
        assert lines == [CSV_HEADER, "1,0.500000,0.250000,1.000000,4"]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        series = _series()
        emit_metrics(series, path)
        back = load_metrics(path)
        assert len(back.rounds) == 3
        for a, b in zip(back.rounds, series.rounds):
            assert a.round == b.round
            assert a.avg_client_top1 == pytest.approx(b.avg_client_top1, abs=1e-6)
            assert a.server_top1 == pytest.approx(b.server_top1, abs=1e-6)
            assert a.mean_local_loss == pytest.approx(b.mean_local_loss, abs=1e-6)
            assert a.sampled == b.sampled

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_metrics(_series(), a)
        emit_metrics(_series(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_emit_sweeps(self, tmp_path):
        path = tmp_path / "s.csv"
        emit_sweeps(_series(), path)
        assert path.read_text().splitlines() == ["round,all_client_top1", "2,0.450000"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("nope\n1,2,3,4,5\n")
        with pytest.raises(ValueError, match="header"):
            load_metrics(path)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("2,0.5,0.4", "expected 5 fields, got 3"),
            ("2,0.5,abc,1.0,1", "could not convert string to float: 'abc'"),
            ("2,0.5,0.4,1.0,1;x", "invalid literal for int\\(\\) with base 10: 'x'"),
            ("2,0.5,nan,1.0,1", "server_top1 must be a finite value in \\[0, 1\\]"),
            ("2,1.5,0.4,1.0,1", "avg_client_top1 must be a finite value"),
            ("2,-inf,0.4,1.0,1", "avg_client_top1 must be a finite value"),
            ("2,0.5,0.4,nan,1", "mean_local_loss must be a finite value >= 0, got nan"),
            ("2,0.5,0.4,-0.5,1", "mean_local_loss must be a finite value >= 0, got -0.5"),
            ("2,0.5,0.4,inf,1", "mean_local_loss must be a finite value >= 0, got inf"),
            ("3,0.5,0.4,1.0,1", "expected round 2, got 3"),
            ("1,0.5,0.4,1.0,1", "expected round 2, got 1"),
        ],
        ids=[
            "short", "text_accuracy", "text_client_id", "nan_accuracy", "accuracy_above_one",
            "minus_inf", "nan_loss", "negative_loss", "infinite_loss", "skipped_round",
            "repeated_round",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "m.csv"
        path.write_text(f"{CSV_HEADER}\n1,0.1,0.2,2.5,0\n\n{row}\n")
        with pytest.raises(ValueError, match=f"m.csv: line 4: {problem}"):
            load_metrics(path)

    def test_final_smoothing(self):
        rounds = [RoundRecord(i + 1, 0.1 * i, 0.0, 0.0, ()) for i in range(10)]
        series = MetricsSeries(rounds=rounds)
        assert series.final_avg_client_top1(window=5) == pytest.approx(np.mean([0.5, 0.6, 0.7, 0.8, 0.9]))
        assert MetricsSeries(rounds=rounds[:2]).final_avg_client_top1() == pytest.approx(0.05)

    @pytest.mark.parametrize("window", [0, -1])
    @pytest.mark.parametrize("final", ["final_avg_client_top1", "final_server_top1"])
    def test_window_below_one_rejected(self, final, window):
        # rounds[-0:] would average all 4 rounds, rounds[1:] rounds 2-4.
        series = MetricsSeries(rounds=[RoundRecord(i + 1, 0.1 * i, 0.2 * i, 0.0, ()) for i in range(4)])
        with pytest.raises(ValueError, match="window must be at least 1, got"):
            getattr(series, final)(window)


class TestRoundsToTarget:
    def test_first_crossing(self):
        assert rounds_to_target(_series(), 0.5, "client") == 2

    def test_never_reached(self):
        assert rounds_to_target(_series(), 0.99, "client") is None

    def test_zero_target(self):
        assert rounds_to_target(_series(), 0.0, "client") == 1

    def test_server_metric(self):
        assert rounds_to_target(_series(), 0.5, "server") == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            rounds_to_target(_series(), 1.5, "client")
        with pytest.raises(ValueError):
            rounds_to_target(_series(), 0.5, "loss")
