"""Golden output bytes: metrics.csv + sweeps.csv for small synthetic runs.

Refactors that claim to change no behaviour must keep these digests.
A change that moves them on purpose updates the table and says why.
The digests were taken with float64 numpy on OpenBLAS; a different
BLAS may round matrix products differently, so a mismatch prints the
numpy and BLAS build next to the digest. The expected text of each CSV
golden is kept in ``golden/<name>/``, so a mismatch also names the
first row that differs and the largest absolute difference per column.
"""
import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedpsd import engine
from fedpsd.config import ExperimentConfig
from fedpsd.data import LabeledDataset, save_idx, synth_generate
from fedpsd.engine import run_to_dir

_BASE = dict(
    dataset="synthetic", synth_classes=4, synth_dim=8, synth_per_class=30,
    synth_test_per_class=15, synth_spread=0.3, partition="sharding",
    shards_per_client=2, num_clients=6, fraction=0.5, t_total=6, epochs=3,
    batch_size=16, hidden=(12,), base_lr=0.05, test_budget=20, sweep_every=2,
    seed=4,
)

GOLDEN = {
    "fedavg": (
        dict(algorithm="fedavg"),
        "44b38563b5b82c2960e4232be6f9045f7ab59a48318ff438e8c2123e37f41f97",
    ),
    "fedprox": (
        dict(algorithm="fedprox", prox_mu=0.5),
        "faea218d856572c01976824fd4da110e2d2a2fdf1a815bdef347eef1cd73befa",
    ),
    "fedpsd": (
        dict(algorithm="fedpsd"),
        "39ff5eb6216cb3dd62b304952313e7c1a5f5cf21861dd92c6e260ce55d8dee13",
    ),
    "fedpsd_dirichlet_workers2": (
        dict(algorithm="fedpsd", partition="dirichlet", dirichlet_alpha=0.5, workers=2),
        "c1112c689293fc1dbdb900ce735469b8bed02982c5d26338a2652088ff360a5c",
    ),
}


GOLDEN_DIR = Path(__file__).parent / "golden"
_CSVS = ("metrics.csv", "sweeps.csv")


def _digest(directory) -> str:
    return hashlib.sha256(b"".join((directory / f).read_bytes() for f in _CSVS)).hexdigest()


def _csv_diff(label: str, want: str, got: str) -> str:
    """Where the CSV text ``got`` departs from ``want``: its first
    differing line, and per column the largest absolute difference over
    the data rows both have (a count of differing cells where a column
    is not numeric)."""
    want_rows, got_rows = list(csv.reader(want.splitlines())), list(csv.reader(got.splitlines()))
    if want_rows == got_rows:
        return f"{label}: identical"
    line = next(
        i for i in range(max(len(want_rows), len(got_rows)))
        if want_rows[i : i + 1] != got_rows[i : i + 1]
    )
    text = [f"{label}: first difference at line {line + 1}:"]
    for side, rows in (("want", want_rows), ("got ", got_rows)):
        text.append(f"  {side} {','.join(rows[line]) if line < len(rows) else '<no line>'}")
    pairs = list(zip(want_rows[1:], got_rows[1:]))
    for col, header in enumerate(want_rows[0] if want_rows else ()):
        cells = [(w[col], g[col]) for w, g in pairs if col < min(len(w), len(g))]
        try:
            largest = max((abs(float(w) - float(g)) for w, g in cells), default=0.0)
            text.append(f"  {header}: largest |difference| {largest:.6g}")
        except ValueError:
            text.append(f"  {header}: {sum(w != g for w, g in cells)} cells differ")
    return "\n".join(text)


def _mismatch_report(name: str, directory) -> str:
    return "\n".join(
        _csv_diff(f, (GOLDEN_DIR / name / f).read_text(), (directory / f).read_text())
        for f in _CSVS
    )


def _assert_matches_golden(name, want, cfg, directory, blas_build):
    run_to_dir(cfg, directory)  # the writer behind `fedpsd run`
    digest = _digest(directory)
    assert digest == want, (
        f"{name}: sha256 {digest} on {blas_build}\n{_mismatch_report(name, directory)}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(name, tmp_path, blas_build):
    overrides, want = GOLDEN[name]
    cfg = ExperimentConfig(**{**_BASE, **overrides})
    _assert_matches_golden(name, want, cfg, tmp_path, blas_build)


# The same pins for a run that reads its data from IDX files: a seeded
# 200-train / 50-test blob corpus quantized to bytes by save_idx.
IDX_GOLDEN = "dc353a2442b122ee90f26b7da0cc293a8fafb7872420b9507000701363f63944"


def _write_idx_corpus(directory) -> None:
    for prefix, per_class, stream in (("train", 40, 0), ("t10k", 10, 1)):
        blobs = synth_generate(5, 16, per_class, seed=4, spread=0.3, sample_stream=stream)
        split = LabeledDataset(np.clip(0.5 + 0.5 * blobs.features, 0.0, 1.0), blobs.labels, 5)
        images, labels = save_idx(split, rows=4, cols=4)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(labels)


def _idx_config(directory) -> ExperimentConfig:
    _write_idx_corpus(directory)
    return ExperimentConfig(**{
        **_BASE, "dataset": "mnist", "mnist_dir": str(directory), "algorithm": "fedpsd",
        "num_clients": 5, "fraction": 0.6, "t_total": 3, "test_budget": 10, "sweep_every": 1,
    })


def test_idx_output_bytes_match_golden(tmp_path, blas_build):
    _assert_matches_golden("idx", IDX_GOLDEN, _idx_config(tmp_path), tmp_path, blas_build)


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "idx"])
def test_committed_texts_match_their_digests(name):
    want = IDX_GOLDEN if name == "idx" else GOLDEN[name][1]
    assert _digest(GOLDEN_DIR / name) == want


def test_mismatch_report_names_the_row_and_the_largest_difference(tmp_path):
    for f in _CSVS:
        (tmp_path / f).write_text((GOLDEN_DIR / "fedavg" / f).read_text())
    metrics = (tmp_path / "metrics.csv").read_text().splitlines(keepends=True)
    row = metrics[3].split(",")
    row[1] = f"{float(row[1]) + 0.25:.6f}"
    row[3] = f"{float(row[3]) - 1e-6:.6f}"
    metrics[3] = ",".join(row)
    (tmp_path / "metrics.csv").write_text("".join(metrics))
    report = _mismatch_report("fedavg", tmp_path)
    assert "metrics.csv: first difference at line 4:" in report
    assert f"  got  {metrics[3].strip()}" in report
    assert "  avg_client_top1: largest |difference| 0.25" in report
    assert "  server_top1: largest |difference| 0\n" in report
    assert "  mean_local_loss: largest |difference| 1e-06" in report
    assert "  sampled: 0 cells differ" in report
    assert "sweeps.csv: identical" in report


# The IDX run's raw bits, which the six-decimal CSV rounds away: the
# final global parameters, then each client's history (b"none" for a
# client never sampled) in client order.
IDX_RAW_GOLDEN = "f692125d5cb136f400775807d831af17c8cd42565a5b766bb0b386313b44447e"


def test_idx_raw_bits_match_golden(tmp_path, blas_build):
    cfg = _idx_config(tmp_path)
    train, test = engine._load_dataset_pair(cfg)
    server, clients = engine.build_federation(cfg, train, test)
    for _ in range(cfg.t_total):
        engine.run_round(server, clients, train, test, cfg)
    digest = hashlib.sha256(server.global_params.flat.tobytes())
    for _, client in sorted(clients.items()):
        digest.update(b"none" if client.last_accuracy is None else client.history.tobytes())
    assert digest.hexdigest() == IDX_RAW_GOLDEN, f"idx raw: sha256 {digest.hexdigest()} on {blas_build}"
