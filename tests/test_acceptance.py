"""Acceptance gate: the nine shipping criteria, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; each test also prints a one-line summary with its measured
margins. The desk-scale experiment fixtures are session-scoped so the
directional criteria (6 and 8) share one set of runs.
"""
import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fedpsd.cli import run_ablation
from fedpsd.config import ExperimentConfig
from fedpsd.data import (
    load_idx_files,
    partition_dirichlet,
    partition_sharding,
    synth_generate,
)
from fedpsd.engine import aggregate, build_federation, run_experiment, run_round
from fedpsd.metrics import rounds_to_target
from fedpsd.nn import (
    finite_diff_check,
    init_model,
    one_hot,
    softmax,
    softmax_ce,
)
from fedpsd.psd import (
    alpha_schedule,
    balanced_prediction,
    calibrated_ce_loss,
    fuse_labels,
    local_loss,
    proximal_term,
)

# The shared desk-scale task: 10 Gaussian classes in 32 dimensions, 500
# train samples per class, 20 clients holding 2 shards each, half the
# clients sampled per round, 60 rounds. Trained with plain SGD at a
# deliberately small step so five local epochs cannot fully adapt a
# client to its shards; that leaves room for the history and
# self-distillation terms to show their effect. The near-flat prior
# smoothing keeps the calibrated loss mild at this scale (250 samples
# per client), where sharper calibration costs more adaptation budget
# than it recovers.
DESK_BASE = ExperimentConfig(
    dataset="synthetic",
    synth_classes=10,
    synth_dim=32,
    synth_per_class=500,
    synth_test_per_class=100,
    synth_spread=0.5,
    partition="sharding",
    shards_per_client=2,
    num_clients=20,
    fraction=0.5,
    epochs=5,
    t_total=60,
    batch_size=50,
    base_lr=0.005,
    momentum=0.0,
    hidden=(64, 32),
    prior_epsilon=2500.0,
    algorithm="fedpsd",
)

ROW_NAMES = ("baseline", "rhpk", "rhpk_psd", "fedpsd")


@pytest.fixture(scope="session")
def desk_runs():
    t0 = time.perf_counter()
    rows = {seed: run_ablation(dataclasses.replace(DESK_BASE, seed=seed)) for seed in (0, 1, 2)}
    return SimpleNamespace(rows=rows, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def image_runs(mnist_dir):
    base = ExperimentConfig(
        dataset="mnist",
        mnist_dir=str(mnist_dir),
        partition="sharding",
        shards_per_client=2,
        num_clients=20,
        fraction=0.25,
        t_total=40,
        hidden=(128,),
        seed=0,
    )
    t0 = time.perf_counter()
    fedavg = run_experiment(dataclasses.replace(base, algorithm="fedavg"))
    fedpsd = run_experiment(dataclasses.replace(base, algorithm="fedpsd"))
    return SimpleNamespace(fedavg=fedavg, fedpsd=fedpsd, elapsed=time.perf_counter() - t0)


def test_criterion_1_gradient_oracles():
    """Analytic gradients of the trainer's own losses match central finite differences.

    ``local_loss`` is the per-batch objective the local trainer calls,
    here in its four forms (plain CE, calibrated CE, CE + KD, calibrated
    CE + KD); ``proximal_term`` is the trainer's FedProx pull.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for _ in range(15):
        num_classes = int(rng.integers(3, 6))
        dim = int(rng.integers(4, 8))
        sizes = [dim, int(rng.integers(4, 9)), num_classes]
        model = init_model(sizes, seed=int(rng.integers(1 << 30)))
        batch = rng.normal(size=(int(rng.integers(2, 6)), dim))
        labels = rng.integers(0, num_classes, size=batch.shape[0])
        log_prior = np.log(rng.dirichlet(np.full(num_classes, 5.0)))
        teacher = rng.dirichlet(np.full(num_classes, 2.0), size=batch.shape[0])

        for form_prior, form_teacher in ((None, None), (log_prior, None),
                                         (None, teacher), (log_prior, teacher)):
            worst = max(worst, finite_diff_check(
                model, batch,
                lambda lg: local_loss(lg, labels, form_prior, form_teacher)[:2]))

        anchor = init_model(sizes, seed=int(rng.integers(1 << 30)))
        mu = 0.1 + float(rng.random())
        worst = max(worst, finite_diff_check(
            model, batch, lambda lg: local_loss(lg, labels)[:2],
            param_term=lambda m: proximal_term(m, anchor, mu)))
        checked += 5

    elapsed = time.perf_counter() - t0
    assert checked >= 50
    assert worst < 1e-4, f"worst gradient relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient oracle suite took {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: {checked} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_equation_identities():
    """Calibration, balanced prediction, fusion, and schedule identities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    for _ in range(50):
        num_classes = int(rng.integers(2, 8))
        logits = rng.normal(scale=3.0, size=(int(rng.integers(1, 6)), num_classes))
        labels = rng.integers(0, num_classes, size=logits.shape[0])
        uniform = np.full(num_classes, 1.0 / num_classes)
        cal_loss, cal_grad = calibrated_ce_loss(logits, labels, uniform)
        ce_loss, ce_grad = softmax_ce(logits, labels)
        assert abs(cal_loss - ce_loss) < 1e-12
        assert np.max(np.abs(cal_grad - ce_grad)) < 1e-12

    agree = 0
    for _ in range(1000):
        num_classes = int(rng.integers(2, 10))
        logits = rng.normal(scale=2.0, size=num_classes)
        prior = rng.dirichlet(np.full(num_classes, 3.0))
        posterior = softmax(logits)
        explicit = int(np.argmax(posterior / prior))
        assert int(balanced_prediction(logits, prior)) == explicit
        agree += 1
    assert agree == 1000

    for _ in range(50):
        num_classes = int(rng.integers(2, 8))
        teacher = rng.dirichlet(np.full(num_classes, 2.0))
        truth = one_hot(rng.integers(0, num_classes, size=1), num_classes)[0]
        assert np.array_equal(fuse_labels(teacher, truth, 0.0), truth)
        assert np.array_equal(fuse_labels(teacher, truth, 1.0), teacher)

    assert alpha_schedule(0, 200) == 0.0
    assert alpha_schedule(200, 200) == 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"
    print(f"CRITERION 2 PASS: identities exact over randomized instances, {elapsed:.1f}s")


def test_criterion_3_aggregation_exactness():
    """Weighted aggregation matches an independent oracle to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)) + 1)]
        participants = int(rng.integers(1, 9))
        updates = []
        for _ in range(participants):
            model = init_model(sizes, seed=int(rng.integers(1 << 30)))
            for w in model.weights:
                w += rng.normal(size=w.shape)
            updates.append((model, int(rng.integers(1, 51))))
        combined = aggregate(updates)
        counts = np.array([n for _, n in updates], dtype=np.float64)
        for layer in range(len(sizes) - 1):
            stack_w = np.stack([m.weights[layer] for m, _ in updates])
            stack_b = np.stack([m.biases[layer] for m, _ in updates])
            oracle_w = np.average(stack_w, axis=0, weights=counts)
            oracle_b = np.average(stack_b, axis=0, weights=counts)
            worst = max(worst, float(np.max(np.abs(combined.weights[layer] - oracle_w))))
            worst = max(worst, float(np.max(np.abs(combined.biases[layer] - oracle_b))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"aggregation deviates from oracle by {worst:.3e}"
    assert elapsed < 5.0, f"aggregation suite took {elapsed:.1f}s"
    print(f"CRITERION 3 PASS: 100 participant sets, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_partitioner_invariants(mnist_dir):
    """Sharding and Dirichlet invariants on image-scale and synthetic data."""
    t0 = time.perf_counter()

    train = load_idx_files(
        mnist_dir / "train-images-idx3-ubyte", mnist_dir / "train-labels-idx1-ubyte"
    )
    assert train.num_samples == 60000
    parts = partition_sharding(train, 2, 100, seed=0)
    assert len(parts) == 100
    seen = set()
    for part in parts:
        assert part.n_k == 600
        labels = train.labels[part.train_indices]
        assert len(np.unique(labels)) <= 2
        overlap = seen.intersection(part.train_indices.tolist())
        assert not overlap
        seen.update(part.train_indices.tolist())

    synth = synth_generate(10, 16, 120, seed=5, spread=0.5)
    parts = partition_sharding(synth, 3, 10, seed=5)
    sizes = {p.n_k for p in parts}
    assert sizes == {3 * (1200 // 30)}
    for part in parts:
        assert len(np.unique(synth.labels[part.train_indices])) <= 3

    first = partition_dirichlet(synth, 0.3, 10, seed=9)
    second = partition_dirichlet(synth, 0.3, 10, seed=9)
    all_indices: list[int] = []
    for a, b in zip(first, second):
        assert np.array_equal(a.train_indices, b.train_indices)
        assert a.n_k >= 1
        all_indices.extend(a.train_indices.tolist())
    assert len(all_indices) == len(set(all_indices))
    assert len(all_indices) <= synth.num_samples

    uniform = np.full(10, 0.1)
    for seed in (0, 1, 2):
        for part in partition_dirichlet(synth, 1e6, 10, seed=seed):
            freqs = np.bincount(synth.labels[part.train_indices], minlength=10) / part.n_k
            tv = 0.5 * float(np.abs(freqs - uniform).sum())
            assert tv < 0.05, f"seed {seed}: total variation {tv:.3f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"partitioner suite took {elapsed:.1f}s"
    print(f"CRITERION 4 PASS: sharding and Dirichlet invariants hold, {elapsed:.1f}s")


def test_criterion_5_ablation_identity():
    """All-flags-off FedPSD equals FedAvg bit for bit over 20 rounds."""
    t0 = time.perf_counter()
    base = dataclasses.replace(DESK_BASE, t_total=20, seed=0)
    configs = {
        "fedavg": dataclasses.replace(base, algorithm="fedavg"),
        "off": dataclasses.replace(base, rhpk=False, psd=False, cll=False),
    }
    reports = {}
    params = {}
    for name, cfg in configs.items():
        train = synth_generate(
            cfg.synth_classes, cfg.synth_dim, cfg.synth_per_class,
            cfg.seed, cfg.synth_spread, sample_stream=0,
        )
        test = synth_generate(
            cfg.synth_classes, cfg.synth_dim, cfg.synth_test_per_class,
            cfg.seed, cfg.synth_spread, sample_stream=1,
        )
        server, clients = build_federation(cfg, train, test)
        reports[name] = [run_round(server, clients, train, test, cfg) for _ in range(20)]
        params[name] = server.global_params

    for r_avg, r_off in zip(reports["fedavg"], reports["off"]):
        assert r_avg.sampled == r_off.sampled
        assert r_avg.client_accuracies == r_off.client_accuracies
        assert r_avg.server_accuracy == r_off.server_accuracy
        assert r_avg.loss_traces == r_off.loss_traces
    for w_avg, w_off in zip(params["fedavg"].arrays(), params["off"].arrays()):
        assert np.array_equal(w_avg, w_off)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"identity runs took {elapsed:.1f}s"
    print(f"CRITERION 5 PASS: 20 rounds bit-identical, {elapsed:.1f}s")


def test_criterion_6_desk_scale_component_gains(desk_runs):
    """Full method beats the plain baseline by >= 5 points; components stack."""
    means = {}
    for idx, name in enumerate(ROW_NAMES):
        finals = [desk_runs.rows[seed][idx].final_avg_client_top1 for seed in (0, 1, 2)]
        means[name] = float(np.mean(finals))
    gap = means["fedpsd"] - means["baseline"]
    assert gap >= 0.05, f"client top-1 gap only {gap * 100:.2f} points ({means})"
    chain = [means[name] for name in ROW_NAMES]
    for prev, cur, name in zip(chain, chain[1:], ROW_NAMES[1:]):
        assert cur >= prev - 0.01, (
            f"{name} fell {100 * (prev - cur):.2f} points below the previous row ({means})"
        )
    assert desk_runs.elapsed < 600.0, f"desk-scale runs took {desk_runs.elapsed:.1f}s"
    print(
        "CRITERION 6 PASS: gap "
        f"{gap * 100:+.2f}pts, chain {[f'{v:.4f}' for v in chain]}, {desk_runs.elapsed:.1f}s"
    )


def test_criterion_7_image_desk_scale(image_runs):
    """On the image corpus the full method matches or beats the baseline."""
    avg_final = image_runs.fedavg.final_avg_client_top1()
    psd_final = image_runs.fedpsd.final_avg_client_top1()
    assert psd_final >= avg_final, f"fedpsd {psd_final:.4f} < fedavg {avg_final:.4f}"
    assert psd_final >= 0.85, f"fedpsd client top-1 {psd_final:.4f} below 0.85"
    assert image_runs.elapsed < 1200.0, f"image runs took {image_runs.elapsed:.1f}s"
    print(
        f"CRITERION 7 PASS: fedpsd {psd_final:.4f} vs fedavg {avg_final:.4f}, "
        f"{image_runs.elapsed:.1f}s"
    )


def test_criterion_8_rounds_to_target(desk_runs):
    """The full method reaches the baseline's final accuracy early."""
    crossings = []
    for seed in (0, 1, 2):
        baseline_final = desk_runs.rows[seed][0].final_avg_client_top1
        fedpsd_series = desk_runs.rows[seed][3].series
        reached = rounds_to_target(fedpsd_series, baseline_final, metric="client")
        assert reached is not None, f"seed {seed}: target {baseline_final:.4f} never reached"
        assert reached < 60, f"seed {seed}: needed {reached} rounds"
        crossings.append(reached)
    print(f"CRITERION 8 PASS: crossings at rounds {crossings} (all < 60)")


def test_criterion_9_thread_determinism(tmp_path):
    """Re-runs reproduce metrics byte-for-byte at any worker count."""
    base = dataclasses.replace(DESK_BASE, t_total=10, num_clients=10, seed=6)
    outputs = {}
    for name, workers in (("one", 1), ("one_again", 1), ("two", 2), ("four", 4)):
        cfg = dataclasses.replace(base, workers=workers)
        from fedpsd.metrics import emit_metrics, emit_sweeps

        series = run_experiment(cfg)
        metrics_path = tmp_path / f"{name}.csv"
        sweeps_path = tmp_path / f"{name}_sweeps.csv"
        emit_metrics(series, metrics_path)
        emit_sweeps(series, sweeps_path)
        outputs[name] = (metrics_path.read_bytes(), sweeps_path.read_bytes())
    assert outputs["one"] == outputs["one_again"], "serial re-run differs"
    assert outputs["one"] == outputs["two"], "2-worker run differs from serial"
    assert outputs["one"] == outputs["four"], "4-worker run differs from serial"
    print("CRITERION 9 PASS: byte-identical CSVs for workers 1, 1 (re-run), 2, 4")
