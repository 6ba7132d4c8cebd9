"""Round loop, aggregation, baselines, and end-to-end determinism."""
import dataclasses
import math
import os
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from fedpsd import engine
from fedpsd.config import LOCAL_SHUFFLE_STREAM, ExperimentConfig
from fedpsd.data import LabeledDataset, class_prior, save_idx, synth_generate
from fedpsd.engine import (
    _load_dataset_pair,
    aggregate,
    build_federation,
    lr_schedule,
    run_experiment,
    run_round,
    sample_clients,
)
from fedpsd.nn import ContractViolation, forward, init_model, top1_accuracy
from fedpsd.psd import local_train_fedpsd


class TestSampleClients:
    def test_full_participation(self):
        assert sorted(sample_clients(7, 1.0, 0, seed=0)) == list(range(7))

    def test_ten_percent_of_hundred(self):
        ids = sample_clients(100, 0.1, 3, seed=1)
        assert len(ids) == 10 and len(set(ids)) == 10
        assert all(0 <= c < 100 for c in ids)

    def test_ceil_rounding(self):
        assert len(sample_clients(10, 0.25, 0, seed=0)) == 3

    def test_keyed_by_seed_and_round(self):
        a = sample_clients(50, 0.2, 4, seed=9)
        assert a == sample_clients(50, 0.2, 4, seed=9)
        assert a != sample_clients(50, 0.2, 5, seed=9) or a != sample_clients(50, 0.2, 4, seed=10)

    def test_fraction_domain(self):
        with pytest.raises(ContractViolation):
            sample_clients(10, 0.0, 0, seed=0)


class TestAggregate:
    def test_single_client_identity(self):
        model = init_model([3, 4, 2], seed=0)
        out = aggregate([(model, 17)])
        for a, b in zip(out.arrays(), model.arrays()):
            assert np.array_equal(a, b)

    def test_weighted_scalar_mean(self):
        zero = init_model([2, 1], seed=0)
        four = init_model([2, 1], seed=0)
        zero.weights[0][:] = 0.0
        zero.biases[0][:] = 0.0
        four.weights[0][:] = 4.0
        four.biases[0][:] = 4.0
        out = aggregate([(zero, 1), (four, 3)])
        assert np.allclose(out.weights[0], 3.0, atol=1e-15)
        assert np.allclose(out.biases[0], 3.0, atol=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            k = int(rng.integers(1, 8))
            models = [init_model([3, 4, 2], seed=100 * trial + j) for j in range(k)]
            counts = [int(rng.integers(1, 50)) for _ in range(k)]
            out = aggregate(list(zip(models, counts)))
            n = sum(counts)
            for arr_i, got in enumerate(out.arrays()):
                # Different summation order: accumulate n_k * w, divide once.
                acc = np.zeros_like(got)
                for m, c in zip(models, counts):
                    acc = acc + c * m.arrays()[arr_i]
                assert np.abs(got - acc / n).max() < 1e-12

    def test_shape_mismatch_names_client(self):
        a = init_model([3, 4, 2], seed=0)
        b = init_model([3, 5, 2], seed=0)
        with pytest.raises(ContractViolation, match="client 42"):
            aggregate([(a, 10), (b, 10)], client_ids=[7, 42])

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate([])


class TestLrSchedule:
    def test_values(self):
        assert lr_schedule(0.01, 0) == 0.01
        assert lr_schedule(0.01, 1) == pytest.approx(0.0099, abs=1e-15)
        direct = 0.01 * math.pow(0.99, 200)
        assert lr_schedule(0.01, 200) == pytest.approx(direct, abs=1e-18)
        assert lr_schedule(0.01, 200) == pytest.approx(0.00134, abs=1e-5)

    def test_negative_round(self):
        with pytest.raises(ContractViolation):
            lr_schedule(0.01, -1)


def _one_client(seed=0, classes=2, per_class=40, spread=0.1):
    ds = synth_generate(classes, 8, per_class, seed=seed, spread=spread)
    return ds


def _reference_local_update(model, features, labels, client_id, round_t, lr, cfg):
    """The FedAvg local update written out step by step, plus FedProx's
    proximal pull: an oracle for the trainer that shares none of its code.

    Parameters are kept as [w0, b0, w1, b1, ...], the order in which the
    trainer sums the proximal penalty.
    """
    params = [a.copy() for a in model.arrays()]
    anchor = model.arrays()
    velocity = [np.zeros_like(a) for a in params]
    layers = len(params) // 2
    mu = cfg.prox_mu if cfg.algorithm == "fedprox" else None
    rng = np.random.default_rng([cfg.seed, LOCAL_SHUFFLE_STREAM, round_t, client_id])
    losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(labels.shape[0])
        for start in range(0, labels.shape[0], cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows, y = np.arange(idx.size), labels[idx]
            inputs = [features[idx]]
            for i in range(layers):
                z = inputs[-1] @ params[2 * i].T + params[2 * i + 1]
                inputs.append(z if i == layers - 1 else np.maximum(z, 0.0))
            logits = inputs.pop()
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            loss = float(-log_p[rows, y].mean())
            target = np.zeros_like(logits)
            target[rows, y] = 1.0
            delta = (np.exp(log_p) - target) / idx.size
            grads = [None] * len(params)
            for i in reversed(range(layers)):
                grads[2 * i] = delta.T @ inputs[i]
                grads[2 * i + 1] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ params[2 * i]) * (inputs[i] > 0.0)
            if mu is not None:
                sq = 0.0
                for j in range(len(params)):
                    diff = params[j] - anchor[j]
                    sq += float((diff * diff).sum())
                    grads[j] = grads[j] + mu * diff
                loss = loss + 0.5 * mu * sq
            for j in range(len(params)):
                velocity[j] = cfg.momentum * velocity[j] + (grads[j] + cfg.weight_decay * params[j])
                params[j] = params[j] - lr * velocity[j]
            losses.append(loss)
    return params, losses


class TestLocalBaseline:
    def test_lr_zero_returns_global(self):
        ds = _one_client()
        model = init_model([8, 6, 2], seed=0)
        cfg = ExperimentConfig(epochs=2, batch_size=16, seed=0)
        params, history, _ = local_train_fedpsd(model, ds.features, ds.labels, None, None, 0, 0, 0.0, cfg)
        assert history is None
        for a, b in zip(params.arrays(), model.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "fedpsd"])
    def test_leaves_global_params_untouched(self, algorithm):
        # The trainer updates its parameters in place, so it must start
        # from a copy; the global model is shared by every client.
        ds = synth_generate(4, 8, 30, seed=5, spread=0.3)
        prior = class_prior(ds.labels, 4, epsilon=1.0)
        model = init_model([8, 6, 4], seed=5)
        before = model.flat.tobytes()
        cfg = ExperimentConfig(algorithm=algorithm, prox_mu=0.5, epochs=2, batch_size=16, seed=1)
        params, _, _ = local_train_fedpsd(model, ds.features, ds.labels, prior, None, 0, 1, 0.05, cfg)
        assert model.flat.tobytes() == before
        assert not np.shares_memory(params.flat, model.flat)

    def test_fedprox_pull_toward_global(self):
        ds = _one_client(seed=1)
        model = init_model([8, 6, 2], seed=1)
        # mu large but stable: lr * mu must stay below 2 or the proximal
        # pull itself oscillates and diverges.
        avg_cfg = ExperimentConfig(algorithm="fedavg", epochs=3, batch_size=16, seed=2, momentum=0.0)
        prox_cfg = ExperimentConfig(
            algorithm="fedprox", prox_mu=10.0, epochs=3, batch_size=16, seed=2, momentum=0.0
        )
        p_avg, _, _ = local_train_fedpsd(model, ds.features, ds.labels, None, None, 0, 0, 0.05, avg_cfg)
        p_prox, _, _ = local_train_fedpsd(model, ds.features, ds.labels, None, None, 0, 0, 0.05, prox_cfg)

        def dist(p):
            return sum(float(((a - b) ** 2).sum()) for a, b in zip(p.arrays(), model.arrays()))

        assert dist(p_prox) < dist(p_avg)

    def test_separable_client_converges(self):
        ds = _one_client(seed=3)
        model = init_model([8, 6, 2], seed=3)
        cfg = ExperimentConfig(epochs=20, batch_size=16, seed=0)
        params, _, losses = local_train_fedpsd(model, ds.features, ds.labels, None, None, 0, 0, 0.05, cfg)
        acc = top1_accuracy(forward(params, ds.features), ds.labels)
        assert acc >= 0.95
        assert losses[-1] < losses[0]

    @staticmethod
    def _assert_matches_reference(**overrides):
        ds = synth_generate(4, 8, 30, seed=5, spread=0.3)
        prior = class_prior(ds.labels, 4, epsilon=1.0)
        model = init_model([8, 6, 5, 4], seed=5)
        cfg = ExperimentConfig(
            epochs=3, batch_size=16, seed=11, t_total=10, momentum=0.9, weight_decay=1e-3,
            **overrides,
        )
        params, history, losses = local_train_fedpsd(
            model, ds.features, ds.labels, prior, None, 3, 2, 0.04, cfg
        )
        want_params, want_losses = _reference_local_update(
            model, ds.features, ds.labels, 3, 2, 0.04, cfg
        )
        assert losses == want_losses
        assert len(params.arrays()) == len(want_params)
        for got, want in zip(params.arrays(), want_params):
            assert np.array_equal(got, want)
        assert (history is None) == (cfg.algorithm != "fedpsd")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(algorithm="fedavg"),
            dict(algorithm="fedprox", prox_mu=0.5),
            dict(algorithm="fedprox", prox_mu=0.0),
        ],
        ids=["fedavg", "fedprox", "fedprox_mu0"],
    )
    def test_matches_straight_line_reference(self, overrides):
        # The fedpsd flags stay at their defaults (on) here, so this also
        # pins that they act only under algorithm = fedpsd.
        self._assert_matches_reference(**overrides)

    def test_all_flags_off_fedpsd_is_fedavg_bit_exact(self):
        self._assert_matches_reference(algorithm="fedpsd", rhpk=False, psd=False, cll=False)


def _small_cfg(**overrides):
    base = dict(
        dataset="synthetic", synth_classes=4, synth_dim=8, synth_per_class=30,
        synth_test_per_class=15, synth_spread=0.25, partition="sharding",
        shards_per_client=2, num_clients=6, fraction=0.5, t_total=5, epochs=2,
        batch_size=16, test_budget=20, sweep_every=0, seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _federation(cfg):
    train, test = _load_dataset_pair(cfg)
    server, clients = build_federation(cfg, train, test)
    return train, test, server, clients


@pytest.fixture
def aggregated(monkeypatch):
    """Every (params, n_k) list that run_round hands to aggregate."""
    seen = []
    real = engine.aggregate

    def spy(updates, client_ids=None):
        seen.append(updates)
        return real(updates, client_ids)

    monkeypatch.setattr(engine, "aggregate", spy)
    return seen


class TestRunRound:
    def test_single_client_round_is_identity(self, aggregated):
        cfg = _small_cfg(num_clients=1, fraction=1.0, shards_per_client=4)
        train, test, server, clients = _federation(cfg)
        run_round(server, clients, train, test, cfg)
        [(params, _)] = aggregated[-1]
        assert server.global_params.flat.tobytes() == params.flat.tobytes()

    def test_threaded_round_leaves_pre_round_global_untouched(self, aggregated):
        # Every client trains from the same global model object, on the
        # calling thread or in a worker; an in-place write to it would be
        # silent and order-dependent.
        cfg = _small_cfg(algorithm="fedprox", prox_mu=0.1, workers=2, fraction=1.0)
        train, test, server, clients = _federation(cfg)
        pool = engine.WorkerPool(2, train, test, clients, cfg)
        try:
            for workers in (None, pool):
                server.workers = workers
                pre_round = server.global_params
                before = pre_round.flat.tobytes()
                run_round(server, clients, train, test, cfg)
                assert server.global_params is not pre_round
                assert pre_round.flat.tobytes() == before
                assert not any(np.shares_memory(p.flat, pre_round.flat) for p, _ in aggregated[-1])
        finally:
            pool.close()

    def test_report_contents(self, aggregated):
        cfg = _small_cfg()
        train, test, server, clients = _federation(cfg)
        report = run_round(server, clients, train, test, cfg)
        assert len(report.sampled) == math.ceil(cfg.fraction * cfg.num_clients)
        assert server.round == 1
        assert all(0.0 <= a <= 1.0 for a in report.client_accuracies)
        # recompute each participant's accuracy from the parameters it
        # returned; the client keeps the same figure for the sweep
        for cid, reported, (params, _) in zip(report.sampled, report.client_accuracies, aggregated[-1]):
            cl = clients[cid]
            idx = cl.partition.test_indices
            again = top1_accuracy(forward(params, test.features[idx]), test.labels[idx])
            assert again == reported == cl.last_accuracy
        assert all(clients[cid].last_accuracy is None for cid in set(clients) - set(report.sampled))
        assert report.avg_client_top1 == pytest.approx(
            sum(report.client_accuracies) / len(report.client_accuracies), abs=1e-15
        )


@pytest.fixture
def worker_log(monkeypatch):
    """Records the pid of each worker process this process forks and the
    thread of each client trained in this process (a worker's records
    stay in the worker). Reports 8 cpus, so the cpu count caps no run."""
    log = SimpleNamespace(forks=[], threads=[])
    real_fork, real_train = os.fork, engine._train_one

    def fork():
        pid = real_fork()
        if pid:
            log.forks.append(pid)
        return pid

    def train_one(*args):
        log.threads.append(threading.get_ident())
        return real_train(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(engine, "_train_one", train_one)
    return log


def _one_round(cfg):
    train, test, server, clients = _federation(cfg)
    return run_round(server, clients, train, test, cfg), server


class TestPoolGate:
    def test_one_worker_trains_on_calling_thread(self, worker_log):
        series = run_experiment(_small_cfg(workers=1, t_total=2))
        assert worker_log.forks == []
        trained = sum(len(r.sampled) for r in series.rounds)
        assert worker_log.threads == [threading.get_ident()] * trained

    def test_large_model_uses_pool_with_same_report(self, worker_log):
        cfg = _small_cfg(synth_dim=256, hidden=(128,), algorithm="fedpsd", t_total=1, workers=2)
        # run_round on a server without workers trains here, whatever
        # cfg.workers says.
        serial, serial_server = _one_round(cfg)
        assert worker_log.forks == []
        assert worker_log.threads == [threading.get_ident()] * len(serial.sampled)
        train, test, server, clients = _federation(cfg)
        server.workers = engine.WorkerPool(2, train, test, clients, cfg)
        try:
            pooled = run_round(server, clients, train, test, cfg)
        finally:
            server.workers.close()
        assert len(worker_log.forks) == 2
        assert len(worker_log.threads) == len(serial.sampled)  # none trained here
        assert pooled == serial
        assert server.global_params.flat.tobytes() == serial_server.global_params.flat.tobytes()

    @pytest.mark.parametrize(
        "workers, fraction, cpus, expected",
        [(1, 1.0, 8, 1), (4, 1.0, 8, 4), (4, 0.5, 8, 3), (4, 1.0, 2, 2)],
    )
    def test_worker_count_is_capped(self, monkeypatch, workers, fraction, cpus, expected):
        # _small_cfg has 6 clients: fraction 0.5 samples 3 a round.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert engine.worker_count(_small_cfg(workers=workers, fraction=fraction)) == expected

    def test_workers_fork_once_when_the_first_round_trains(self, worker_log, monkeypatch):
        forked_at_round_start = []
        real_round = engine.run_round

        def spy(*args):
            forked_at_round_start.append(len(worker_log.forks))
            return real_round(*args)

        monkeypatch.setattr(engine, "run_round", spy)
        run_experiment(_small_cfg(workers=8, fraction=0.5, t_total=3))
        assert forked_at_round_start == [0, 3, 3]
        assert worker_log.threads == []


class TestWorkers:
    def test_error_in_worker_reraises_with_its_message(self, worker_log):
        with pytest.raises(
            FloatingPointError, match=r"at round 0, client \d+, epoch \d+, batch \d+"
        ):
            run_experiment(_small_cfg(workers=2, base_lr=1e200))
        assert len(worker_log.forks) == 2
        assert worker_log.threads == []  # raised where the clients trained

    def test_worker_that_dies_mid_round_is_named(self, worker_log, monkeypatch):
        parent, real_train = os.getpid(), engine._train_one

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_train(*args)

        monkeypatch.setattr(engine, "_train_one", die_in_worker)
        with pytest.raises(ChildProcessError, match=r"worker process \d+ exited") as info:
            run_experiment(_small_cfg(workers=2))
        named = int(re.search(r"process (\d+)", str(info.value)).group(1))
        assert named in worker_log.forks

    def test_no_worker_outlives_the_run(self, worker_log):
        run_experiment(_small_cfg(workers=2, t_total=2))
        with pytest.raises(FloatingPointError):
            run_experiment(_small_cfg(workers=2, base_lr=1e200))
        assert len(worker_log.forks) == 4
        for pid in worker_log.forks:
            with pytest.raises(ChildProcessError):  # reaped: no longer a child
                os.waitpid(pid, os.WNOHANG)


class TestRunExperiment:
    def test_single_round_series(self):
        series = run_experiment(_small_cfg(t_total=1))
        assert len(series.rounds) == 1
        assert series.rounds[0].round == 1

    def test_identical_seeds_identical_series(self):
        a = run_experiment(_small_cfg())
        b = run_experiment(_small_cfg())
        assert a.rounds == b.rounds

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(_small_cfg(algorithm="fedpsd", sweep_every=1))
        pooled = run_experiment(_small_cfg(algorithm="fedpsd", sweep_every=1, workers=4))
        assert serial.rounds == pooled.rounds
        assert serial.sweeps == pooled.sweeps

    def test_iid_fedavg_converges(self):
        cfg = _small_cfg(
            partition="dirichlet", dirichlet_alpha=1e6, synth_per_class=50,
            t_total=30, synth_spread=0.2,
        )
        series = run_experiment(cfg)
        assert series.rounds[-1].server_top1 >= 0.9

    def test_sweep_schedule(self):
        series = run_experiment(_small_cfg(t_total=4, sweep_every=2))
        assert [s.round for s in series.sweeps] == [2, 4]
        assert all(0.0 <= s.all_client_top1 <= 1.0 for s in series.sweeps)

    def test_fedpsd_off_matches_fedavg_end_to_end(self):
        avg = run_experiment(_small_cfg(algorithm="fedavg"))
        off = run_experiment(
            _small_cfg(algorithm="fedpsd", rhpk=False, psd=False, cll=False)
        )
        assert avg.rounds == off.rounds

    def test_mnist_requires_directory(self):
        with pytest.raises(ContractViolation, match="mnist_dir"):
            run_experiment(_small_cfg(dataset="mnist"))


def _write_idx_dir(directory, train, test):
    for split, prefix in ((train, "train"), (test, "t10k")):
        images, labels = save_idx(split)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(labels)


def _idx_split(classes, per_class, seed):
    labels = np.repeat(np.arange(classes), per_class)
    features = np.random.default_rng(seed).integers(0, 256, size=(labels.size, 4)) / 255.0
    return LabeledDataset(features, labels, num_classes=classes)


class TestIdxClassCount:
    CFG = dict(
        dataset="mnist", num_clients=2, fraction=1.0, shards_per_client=2, t_total=1,
        epochs=1, batch_size=10, hidden=(4,), test_budget=10, sweep_every=0,
    )

    def test_test_set_missing_top_class_is_skipped_with_warning(self, tmp_path):
        _write_idx_dir(tmp_path, _idx_split(4, 20, seed=0), _idx_split(3, 10, seed=1))
        cfg = ExperimentConfig(mnist_dir=str(tmp_path), **self.CFG)
        with pytest.warns(UserWarning, match="class 3 .* absent from the global test set"):
            series = run_experiment(cfg)
        assert [r.round for r in series.rounds] == [1]

    def test_test_label_outside_train_classes_raises(self, tmp_path):
        _write_idx_dir(tmp_path, _idx_split(3, 20, seed=0), _idx_split(4, 10, seed=1))
        cfg = ExperimentConfig(mnist_dir=str(tmp_path), **self.CFG)
        with pytest.raises(ContractViolation, match=r"labels must lie in \[0, 3\)"):
            run_experiment(cfg)

    def test_hot_paths_read_pixel_rows_without_materialising(self, tmp_path, monkeypatch):
        _write_idx_dir(tmp_path, _idx_split(4, 20, seed=0), _idx_split(4, 10, seed=1))
        cfg = ExperimentConfig(mnist_dir=str(tmp_path), **{**self.CFG, "t_total": 2, "sweep_every": 1})
        train, test = engine._load_dataset_pair(cfg)
        # Train rows stay bytes; the whole test set is read every round,
        # so it is converted once.
        assert train.pixels and not test.pixels
        whole = LabeledDataset.features.fget

        def refuse_pixels(ds):
            if ds.pixels:
                raise AssertionError("a pixel-backed set was materialised through .features")
            return whole(ds)

        monkeypatch.setattr(LabeledDataset, "features", property(refuse_pixels))
        series = run_experiment(cfg)
        assert [r.round for r in series.rounds] == [1, 2]
        assert [s.round for s in series.sweeps] == [1, 2]
