"""Round loop, aggregation, baselines, and end-to-end determinism."""
import ast
import dataclasses
import errno
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpsd import engine, psd
from fedpsd.config import LOCAL_SHUFFLE_STREAM, ExperimentConfig
from fedpsd.data import LabeledDataset, save_idx, synth_generate
from fedpsd.engine import (
    _load_dataset_pair,
    aggregate,
    build_federation,
    run_experiment,
    run_round,
    sample_clients,
)
from fedpsd.metrics import format_round
from fedpsd.nn import (
    EVAL_BLOCK_ROWS,
    ContractViolation,
    ModelParams,
    forward,
    init_model,
    log_softmax,
    top1_accuracy,
)
from fedpsd.psd import local_train_fedpsd, lr_schedule


class TestSampleClients:
    def test_full_participation(self):
        assert sorted(sample_clients(7, 1.0, 0, seed=0)) == list(range(7))

    def test_ten_percent_of_hundred(self):
        ids = sample_clients(100, 0.1, 3, seed=1)
        assert len(ids) == 10 and len(set(ids)) == 10
        assert all(0 <= c < 100 for c in ids)

    def test_ceil_rounding(self):
        assert len(sample_clients(10, 0.25, 0, seed=0)) == 3

    @pytest.mark.parametrize(
        "num_clients, fraction, expected",
        [(100, 0.07, 7), (50, 0.14, 7), (25, 0.28, 7), (100, 0.55, 55)],
    )
    def test_count_is_exact_where_float_ceil_overshoots(self, num_clients, fraction, expected):
        # 0.07 * 100 == 7.000000000000001 in float64
        assert len(sample_clients(num_clients, fraction, 0, seed=0)) == expected
        assert engine.clients_per_round(num_clients, fraction) == expected

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

    @pytest.mark.parametrize("n_k", [0, -3])
    def test_non_positive_count_names_client(self, n_k):
        model = init_model([3, 4, 2], seed=0)
        with pytest.raises(ContractViolation, match=f"client 9 reports non-positive sample count {n_k}"):
            aggregate([(model, 10), (model, n_k)], client_ids=[4, 9])

    def test_sums_in_list_order_to_the_bit(self):
        # One client at a time, in order: out += (n_k / total) * params.
        models = [init_model([3, 4, 2], seed=j) for j in range(5)]
        counts = [3, 41, 7, 19, 1]
        want = np.zeros_like(models[0].flat)
        for m, c in zip(models, counts):
            want += (c / sum(counts)) * m.flat
        assert aggregate(list(zip(models, counts))).flat.tobytes() == want.tobytes()

    @pytest.mark.parametrize("client_ids", [[7], [7, 8, 9]])
    def test_client_ids_of_the_wrong_length_rejected(self, client_ids):
        # zip would stop at the shorter list: [7] would check b against
        # nothing and sum two weights of 1.
        a, b = init_model([3, 4, 2], seed=0), init_model([3, 4, 2], seed=1)
        with pytest.raises(ContractViolation, match=f"{len(client_ids)} client ids for 2 updates"):
            aggregate([(a, 10), (b, 10)], client_ids=client_ids)


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


def _reference_local_update(model, features, labels, client_id, round_t, cfg, history=None):
    """The local update written out step by step from its equations: an
    oracle for the trainer that shares none of its code.

    Every algorithm runs mini-batch SGD with classical momentum, at
    lr = base_lr * lr_decay^t, on the batch-mean cross-entropy; FedProx
    adds (mu/2) ||w - w_global||^2, the norm of the whole parameter
    vector. The student's probabilities are q = exp(log_softmax(f)) of
    the plain logits f. FedPSD, with alpha = t / t_total:

    - cll: the cross-entropy sees the prior-shifted logits f + ln P,
      P(y) = (count_y + eps) / (n_k + L * eps) over the client's labels;
    - rhpk: in epoch 1, once the client has a history, the teacher is
      alpha * history + (1 - alpha) * onehot; the new history is the
      trained model's q over the local set;
    - psd: in epochs >= 2 the teacher is alpha * q + (1 - alpha) * onehot,
      each sample's q taken at its forward pass in the previous epoch;
    - a teacher adds KL(teacher || q).

    Returns (params, losses, history): params as [w0, b0, w1, b1, ...],
    the order of ``ModelParams.flat``, and the history None unless
    fedpsd runs with rhpk.
    """
    params = [a.copy() for a in model.arrays()]
    anchor = model.arrays()
    velocity = [np.zeros_like(a) for a in params]
    layers = len(params) // 2
    n = labels.shape[0]
    fedpsd = cfg.algorithm == "fedpsd"
    mu = cfg.prox_mu if cfg.algorithm == "fedprox" else None
    alpha = round_t / cfg.t_total
    lr = cfg.base_lr * cfg.lr_decay**round_t
    eps, num_classes = cfg.prior_epsilon, model.num_classes
    prior = (np.bincount(labels, minlength=num_classes) + eps) / (n + num_classes * eps)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), labels] = 1.0

    def log_softmax(z):
        shifted = z - z.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def activations(x):
        inputs = [x]
        for i in range(layers):
            z = inputs[-1] @ params[2 * i].T + params[2 * i + 1]
            inputs.append(z if i == layers - 1 else np.maximum(z, 0.0))
        return inputs

    rng = np.random.default_rng([cfg.seed, LOCAL_SHUFFLE_STREAM, round_t, client_id])
    losses, recorded = [], None
    for epoch in range(cfg.epochs):
        teacher = None
        if epoch == 0 and fedpsd and cfg.rhpk and history is not None:
            teacher = alpha * history + (1.0 - alpha) * onehot
        elif epoch > 0 and fedpsd and cfg.psd:
            teacher = alpha * recorded + (1.0 - alpha) * onehot
        recorded = np.empty_like(onehot)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows, y, b = np.arange(idx.size), labels[idx], idx.size
            inputs = activations(features[idx])
            logits = inputs.pop()
            log_q = log_softmax(logits)
            q = np.exp(log_q)
            log_p = log_softmax(logits + np.log(prior)) if fedpsd and cfg.cll else log_q
            loss = float(-log_p[rows, y].mean())
            delta = (np.exp(log_p) - onehot[idx]) / b
            if teacher is not None:
                t = teacher[idx]
                t_log_t = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0)
                loss = loss + float((t_log_t.sum(axis=1) - (t * log_q).sum(axis=1)).mean())
                delta = delta + (q - t) / b
            recorded[idx] = q
            grads = [None] * len(params)
            for i in reversed(range(layers)):
                grads[2 * i] = delta.T @ inputs[i]
                grads[2 * i + 1] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ params[2 * i]) * (inputs[i] > 0.0)
            if mu is not None:
                diff = [p - a for p, a in zip(params, anchor)]
                w = np.concatenate([d.ravel() for d in diff])
                loss = loss + 0.5 * mu * float((w * w).sum())
                grads = [g + mu * d for g, d in zip(grads, diff)]
            for j in range(len(params)):
                velocity[j] = cfg.momentum * velocity[j] + (grads[j] + cfg.weight_decay * params[j])
                params[j] = params[j] - lr * velocity[j]
            losses.append(loss)
    if not (fedpsd and cfg.rhpk):
        return params, losses, None
    return params, losses, np.exp(log_softmax(activations(features)[-1]))


class TestLocalBaseline:
    def test_lr_zero_returns_global(self, monkeypatch):
        ds = _one_client()
        model = init_model([8, 6, 2], seed=0)
        cfg = ExperimentConfig(epochs=2, batch_size=16, seed=0)
        monkeypatch.setattr(psd, "lr_schedule", lambda *args: 0.0)
        params, history, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 0, cfg)
        assert history is None
        for a, b in zip(params.arrays(), model.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "fedpsd"])
    def test_leaves_global_params_untouched(self, algorithm):
        # The trainer updates its parameters in place, so it must start
        # from a copy; the global model is shared by every client.
        ds = synth_generate(4, 8, 30, seed=5, spread=0.3)
        model = init_model([8, 6, 4], seed=5)
        before = model.flat.tobytes()
        cfg = ExperimentConfig(
            algorithm=algorithm, prox_mu=0.5, epochs=2, batch_size=16, seed=1,
            base_lr=0.05, lr_decay=1.0,
        )
        params, _, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 1, cfg)
        assert model.flat.tobytes() == before
        assert not np.shares_memory(params.flat, model.flat)

    def test_fedprox_pull_toward_global(self):
        ds = _one_client(seed=1)
        model = init_model([8, 6, 2], seed=1)
        # mu large but stable: lr * mu must stay below 2 or the proximal
        # pull itself oscillates and diverges.
        fixed_lr = dict(base_lr=0.05, lr_decay=1.0)
        avg_cfg = ExperimentConfig(
            algorithm="fedavg", epochs=3, batch_size=16, seed=2, momentum=0.0, **fixed_lr
        )
        prox_cfg = ExperimentConfig(
            algorithm="fedprox", prox_mu=10.0, epochs=3, batch_size=16, seed=2, momentum=0.0,
            **fixed_lr,
        )
        p_avg, _, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 0, avg_cfg)
        p_prox, _, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 0, prox_cfg)

        def dist(p):
            return sum(float(((a - b) ** 2).sum()) for a, b in zip(p.arrays(), model.arrays()))

        assert dist(p_prox) < dist(p_avg)

    def test_separable_client_converges(self):
        ds = _one_client(seed=3)
        model = init_model([8, 6, 2], seed=3)
        cfg = ExperimentConfig(epochs=20, batch_size=16, seed=0, base_lr=0.05, lr_decay=1.0)
        params, _, losses = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 0, cfg)
        acc = top1_accuracy(forward(params, ds.features), ds.labels)
        assert acc >= 0.95
        assert losses[-1] < losses[0]

    @staticmethod
    def _assert_matches_reference(batch_size=16, **overrides):
        ds = synth_generate(4, 8, 30, seed=5, spread=0.3)
        model = init_model([8, 6, 5, 4], seed=5)
        cfg = ExperimentConfig(
            epochs=3, batch_size=batch_size, seed=11, t_total=10, momentum=0.9,
            weight_decay=1e-3, base_lr=0.04, lr_decay=1.0, **overrides,
        )
        params, history, losses = local_train_fedpsd(model, ds.features, ds.labels, None, 3, 2, cfg)
        want_params, want_losses, want_history = _reference_local_update(
            model, ds.features, ds.labels, 3, 2, cfg
        )
        assert losses == want_losses
        assert len(params.arrays()) == len(want_params)
        for got, want in zip(params.arrays(), want_params):
            assert np.array_equal(got, want)
        assert (history is None) == (cfg.algorithm != "fedpsd" or not cfg.rhpk)
        if history is not None:
            assert history.tobytes() == want_history.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(algorithm="fedavg"),
            dict(algorithm="fedprox", prox_mu=0.5),
            dict(algorithm="fedprox", prox_mu=0.0),
            # Summing the squares array by array rounds one of this
            # case's losses differently from the whole-vector sum.
            dict(algorithm="fedprox", prox_mu=3.0),
            # 120 rows in batches of 17 leave a one-row last batch.
            dict(algorithm="fedprox", prox_mu=0.5, batch_size=17),
            dict(algorithm="fedpsd", batch_size=17),
        ],
        ids=["fedavg", "fedprox", "fedprox_mu0", "fedprox_mu3", "fedprox_b17", "fedpsd_b17"],
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
def folded(monkeypatch):
    """Every client model that run_round folds into a global model, in
    fold order: a round's are the last ``len(report.sampled)``."""
    seen = []
    real = engine._fold

    def spy(out, params, weight):
        seen.append(params)
        return real(out, params, weight)

    monkeypatch.setattr(engine, "_fold", spy)
    return seen


def _train_all(pool, global_params, round_t, sampled):
    """``pool.train``'s results, in ``sampled`` order."""
    results = []
    pool.train(global_params, round_t, sampled, lambda client, result: results.append(result))
    return results


# Every (rhpk, psd, cll) combination, in batches of 16 and of 29; 29
# over a client's 30 rows leaves a one-row last batch.
_REFERENCE_CASES = [
    (dict(zip(("rhpk", "psd", "cll"), on)), b)
    for b in (16, 29)
    for on in itertools.product((False, True), repeat=3)
]


class TestFedPSDReference:
    @pytest.mark.parametrize(
        "flags, batch_size",
        _REFERENCE_CASES,
        ids=[
            ("+".join(name for name, on in flags.items() if on) or "none") + ("" if b == 16 else f"-b{b}")
            for flags, b in _REFERENCE_CASES
        ],
    )
    def test_three_rounds_match_the_straight_line_reference(self, folded, flags, batch_size):
        # Every client trains every round, so from round 1 on each has a
        # history; alpha = t / 5 is 0, 0.2 and 0.4 over the three rounds.
        cfg = _small_cfg(
            algorithm="fedpsd", num_clients=4, fraction=1.0, epochs=3, momentum=0.9,
            weight_decay=1e-3, batch_size=batch_size, **flags,
        )
        train, test, server, clients = _federation(cfg)
        for t in range(3):
            global_params = server.global_params
            # A copy: training overwrites a client's history in place. Its
            # slot holds one once the client has trained.
            before = {
                cid: client.history.copy()
                if cfg.rhpk and client.last_accuracy is not None
                else None
                for cid, client in clients.items()
            }
            report = run_round(server, clients, train, test, cfg)
            updates = folded[-len(report.sampled) :]
            for cid, params, losses in zip(report.sampled, updates, report.loss_traces, strict=True):
                idx = clients[cid].partition.train_indices
                want_params, want_losses, want_history = _reference_local_update(
                    global_params, train.rows(idx), train.labels[idx], cid, t, cfg, before[cid],
                )
                assert losses == want_losses, (t, cid)
                for got, want in zip(params.arrays(), want_params, strict=True):
                    assert got.tobytes() == want.tobytes(), (t, cid)
                if cfg.rhpk:
                    assert clients[cid].history.tobytes() == want_history.tobytes(), (t, cid)
                else:
                    assert clients[cid].history is None and want_history is None


class TestRunRound:
    def test_single_client_round_is_identity(self, folded):
        cfg = _small_cfg(num_clients=1, fraction=1.0, shards_per_client=4)
        train, test, server, clients = _federation(cfg)
        run_round(server, clients, train, test, cfg)
        [params] = folded
        assert server.global_params.flat.tobytes() == params.flat.tobytes()

    def test_round_leaves_pre_round_global_untouched(self, folded):
        # Every client trains from the same global model object, in the
        # calling process or in a worker; an in-place write to it would be
        # silent and order-dependent.
        cfg = _small_cfg(algorithm="fedprox", prox_mu=0.1, workers=2, fraction=1.0)
        train, test, server, clients = _federation(cfg)
        pool = server.workers
        try:
            for workers in (engine.WorkerPool(1, train, test, clients, cfg), pool):
                server.workers = workers
                pre_round = server.global_params
                before = pre_round.flat.tobytes()
                report = run_round(server, clients, train, test, cfg)
                assert server.global_params is not pre_round
                assert pre_round.flat.tobytes() == before
                updates = folded[-len(report.sampled) :]
                assert not any(np.shares_memory(p.flat, pre_round.flat) for p in updates)
        finally:
            pool.close()

    def test_report_contents(self, folded):
        cfg = _small_cfg()
        train, test, server, clients = _federation(cfg)
        report = run_round(server, clients, train, test, cfg)
        assert len(report.sampled) == math.ceil(cfg.fraction * cfg.num_clients)
        assert server.round == 1
        assert all(0.0 <= a <= 1.0 for a in report.client_accuracies)
        # recompute each participant's accuracy from the parameters it
        # returned; the client keeps the same figure for the sweep
        for cid, reported, params in zip(report.sampled, report.client_accuracies, folded, strict=True):
            cl = clients[cid]
            idx = cl.partition.test_indices
            again = top1_accuracy(forward(params, test.features[idx]), test.labels[idx])
            assert again == reported == cl.last_accuracy
        assert all(clients[cid].last_accuracy is None for cid in set(clients) - set(report.sampled))
        assert report.avg_client_top1 == pytest.approx(
            sum(report.client_accuracies) / len(report.client_accuracies), abs=1e-15
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_global_model_has_the_bits_aggregate_gives(self, folded, workers):
        # run_round folds each model as the pool hands it over; aggregate
        # folds a list. Both sum in sampled order.
        cfg = _small_cfg(workers=workers)
        train, test, server, clients = _federation(cfg)
        try:
            report = run_round(server, clients, train, test, cfg)
        finally:
            server.workers.close()
        updates = [
            (params, clients[cid].partition.n_k)
            for cid, params in zip(report.sampled, folded, strict=True)
        ]
        assert aggregate(updates, report.sampled).flat.tobytes() == server.global_params.flat.tobytes()


def _log_workers(monkeypatch):
    """Records the pid of each worker process this process forks and the
    id of each client trained in this process (a worker's records stay in
    the worker). Allows 8 cpus, so the cpu count caps no run."""
    log = SimpleNamespace(forks=[], trained=[])
    real_fork, real_train = os.fork, engine._train_one

    def fork():
        pid = real_fork()
        if pid:
            log.forks.append(pid)
        return pid

    def train_one(global_params, round_t, client, *args):
        log.trained.append(client.partition.client_id)
        return real_train(global_params, round_t, client, *args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(engine, "_train_one", train_one)
    return log


@pytest.fixture
def worker_log(monkeypatch):
    return _log_workers(monkeypatch)


def _federation_bytes(server, clients):
    """The global parameters, then each client's history slot and last
    accuracy, as bytes."""
    return [server.global_params.flat.tobytes()] + [
        (None if client.history is None else client.history.tobytes(), client.last_accuracy)
        for _, client in sorted(clients.items())
    ]


def _resident_kib(view):
    """This process's resident KiB of the mapping that holds ``view``, from
    /proc/self/smaps; a page counts once this process has read or
    written it."""
    if not os.path.exists("/proc/self/smaps"):
        pytest.skip("no /proc/self/smaps")
    address = view.__array_interface__["data"][0]
    inside = False
    with open("/proc/self/smaps", encoding="utf-8") as smaps:
        for line in smaps:
            span = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if span:
                inside = int(span[1], 16) <= address < int(span[2], 16)
            elif inside and line.startswith("Rss:"):
                return int(line.split()[1])
    raise AssertionError(f"no mapping holds address {address:#x}")


def _one_round(cfg):
    train, test, server, clients = _federation(cfg)
    return run_round(server, clients, train, test, cfg), server


class TestWorkerPool:
    def test_one_worker_trains_in_the_calling_process(self, worker_log):
        series = run_experiment(_small_cfg(workers=1, t_total=2))
        assert worker_log.forks == []
        assert worker_log.trained == [cid for r in series.rounds for cid in r.sampled]

    def test_two_workers_give_the_one_worker_report(self, worker_log):
        cfg = _small_cfg(synth_dim=256, hidden=(128,), algorithm="fedpsd", t_total=1, workers=2)
        alone, alone_server = _one_round(dataclasses.replace(cfg, workers=1))
        assert worker_log.forks == []
        assert worker_log.trained == alone.sampled
        train, test, server, clients = _federation(cfg)
        try:
            pooled = run_round(server, clients, train, test, cfg)
        finally:
            server.workers.close()
        assert len(worker_log.forks) == 2
        assert worker_log.trained == alone.sampled  # none trained here
        assert pooled == alone
        assert server.global_params.flat.tobytes() == alone_server.global_params.flat.tobytes()

    def test_uneven_deal_matches_one_worker_rounds(self, worker_log):
        # 5 clients on 2 workers: one worker trains 3, the other 2.
        cfg = _small_cfg(num_clients=5, fraction=1.0, algorithm="fedpsd", workers=2)
        train, test, alone, alone_clients = _federation(dataclasses.replace(cfg, workers=1))
        _, _, pooled, pooled_clients = _federation(cfg)
        try:
            for _ in range(2):  # round 2's teachers are round 1's histories
                expected = run_round(alone, alone_clients, train, test, cfg)
                assert run_round(pooled, pooled_clients, train, test, cfg) == expected
                assert pooled.global_params.flat.tobytes() == alone.global_params.flat.tobytes()
        finally:
            pooled.workers.close()
        assert len(worker_log.forks) == 2
        # The workers wrote every history; this process has not yet read
        # or written a page of the shared mapping.
        assert _resident_kib(pooled_clients[0].history) == 0
        for cid, client in pooled_clients.items():
            assert client.history.tobytes() == alone_clients[cid].history.tobytes(), cid

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_new_pool_between_rhpk_rounds_changes_no_bit(self, worker_log, workers):
        # Each client holds its history slot, so a pool built mid-run reads
        # the teachers the old pool's rounds wrote. 3 of 4 clients a round:
        # round 1 trains at least two clients that round 0 trained.
        cfg = _small_cfg(num_clients=4, fraction=0.75, algorithm="fedpsd", workers=workers)
        runs = []
        for swap in (False, True):
            train, test, server, clients = _federation(cfg)
            try:
                for t in range(3):
                    if swap and t == 1:
                        server.workers.close()
                        server.workers = engine.WorkerPool(workers, train, test, clients, cfg)
                    run_round(server, clients, train, test, cfg)
            finally:
                server.workers.close()
            histories = [client.history.tobytes() for _, client in sorted(clients.items())]
            runs.append((server.global_params.flat.tobytes(), histories))
        assert runs[0] == runs[1]
        assert len(worker_log.forks) == (0 if workers == 1 else 6)

    def test_requests_and_replies_carry_no_array_but_model_parameters(self, monkeypatch):
        cfg = _small_cfg(num_clients=4, fraction=1.0, algorithm="fedpsd", workers=2)
        sent, received = [], []
        real_dump, real_load = engine.pickle.dump, engine.pickle.load

        def dump(obj, *args):
            sent.append(obj)
            return real_dump(obj, *args)

        def load(*args):
            received.append(real_load(*args))
            return received[-1]

        monkeypatch.setattr(engine.pickle, "dump", dump)
        monkeypatch.setattr(engine.pickle, "load", load)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        train, test, server, clients = _federation(cfg)
        try:
            for _ in range(2):  # every client has a history in round 2
                run_round(server, clients, train, test, cfg)
        finally:
            server.workers.close()
        # A request per worker and a reply per client, each round.
        assert (len(sent), len(received)) == (4, 8)
        assert [jobs for _, t, jobs in sent if t == 1] == [[(0, True), (2, True)], [(1, True), (3, True)]]

        def stray_arrays(obj):
            if isinstance(obj, np.ndarray):
                return 1
            if isinstance(obj, (tuple, list)):
                return sum(stray_arrays(item) for item in obj)
            return 0  # a ModelParams, or a scalar

        assert all(isinstance(params, ModelParams) for params, _, _ in received)
        assert stray_arrays(sent) == stray_arrays(received) == 0

    @pytest.mark.parametrize(
        "workers, fraction, cpus, expected",
        [(1, 1.0, 8, 1), (4, 1.0, 8, 4), (4, 0.5, 8, 3), (4, 1.0, 2, 2), (4, 1.0, 1, 1)],
    )
    def test_worker_count_is_capped(self, monkeypatch, workers, fraction, cpus, expected):
        # _small_cfg has 6 clients: fraction 0.5 samples 3 a round. The
        # machine has 8 cpus; the process may use ``cpus`` of them, as
        # under taskset or a cpuset.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert engine.worker_count(_small_cfg(workers=workers, fraction=fraction)) == expected

    def test_worker_count_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity call here
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert engine.worker_count(_small_cfg(workers=4)) == 2

    def test_workers_fork_once_when_the_first_round_trains(self, worker_log, monkeypatch):
        forked_at_round_start = []
        real_round = engine.run_round

        def spy(*args):
            forked_at_round_start.append(len(worker_log.forks))
            return real_round(*args)

        monkeypatch.setattr(engine, "run_round", spy)
        run_experiment(_small_cfg(workers=8, fraction=0.5, t_total=3))
        assert forked_at_round_start == [0, 3, 3]
        assert worker_log.trained == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_round_memory_does_not_grow_with_the_clients_per_round(self, worker_log, workers):
        # Each update is folded into the new global model as it arrives, so
        # the calling process holds one client model at a time, not a
        # round's worth: its peak traced memory over a round is the same
        # at 4 and at 16 clients a round, to within one model.
        peaks = []
        for fraction in (0.25, 1.0):
            cfg = _small_cfg(
                num_clients=16, fraction=fraction, synth_dim=256, synth_per_class=64,
                hidden=(128,), workers=workers,
            )
            train, test, server, clients = _federation(cfg)
            try:
                run_round(server, clients, train, test, cfg)  # forks any workers
                tracemalloc.start()
                try:
                    report = run_round(server, clients, train, test, cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            finally:
                server.workers.close()
            assert len(report.sampled) == 16 * fraction
        assert len(worker_log.forks) == (0 if workers == 1 else 4)
        model_bytes = server.global_params.flat.nbytes
        assert peaks[1] - peaks[0] <= model_bytes, [peak / model_bytes for peak in peaks]

    def test_only_worker_pool_train_calls_train_one(self):
        # One loop trains a round's clients, in the calling process or in a
        # worker; run_round hands them all to server.workers.
        tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
        pool = next(n for n in tree.body if getattr(n, "name", None) == "WorkerPool")
        train = next(n for n in pool.body if getattr(n, "name", None) == "_train")

        def calls(node):
            return sum(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_train_one"
                for call in ast.walk(node)
            )

        assert calls(tree) == calls(train) == 1


class TestWorkers:
    def test_error_in_worker_reraises_with_its_message(self, worker_log):
        with pytest.raises(
            FloatingPointError, match=r"at round 0, client \d+, epoch \d+, batch \d+"
        ):
            run_experiment(_small_cfg(workers=2, base_lr=1e200))
        assert len(worker_log.forks) == 2
        assert worker_log.trained == []  # raised where the clients trained

    @pytest.mark.parametrize(
        "workers, source", [(1, "worker"), (1, "receive"), (2, "worker"), (2, "receive"), (2, "exit")]
    )
    def test_a_round_that_raises_ends_the_federation(self, worker_log, monkeypatch, workers, source):
        # Round 0 trains every client. In round 1, worker 0 trains clients
        # 0, 2 and 4 and worker 1 clients 1, 3 and 5 (at one worker, all in
        # turn), and either clients 2, mid-list, and 5, last of worker 1's,
        # fail in training, or the fold fails on client 1, or worker 0 exits
        # as it trains client 2, before it has replied for client 0. The
        # first failure in sampled order is raised, only the clients before
        # it are folded, and no worker is left when it is raised.
        cfg = _small_cfg(num_clients=6, fraction=1.0, algorithm="fedpsd", workers=workers)
        train, test, server, clients = _federation(cfg)
        parent, real_train, real_fold, folds = os.getpid(), engine._train_one, engine._fold, []

        def exit_in_worker(global_params, round_t, client, *args):
            failing = source == "exit" and (round_t, client.partition.client_id) == (1, 2)
            if failing and os.getpid() != parent:
                os._exit(3)
            return real_train(global_params, round_t, client, *args)

        def fold(out, params, weight):
            if source == "receive" and len(folds) == 7:
                raise RuntimeError("fold failed on client 1")
            folds.append(weight)
            real_fold(out, params, weight)

        monkeypatch.setattr(engine, "_train_one", exit_in_worker)
        monkeypatch.setattr(engine, "_fold", fold)
        sampled = [clients[cid] for cid in range(6)]
        try:
            run_round(server, clients, train, test, cfg)
            if source == "worker":
                for cid in (2, 5):
                    clients[cid].history[:] = -1.0
            if source == "exit":
                error, message = ChildProcessError, f"worker process {worker_log.forks[0]} exited"
            else:
                error, message = {
                    "worker": (ContractViolation, "client 2 history rows"),
                    "receive": (RuntimeError, "fold failed on client 1"),
                }[source]
            with pytest.raises(error, match=message):
                run_round(server, clients, train, test, cfg)
            assert len(folds) - 6 == {"worker": 2, "receive": 1, "exit": 0}[source]
            for pid in worker_log.forks:  # reaped before the error reached run_round's caller
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
            before = _federation_bytes(server, clients)
            with pytest.raises(ContractViolation, match="round 1 raised"):
                run_round(server, clients, train, test, cfg)
            assert _federation_bytes(server, clients) == before
            # The pool itself trains on, from freshly forked workers.
            for client in sampled:
                client.last_accuracy = None
            got = _train_all(server.workers, server.global_params, 2, sampled)
        finally:
            server.workers.close()
        assert len(worker_log.forks) == (0 if workers == 1 else 4)
        pooled = [clients[cid].history.copy() for cid in range(6)]
        want = _train_all(engine.WorkerPool(1, train, test, clients, cfg), server.global_params, 2, sampled)
        assert len(got) == len(want) == 6
        for cid, (params, losses, accuracy), expected in zip(range(6), got, want):
            assert params.flat.tobytes() == expected[0].flat.tobytes()
            assert (losses, accuracy) == (expected[1], expected[2])
            assert pooled[cid].tobytes() == clients[cid].history.tobytes()

    def test_unsmoothed_prior_error_is_relayed_from_a_worker(self, worker_log):
        # Sharded clients miss classes, so the prior a client's trainer
        # derives at prior_epsilon = 0 has a zero entry.
        with pytest.raises(ContractViolation, match="prior has a zero entry"):
            run_experiment(_small_cfg(algorithm="fedpsd", prior_epsilon=0.0, workers=2))
        assert len(worker_log.forks) == 2
        assert worker_log.trained == []  # raised where the clients trained
        for pid in worker_log.forks:
            with pytest.raises(ChildProcessError):  # reaped: no longer a child
                os.waitpid(pid, os.WNOHANG)

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

    # The second worker's fork, or its second pipe, fails.
    @pytest.mark.parametrize("call, nth", [("fork", 2), ("pipe", 4)])
    def test_failed_fork_leaves_no_pipe_open(self, worker_log, monkeypatch, call, nth):
        real, calls = getattr(os, call), []

        def fails_once():
            calls.append(None)
            if len(calls) == nth:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, call, fails_once)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            run_experiment(_small_cfg(workers=2))
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(worker_log.forks) == 1  # reaped by the run, as the fixture checks

    def test_no_worker_outlives_the_run(self, worker_log):
        run_experiment(_small_cfg(workers=2, t_total=2))
        with pytest.raises(FloatingPointError):
            run_experiment(_small_cfg(workers=2, base_lr=1e200))
        assert len(worker_log.forks) == 4
        for pid in worker_log.forks:
            with pytest.raises(ChildProcessError):  # reaped: no longer a child
                os.waitpid(pid, os.WNOHANG)


@settings(deadline=None, max_examples=100)
@given(
    num_clients=st.integers(min_value=4, max_value=6),
    dim=st.integers(min_value=2, max_value=8),
    fraction=st.sampled_from((0.5, 1.0)),
    workers=st.integers(min_value=1, max_value=3),
    fail_round=st.integers(min_value=0, max_value=2),
    position=st.integers(min_value=0, max_value=5),
    source=st.sampled_from(("worker", "receive")),
)
def test_a_failure_ends_the_federation_and_leaves_every_earlier_round_as_a_clean_run(
    num_clients, dim, fraction, workers, fail_round, position, source
):
    """A tiny fedpsd+rhpk federation fails once, at one sampled position of
    one round, in a client's training or in the fold of its model. Every
    round before it holds a clean one-worker run's bytes, every later
    round is refused and changes nothing, and no worker outlives the
    failure."""
    cfg = _small_cfg(
        algorithm="fedpsd", num_clients=num_clients, synth_dim=dim, hidden=(4,), fraction=fraction,
        synth_per_class=10 * num_clients, epochs=1, test_budget=8, workers=workers,
    )
    clean_train, clean_test, clean, clean_clients = _federation(dataclasses.replace(cfg, workers=1))
    expected = []
    for _ in range(fail_round):
        run_round(clean, clean_clients, clean_train, clean_test, cfg)
        expected.append(_federation_bytes(clean, clean_clients))
    sampled = sample_clients(num_clients, fraction, fail_round, cfg.seed)
    at = position % len(sampled)
    failing = sampled[at]
    # The failing fold's index among all of the run's folds.
    failing_fold = at + sum(
        len(sample_clients(num_clients, fraction, t, cfg.seed)) for t in range(fail_round)
    )
    with pytest.MonkeyPatch.context() as mp:
        log = _log_workers(mp)
        real_train, real_fold, folds = engine._train_one, engine._fold, []

        def train_one(global_params, round_t, client, *args):
            if source == "worker" and (round_t, client.partition.client_id) == (fail_round, failing):
                raise RuntimeError(f"client {failing} failed in process {os.getpid()}")
            return real_train(global_params, round_t, client, *args)

        def fold(out, params, weight):
            if source == "receive" and len(folds) == failing_fold:
                raise RuntimeError(f"the fold of client {failing} failed")
            folds.append(weight)
            real_fold(out, params, weight)

        mp.setattr(engine, "_train_one", train_one)
        mp.setattr(engine, "_fold", fold)
        train, test, server, clients = _federation(cfg)
        try:
            for t in range(fail_round):
                run_round(server, clients, train, test, cfg)
                assert _federation_bytes(server, clients) == expected[t], t
            with pytest.raises(RuntimeError, match=f"client {failing} failed"):
                run_round(server, clients, train, test, cfg)
            for pid in log.forks:
                with pytest.raises(ChildProcessError):  # reaped
                    os.waitpid(pid, os.WNOHANG)
            after = _federation_bytes(server, clients)
            for _ in range(2):
                with pytest.raises(ContractViolation, match=f"round {fail_round} raised"):
                    run_round(server, clients, train, test, cfg)
                assert _federation_bytes(server, clients) == after
        finally:
            server.workers.close()
    assert len(log.forks) == (0 if server.workers.size == 1 else server.workers.size)


def test_a_pooled_run_imports_no_multiprocessing_module():
    # Any of these imports would cost start-up time and memory in every
    # run.
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import fedpsd\n"
        "from fedpsd.config import ExperimentConfig\n"
        "from fedpsd.engine import run_experiment, worker_count\n"
        "cfg = ExperimentConfig(synth_classes=4, synth_dim=8, synth_per_class=30,\n"
        "    synth_test_per_class=15, num_clients=6, fraction=0.5, t_total=1,\n"
        "    epochs=1, test_budget=20, sweep_every=0, hidden=(8,), workers=2)\n"
        "run_experiment(cfg)\n"
        "print(worker_count(cfg), [m for m in ('multiprocessing', 'concurrent.futures',\n"
        "                                      'numpy.ma') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert out.stdout == "2 []\n"


def _blas_getter():
    threads = engine._openblas_threads()
    if threads is None:
        pytest.skip("this BLAS build has no known OpenBLAS thread control")
    return threads[1]


# Two fedpsd rounds of a 784-128-10 model on pixel clients; prints the
# sha256 of the global parameters and of every history after each round,
# at workers 1 and then 2.
_RAW_BITS_RUN = """\
import hashlib, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from fedpsd import engine
from fedpsd.config import ExperimentConfig
real_round, digests = engine.run_round, []
def hashed_round(server, clients, *args):
    report = real_round(server, clients, *args)
    digests[-1].update(server.global_params.flat.tobytes())
    for _, client in sorted(clients.items()):
        digests[-1].update(b"none" if client.last_accuracy is None else client.history.tobytes())
    return report
engine.run_round = hashed_round
for workers in (1, 2):
    digests.append(hashlib.sha256())
    engine.run_experiment(ExperimentConfig(
        dataset="mnist", mnist_dir=sys.argv[1], algorithm="fedpsd", num_clients=4,
        fraction=1.0, t_total=2, epochs=2, batch_size=50, hidden=(128,), test_budget=20,
        sweep_every=0, workers=workers,
    ))
print(*(d.hexdigest() for d in digests))
"""


class TestBlasThreads:
    def test_a_run_holds_one_thread_then_restores_the_count(self, monkeypatch):
        getter, seen = _blas_getter(), []
        real = engine._train_one

        def spy(*args):
            seen.append(getter())
            return real(*args)

        monkeypatch.setattr(engine, "_train_one", spy)
        restore = engine.pin_blas_threads(2)
        try:
            run_experiment(_small_cfg(t_total=2))
            after = getter()
        finally:
            engine.pin_blas_threads(restore)
        assert seen and set(seen) == {1}
        assert after == 2

    def test_a_forked_worker_runs_one_thread(self, worker_log, monkeypatch):
        # The pool pins its workers itself: this process runs two
        # threads when they fork, and no run_experiment pinned them.
        getter, real = _blas_getter(), engine._train_one

        def report_threads(*args):
            params, history, _ = real(*args)
            return params, history, [float(getter())]

        monkeypatch.setattr(engine, "_train_one", report_threads)
        cfg = _small_cfg(workers=2, fraction=1.0)
        train, test, server, clients = _federation(cfg)
        restore = engine.pin_blas_threads(2)
        try:
            results = _train_all(server.workers, server.global_params, 0, list(clients.values()))
            assert getter() == 2
        finally:
            server.workers.close()
            engine.pin_blas_threads(restore)
        assert len(worker_log.forks) == 2
        assert [losses for _, losses, _ in results] == [[1.0]] * len(clients)

    def test_raw_bits_do_not_depend_on_the_thread_default(self, tmp_path):
        # A 784-wide product's last bits differ between one and two
        # OpenBLAS threads; a run pins one, in this process and in each
        # worker, whatever OPENBLAS_NUM_THREADS says.
        _blas_getter()
        rng = np.random.default_rng(3)
        for n, prefix in ((400, "train"), (100, "t10k")):
            split = LabeledDataset(rng.integers(0, 256, (n, 784)) / 255.0, np.arange(n) % 10, 10)
            images, labels = save_idx(split, rows=28, cols=28)
            (tmp_path / f"{prefix}-images-idx3-ubyte").write_bytes(images)
            (tmp_path / f"{prefix}-labels-idx1-ubyte").write_bytes(labels)
        src = os.path.dirname(os.path.dirname(engine.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {
            threads: subprocess.run(
                [sys.executable, "-c", _RAW_BITS_RUN, str(tmp_path)], capture_output=True,
                text=True, check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            ).stdout.split()
            for threads in ("1", "2")
        }
        assert len(set(outputs["1"] + outputs["2"])) == 1, outputs

    def test_a_build_without_thread_control_warns_once(self, monkeypatch):
        monkeypatch.setattr(engine, "_OPENBLAS_THREAD_SYMBOLS", (("no_such_set", "no_such_get"),))
        engine._openblas_threads.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match=r"no OpenBLAS thread control found in numpy .*BLAS"):
                assert engine.pin_blas_threads(1) is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert engine.pin_blas_threads(1) is None
        finally:
            engine._openblas_threads.cache_clear()


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

    @pytest.mark.parametrize(
        "overrides",
        [dict(algorithm="fedavg"), dict(algorithm="fedprox"), dict(algorithm="fedpsd", cll=False)],
        ids=["fedavg", "fedprox", "fedpsd-no-cll"],
    )
    def test_prior_epsilon_acts_only_under_cll(self, overrides):
        # Sharded clients miss classes, so an unsmoothed prior has zeros;
        # only the calibrated loss reads the prior.
        def metrics_csv(epsilon):
            series = run_experiment(_small_cfg(prior_epsilon=epsilon, **overrides))
            return [format_round(record) for record in series.rounds]

        assert metrics_csv(0.0) == metrics_csv(1.0)

    def test_unsmoothed_prior_with_a_zero_entry_fails_under_cll(self):
        with pytest.raises(ContractViolation, match="prior has a zero entry"):
            run_experiment(_small_cfg(algorithm="fedpsd", prior_epsilon=0.0))


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
        # Two 300-row clients and 600 test rows over 10 classes, so a
        # client's whole local set or the whole test set is more rows than
        # one batch or one eval block (three of 200 test rows, two of 150
        # rows for a client's rhpk history).
        _write_idx_dir(tmp_path, _idx_split(10, 60, seed=0), _idx_split(10, 60, seed=1))
        cfg = ExperimentConfig(mnist_dir=str(tmp_path), **{
            **self.CFG, "algorithm": "fedpsd", "hidden": (16,), "t_total": 2, "sweep_every": 1,
        })
        train, test = engine._load_dataset_pair(cfg)
        assert train.pixels and test.pixels
        most = max(cfg.batch_size, EVAL_BLOCK_ROWS)
        rows, converted = LabeledDataset.rows, []

        def spy(ds, idx=slice(None)):
            out = rows(ds, idx)
            if ds.pixels and out.shape[0] > most:
                raise AssertionError(f"{out.shape[0]} pixel rows were converted at once")
            converted.append((ds.num_samples, out.shape[0]))
            return out

        # .features reads through rows(), so this refuses it too.
        monkeypatch.setattr(LabeledDataset, "rows", spy)
        for workers in (1, 2):  # the clients train here, then in forked workers
            series = run_experiment(dataclasses.replace(cfg, workers=workers))
            assert [r.round for r in series.rounds] == [1, 2]
            assert [s.round for s in series.sweeps] == [1, 2]
        # What the run process converted at workers=1: batches of 10 train
        # rows, history blocks of 150, the 10-row client test splits, and
        # eval blocks of 200 (the workers' conversions die with them).
        assert sorted(set(converted)) == [(600, 10), (600, 150), (600, 200)]


class TestTrainOne:
    @pytest.mark.parametrize("algorithm", ["fedpsd", "fedprox"])
    def test_row_view_trains_as_the_converted_rows(self, algorithm):
        # 784-d pixels, a 300-row client and a 784-32-10 model: several
        # batches, and a history pass in two blocks.
        rng = np.random.default_rng(8)
        labels = np.repeat(np.arange(10), 60)
        train = LabeledDataset(
            rng.integers(0, 256, (600, 784), dtype=np.uint8), rng.permutation(labels), 10,
            pixels=True,
        )
        test = LabeledDataset(
            rng.integers(0, 256, (100, 784), dtype=np.uint8), labels[::6], 10, pixels=True
        )
        cfg = _small_cfg(
            algorithm=algorithm, hidden=(32,), num_clients=2, shards_per_client=2,
            fraction=1.0, t_total=4, epochs=2, batch_size=50, base_lr=0.05, lr_decay=1.0,
        )
        server, clients = build_federation(cfg, train, test)
        client = clients[1]
        idx = client.partition.train_indices
        history = np.full((idx.size, 10), 0.1) if algorithm == "fedpsd" else None
        got = engine._train_one(server.global_params, 2, client, history, train, cfg)
        want = local_train_fedpsd(
            server.global_params, train.rows(idx), train.labels[idx],
            history, client.partition.client_id, 2, cfg,
        )
        assert got[0].flat.tobytes() == want[0].flat.tobytes()
        assert got[2] == want[2] and len(got[2]) == 12
        if algorithm == "fedpsd":
            # The blocked history is one whole-set pass to the bit.
            whole = np.exp(log_softmax(forward(got[0], train.rows(idx))))
            assert got[1].tobytes() == want[1].tobytes() == whole.tobytes()
        else:
            assert got[1] is None and want[1] is None


class TestServerEval:
    @pytest.mark.parametrize(
        "n", [2 * EVAL_BLOCK_ROWS + 37, EVAL_BLOCK_ROWS + 1, 37],
        ids=["two_blocks_and_37", "one_block_and_1", "under_one_block"],
    )
    def test_blocked_eval_is_one_whole_set_forward(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        test = LabeledDataset(
            rng.integers(0, 256, (n, 784), dtype=np.uint8), rng.integers(0, 10, n), 10,
            pixels=True,
        )
        train = LabeledDataset(
            rng.integers(0, 256, (40, 784), dtype=np.uint8), np.repeat(np.arange(10), 4), 10,
            pixels=True,
        )
        cfg = _small_cfg(hidden=(128,), num_clients=2, fraction=1.0, t_total=1, epochs=1)
        server, clients = build_federation(cfg, train, test)
        blocks = []

        def spy(model, batch):
            logits = forward(model, batch)
            if model is server.global_params:
                blocks.append(logits)
            return logits

        monkeypatch.setattr(engine, "forward", spy)
        report = run_round(server, clients, train, test, cfg)
        whole = forward(server.global_params, test.rows())
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert report.server_accuracy == top1_accuracy(whole, test.labels)
        assert type(report.server_accuracy) is float
        sizes = [b.shape[0] for b in blocks]
        assert len(sizes) == -(-n // EVAL_BLOCK_ROWS)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= EVAL_BLOCK_ROWS
