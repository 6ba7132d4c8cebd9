"""Federated round loop: sampling, local training, aggregation, evaluation.

One round samples ceil(C*K) clients, trains each from a copy of the
current global model, records every participant's local-test accuracy
before aggregation, then replaces the global model with the
sample-size-weighted mean of the returned parameters and evaluates it
on the pooled test set. Per-client RNG streams are keyed by
(seed, round, client_id), so results never depend on the number of
worker threads. ``workers`` caps the threads a round may use; a model
with fewer than ``POOL_MIN_PARAMS`` parameters always trains its
clients on the calling thread.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import SAMPLING_STREAM, ExperimentConfig
from .data import (
    ClientPartition,
    LabeledDataset,
    class_prior,
    client_test_split,
    load_idx_files,
    partition_dirichlet,
    partition_sharding,
    synth_generate,
)
from .metrics import MetricsSeries, RoundRecord, SweepRecord
from .nn import ContractViolation, ModelParams, forward, init_model, top1_accuracy
from .psd import ClientHistory, local_train_fedpsd

# Smallest model (parameter count) whose clients train on a thread
# pool. Below it the GIL serialises the short numpy calls of each SGD
# step and two threads run slower than one; above it BLAS releases the
# GIL for long enough to pay. Measured fedpsd round times (synthetic
# data, hidden 128, K=20, C=0.25, one BLAS thread, 2 cores), workers=1
# against workers=2: 17.8k parameters 41 vs 56 ms, 26k 59 vs 62 ms,
# 34k 79 vs 65 ms, 101k 137 vs 116 ms.
POOL_MIN_PARAMS = 1 << 15


@dataclass
class ServerState:
    global_params: ModelParams
    round: int


@dataclass
class ClientState:
    client_id: int
    partition: ClientPartition
    prior: np.ndarray
    history: ClientHistory | None = None
    last_params: ModelParams | None = None


@dataclass
class RoundReport:
    round: int
    sampled: list[int]
    client_accuracies: list[float]
    server_accuracy: float
    loss_traces: list[list[float]] = field(repr=False, default_factory=list)

    @property
    def avg_client_top1(self) -> float:
        return float(np.mean(self.client_accuracies))

    @property
    def mean_local_loss(self) -> float:
        return float(np.mean([np.mean(trace) for trace in self.loss_traces]))


def sample_clients(num_clients: int, fraction: float, round_t: int, seed: int) -> list[int]:
    """ceil(fraction * num_clients) distinct ids, keyed by (seed, round)."""
    if not 0.0 < fraction <= 1.0:
        raise ContractViolation(f"fraction must be in (0, 1], got {fraction}")
    count = math.ceil(fraction * num_clients)
    rng = np.random.default_rng([seed, SAMPLING_STREAM, round_t])
    return sorted(int(c) for c in rng.choice(num_clients, size=count, replace=False))


def aggregate(updates: list[tuple[ModelParams, int]], client_ids: list[int] | None = None) -> ModelParams:
    """Sample-size-weighted mean of client parameters."""
    if not updates:
        raise ContractViolation("aggregate needs at least one update")
    names = client_ids if client_ids is not None else list(range(len(updates)))
    reference = updates[0][0]
    ref_shapes = [a.shape for a in reference.arrays()]
    total = 0
    for name, (params, n_k) in zip(names, updates):
        if n_k < 1:
            raise ContractViolation(f"client {name} reports non-positive sample count {n_k}")
        if [a.shape for a in params.arrays()] != ref_shapes:
            raise ContractViolation(f"client {name} returned mismatched parameter shapes")
        total += n_k
    # One client at a time, in order: a stacked matrix product would
    # let BLAS reorder the sum and change the result's last bits.
    out = reference.zeros_like()
    for params, n_k in updates:
        out.flat += (n_k / total) * params.flat
    return out


def lr_schedule(base_lr: float, round_t: int, decay: float = 0.99) -> float:
    """Per-round exponential decay: base_lr * decay ** t."""
    if round_t < 0:
        raise ContractViolation(f"round must be >= 0, got {round_t}")
    return base_lr * decay**round_t


def _train_one(
    server: ServerState,
    client: ClientState,
    train: LabeledDataset,
    lr: float,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, ClientHistory | None, list[float]]:
    idx = client.partition.train_indices
    return local_train_fedpsd(
        server.global_params, train.rows(idx), train.labels[idx], client.prior,
        client.history, client.client_id, server.round, lr, cfg,
    )


def _local_accuracy(params: ModelParams, client: ClientState, test: LabeledDataset) -> float:
    idx = client.partition.test_indices
    return top1_accuracy(forward(params, test.rows(idx)), test.labels[idx])


def run_round(
    server: ServerState,
    clients: dict[int, ClientState],
    train: LabeledDataset,
    test: LabeledDataset,
    cfg: ExperimentConfig,
) -> RoundReport:
    """Advance the federation by one round, mutating server and clients."""
    t = server.round
    sampled = sample_clients(cfg.num_clients, cfg.fraction, t, cfg.seed)
    lr = lr_schedule(cfg.base_lr, t, cfg.lr_decay)

    if cfg.workers > 1 and server.global_params.flat.size >= POOL_MIN_PARAMS:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [
                pool.submit(_train_one, server, clients[cid], train, lr, cfg)
                for cid in sampled
            ]
            results = [f.result() for f in futures]
    else:
        results = [_train_one(server, clients[cid], train, lr, cfg) for cid in sampled]

    accuracies: list[float] = []
    traces: list[list[float]] = []
    updates: list[tuple[ModelParams, int]] = []
    for cid, (params, history, losses) in zip(sampled, results):
        client = clients[cid]
        accuracies.append(_local_accuracy(params, client, test))
        traces.append(losses)
        updates.append((params, client.partition.n_k))
        if history is not None:
            client.history = history
        client.last_params = params

    server.global_params = aggregate(updates, client_ids=sampled)
    server.round = t + 1
    server_acc = top1_accuracy(forward(server.global_params, test.rows()), test.labels)
    return RoundReport(
        round=t,
        sampled=sampled,
        client_accuracies=accuracies,
        server_accuracy=server_acc,
        loss_traces=traces,
    )


def _all_client_sweep(
    server: ServerState,
    clients: dict[int, ClientState],
    test: LabeledDataset,
) -> float:
    """Mean local-test accuracy over every client, participants using
    their last personalized parameters and the rest the current global."""
    accs = [
        _local_accuracy(
            client.last_params if client.last_params is not None else server.global_params,
            client, test,
        )
        for client in clients.values()
    ]
    return float(np.mean(accs))


def _load_dataset_pair(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.dataset == "synthetic":
        train = synth_generate(
            cfg.synth_classes, cfg.synth_dim, cfg.synth_per_class,
            cfg.seed, cfg.synth_spread, sample_stream=0,
        )
        test = synth_generate(
            cfg.synth_classes, cfg.synth_dim, cfg.synth_test_per_class,
            cfg.seed, cfg.synth_spread, sample_stream=1,
        )
        return train, test
    if cfg.dataset == "mnist":
        if not cfg.mnist_dir:
            raise ContractViolation("dataset = mnist requires mnist_dir")
        base = cfg.mnist_dir.rstrip("/")
        train = load_idx_files(
            f"{base}/train-images-idx3-ubyte", f"{base}/train-labels-idx1-ubyte"
        )
        test = load_idx_files(
            f"{base}/t10k-images-idx3-ubyte", f"{base}/t10k-labels-idx1-ubyte"
        )
        # Each IDX file infers its class count from its own top label; the
        # train set's count is the task's, so a test set missing the top
        # class still lines up (and a label outside it still raises).
        # The server eval reads the whole test set every round, so it is
        # converted to float64 once; train rows are converted per client.
        return train, LabeledDataset(test.rows(), test.labels, train.num_classes)
    raise ContractViolation(f"unknown dataset {cfg.dataset!r}")


def build_federation(
    cfg: ExperimentConfig,
    train: LabeledDataset,
    test: LabeledDataset,
) -> tuple[ServerState, dict[int, ClientState]]:
    """Partition the data, assign test splits and priors, init the model."""
    if cfg.partition == "sharding":
        partitions = partition_sharding(train, cfg.shards_per_client, cfg.num_clients, cfg.seed)
    else:
        partitions = partition_dirichlet(train, cfg.dirichlet_alpha, cfg.num_clients, cfg.seed)
    clients: dict[int, ClientState] = {}
    for part in partitions:
        part.test_indices = client_test_split(test, part, train, cfg.seed, cfg.test_budget)
        prior = class_prior(
            train.labels[part.train_indices], train.num_classes, cfg.prior_epsilon
        )
        clients[part.client_id] = ClientState(part.client_id, part, prior)
    layer_sizes = [train.dim, *cfg.hidden, train.num_classes]
    server = ServerState(init_model(layer_sizes, cfg.seed), round=0)
    return server, clients


def run_experiment(
    cfg: ExperimentConfig,
    round_callback=None,
    sweep_callback=None,
) -> MetricsSeries:
    """Run t_total rounds and collect per-round metrics.

    ``round_callback(record)`` fires after each round and
    ``sweep_callback(record)`` after each all-client sweep, for
    incremental output. Rounds in the returned series are 1-indexed.
    """
    train, test = _load_dataset_pair(cfg)
    server, clients = build_federation(cfg, train, test)
    rounds: list[RoundRecord] = []
    sweeps: list[SweepRecord] = []
    for _ in range(cfg.t_total):
        report = run_round(server, clients, train, test, cfg)
        record = RoundRecord(
            round=report.round + 1,
            avg_client_top1=report.avg_client_top1,
            server_top1=report.server_accuracy,
            mean_local_loss=report.mean_local_loss,
            sampled=tuple(report.sampled),
        )
        rounds.append(record)
        if round_callback is not None:
            round_callback(record)
        if cfg.sweep_every and server.round % cfg.sweep_every == 0:
            sweep = SweepRecord(round=server.round, all_client_top1=_all_client_sweep(server, clients, test))
            sweeps.append(sweep)
            if sweep_callback is not None:
                sweep_callback(sweep)
    return MetricsSeries(rounds=rounds, sweeps=sweeps)
