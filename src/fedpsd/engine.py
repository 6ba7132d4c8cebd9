"""Federated round loop: sampling, local training, aggregation, evaluation.

One round samples ceil(C*K) clients, trains each from a copy of the
current global model, records every participant's local-test accuracy
before aggregation, then replaces the global model with the
sample-size-weighted mean of the returned parameters and evaluates it
on the pooled test set. Per-client RNG streams are keyed by
(seed, round, client_id) and updates are summed in sampled order, so
results never depend on where a client trained. With ``workers`` > 1,
``run_experiment`` trains each round's clients in
min(workers, ceil(C*K), cpu count) worker processes (``WorkerPool``,
POSIX ``fork`` only), forked when the first round trains and reaped when
the run ends; ``run_round`` on a server without them trains every client
on the calling thread.
"""
from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import BinaryIO

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

# What training one client yields: its parameters, its new history (None
# outside fedpsd), its per-batch losses and its local-test accuracy.
ClientResult = tuple[ModelParams, ClientHistory | None, list[float], float]


@dataclass
class ServerState:
    global_params: ModelParams
    round: int
    workers: WorkerPool | None = field(default=None, repr=False, compare=False)


@dataclass
class ClientState:
    client_id: int
    partition: ClientPartition
    prior: np.ndarray
    history: ClientHistory | None = None
    # Local-test accuracy of the model the client trained when it was
    # last sampled; None until then.
    last_accuracy: float | None = None


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
    global_params: ModelParams,
    round_t: int,
    client: ClientState,
    history: ClientHistory | None,
    train: LabeledDataset,
    lr: float,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, ClientHistory | None, list[float]]:
    idx = client.partition.train_indices
    return local_train_fedpsd(
        global_params, train.rows(idx), train.labels[idx], client.prior,
        history, client.client_id, round_t, lr, cfg,
    )


def _local_accuracy(params: ModelParams, client: ClientState, test: LabeledDataset) -> float:
    idx = client.partition.test_indices
    return top1_accuracy(forward(params, test.rows(idx)), test.labels[idx])


def worker_count(cfg: ExperimentConfig) -> int:
    """Worker processes for a run: min(workers, ceil(C*K), cpu count).

    More would sit idle: a round trains ceil(C*K) clients, and each
    worker trains on one core.
    """
    return min(cfg.workers, math.ceil(cfg.fraction * cfg.num_clients), os.cpu_count() or 1)


class WorkerPool:
    """Worker processes that train a round's clients (POSIX ``fork`` only).

    The workers are forked on the first ``train`` call, from the process
    that already holds the train and test sets and every client's
    partition and prior, so none of that is sent. Each round a worker
    receives the global flat vector, the round, the lr and, for each of
    its clients, the id and ``ClientHistory``; it replies with each
    client's flat parameters, new history, losses and local-test
    accuracy. Both ends of each pipe are this module's, so the pickles
    read are only ones it wrote. ``close`` reaps the workers.
    """

    def __init__(
        self,
        size: int,
        train: LabeledDataset,
        test: LabeledDataset,
        clients: dict[int, ClientState],
        cfg: ExperimentConfig,
    ) -> None:
        self.size = size
        self._state = (train, test, clients, cfg)
        self._workers: list[tuple[int, BinaryIO, BinaryIO]] = []  # (pid, requests, replies)

    def _fork(self, layout: ModelParams) -> None:
        for _ in range(self.size):
            requests_r, requests_w = os.pipe()
            replies_r, replies_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # Hold no pipe end but this worker's own two, so that a
                    # worker's exit reads as end-of-file in the parent.
                    os.close(requests_w)
                    os.close(replies_r)
                    for _, requests, replies in self._workers:
                        os.close(requests.fileno())
                        os.close(replies.fileno())
                    self._serve(requests_r, replies_w, layout)
                    status = 0
                finally:
                    os._exit(status)
            os.close(requests_r)
            os.close(replies_w)
            self._workers.append((pid, open(requests_w, "wb"), open(replies_r, "rb")))

    def _serve(self, requests_fd: int, replies_fd: int, layout: ModelParams) -> None:
        """A worker's loop: train each request's clients, until the parent
        closes the request pipe. Replies with the clients' results, or with
        the exception that stopped them."""
        train, test, clients, cfg = self._state
        with open(requests_fd, "rb") as requests, open(replies_fd, "wb") as replies:
            while True:
                try:
                    flat, round_t, lr, jobs = pickle.load(requests)
                except EOFError:
                    return
                global_params = layout.with_flat(flat)
                try:
                    reply = []
                    for cid, history in jobs:
                        client = clients[cid]
                        params, new_history, losses = _train_one(
                            global_params, round_t, client, history, train, lr, cfg
                        )
                        accuracy = _local_accuracy(params, client, test)
                        reply.append((cid, params.flat, new_history, losses, accuracy))
                except Exception as exc:  # re-raised by the parent
                    reply = exc
                pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()

    def train(
        self, global_params: ModelParams, round_t: int, lr: float, sampled: list[ClientState]
    ) -> list[ClientResult]:
        """Train ``sampled`` from ``global_params``; results in ``sampled`` order."""
        if not self._workers:
            self._fork(global_params)
        # Largest client first, onto the least-loaded worker.
        loads = [0] * len(self._workers)
        shares: list[list[tuple[int, ClientHistory | None]]] = [[] for _ in self._workers]
        for client in sorted(sampled, key=lambda c: -c.partition.n_k):
            w = loads.index(min(loads))
            loads[w] += client.partition.n_k
            shares[w].append((client.client_id, client.history))
        for (pid, requests, _), share in zip(self._workers, shares):
            try:
                pickle.dump((global_params.flat, round_t, lr, share), requests, pickle.HIGHEST_PROTOCOL)
                requests.flush()
            except BrokenPipeError:
                raise ChildProcessError(f"worker process {pid} has exited") from None
        results: dict[int, ClientResult] = {}
        for pid, _, replies in self._workers:
            try:
                reply = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"worker process {pid} exited before it returned its clients"
                ) from None
            if isinstance(reply, Exception):
                raise reply
            for cid, flat, history, losses, accuracy in reply:
                results[cid] = (global_params.with_flat(flat), history, losses, accuracy)
        return [results[client.client_id] for client in sampled]

    def close(self) -> None:
        """Close the pipes and reap every worker. An idle worker exits on
        end-of-file; one still training, after an error elsewhere, exits
        when it can no longer write its reply."""
        for pid, requests, replies in self._workers:
            try:
                requests.close()
            except BrokenPipeError:  # unsent bytes for a worker that died
                pass
            replies.close()
            os.waitpid(pid, 0)
        self._workers = []


def run_round(
    server: ServerState,
    clients: dict[int, ClientState],
    train: LabeledDataset,
    test: LabeledDataset,
    cfg: ExperimentConfig,
) -> RoundReport:
    """Advance the federation by one round, mutating server and clients.

    The clients train on ``server.workers`` when it is set, else here.
    """
    t = server.round
    sampled = sample_clients(cfg.num_clients, cfg.fraction, t, cfg.seed)
    lr = lr_schedule(cfg.base_lr, t, cfg.lr_decay)

    if server.workers is not None:
        results = server.workers.train(server.global_params, t, lr, [clients[cid] for cid in sampled])
    else:
        results = []
        for cid in sampled:
            client = clients[cid]
            params, history, losses = _train_one(
                server.global_params, t, client, client.history, train, lr, cfg
            )
            results.append((params, history, losses, _local_accuracy(params, client, test)))

    accuracies: list[float] = []
    traces: list[list[float]] = []
    updates: list[tuple[ModelParams, int]] = []
    for cid, (params, history, losses, accuracy) in zip(sampled, results):
        client = clients[cid]
        accuracies.append(accuracy)
        traces.append(losses)
        updates.append((params, client.partition.n_k))
        if history is not None:
            client.history = history
        client.last_accuracy = accuracy

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
    """Mean local-test accuracy over every client: a past participant's
    as recorded after its last local update, the rest that of the current
    global model."""
    accs = [
        client.last_accuracy
        if client.last_accuracy is not None
        else _local_accuracy(server.global_params, client, test)
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
    size = worker_count(cfg)
    if size > 1:
        server.workers = WorkerPool(size, train, test, clients, cfg)
    rounds: list[RoundRecord] = []
    sweeps: list[SweepRecord] = []
    try:
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
                sweep = SweepRecord(
                    round=server.round, all_client_top1=_all_client_sweep(server, clients, test)
                )
                sweeps.append(sweep)
                if sweep_callback is not None:
                    sweep_callback(sweep)
    finally:
        if server.workers is not None:
            server.workers.close()
    return MetricsSeries(rounds=rounds, sweeps=sweeps)
