"""Federated round loop: sampling, local training, aggregation, evaluation.

One round samples ceil(C*K) clients (``clients_per_round``), trains each
from a copy of the current global model, records every participant's
local-test accuracy, and folds each returned model into the
sample-size-weighted mean of the round's parameters as it arrives
(``_fold``); the mean then replaces the global model and is evaluated on
the pooled test set. Per-client RNG streams are keyed by (seed, round,
client_id) and updates are folded in sampled order, so results never
depend on where a client trained, and the run process holds one client
model at a time, not a round's worth. The clients train on the server's
``WorkerPool`` of min(workers, ceil(C*K), usable cpus) workers: with
one, in the calling process; with more, in forked worker processes
(POSIX ``fork`` only), forked when the first round trains and reaped
when the run ends. A round that raises is the federation's last: the
pool reaps its workers, and ``run_round`` refuses every later round. A
job is a client id and whether the client has trained before; a result
is the client's ``ModelParams``, losses and accuracy, the same wherever
it trained. Its trainer derives the round's lr and the client's class
prior itself. Under fedpsd with rhpk, each ``ClientState`` holds its
history slot in one anonymous shared mapping from set-up on: whoever
trains a client reads its teacher from the slot and writes the new
history back in place, so no history is pickled and, above one worker,
the run process never touches a slot's pages. A run holds the loaded
OpenBLAS at one thread (``pin_blas_threads``), so its bits do not depend
on the machine's thread default. ``run_to_dir`` runs a config into a
directory, streaming its CSVs; ``run_ablation`` runs the four FedPSD
component rows of one config through it.
"""
from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .config import SAMPLING_STREAM, ConfigError, ExperimentConfig, echo_config
from .data import (
    ClientPartition,
    LabeledDataset,
    RowView,
    class_pools,
    client_test_split,
    load_idx_files,
    partition_dirichlet,
    partition_sharding,
    synth_generate,
)
from .metrics import (
    ABLATION_HEADER,
    CSV_HEADER,
    SWEEP_HEADER,
    AblationRow,
    MetricsSeries,
    RoundRecord,
    SweepRecord,
    csv_writer,
    format_ablation_row,
    format_round,
    format_sweep,
)
from .nn import (
    ContractViolation,
    ModelParams,
    forward,
    init_model,
    row_blocks,
    top1_accuracy,
)
from .psd import local_train_fedpsd

# What training one client yields: its parameters, its per-batch losses
# and its local-test accuracy. Its new history, under rhpk, is already
# in its slot.
ClientResult = tuple[ModelParams, list[float], float]


@dataclass
class ServerState:
    global_params: ModelParams
    round: int
    workers: WorkerPool = field(repr=False, compare=False)
    failed_round: int | None = None  # the round that raised: the federation's last


@dataclass
class ClientState:
    partition: ClientPartition
    # Under fedpsd with rhpk, the client's (n_k, L) slot in the run's one
    # shared history mapping, from set-up on; else None. It holds the
    # client's history once ``last_accuracy`` is set, and whoever trains
    # the client overwrites it in place.
    history: np.ndarray | None = None
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


def clients_per_round(num_clients: int, fraction: float) -> int:
    """ceil(fraction * num_clients), at least one; exact for a fraction of
    up to 9 decimals, which the float product is not (0.07 * 100 is
    7.000000000000001), by counting the fraction in billionths."""
    billionths = round(fraction * 1_000_000_000)
    return max(1, -(-billionths * num_clients // 1_000_000_000))


def sample_clients(num_clients: int, fraction: float, round_t: int, seed: int) -> list[int]:
    """``clients_per_round`` distinct ids, keyed by (seed, round)."""
    if not 0.0 < fraction <= 1.0:
        raise ContractViolation(f"fraction must be in (0, 1], got {fraction}")
    count = clients_per_round(num_clients, fraction)
    rng = np.random.default_rng([seed, SAMPLING_STREAM, round_t])
    return sorted(int(c) for c in rng.choice(num_clients, size=count, replace=False))


def aggregate(updates: list[tuple[ModelParams, int]], client_ids: list[int] | None = None) -> ModelParams:
    """Sample-size-weighted mean of client parameters, folded one
    client at a time in list order, as ``run_round`` folds a round's."""
    if not updates:
        raise ContractViolation("aggregate needs at least one update")
    if client_ids is not None and len(client_ids) != len(updates):
        raise ContractViolation(f"{len(client_ids)} client ids for {len(updates)} updates")
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
    out = reference.zeros_like()
    for params, n_k in updates:
        _fold(out, params, n_k / total)
    return out


def _fold(out: ModelParams, params: ModelParams, weight: float) -> None:
    """Add ``weight * params`` into the running sum ``out``. Folding one
    client at a time, in sampled order, keeps the sum's order fixed; a
    stacked matrix product would let BLAS reorder it and change the
    result's last bits."""
    out.flat += weight * params.flat


def _train_one(
    global_params: ModelParams,
    round_t: int,
    client: ClientState,
    history: np.ndarray | None,
    train: LabeledDataset,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, np.ndarray | None, list[float]]:
    """Train ``client`` from ``global_params``. The trainer reads the
    client's rows through a ``RowView``, so only the batch or history
    block in hand is float64; the results are those of training on
    ``train.rows(idx)`` to the bit."""
    idx = client.partition.train_indices
    return local_train_fedpsd(
        global_params, RowView(train, idx), train.labels[idx],
        history, client.partition.client_id, round_t, cfg,
    )


def _local_accuracy(params: ModelParams, client: ClientState, test: LabeledDataset) -> float:
    idx = client.partition.test_indices
    return top1_accuracy(forward(params, test.rows(idx)), test.labels[idx])


def worker_count(cfg: ExperimentConfig) -> int:
    """Worker processes for a run: min(workers, ceil(C*K), usable cpus).

    More would sit idle or time-share a core: a round trains ceil(C*K)
    clients, and each worker trains on one core. The usable cpus are the
    process's affinity set where the OS reports one (``taskset`` or a
    cpuset narrows it), else the machine's cpu count.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cfg.workers, clients_per_round(cfg.num_clients, cfg.fraction), cpus)


# (setter, getter) of the OpenBLAS thread count: numpy's bundled
# scipy-openblas with 64-bit integers, then other builds' names.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads():
    """The loaded OpenBLAS's thread-count (setter, getter), looked up in
    the libraries mapped into this process whose path holds "blas" (a
    distribution's OpenBLAS may be named libblas.so.3), then in the
    global namespace; None, with one warning that names the BLAS build,
    when no known symbol is loaded (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            text = maps.read()
    except OSError:  # no /proc: only the global namespace
        text = ""
    # Only a line with a path can hold "blas"; a library maps several.
    libraries = dict.fromkeys(
        line.split(maxsplit=5)[5] for line in text.splitlines() if "blas" in line.lower()
    )
    for path in [*libraries, None]:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                setter, getter = getattr(library, set_name), getattr(library, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    warnings.warn(
        f"no OpenBLAS thread control found in numpy {np.__version__}'s BLAS "
        f"({blas.get('name', '?')} {blas.get('version', '?')}); its thread count is "
        "left as it is, and image-scale raw bits may depend on it",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


def pin_blas_threads(count: int) -> int | None:
    """Set the loaded OpenBLAS to ``count`` threads and return the count it
    had; None, changing nothing, when no known OpenBLAS is loaded.

    A run pins one thread: a 784-wide product's last bits differ between
    one and two OpenBLAS threads, and each worker trains on one core.
    """
    threads = _openblas_threads()
    if threads is None:
        return None
    setter, getter = threads
    previous = getter()
    setter(count)
    return previous


def _history_slots(sizes: list[int], num_classes: int) -> list[np.ndarray]:
    """One contiguous (n, L) float64 slot per entry of ``sizes``, in
    order, in one anonymous shared mapping. Forked workers share its
    pages, and none is touched here: the kernel zero-fills a page when
    it is first read or written."""
    buffer = mmap.mmap(-1, sum(sizes) * num_classes * np.dtype(np.float64).itemsize)
    rows = np.frombuffer(buffer, dtype=np.float64).reshape(-1, num_classes)
    return np.split(rows, np.cumsum(sizes)[:-1])


class WorkerPool:
    """The one place a round's clients train, each by ``_train``: its
    local update, then its local-test accuracy.

    At ``size`` 1 they train in the calling process, with no fork, pipe
    or pickle. Above it, ``size`` worker processes (POSIX ``fork`` only)
    are forked on the first ``train`` call, from the process that holds
    the train and test sets and every client's partition, so none of
    that is sent; the calling process trains no client. Each worker
    pins OpenBLAS to one thread. Each round a worker receives the global
    ``ModelParams``, the round and, for every size-th sampled client
    (all clients of a run have the same n_k, so dealing in turn balances
    the work), its id and whether it has a history. Once its last client
    has trained, it replies with one pickle per client: the client's
    ``ClientResult``, or the exception that stopped it, which is the
    worker's last pickle of the round. The parent reads the pickles
    round-robin, in sampled order, and hands each result to the
    caller's ``receive`` as it is read, so it holds one result at a
    time. The first failure in sampled order, a worker's exception or
    exit or ``receive``'s exception, closes the pool and is re-raised.
    Both ends of each pipe are this module's, so the pickles read are
    only ones it wrote. ``close`` reaps the workers.

    The pool owns no client state. A job's flag, "has a history", is the
    calling process's ``last_accuracy is not None``: a worker's clients
    are copies taken at fork time. Their ``history`` slots share the
    mapping's pages, so whoever trains a client reads its teacher from
    the slot and writes the new history into it; no job or reply carries one.
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

    def _fork(self) -> None:
        for _ in range(self.size):
            fds: list[int] = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:  # EMFILE, EAGAIN, ENOMEM: no worker holds these pipes
                for fd in fds:
                    os.close(fd)
                raise
            requests_r, requests_w, replies_r, replies_w = fds
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
                    pin_blas_threads(1)
                    self._serve(requests_r, replies_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(requests_r)
            os.close(replies_w)
            self._workers.append((pid, open(requests_w, "wb"), open(replies_r, "rb")))

    def _train(self, global_params: ModelParams, round_t: int, jobs) -> Iterator[ClientResult]:
        """Train each ``(client id, has history)`` job from ``global_params``
        and yield its result; a client's new history overwrites its slot."""
        train, test, clients, cfg = self._state
        for cid, has_history in jobs:
            client = clients[cid]
            params, history, losses = _train_one(
                global_params, round_t, client, client.history if has_history else None, train, cfg
            )
            if history is not None:
                client.history[...] = history
            yield params, losses, _local_accuracy(params, client, test)

    def _serve(self, requests_fd: int, replies_fd: int) -> None:
        """A worker's loop: train each request's clients, until the parent
        closes the request pipe. Once the last has trained, replies with
        one pickle per client, its result or the exception that stopped
        the clients; none follows an exception."""
        with open(requests_fd, "rb") as requests, open(replies_fd, "wb") as replies:
            while True:
                try:
                    request = pickle.load(requests)
                except EOFError:
                    return
                results: list = []
                try:
                    results.extend(self._train(*request))
                except Exception as exc:  # re-raised by the parent
                    results.append(exc)
                for reply in results:
                    pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()

    def train(
        self,
        global_params: ModelParams,
        round_t: int,
        sampled: list[ClientState],
        receive: Callable[[ClientState, ClientResult], None],
    ) -> None:
        """Train ``sampled`` from ``global_params``, calling
        ``receive(client, result)`` for each in ``sampled`` order."""
        jobs = [(c.partition.client_id, c.last_accuracy is not None) for c in sampled]
        if self.size == 1:
            for client, result in zip(sampled, self._train(global_params, round_t, jobs)):
                receive(client, result)
            return
        try:
            if not self._workers:
                self._fork()
            for w, (pid, requests, _) in enumerate(self._workers):
                try:
                    request = (global_params, round_t, jobs[w :: self.size])
                    pickle.dump(request, requests, pickle.HIGHEST_PROTOCOL)
                    requests.flush()
                except BrokenPipeError:
                    raise ChildProcessError(f"worker process {pid} has exited") from None
            for i, client in enumerate(sampled):
                pid, _, replies = self._workers[i % self.size]
                try:
                    reply = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(
                        f"worker process {pid} exited before it returned its clients"
                    ) from None
                if isinstance(reply, Exception):
                    raise reply
                receive(client, reply)
                del reply  # hold no result while the next one is read
        except BaseException:
            self.close()  # the unread replies go with the workers
            raise

    def close(self) -> None:
        """Close the pipes and reap every worker: an idle one exits on
        end-of-file, one still training once it can no longer reply."""
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
    The sampled clients train on ``server.workers``. After a round whose
    training raised, it raises ``ContractViolation`` and changes nothing."""
    if server.failed_round is not None:
        raise ContractViolation(f"round {server.failed_round} raised; the federation has ended")
    t = server.round
    sampled = sample_clients(cfg.num_clients, cfg.fraction, t, cfg.seed)
    members = [clients[cid] for cid in sampled]
    total = sum(client.partition.n_k for client in members)
    mean = server.global_params.zeros_like()
    accuracies: list[float] = []
    traces: list[list[float]] = []

    def receive(client: ClientState, result: ClientResult) -> None:
        params, losses, accuracy = result
        _fold(mean, params, client.partition.n_k / total)
        accuracies.append(accuracy)
        traces.append(losses)
        client.last_accuracy = accuracy

    try:
        server.workers.train(server.global_params, t, members, receive)
    except BaseException:
        server.failed_round = t
        raise
    server.global_params = mean
    server.round = t + 1
    # The pooled test set is scored in ``row_blocks``, so its float64 rows
    # never exist all at once, and the logits are those of one whole-set
    # forward to the bit. hits / n is the mean of the hit array.
    n, hits = test.num_samples, 0
    for block in row_blocks(n, server.global_params):
        logits = forward(server.global_params, test.rows(block))
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == test.labels[block]))
    return RoundReport(
        round=t,
        sampled=sampled,
        client_accuracies=accuracies,
        server_accuracy=hits / n,
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
        # Both sets stay the mapped file's bytes: a client converts one
        # batch of its rows at a time, and the server eval one block.
        return train, LabeledDataset(test.values, test.labels, train.num_classes, pixels=True)
    raise ContractViolation(f"unknown dataset {cfg.dataset!r}")


def build_federation(
    cfg: ExperimentConfig,
    train: LabeledDataset,
    test: LabeledDataset,
) -> tuple[ServerState, dict[int, ClientState]]:
    """Partition the data, assign test splits and (rhpk) history slots, init
    the model, and give the server a ``WorkerPool`` of ``worker_count(cfg)``;
    a caller that runs rounds on a ``workers`` > 1 config must close it."""
    if cfg.partition == "sharding":
        partitions = partition_sharding(train, cfg.shards_per_client, cfg.num_clients, cfg.seed)
    else:
        partitions = partition_dirichlet(train, cfg.dirichlet_alpha, cfg.num_clients, cfg.seed)
    test_pools = class_pools(test)
    for part in partitions:
        part.test_indices = client_test_split(test_pools, part, train, cfg.seed, cfg.test_budget)
    sizes = [part.n_k for part in partitions]
    rhpk = cfg.algorithm == "fedpsd" and cfg.rhpk
    slots = _history_slots(sizes, train.num_classes) if rhpk else [None] * len(sizes)
    clients = {part.client_id: ClientState(part, slot) for part, slot in zip(partitions, slots)}
    layer_sizes = [train.dim, *cfg.hidden, train.num_classes]
    pool = WorkerPool(worker_count(cfg), train, test, clients, cfg)
    return ServerState(init_model(layer_sizes, cfg.seed), 0, pool), clients


def run_experiment(
    cfg: ExperimentConfig,
    round_callback=None,
    sweep_callback=None,
) -> MetricsSeries:
    """Run t_total rounds and collect per-round metrics.

    ``round_callback(record)`` fires after each round and
    ``sweep_callback(record)`` after each all-client sweep, for
    incremental output. Rounds in the returned series are 1-indexed.
    The rounds run with the loaded OpenBLAS at one thread; it gets its
    old count back when they end.
    """
    train, test = _load_dataset_pair(cfg)
    server, clients = build_federation(cfg, train, test)
    rounds: list[RoundRecord] = []
    sweeps: list[SweepRecord] = []
    restore = pin_blas_threads(1)
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
        server.workers.close()
        if restore is not None:
            pin_blas_threads(restore)
    return MetricsSeries(rounds=rounds, sweeps=sweeps)


def run_to_dir(cfg: ExperimentConfig, out_dir, prefix="", round_callback=None) -> MetricsSeries:
    """Run ``cfg`` into ``out_dir``, which it creates: ``{prefix}config.txt``
    echoes the config, and ``{prefix}metrics.csv`` and ``{prefix}sweeps.csv``
    get one flushed row per record, so a live run can be tailed;
    ``round_callback(record)`` fires after each round's row is written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{prefix}config.txt").write_text(echo_config(cfg), encoding="utf-8", newline="\n")
    with (
        csv_writer(out / f"{prefix}metrics.csv", CSV_HEADER) as write_round,
        csv_writer(out / f"{prefix}sweeps.csv", SWEEP_HEADER) as write_sweep,
    ):
        def on_round(record: RoundRecord) -> None:
            write_round(format_round(record))
            if round_callback is not None:
                round_callback(record)

        return run_experiment(
            cfg, round_callback=on_round,
            sweep_callback=lambda sweep: write_sweep(format_sweep(sweep)),
        )


# Component rows in the order the flags were introduced: history fusion
# first, then progressive self-distillation, then the calibrated loss.
ABLATION_ROWS: tuple[tuple[str, bool, bool, bool], ...] = (
    ("baseline", False, False, False),
    ("rhpk", True, False, False),
    ("rhpk_psd", True, True, False),
    ("fedpsd", True, True, True),
)


def run_ablation(cfg: ExperimentConfig, out_dir=None, log=None) -> list[AblationRow]:
    """Run the four component rows and report each one's gain over row 1.

    All rows share the config's seed, so the partition, the client
    sampling sequence, and the batch order are identical across rows;
    only the flag set differs. The baseline row trains exactly like
    fedavg. Once the config is checked, ``log`` gets ``ABLATION_HEADER``,
    then each row's line. With ``out_dir`` set, each row runs through
    ``run_to_dir`` with the prefix ``<name>_``, and the table lands in
    ``ablation.csv``.
    """
    if cfg.algorithm != "fedpsd":
        raise ConfigError(f"ablation requires algorithm = fedpsd, got {cfg.algorithm!r}")
    if log is not None:
        log(ABLATION_HEADER)
    rows: list[AblationRow] = []
    baseline_final = 0.0
    for name, rhpk, psd, cll in ABLATION_ROWS:
        row_cfg = replace(cfg, rhpk=rhpk, psd=psd, cll=cll)
        series = (run_experiment(row_cfg) if out_dir is None
                  else run_to_dir(row_cfg, out_dir, prefix=f"{name}_"))
        final = series.final_avg_client_top1()
        if name == "baseline":
            baseline_final = final
        row = AblationRow(name, rhpk, psd, cll, final, final - baseline_final, series)
        rows.append(row)
        if log is not None:
            log(format_ablation_row(row))
    if out_dir is not None:
        with csv_writer(Path(out_dir) / "ablation.csv", ABLATION_HEADER) as write_row:
            for row in rows:
                write_row(format_ablation_row(row))
    return rows
