"""Client-side local training: FedAvg, FedProx and FedPSD in one loop.

Every algorithm runs mini-batch SGD on cross-entropy from a copy of the
global model. FedProx adds the proximal pull toward the global model.
FedPSD can shift the logits by the client's log class prior inside the
cross-entropy (calibrated loss) and adds a KL distillation term against
a fused soft label: the convex combination of a teacher probability
vector and the one-hot ground truth, weighted by a linearly growing
schedule over rounds.

Teachers come from two places. In the first local epoch the teacher is
the client's stored history: the softmax outputs recorded after its
previous participation. In later epochs the teacher is the previous
epoch's own (detached) outputs. Disabling the corresponding flags
removes each term; with everything off FedPSD runs the FedAvg update.
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .config import LOCAL_SHUFFLE_STREAM, ExperimentConfig
from .nn import (
    ContractViolation,
    ModelParams,
    _backprop_from_acts,
    _forward_cached,
    forward,
    init_optimizer,
    log_softmax,
    one_hot,
    sgd_step,
    softmax,
    softmax_ce,
)

_HISTORY_HEADER = struct.Struct("<4q")  # client_id, recorded_round, n_k, num_classes


def _check_prob_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows`` as float64; raises unless it is non-empty and every row
    has entries >= 0 summing to 1 within 1e-9."""
    rows = np.asarray(rows, dtype=np.float64)
    # Written as "not all good" so that NaN, which fails every
    # comparison, is rejected too.
    if rows.size == 0 or not (
        (rows >= 0.0).all() and (np.abs(rows.sum(axis=-1) - 1.0) <= 1e-9).all()
    ):
        raise ContractViolation(f"{what} rows must be probability vectors summing to 1 within 1e-9")
    return rows


@dataclass
class ClientHistory:
    """Per-sample softmax outputs from a client's last participation.

    ``probs`` has one row per local train sample, aligned to the order
    of the client's train_indices: n_k * L floats. This is all that
    FedPSD's training reads from a past round.
    """

    probs: np.ndarray
    recorded_round: int

    def __post_init__(self) -> None:
        self.probs = _check_prob_rows(self.probs, "history")
        if self.probs.ndim != 2:
            raise ContractViolation(f"history probs must be 2-D, got {self.probs.shape}")

    def to_bytes(self, client_id: int) -> bytes:
        n, l = self.probs.shape
        header = _HISTORY_HEADER.pack(client_id, self.recorded_round, n, l)
        return header + self.probs.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple[int, "ClientHistory"]:
        if len(data) < _HISTORY_HEADER.size:
            raise ValueError(f"truncated history record at byte offset {len(data)}")
        client_id, recorded_round, n, l = _HISTORY_HEADER.unpack_from(data, 0)
        for offset, dim in ((16, n), (24, l)):
            if dim < 0:
                raise ValueError(f"negative history dimension {dim} at byte offset {offset}")
        need = _HISTORY_HEADER.size + n * l * 8
        if len(data) != need:
            raise ValueError(
                f"history record ends at byte offset {len(data)}, expected {need}"
            )
        probs = np.frombuffer(data, dtype="<f8", offset=_HISTORY_HEADER.size)
        return int(client_id), cls(probs.reshape(n, l).copy(), int(recorded_round))


def alpha_schedule(round_t: int, t_total: int) -> float:
    """Linear fusion weight t / t_total, clamped to 1 past the end."""
    if t_total < 1:
        raise ContractViolation(f"t_total must be >= 1, got {t_total}")
    if round_t < 0:
        raise ContractViolation(f"round must be >= 0, got {round_t}")
    if round_t > t_total:
        warnings.warn(
            f"round {round_t} exceeds t_total {t_total}; clamping fusion weight to 1",
            stacklevel=2,
        )
        return 1.0
    return round_t / t_total


def fuse_labels(teacher: np.ndarray, truth: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha * teacher + (1 - alpha) * truth.

    Takes one vector or a batch of rows. ``truth`` must be exactly
    one-hot; for alpha < 0.5 the fused label keeps the ground-truth
    class as its argmax, since its floor (1 - alpha) beats any
    alpha-scaled teacher entry. At alpha 0 and 1 the arithmetic returns
    truth and teacher exactly.
    """
    teacher = _check_prob_rows(teacher, "teacher")
    truth = np.asarray(truth, dtype=np.float64)
    if teacher.ndim not in (1, 2) or truth.shape != teacher.shape:
        raise ContractViolation(
            f"teacher {teacher.shape} and truth {truth.shape} must be matching vectors or batches"
        )
    if not ((truth == 0.0) | (truth == 1.0)).all() or (truth.sum(axis=-1) != 1.0).any():
        raise ContractViolation("truth must be one-hot")
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation(f"alpha must be in [0, 1], got {alpha}")
    return alpha * teacher + (1.0 - alpha) * truth


def _prior_probs(prior) -> np.ndarray:
    probs = np.asarray(prior, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0 or not (probs > 0.0).all():
        raise ContractViolation("prior must be a strictly positive vector; smooth it first")
    return probs


def _kd_rows(teacher_rows: np.ndarray, logits: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean KL(teacher || softmax(logits)), its logit gradient, and
    the student probabilities (reused by the epoch cache)."""
    b = logits.shape[0]
    log_p = log_softmax(logits)
    probs = np.exp(log_p)
    t = teacher_rows
    neg_entropy = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0).sum(axis=1)
    cross = -(t * log_p).sum(axis=1)
    loss = float((neg_entropy + cross).mean())
    dlogits = (probs - t) / b
    return loss, dlogits, probs


def local_loss(
    logits: np.ndarray,
    labels: np.ndarray | None,
    log_prior: np.ndarray | None = None,
    teacher: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The local objective on one (B, L) batch and its logit gradient.

    Cross-entropy of ``logits + log_prior`` (plain logits when
    ``log_prior`` is None, no CE term when ``labels`` is None), plus
    KL(teacher || softmax(logits)) when ``teacher`` rows are given; the
    distillation term always sees the uncalibrated logits. Returns
    (loss, dlogits, probs), with probs the student softmax when the KL
    term ran and None otherwise. Inputs are not checked here: the
    trainer validates once per call or per epoch, never per batch.
    """
    loss, dlogits, probs = 0.0, None, None
    if labels is not None:
        loss, dlogits = softmax_ce(logits if log_prior is None else logits + log_prior, labels)
    if teacher is not None:
        kd_loss, kd_grad, probs = _kd_rows(teacher, logits)
        loss = loss + kd_loss
        dlogits = kd_grad if dlogits is None else dlogits + kd_grad
    return loss, dlogits, probs


def calibrated_ce_loss(logits: np.ndarray, labels, prior) -> tuple[float, np.ndarray]:
    """Cross-entropy of the prior-shifted logits.

    The training softmax sees f + ln P, so locally frequent classes
    must beat their prior instead of merely winning the raw logits;
    gradient is softmax(f + ln P) - onehot, batch-meaned. Accepts a
    single logit vector or a (B, L) batch.
    """
    log_prior = np.log(_prior_probs(prior))
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    batch = logits[None, :] if single else logits
    loss, dlogits, _ = local_loss(batch, np.atleast_1d(np.asarray(labels)), log_prior)
    return loss, (dlogits[0] if single else dlogits)


def balanced_prediction(logits: np.ndarray, prior):
    """Argmax of prior-corrected scores f - ln P (ties to the lowest class).

    Equivalent to ranking classes by softmax(f)[y] / P(y).
    """
    probs = _prior_probs(prior)
    logits = np.asarray(logits, dtype=np.float64)
    adjusted = logits - np.log(probs)
    if logits.ndim == 1:
        return int(np.argmax(adjusted))
    return np.argmax(adjusted, axis=-1)


def psd_kd_loss(teacher, student_logits: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(teacher || softmax(student_logits)) with its logit gradient.

    ``teacher`` may be a probability vector or a batch of rows; student
    probabilities use the plain softmax (calibration never touches the
    distillation term).
    """
    rows = _check_prob_rows(teacher, "teacher")
    logits = np.asarray(student_logits, dtype=np.float64)
    single = logits.ndim == 1
    if single:
        logits = logits[None, :]
        rows = rows[None, :] if rows.ndim == 1 else rows
    if rows.shape != logits.shape:
        raise ContractViolation(
            f"teacher shape {rows.shape} does not match logits shape {logits.shape}"
        )
    loss, dlogits, _ = local_loss(logits, None, teacher=rows)
    return loss, (dlogits[0] if single else dlogits)


def proximal_term(params: ModelParams, anchor: ModelParams, mu: float) -> tuple[float, ModelParams]:
    """FedProx's pull (mu/2) * ||w - w_anchor||^2 and its gradient mu * (w - w_anchor)."""
    diff = params.flat - anchor.flat
    # Summed array by array in ``arrays()`` order: one sum over the whole
    # vector would round differently and move FedProx's output bytes.
    sq, start = 0.0, 0
    for a in params.arrays():
        d = diff[start : start + a.size]
        sq += float((d * d).sum())
        start += a.size
    return 0.5 * mu * sq, params.with_flat(mu * diff)


def local_train_fedpsd(
    global_params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    prior: np.ndarray,
    history: ClientHistory | None,
    client_id: int,
    round_t: int,
    lr: float,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, ClientHistory | None, list[float]]:
    """One client's local update for ``cfg.algorithm``: E epochs of SGD.

    fedavg minimises cross-entropy and fedprox adds the proximal pull
    toward ``global_params``. fedpsd calibrates the cross-entropy with
    ``prior`` (cll), distills epoch 1 toward the fused history teacher
    (rhpk) when the client has one, and distills later epochs toward
    the fused outputs cached during the previous epoch (psd); after the
    last epoch the trained model's softmax outputs over the full local
    set become the new history. Returns (params, history, per-batch
    losses); the history is None outside fedpsd.
    """
    n = labels.shape[0]
    num_classes = global_params.num_classes
    fedpsd = cfg.algorithm == "fedpsd"
    prox = cfg.algorithm == "fedprox"
    alpha = alpha_schedule(round_t, cfg.t_total) if fedpsd else 0.0
    params = global_params.copy()
    grads = params.zeros_like()  # reused by every step's backprop
    opt = init_optimizer(params, lr, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, LOCAL_SHUFFLE_STREAM, round_t, client_id])

    onehots = one_hot(labels, num_classes)
    log_prior = np.log(_prior_probs(prior)) if fedpsd and cfg.cll else None
    if history is not None and history.probs.shape != (n, num_classes):
        raise ContractViolation(
            f"client {client_id} history shape {history.probs.shape} does not match "
            f"({n}, {num_classes}); partitions must stay fixed across rounds"
        )
    cache = np.empty((n, num_classes)) if fedpsd and cfg.psd else None

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        teacher = None
        if epoch == 0 and fedpsd and cfg.rhpk and history is not None:
            teacher = fuse_labels(history.probs, onehots, alpha)
        elif epoch > 0 and cache is not None:
            teacher = fuse_labels(cache, onehots, alpha)
        # The cache written during this epoch feeds the next one.
        fill_cache = cache is not None and epoch < cfg.epochs - 1

        perm = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            logits, acts = _forward_cached(params, features[idx])
            loss, dlogits, probs = local_loss(
                logits, labels[idx], log_prior, None if teacher is None else teacher[idx]
            )
            if fill_cache:
                cache[idx] = softmax(logits) if probs is None else probs
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at round {round_t}, client {client_id}, "
                    f"epoch {epoch + 1}, batch {batch_no + 1}"
                )
            _backprop_from_acts(params, acts, dlogits, logits.shape, out=grads)
            if prox:
                prox_loss, prox_grads = proximal_term(params, global_params, cfg.prox_mu)
                loss = loss + prox_loss
                grads.flat += prox_grads.flat
            try:
                sgd_step(params, grads, opt)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} at round {round_t}, client {client_id}, "
                    f"epoch {epoch + 1}, batch {batch_no + 1}"
                ) from exc
            losses.append(loss)

    if not fedpsd:
        return params, None, losses
    new_history = ClientHistory(softmax(forward(params, features)), recorded_round=round_t)
    return params, new_history, losses
