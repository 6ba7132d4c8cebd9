"""Client-side local training: FedAvg, FedProx and FedPSD in one loop.

Every algorithm runs mini-batch SGD on cross-entropy from a copy of the
global model. FedProx adds the proximal pull toward the global model.
FedPSD can shift the logits by the client's log class prior inside the
cross-entropy (calibrated loss) and adds a KL distillation term against
a fused soft label: the convex combination of a teacher probability
vector and the one-hot ground truth, weighted by a linearly growing
schedule over rounds.

Teachers come from two places: the client's history in the first local
epoch (kept only under rhpk) and the previous epoch's detached outputs
after it, both the student's exp(log_softmax(logits)) of plain logits.
Disabling the flags removes each term; with everything off FedPSD runs
the FedAvg update.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .config import LOCAL_SHUFFLE_STREAM, ExperimentConfig
from .data import class_prior
from .nn import (
    ContractViolation,
    ModelParams,
    _backprop_from_acts,
    _ce_inputs,
    _ce_terms,
    _forward_cached,
    forward,
    init_optimizer,
    log_softmax,
    one_hot,
    row_blocks,
    sgd_step,
)


def _check_prob_rows(rows: np.ndarray, what: str, shape=None) -> np.ndarray:
    """``rows`` as float64; raises unless it is non-empty, of ``shape``
    when that is given, and every row has entries >= 0 summing to 1
    within 1e-9."""
    rows = np.asarray(rows, dtype=np.float64)
    if shape is not None and rows.shape != shape:
        raise ContractViolation(f"{what} shape {rows.shape} does not match {shape}")
    # Written as "not all good" so that NaN, which fails every
    # comparison, is rejected too.
    if rows.size == 0 or not (
        (rows >= 0.0).all() and (np.abs(rows.sum(axis=-1) - 1.0) <= 1e-9).all()
    ):
        raise ContractViolation(f"{what} rows must be probability vectors summing to 1 within 1e-9")
    return rows


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


def lr_schedule(base_lr: float, round_t: int, decay: float = 0.99) -> float:
    """Per-round exponential decay: base_lr * decay ** t."""
    if round_t < 0:
        raise ContractViolation(f"round must be >= 0, got {round_t}")
    return base_lr * decay**round_t


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


def _prior_probs(prior, logits: np.ndarray) -> np.ndarray:
    """``prior`` as float64; raises unless it is a strictly positive
    vector with one entry per class (the last axis) of ``logits``."""
    probs = np.asarray(prior, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0 or not (probs > 0.0).all():
        raise ContractViolation("prior must be a strictly positive vector; smooth it first")
    if probs.shape != logits.shape[-1:]:
        raise ContractViolation(f"prior of length {probs.size} does not match logits {logits.shape}")
    return probs


def _neg_entropy(teacher: np.ndarray) -> np.ndarray:
    """Each row's sum of t log t (0 log 0 = 0): minus the teacher's entropy."""
    positive = teacher > 0.0
    return np.where(positive, teacher * np.log(np.where(positive, teacher, 1.0)), 0.0).sum(axis=1)


def _kd_rows(log_p, probs, teacher, neg_entropy) -> tuple[float, np.ndarray]:
    """Batch-mean KL(teacher || exp(log_p)) and its logit gradient, given
    the student ``probs`` = exp(log_p) and the teacher rows'
    ``_neg_entropy``. Its inputs are only read. Unchecked."""
    b = log_p.shape[0]
    # sum / b is how np.mean computes a mean, to the bit.
    loss = float((neg_entropy - (teacher * log_p).sum(axis=1)).sum()) / b
    dlogits = probs - teacher
    dlogits /= b
    return loss, dlogits


def _batch_loss(
    logits, labels, rows, onehots, log_prior, kd, want_probs=False
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The trainer's unchecked kernel for ``local_loss`` on one (B, L)
    batch; ``rows`` is arange(B), ``onehots`` the labels' one-hot rows
    and ``kd`` None or (teacher rows, their ``_neg_entropy``). Returns
    (loss, dlogits, probs), probs the student's exp(log_softmax(logits))
    of the plain logits when ``kd`` or ``want_probs`` asks for it, else
    None. The calibrated and plain log-softmaxes run as one stacked pass
    (one shared pass when ``log_prior`` is None) and one ``np.exp`` gives
    both. Its inputs are only read."""
    plain = kd is not None or want_probs
    if plain and log_prior is not None:
        stacked = np.empty((2, *logits.shape))
        np.add(logits, log_prior, out=stacked[0])
        stacked[1] = logits
        both = log_softmax(stacked)
        (ce_log_p, log_p), (ce_p, probs) = both, np.exp(both)
    else:  # one pass; unless ``plain``, only the cross-entropy reads it
        ce_log_p = log_p = log_softmax(logits if log_prior is None else logits + log_prior)
        ce_p = probs = np.exp(log_p)
    loss, dlogits = _ce_terms(ce_log_p, ce_p, labels, rows, onehots)
    if kd is not None:
        kd_loss, kd_grad = _kd_rows(log_p, probs, *kd)
        dlogits += kd_grad
        loss = loss + kd_loss
    return loss, dlogits, probs if plain else None


def local_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    log_prior: np.ndarray | None = None,
    teacher: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The local objective on one (B, L) batch and its logit gradient.

    Cross-entropy of ``logits + log_prior`` (plain logits when
    ``log_prior`` is None), plus KL(teacher || softmax(logits)) when
    ``teacher`` rows are given; the distillation term always sees the
    uncalibrated logits. Returns (loss, dlogits, probs), with probs the
    student's exp(log_softmax(logits)) when the KL term ran, else None.

    Raises ContractViolation unless the logits are a non-empty batch,
    the labels B integers in range, ``log_prior`` a finite (L,) vector
    and ``teacher`` (B, L) probability rows. The trainer runs the same
    arithmetic, ``_batch_loss``, unchecked and with the teacher's
    entropy computed once per epoch.
    """
    logits, labels = _ce_inputs(logits, labels)
    if log_prior is not None:
        log_prior = np.asarray(log_prior, dtype=np.float64)
        if log_prior.shape != logits.shape[1:] or not np.isfinite(log_prior).all():
            raise ContractViolation(f"log_prior must be a finite vector of length {logits.shape[1]}")
    if teacher is not None:
        teacher = _check_prob_rows(teacher, "teacher", logits.shape)
    kd = None if teacher is None else (teacher, _neg_entropy(teacher))
    onehots = one_hot(labels, logits.shape[1])
    return _batch_loss(logits, labels, np.arange(logits.shape[0]), onehots, log_prior, kd)


def calibrated_ce_loss(logits: np.ndarray, labels, prior) -> tuple[float, np.ndarray]:
    """Cross-entropy of the prior-shifted logits.

    The training softmax sees f + ln P, so locally frequent classes
    must beat their prior instead of merely winning the raw logits;
    gradient is softmax(f + ln P) - onehot, batch-meaned. Accepts a
    single logit vector or a (B, L) batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    log_prior = np.log(_prior_probs(prior, logits))
    single = logits.ndim == 1
    batch = logits[None, :] if single else logits
    loss, dlogits, _ = local_loss(batch, np.atleast_1d(np.asarray(labels)), log_prior)
    return loss, (dlogits[0] if single else dlogits)


def balanced_prediction(logits: np.ndarray, prior):
    """Argmax of prior-corrected scores f - ln P (ties to the lowest class).

    Equivalent to ranking classes by softmax(f)[y] / P(y).
    """
    logits = np.asarray(logits, dtype=np.float64)
    probs = _prior_probs(prior, logits)
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
    logits = np.asarray(student_logits, dtype=np.float64)
    single = logits.ndim == 1
    if single:
        logits, teacher = logits[None, :], np.atleast_2d(teacher)
    rows = _check_prob_rows(teacher, "teacher", logits.shape)
    log_p = log_softmax(logits)
    loss, dlogits = _kd_rows(log_p, np.exp(log_p), rows, _neg_entropy(rows))
    return loss, (dlogits[0] if single else dlogits)


def _proximal(params: ModelParams, anchor: ModelParams, mu: float) -> tuple[float, np.ndarray]:
    """FedProx's (mu/2) * ||w - w_anchor||^2, one sum over the flat
    vectors, and its gradient mu * (w - w_anchor) laid out like
    ``params.flat``. Unchecked."""
    diff = params.flat - anchor.flat
    sq = float((diff * diff).sum())
    diff *= mu
    return 0.5 * mu * sq, diff


def proximal_term(params: ModelParams, anchor: ModelParams, mu: float) -> tuple[float, ModelParams]:
    """FedProx's pull (mu/2) * ||w - w_anchor||^2 and its gradient mu * (w - w_anchor).

    Raises ContractViolation unless both models have the same layout
    and ``mu`` is finite and non-negative.
    """
    if params._shapes != anchor._shapes:
        raise ContractViolation("params and anchor shapes do not match")
    if not (math.isfinite(mu) and mu >= 0):
        raise ContractViolation(f"mu must be finite and non-negative, got {mu}")
    loss, pull = _proximal(params, anchor, mu)
    return loss, params.with_flat(pull)


def local_train_fedpsd(
    global_params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    history: np.ndarray | None,
    client_id: int,
    round_t: int,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, np.ndarray | None, list[float]]:
    """One client's local update for ``cfg.algorithm``: E epochs of SGD.

    fedavg minimises cross-entropy and fedprox adds the proximal pull
    toward ``global_params``. fedpsd calibrates the cross-entropy with
    the ``class_prior`` of ``labels`` (cll, its one reader), distills
    epoch 1 toward the fused history teacher (rhpk) when the client has
    one, and distills later epochs toward the fused outputs cached
    during the previous epoch (psd). The lr and alpha are the round's
    ``lr_schedule`` and ``alpha_schedule``, as ``cfg`` sets them.

    ``features`` is the (n_k, d) float64 local set, or anything of that
    ``shape`` whose ``[idx]`` gives those rows, such as a
    ``data.RowView``; it is read one batch, or one ``row_blocks`` block,
    at a time.

    Per call, the inputs are checked once, a history's shape and rows
    only under rhpk (nothing else reads it), and the one-hot rows and
    log prior are built. Per epoch, the batch order is drawn and the
    labels, one-hot rows and teacher are gathered in it; both teachers,
    the epoch-1 history and the later cache, are fused by one
    expression, alpha * source[order] + (1 - alpha) * one-hot[order] as
    in ``fuse_labels``, with its ``_neg_entropy``. The psd cache is written in batch order and
    scattered back to row order at the epoch's end. Per batch, only the
    feature rows are gathered, the rest is sliced, and only a
    non-finite loss or gradient stops the run.

    Under rhpk, the only reader, the new history is the trained model's
    (n_k, L) probabilities exp(log_softmax(logits)) over the full local
    set, computed in blocks that give one whole-set forward's bits: the
    uncalibrated logits, the code's reading of the paper's "calibrated
    fusion labels". Returns (params, history, per-batch losses); the
    history is None unless fedpsd runs with rhpk.
    """
    n = labels.shape[0]
    num_classes = global_params.num_classes
    if features.shape != (n, global_params.layer_sizes()[0]):
        raise ContractViolation(
            f"client {client_id} features of shape {features.shape} do not match "
            f"{n} labels and input dim {global_params.layer_sizes()[0]}"
        )
    fedpsd = cfg.algorithm == "fedpsd"
    rhpk = fedpsd and cfg.rhpk
    prox = cfg.algorithm == "fedprox"
    alpha = alpha_schedule(round_t, cfg.t_total) if fedpsd else 0.0
    params = global_params.copy()
    grads = params.zeros_like()  # reused by every step's backprop
    lr = lr_schedule(cfg.base_lr, round_t, cfg.lr_decay)
    opt = init_optimizer(params, lr, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, LOCAL_SHUFFLE_STREAM, round_t, client_id])

    onehots = one_hot(labels, num_classes)
    log_prior = None
    if fedpsd and cfg.cll:
        log_prior = np.log(class_prior(labels, num_classes, cfg.prior_epsilon))
    if not rhpk:
        history = None  # only rhpk reads a history
    elif history is not None:
        history = _check_prob_rows(history, f"client {client_id} history", (n, num_classes))
    cache = np.empty((n, num_classes)) if fedpsd and cfg.psd else None
    epoch_cache = None if cache is None else np.empty_like(cache)
    rows = np.arange(min(n, cfg.batch_size))

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        source = history if epoch == 0 else cache
        # The cache written during this epoch feeds the next one.
        fill_cache = cache is not None and epoch < cfg.epochs - 1

        # Everything but the features is gathered once per epoch, in the
        # order its batches read it; each batch is then a slice.
        perm = rng.permutation(n)
        epoch_labels = labels[perm]
        epoch_onehots = onehots[perm]
        teacher = None if source is None else alpha * source[perm] + (1.0 - alpha) * epoch_onehots
        neg_entropy = None if teacher is None else _neg_entropy(teacher)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = slice(start, start + cfg.batch_size)
            logits, acts = _forward_cached(params, features[perm[batch]])
            kd = None if teacher is None else (teacher[batch], neg_entropy[batch])
            loss, dlogits, probs = _batch_loss(
                logits, epoch_labels[batch], rows[: logits.shape[0]], epoch_onehots[batch],
                log_prior, kd, fill_cache,
            )
            if fill_cache:
                epoch_cache[batch] = probs
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at round {round_t}, client {client_id}, "
                    f"epoch {epoch + 1}, batch {batch_no + 1}"
                )
            _backprop_from_acts(params, acts, dlogits, grads)
            if prox:
                prox_loss, pull = _proximal(params, global_params, cfg.prox_mu)
                loss = loss + prox_loss
                grads.flat += pull
            try:
                sgd_step(params, grads, opt)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} at round {round_t}, client {client_id}, "
                    f"epoch {epoch + 1}, batch {batch_no + 1}"
                ) from exc
            losses.append(loss)
        if fill_cache:
            cache[perm] = epoch_cache

    if not rhpk:
        return params, None, losses
    history = np.empty((n, num_classes))
    for block in row_blocks(n, params):
        history[block] = np.exp(log_softmax(forward(params, features[block])))
    return params, history, losses
