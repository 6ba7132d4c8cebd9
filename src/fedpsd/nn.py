"""Dense feed-forward networks with exact analytic gradients.

Everything here is plain float64 numpy. A model is a list of
(weight, bias) pairs with ReLU on hidden layers and raw logits at the
output; the backward pass is hand-derived and checkable against
central finite differences (``finite_diff_check``).

Loss conventions: batch losses are means over the batch, and the
logit gradients returned by the loss helpers are already divided by
the batch size, so ``backprop`` output feeds straight into
``sgd_step`` without rescaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Stream tag for model initialisation; keeps init draws independent of
# every other consumer of the same experiment seed.
_INIT_STREAM = 11


class ContractViolation(ValueError):
    """An interface precondition was broken (shape or domain mismatch)."""


@dataclass
class ModelParams:
    """Parameters of a dense network.

    ``weights[i]`` has shape (out_i, in_i) and ``biases[i]`` shape
    (out_i,); adjacent layers must chain (in_{i+1} == out_i). All
    arrays are float64 views into one contiguous vector ``flat``, laid
    out in ``arrays()`` order, so writing through a view writes ``flat``
    and whole-model arithmetic is one operation on ``flat``.
    Construction copies the given arrays in; it never aliases them.
    A pickled or copied model's arrays are views into its own ``flat``.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ContractViolation("model needs one (weight, bias) pair per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ContractViolation(
                    f"layer {i}: weight {w.shape} and bias {b.shape} do not agree"
                )
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ContractViolation(
                    f"layer {i}: input dim {w.shape[1]} does not chain with "
                    f"layer {i - 1} output dim {self.weights[i - 1].shape[0]}"
                )
        arrays = self.arrays()
        flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
        self._bind(flat, tuple(a.shape for a in arrays))

    def _bind(self, flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> None:
        self.flat = flat
        self._shapes = shapes
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[start : start + size].reshape(shape))
            start += size
        self.weights = views[0::2]
        self.biases = views[1::2]

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """Parameters with this model's layout over ``flat`` (no copy, no checks)."""
        return _bound(flat, self._shapes)

    def __reduce__(self):
        return _bound, (self.flat, self._shapes)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_classes(self) -> int:
        return self.biases[-1].shape[0]

    def layer_sizes(self) -> list[int]:
        """[input_dim, hidden..., output_dim]."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return self.with_flat(np.zeros_like(self.flat))

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (weights then bias per layer)."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _bound(flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> ModelParams:
    """A model whose arrays, of ``shapes``, are views into ``flat``."""
    out = object.__new__(ModelParams)
    out._bind(flat, shapes)
    return out


def init_model(layer_sizes: list[int], seed: int) -> ModelParams:
    """He-initialised dense net for the given [in, hidden..., out] sizes.

    Deterministic in ``seed``; the draw stream is namespaced so the
    same experiment seed can be reused elsewhere without collisions.
    """
    if len(layer_sizes) < 2 or any(s <= 0 for s in layer_sizes):
        raise ContractViolation(f"bad layer sizes {layer_sizes}")
    rng = np.random.default_rng([seed, _INIT_STREAM])
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _forward_cached(model: ModelParams, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass returning logits and the input activation of each
    layer. Per layer it allocates one array, the product, then adds the
    bias and applies the ReLU in place; ``batch`` is only read."""
    acts = [batch]
    h = batch
    last = model.num_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T
        z += b
        h = z if i == last else np.maximum(z, 0.0, out=z)
        if i != last:
            acts.append(h)
    return h, acts


def forward(model: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Logits for a (B, d) float64 batch; shape (B, num_classes)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ContractViolation(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != model.weights[0].shape[1]:
        raise ContractViolation(
            f"layer 0 expects input dim {model.weights[0].shape[1]}, "
            f"got {batch.shape[1]}"
        )
    logits, _ = _forward_cached(model, batch)
    return logits


# Most rows in one block of a forward-only pass over a set: the server
# eval and the rhpk history.
EVAL_BLOCK_ROWS = 256

# OpenBLAS (numpy 2.4's bundled 0.3.31) computes a matrix product of at
# most this many outputs with another kernel, whose last bits differ.
_SMALL_PRODUCT_OUTPUTS = 1200


def row_blocks(n: int, model: ModelParams) -> list[slice]:
    """Near-equal slices covering rows [0, n), at most
    ceil(n / EVAL_BLOCK_ROWS) of them, whose ``forward`` logits are
    those of one whole-set forward to the bit.

    No block falls below the kernel switch: each has more than
    ``_SMALL_PRODUCT_OUTPUTS`` outputs at the model's narrowest layer,
    and two rows (one row is a matrix-vector product). Where that
    floor exceeds ``EVAL_BLOCK_ROWS`` the blocks grow to it; a set
    below it is one block.
    """
    floor = max(2, _SMALL_PRODUCT_OUTPUTS // min(model.layer_sizes()[1:]) + 1)
    blocks = max(1, min(-(-n // EVAL_BLOCK_ROWS), n // floor))
    return [slice(n * b // blocks, n * (b + 1) // blocks) for b in range(blocks)]


def backprop(model: ModelParams, batch: np.ndarray, dlogits: np.ndarray) -> ModelParams:
    """Exact parameter gradients given d(loss)/d(logits).

    ``dlogits`` must carry any batch-mean factor already; the result
    has the same shapes as ``model`` and is suitable for ``sgd_step``.
    """
    batch = np.asarray(batch, dtype=np.float64)
    logits, acts = _forward_cached(model, batch)
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != logits.shape:
        raise ContractViolation(
            f"dlogits shape {dlogits.shape} does not match logits shape {logits.shape}"
        )
    return _backprop_from_acts(model, acts, dlogits, model.with_flat(np.empty_like(model.flat)))


def _backprop_from_acts(
    model: ModelParams, acts: list[np.ndarray], dlogits: np.ndarray, grads: ModelParams
) -> ModelParams:
    """Gradients from cached activations and (B, L) ``dlogits``, written
    into ``grads`` (a buffer laid out like ``model``) and returned.
    Per hidden layer it allocates the next delta and masks it in place;
    ``acts`` and ``dlogits`` are only read. Unchecked."""
    delta = dlogits
    for i in range(model.num_layers - 1, -1, -1):
        a = acts[i]
        np.matmul(delta.T, a, out=grads.weights[i])
        delta.sum(axis=0, out=grads.biases[i])
        if i > 0:
            delta = delta @ model.weights[i]
            # ReLU mask from post-activation: a > 0 iff pre-activation > 0.
            delta *= a > 0.0
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, through log-sum-exp for stability.
    Writes into one new array; ``logits`` is only read."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Labels must be a 1-D integer array in [0, num_classes)."""
    if labels.ndim != 1:
        raise ContractViolation(f"labels must be 1-D, got shape {labels.shape}")
    # A float label would fail later as a numpy indexing or casting error.
    if labels.dtype.kind not in "iu":
        raise ContractViolation(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractViolation(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    _check_labels(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _check_batch(logits: np.ndarray, labels: np.ndarray) -> None:
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ContractViolation(f"logits must be non-empty 2-D, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ContractViolation(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
        )


def _ce_inputs(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """``logits`` as a non-empty (B, L) float64 batch and ``labels`` as
    B integers in [0, L); raises ContractViolation otherwise."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    _check_batch(logits, labels)
    # A negative label would index from the end instead of failing.
    _check_labels(labels, logits.shape[1])
    return logits, labels


def _ce_terms(
    log_p: np.ndarray, probs: np.ndarray, labels: np.ndarray, rows: np.ndarray, onehots: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the (B, L) log-probabilities ``log_p`` at
    ``labels`` and its logit gradient (probs - onehots) / B, given
    ``probs`` = exp(log_p), the labels' one-hot rows and ``rows`` =
    arange(B). Its inputs are only read. Unchecked."""
    b = log_p.shape[0]
    # sum / b is how np.mean computes a mean, to the bit.
    loss = -float(log_p[rows, labels].sum()) / b
    # x - 0.0 is x, so this is exp(log_p) with 1 taken off at each label.
    dlogits = probs - onehots
    dlogits /= b
    return loss, dlogits


def softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its logit gradient.

    Returns (loss, dlogits) with dlogits = (softmax(logits) - onehot) / B,
    computed through log-sum-exp for stability.
    """
    logits, labels = _ce_inputs(logits, labels)
    log_p = log_softmax(logits)
    return _ce_terms(
        log_p, np.exp(log_p), labels, np.arange(logits.shape[0]), one_hot(labels, logits.shape[1])
    )


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the
    lowest class index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    _check_batch(logits, labels)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


@dataclass
class OptimizerState:
    """Classical-momentum SGD state: one velocity vector laid out like the model."""

    velocity: ModelParams
    learning_rate: float
    momentum: float
    weight_decay: float


def init_optimizer(
    model: ModelParams,
    learning_rate: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> OptimizerState:
    if not all(math.isfinite(h) and h >= 0 for h in (learning_rate, momentum, weight_decay)):
        raise ContractViolation("optimizer hyperparameters must be finite and non-negative")
    return OptimizerState(
        velocity=model.zeros_like(),
        learning_rate=learning_rate,
        momentum=momentum,
        weight_decay=weight_decay,
    )


def sgd_step(
    model: ModelParams, grads: ModelParams, state: OptimizerState
) -> tuple[ModelParams, OptimizerState]:
    """One classical-momentum update, in place on ``model`` and ``state``.

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - lr * v

    Weight decay is applied to every parameter array, biases included.
    Returns the same (model, state) objects. Raises on non-finite
    gradients, before anything is written, so a poisoned round aborts
    loudly instead of propagating NaNs into the global model.
    """
    if grads._shapes != model._shapes:
        raise ContractViolation("gradient shapes do not match model shapes")
    if not np.isfinite(grads.flat).all():
        for i, g in enumerate(grads.arrays()):
            if not np.isfinite(g).all():
                kind = "weight" if i % 2 == 0 else "bias"
                raise FloatingPointError(f"non-finite gradient in layer {i // 2} {kind}")
    p, v = model.flat, state.velocity.flat
    step = state.weight_decay * p
    step += grads.flat
    v *= state.momentum
    v += step
    np.multiply(v, state.learning_rate, out=step)
    p -= step
    return model, state


def finite_diff_check(
    model: ModelParams,
    batch: np.ndarray,
    loss_fn,
    param_term=None,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(logits) -> (loss, dlogits)`` defines the data-dependent
    part of the objective; ``param_term(model) -> (loss, grads)`` is an
    optional extra term that acts on parameters directly (a proximal
    penalty, say). Relative error is |analytic - numeric| / max(1, |numeric|),
    maximised over every parameter coordinate. ``step`` must be finite
    and positive: a NaN step would compare as no error at all.
    """
    if not 0.0 < step < math.inf:
        raise ContractViolation(f"step must be finite and positive, got {step}")
    batch = np.asarray(batch, dtype=np.float64)
    _, dlogits = loss_fn(forward(model, batch))
    analytic = backprop(model, batch, dlogits)
    if param_term is not None:
        analytic.flat += param_term(model)[1].flat

    def total_loss(m: ModelParams) -> float:
        val = loss_fn(forward(m, batch))[0]
        if param_term is not None:
            val += param_term(m)[0]
        return val

    worst = 0.0
    probe = model.copy()
    flat = probe.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        up = total_loss(probe)
        flat[j] = orig - step
        down = total_loss(probe)
        flat[j] = orig
        numeric = (up - down) / (2.0 * step)
        err = abs(analytic.flat[j] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
