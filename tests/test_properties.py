"""Property tests: invariants checked over generated inputs."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpsd.config import ConfigError, ExperimentConfig, echo_config, parse_config
from fedpsd.data import LabeledDataset, partition_dirichlet, partition_sharding
from fedpsd import nn, psd
from fedpsd.engine import aggregate
from fedpsd.nn import init_model


def _floats(lo, hi=None, exclude_min=False, exclude_max=False):
    return st.floats(
        min_value=lo, max_value=hi, exclude_min=exclude_min, exclude_max=exclude_max,
        allow_nan=False, allow_infinity=False,
    )


# One strategy per ExperimentConfig field, each drawing only values its
# key's parser accepts.
_FIELDS = dict(
    dataset=st.sampled_from(("synthetic", "mnist")),
    # '#', space and newline may draw a value echo_config must reject.
    mnist_dir=st.text(alphabet="abcXYZ0189/_.-# \n", max_size=24),
    partition=st.sampled_from(("sharding", "dirichlet")),
    shards_per_client=st.integers(min_value=1),
    dirichlet_alpha=_floats(0.0, exclude_min=True),
    num_clients=st.integers(min_value=1),
    fraction=_floats(0.0, 1.0, exclude_min=True),
    t_total=st.integers(min_value=1),
    epochs=st.integers(min_value=1),
    batch_size=st.integers(min_value=1),
    base_lr=_floats(0.0, exclude_min=True),
    lr_decay=_floats(0.0, 1.0, exclude_min=True),
    momentum=_floats(0.0, 1.0, exclude_max=True),
    weight_decay=_floats(0.0),
    hidden=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=4).map(tuple),
    algorithm=st.sampled_from(("fedavg", "fedprox", "fedpsd")),
    prox_mu=_floats(0.0),
    rhpk=st.booleans(),
    psd=st.booleans(),
    cll=st.booleans(),
    prior_epsilon=_floats(0.0),
    test_budget=st.integers(min_value=1),
    sweep_every=st.integers(min_value=0),
    workers=st.integers(min_value=1),
    seed=st.integers(min_value=0),
    synth_classes=st.integers(min_value=2),
    synth_dim=st.integers(min_value=2),
    synth_per_class=st.integers(min_value=1),
    synth_test_per_class=st.integers(min_value=1),
    synth_spread=_floats(0.0),
)


def test_strategy_covers_every_config_field():
    assert set(_FIELDS) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@given(st.builds(ExperimentConfig, **_FIELDS))
def test_echo_then_parse_is_identity(cfg):
    """Every config either reads back unchanged or is refused when echoed."""
    path = cfg.mnist_dir
    if "#" in path or "\n" in path or path != path.strip():
        with pytest.raises(ConfigError, match="'mnist_dir'"):
            echo_config(cfg)
    else:
        assert parse_config(echo_config(cfg)) == cfg


@st.composite
def _updates(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4))
    count = draw(st.integers(min_value=1, max_value=8))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=count, max_size=count))
    n_k = draw(st.lists(st.integers(min_value=1, max_value=10_000), min_size=count, max_size=count))
    return [(init_model(sizes, seed), n) for seed, n in zip(seeds, n_k)]


@settings(deadline=None)
@given(_updates())
def test_aggregate_matches_weighted_average(updates):
    expected = np.average(
        np.stack([params.flat for params, _ in updates]),
        axis=0,
        weights=[n for _, n in updates],
    )
    np.testing.assert_allclose(aggregate(updates).flat, expected, rtol=0, atol=1e-12)


@st.composite
def _labeled(draw):
    classes = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.lists(st.integers(min_value=0, max_value=classes - 1), min_size=1, max_size=120))
    return LabeledDataset(np.zeros((len(labels), 1)), labels, num_classes=classes)


def _assert_disjoint_in_range(partitions, m):
    every = np.concatenate([p.train_indices for p in partitions])
    assert np.unique(every).size == every.size
    assert every.min() >= 0 and every.max() < m


@settings(deadline=None)
@given(_labeled(), st.data())
def test_sharding_gives_disjoint_equal_shares(ds, data):
    m = ds.num_samples
    k = data.draw(st.integers(min_value=1, max_value=m))
    s = data.draw(st.integers(min_value=1, max_value=m // k))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    partitions = partition_sharding(ds, s, k, seed)
    assert [p.client_id for p in partitions] == list(range(k))
    assert all(p.n_k == s * (m // (s * k)) for p in partitions)
    _assert_disjoint_in_range(partitions, m)


@settings(deadline=None)
@given(_labeled(), st.data())
def test_dirichlet_gives_disjoint_bounded_shares(ds, data):
    m = ds.num_samples
    k = data.draw(st.integers(min_value=1, max_value=m))
    alpha = data.draw(_floats(1e-3, 100.0))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    partitions = partition_dirichlet(ds, alpha, k, seed)
    assert [p.client_id for p in partitions] == list(range(k))
    assert all(p.n_k == m // k for p in partitions)
    _assert_disjoint_in_range(partitions, m)


def _per_batch_chain(logits, labels, log_prior, teacher):
    """The trainer's per-batch loss and gradient as ``softmax_ce`` and
    ``_kd_rows`` computed them, one log-softmax each: the byte oracle of
    ``_batch_loss``."""
    b = logits.shape[0]
    rows = np.arange(b)

    def log_softmax(z):
        shifted = z - z.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    log_p = log_softmax(logits if log_prior is None else logits + log_prior)
    loss = float(-log_p[rows, labels].mean())
    dlogits = np.exp(log_p)
    dlogits[rows, labels] -= 1.0
    dlogits /= b
    if teacher is None:
        return loss, dlogits
    log_q = log_softmax(logits)
    probs = np.exp(log_q)
    t = teacher
    neg_entropy = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0).sum(axis=1)
    cross = -(t * log_q).sum(axis=1)
    kd_loss = float((neg_entropy + cross).mean())
    return loss + kd_loss, dlogits + (probs - t) / b


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=160),
    batch_size=st.integers(min_value=1, max_value=64),
    classes=st.integers(min_value=2, max_value=12),
    scale=_floats(0.0, 700.0),
    alpha=st.sampled_from((0.0, 0.3, 1.0)),
    cll=st.booleans(),
    distill=st.booleans(),
    fill=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_trainer_loss_kernel_matches_the_per_batch_chain_bytewise(
    n, batch_size, classes, scale, alpha, cll, distill, fill, seed
):
    """One epoch of batches as the trainer runs them: labels, one-hot
    rows, teacher and the teacher's entropy gathered once, in batch
    order, then sliced per batch, the last batch short whenever
    batch_size does not divide n. The student probabilities a teacher
    or a cache fill asks for are exp(log_softmax) of the plain logits."""
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-scale, scale, size=(n, classes))
    labels = rng.integers(0, classes, size=n)
    prior = rng.dirichlet(np.full(classes, 0.5)) + 1e-3
    log_prior = np.log(prior / prior.sum()) if cll else None
    teacher = None
    if distill:
        raw = rng.dirichlet(np.ones(classes), size=n)
        raw[rng.random((n, classes)) < 0.4] = 0.0  # exact zeros
        raw[np.arange(n), rng.integers(0, classes, size=n)] += 0.5
        onehots = np.eye(classes)[labels]
        teacher = alpha * (raw / raw.sum(axis=1, keepdims=True)) + (1.0 - alpha) * onehots
    rows = np.arange(min(n, batch_size))
    perm = rng.permutation(n)
    epoch_labels = labels[perm]
    epoch_onehots = np.eye(classes)[epoch_labels]
    if distill:
        epoch_teacher = teacher[perm]
        neg_entropy = psd._neg_entropy(epoch_teacher)
    for start in range(0, n, batch_size):
        idx, batch = perm[start : start + batch_size], slice(start, start + batch_size)
        kd = None if teacher is None else (epoch_teacher[batch], neg_entropy[batch])
        got = psd._batch_loss(
            logits[idx], epoch_labels[batch], rows[: idx.size], epoch_onehots[batch], log_prior,
            kd, fill,
        )
        want = _per_batch_chain(logits[idx], labels[idx], log_prior, None if teacher is None else teacher[idx])
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        if distill or fill:
            assert got[2].tobytes() == np.exp(nn.log_softmax(logits[idx])).tobytes()
        else:
            assert got[2] is None


@settings(deadline=None, max_examples=100)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
    classes=st.integers(min_value=2, max_value=6),
    b=st.integers(min_value=1, max_value=9),
    cll=st.booleans(),
    distill=st.booleans(),
    fill=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_step_kernels_leave_their_inputs_alone(sizes, classes, b, cll, distill, fill, seed):
    """The trainer's per-step kernels write in place only into arrays
    they allocated: every input's bytes survive, one-row batches too."""
    rng = np.random.default_rng(seed)
    model = init_model(sizes + [classes], seed=seed)

    def frozen(*arrays):
        return [a.tobytes() for a in arrays]

    batch = rng.standard_normal((b, sizes[0]))
    before = frozen(batch, model.flat)
    logits, acts = nn._forward_cached(model, batch)
    assert frozen(batch, model.flat) == before

    dlogits = rng.standard_normal(logits.shape)
    before = frozen(dlogits, model.flat, *acts)
    nn._backprop_from_acts(model, acts, dlogits, model.zeros_like())
    assert frozen(dlogits, model.flat, *acts) == before

    before = frozen(logits)
    nn.log_softmax(logits)
    assert frozen(logits) == before

    labels = rng.integers(0, classes, size=b)
    onehots = np.eye(classes)[labels]
    inputs = [logits, labels, onehots]
    log_prior = kd = None
    if cll:
        log_prior = np.log(rng.dirichlet(np.ones(classes)) + 1e-3)
        inputs.append(log_prior)
    if distill:
        teacher = rng.dirichlet(np.ones(classes), size=b)
        kd = (teacher, psd._neg_entropy(teacher))
        inputs.extend(kd)
    before = frozen(*inputs)
    psd._batch_loss(logits, labels, np.arange(b), onehots, log_prior, kd, fill)
    assert frozen(*inputs) == before
