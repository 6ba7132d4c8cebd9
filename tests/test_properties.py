"""Property tests: invariants checked over generated inputs."""
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpsd.config import ExperimentConfig, echo_config, parse_config
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
    mnist_dir=st.text(alphabet="abcXYZ0189/_.-", max_size=24),
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
    psd_fresh_teacher=st.booleans(),
    kd_epoch1_fallback=st.booleans(),
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
