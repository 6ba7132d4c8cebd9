"""Dataset, IDX format, and partitioner tests."""
import struct
import warnings

import numpy as np
import pytest

from fedpsd.data import (
    ClientPartition,
    IdxParseError,
    LabeledDataset,
    PartitionError,
    class_prior,
    client_test_split,
    load_idx,
    partition_dirichlet,
    partition_sharding,
    save_idx,
    synth_generate,
)
from fedpsd.nn import ContractViolation, forward, init_model, init_optimizer, backprop, sgd_step, softmax_ce, top1_accuracy


def _idx_pair(pixel_rows, labels, rows=2, cols=2):
    """Hand-built IDX bytes, independent of the writer under test."""
    n = len(pixel_rows)
    images = struct.pack(">IIII", 0x00000803, n, rows, cols)
    for px in pixel_rows:
        images += bytes(px)
    lab = struct.pack(">II", 0x00000801, n) + bytes(labels)
    return images, lab


class TestIdx:
    def test_hand_built_pair(self):
        images, labels = _idx_pair([[0, 255, 0, 255], [255, 0, 255, 0]], [3, 1])
        ds = load_idx(images, labels)
        assert ds.num_samples == 2 and ds.dim == 4
        assert np.array_equal(ds.features, [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
        assert np.array_equal(ds.labels, [3, 1])
        assert ds.num_classes == 4

    def test_wrong_labels_magic(self):
        images, _ = _idx_pair([[0, 0, 0, 0]], [0])
        bad_labels = struct.pack(">II", 0x00000803, 1) + bytes([0])
        with pytest.raises(IdxParseError, match="magic 0x00000803"):
            load_idx(images, bad_labels)

    def test_wrong_images_magic(self):
        images, labels = _idx_pair([[0, 0, 0, 0]], [0])
        with pytest.raises(IdxParseError, match="offset 0"):
            load_idx(b"\x00\x00\x08\x01" + images[4:], labels)

    def test_truncated_images(self):
        images, labels = _idx_pair([[0, 255, 0, 255]], [1])
        with pytest.raises(IdxParseError, match="byte offset"):
            load_idx(images[:-2], labels)

    def test_truncated_header(self):
        with pytest.raises(IdxParseError, match="offset"):
            load_idx(b"\x00\x00", b"\x00\x00")

    def test_empty_pair_names_the_count(self):
        images, labels = _idx_pair([], [])
        with pytest.raises(IdxParseError, match="byte offset 4"):
            load_idx(images, labels)

    def test_zero_image_dimension_names_the_offset(self):
        lab = struct.pack(">II", 0x00000801, 2) + bytes([0, 1])
        for rows, cols, offset in ((0, 5, 8), (5, 0, 12)):
            images = struct.pack(">IIII", 0x00000803, 2, rows, cols)
            with pytest.raises(IdxParseError, match=f"byte offset {offset}"):
                load_idx(images, lab)

    def test_count_mismatch(self):
        images, _ = _idx_pair([[0, 0, 0, 0], [1, 1, 1, 1]], [0, 1])
        _, labels = _idx_pair([[0, 0, 0, 0]], [0])
        with pytest.raises(IdxParseError, match="mismatch"):
            load_idx(images, labels)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(
            rng.integers(0, 256, size=(7, 6)).astype(float) / 255.0,
            rng.integers(0, 3, size=7),
            num_classes=3,
        )
        images, labels = save_idx(ds, rows=2, cols=3)
        back = load_idx(images, labels)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_rows_equal_float_conversion_for_every_byte(self):
        values = np.arange(256, dtype=np.uint8)
        images, labels = _idx_pair(values.reshape(64, 4).tolist(), [0] * 64)
        ds = load_idx(images, labels)
        want = values.reshape(64, 4).astype(np.float64) / 255.0
        assert ds.rows().dtype == np.float64
        assert ds.rows().tobytes() == want.tobytes()
        idx = np.array([63, 0, 17, 17])
        assert ds.rows(idx).tobytes() == want[idx].tobytes()
        assert ds.features.tobytes() == want.tobytes()

    def test_load_keeps_pixels_as_a_view_of_the_bytes(self):
        images, labels = _idx_pair([[0, 255, 9, 1], [3, 4, 5, 6]], [0, 1])
        ds = load_idx(images, labels)
        assert ds.pixels and ds.values.dtype == np.uint8
        assert np.shares_memory(ds.values, np.frombuffer(images, dtype=np.uint8))

    def test_uint8_array_given_to_constructor_reads_as_integers(self):
        ds = LabeledDataset(np.array([[0, 255], [7, 1]], dtype=np.uint8), [0, 1], num_classes=2)
        assert not ds.pixels and ds.values.dtype == np.float64
        assert np.array_equal(ds.rows(), [[0.0, 255.0], [7.0, 1.0]])

    def test_pixel_backed_set_needs_bytes(self):
        with pytest.raises(ContractViolation, match="uint8"):
            LabeledDataset(np.zeros((2, 2)), [0, 1], num_classes=2, pixels=True)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.0], [False, True]], ids=str)
    def test_non_integer_labels_rejected_not_truncated(self, labels):
        with pytest.raises(ContractViolation, match="integers"):
            LabeledDataset(np.zeros((2, 2)), labels, num_classes=2)

    def test_integer_labels_of_any_width_read_as_int64(self):
        ds = LabeledDataset(np.zeros((2, 2)), np.array([1, 0], dtype=np.uint8), num_classes=2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    def test_save_rejects_out_of_range(self):
        ds = LabeledDataset(np.array([[1.5, 0.0]]), np.array([0]), num_classes=1)
        with pytest.raises(ContractViolation):
            save_idx(ds)


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(2, 2, 5, seed=7, spread=0.3)
        b = synth_generate(2, 2, 5, seed=7, spread=0.3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_spread_zero_hits_means_exactly(self):
        ds = synth_generate(3, 4, 10, seed=1, spread=0.0)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.all(block == block[0])
            assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-12)

    def test_streams_share_means(self):
        train = synth_generate(3, 4, 10, seed=1, spread=0.0, sample_stream=0)
        test = synth_generate(3, 4, 5, seed=1, spread=0.0, sample_stream=1)
        for c in range(3):
            assert np.allclose(
                train.features[train.labels == c][0],
                test.features[test.labels == c][0],
                atol=0,
            )

    def test_streams_differ_in_noise(self):
        a = synth_generate(2, 4, 5, seed=1, spread=0.5, sample_stream=0)
        b = synth_generate(2, 4, 5, seed=1, spread=0.5, sample_stream=1)
        assert not np.array_equal(a.features, b.features)

    def test_linear_probe_separability(self):
        ds = synth_generate(4, 8, 50, seed=3, spread=0.1)
        model = init_model([8, 4], seed=0)
        state = init_optimizer(model, learning_rate=0.5)
        for _ in range(300):
            logits = forward(model, ds.features)
            _, dlogits = softmax_ce(logits, ds.labels)
            grads = backprop(model, ds.features, dlogits)
            model, state = sgd_step(model, grads, state)
        acc = top1_accuracy(forward(model, ds.features), ds.labels)
        assert acc >= 0.99

    def test_bad_arguments(self):
        with pytest.raises(ContractViolation):
            synth_generate(1, 4, 5, seed=0, spread=0.1)


class TestSharding:
    def test_single_client_owns_everything(self):
        ds = synth_generate(3, 4, 10, seed=0, spread=0.2)
        parts = partition_sharding(ds, shards_per_client=3, num_clients=1, seed=0)
        assert len(parts) == 1
        assert np.array_equal(parts[0].train_indices, np.arange(ds.num_samples))
        assert set(ds.labels[parts[0].train_indices]) == {0, 1, 2}

    def test_equal_sizes_bounded_classes_disjoint(self):
        ds = synth_generate(10, 4, 50, seed=1, spread=0.2)  # 500 samples
        parts = partition_sharding(ds, shards_per_client=2, num_clients=10, seed=4)
        seen = np.concatenate([p.train_indices for p in parts])
        assert np.unique(seen).size == seen.size
        for p in parts:
            assert p.n_k == 50
            assert np.unique(ds.labels[p.train_indices]).size <= 2

    def test_deterministic(self):
        ds = synth_generate(4, 4, 25, seed=2, spread=0.2)
        a = partition_sharding(ds, 2, 5, seed=9)
        b = partition_sharding(ds, 2, 5, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.train_indices, y.train_indices)

    def test_truncates_remainder(self):
        ds = synth_generate(3, 4, 11, seed=0, spread=0.2)  # 33 samples
        parts = partition_sharding(ds, 2, 5, seed=0)  # 10 shards of 3 -> 30 used
        assert sum(p.n_k for p in parts) == 30

    def test_too_many_shards(self):
        ds = synth_generate(2, 4, 3, seed=0, spread=0.2)
        with pytest.raises(PartitionError):
            partition_sharding(ds, 4, 2, seed=0)


class TestDirichlet:
    def test_unique_nonempty_bounded(self):
        ds = synth_generate(5, 4, 40, seed=0, spread=0.2)
        parts = partition_dirichlet(ds, alpha=0.3, num_clients=8, seed=1)
        assert len(parts) == 8
        seen = np.concatenate([p.train_indices for p in parts])
        assert np.unique(seen).size == seen.size
        assert seen.size <= ds.num_samples
        for p in parts:
            assert p.n_k >= 1

    def test_deterministic(self):
        ds = synth_generate(5, 4, 40, seed=0, spread=0.2)
        a = partition_dirichlet(ds, 0.5, 6, seed=3)
        b = partition_dirichlet(ds, 0.5, 6, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.train_indices, y.train_indices)

    def test_huge_alpha_near_uniform(self):
        ds = synth_generate(10, 4, 500, seed=0, spread=0.2)
        for seed in range(3):
            parts = partition_dirichlet(ds, alpha=1e6, num_clients=10, seed=seed)
            for p in parts:
                dist = np.bincount(ds.labels[p.train_indices], minlength=10) / p.n_k
                tv = 0.5 * np.abs(dist - 0.1).sum()
                assert tv < 0.05

    def test_small_alpha_concentrates(self):
        ds = synth_generate(10, 4, 500, seed=0, spread=0.2)
        skewed = total = 0
        for seed in range(10):
            for p in partition_dirichlet(ds, alpha=0.05, num_clients=10, seed=seed):
                dist = np.bincount(ds.labels[p.train_indices], minlength=10) / p.n_k
                top2 = np.sort(dist)[-2:].sum()
                skewed += top2 >= 0.8
                total += 1
        assert skewed >= total / 2

    def test_more_clients_than_samples(self):
        ds = synth_generate(2, 4, 2, seed=0, spread=0.2)
        with pytest.raises(PartitionError, match="larger"):
            partition_dirichlet(ds, 0.5, 10, seed=0)


class TestClientTestSplit:
    def test_single_class_client(self):
        train = synth_generate(5, 4, 20, seed=0, spread=0.2)
        test = synth_generate(5, 4, 10, seed=0, spread=0.2, sample_stream=1)
        part = ClientPartition(0, np.flatnonzero(train.labels == 3))
        idx = client_test_split(test, part, train, seed=0, budget=10)
        assert set(test.labels[idx]) == {3}

    def test_fifty_fifty_budget_20(self):
        feats = np.zeros((40, 3))
        train = LabeledDataset(feats, np.repeat([0, 1], 20), num_classes=2)
        test = LabeledDataset(np.zeros((60, 3)), np.repeat([0, 1], 30), num_classes=2)
        part = ClientPartition(1, np.arange(40))
        idx = client_test_split(test, part, train, seed=5, budget=20)
        counts = np.bincount(test.labels[idx], minlength=2)
        assert list(counts) == [10, 10]

    def test_deterministic(self):
        train = synth_generate(5, 4, 20, seed=0, spread=0.2)
        test = synth_generate(5, 4, 10, seed=0, spread=0.2, sample_stream=1)
        part = ClientPartition(2, np.arange(30))
        a = client_test_split(test, part, train, seed=0, budget=15)
        b = client_test_split(test, part, train, seed=0, budget=15)
        assert np.array_equal(a, b)

    def test_each_present_class_represented(self):
        train = synth_generate(5, 4, 20, seed=0, spread=0.2)
        test = synth_generate(5, 4, 10, seed=0, spread=0.2, sample_stream=1)
        part = ClientPartition(3, np.arange(train.num_samples))
        idx = client_test_split(test, part, train, seed=0, budget=7)
        assert set(test.labels[idx]) == set(range(5))

    def test_missing_test_class_warns(self):
        train = LabeledDataset(np.zeros((10, 3)), np.repeat([0, 1], 5), num_classes=2)
        test = LabeledDataset(np.zeros((5, 3)), np.zeros(5, dtype=int), num_classes=2)
        part = ClientPartition(0, np.arange(10))
        with pytest.warns(UserWarning, match="class 1"):
            idx = client_test_split(test, part, train, seed=0, budget=8)
        assert set(test.labels[idx]) == {0}


class TestClassPrior:
    def test_unsmoothed_balanced(self):
        prior = class_prior(np.repeat([0, 1], 5), 2, epsilon=0.0)
        assert np.array_equal(prior, [0.5, 0.5])

    def test_add_one_smoothing(self):
        prior = class_prior(np.zeros(4, dtype=int), 2, epsilon=1.0)
        assert np.allclose(prior, [5 / 6, 1 / 6], atol=1e-15)

    def test_always_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            l = int(rng.integers(2, 12))
            labels = rng.integers(0, l, size=int(rng.integers(1, 100)))
            eps = float(rng.uniform(0.01, 3.0))
            prior = class_prior(labels, l, epsilon=eps)
            assert abs(prior.sum() - 1.0) < 1e-12
            assert prior.min() > 0

    def test_labels_outside_range_rejected(self):
        with pytest.raises(ContractViolation, match=r"\[0, 3\)"):
            class_prior(np.array([0, 5]), 3)
        with pytest.raises(ContractViolation, match=r"\[0, 3\)"):
            class_prior(np.array([-1, 2]), 3)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ContractViolation, match="integers"):
            class_prior(np.array([0.5, 1.0]), 3)

    def test_zero_epsilon_with_absent_class(self):
        with pytest.raises(ContractViolation):
            class_prior(np.zeros(4, dtype=int), 2, epsilon=0.0)
