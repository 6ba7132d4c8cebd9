"""Datasets and non-IID client partitioning.

Covers the IDX image format (read and write), a synthetic
Gaussian-blob generator for desk-scale experiments, the two client
partitioning strategies (pathological sharding and per-client
Dirichlet proportions), matched per-client test splits, and smoothed
class priors. IDX files are mapped read-only and their pixels stay
the file's bytes, never copied; a consumer reads float64 rows,
pixel / 255, through ``LabeledDataset.rows``, and a client's trainer
through a ``RowView``, one batch at a time.
"""
from __future__ import annotations

import mmap
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .nn import ContractViolation, _check_labels

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# Seed-stream tags; each consumer of the experiment seed gets its own.
_MEANS_STREAM = 21
_NOISE_STREAM = 22
_ORDER_STREAM = 23
_SHARD_STREAM = 24
_DIRICHLET_STREAM = 25
_TEST_SPLIT_STREAM = 26


class IdxParseError(ValueError):
    """Malformed IDX bytes; message carries the byte offset."""


class PartitionError(ValueError):
    pass


@dataclass
class LabeledDataset:
    """Samples (M, d) plus integer labels in [0, num_classes).

    ``values`` holds the float64 features; whatever array is passed is
    converted to float64. A set built by ``load_idx`` is pixel-backed
    instead (``pixels=True``): ``values`` is the uint8 pixel array, a
    view over the file's bytes, and a pixel reads as pixel / 255.
    Consumers read float64 rows through ``rows``, which converts only
    the rows asked for; ``features`` builds the whole float64 matrix.
    """

    values: np.ndarray
    labels: np.ndarray
    num_classes: int
    pixels: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        if self.pixels:
            if self.values.dtype != np.uint8:
                raise ContractViolation(f"pixels must be uint8, got {self.values.dtype}")
        else:
            self.values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ContractViolation(f"features must be (M>=1, d), got {self.values.shape}")
        if labels.shape != (self.values.shape[0],):
            raise ContractViolation(
                f"labels length {labels.shape} does not match "
                f"{self.values.shape[0]} feature rows"
            )
        # Checked before the cast, which would truncate float labels.
        _check_labels(labels, self.num_classes)
        self.labels = labels.astype(np.int64, copy=False)

    def rows(self, idx=slice(None)) -> np.ndarray:
        """Float64 feature rows ``idx``.

        A pixel reads as one IEEE division by 255, the same operation
        as converting the whole matrix up front, so the rows are the
        same to the last bit.
        """
        if self.pixels:
            return self.values[idx] / 255.0
        return self.values[idx]

    @property
    def features(self) -> np.ndarray:
        """The whole (M, d) float64 feature matrix."""
        return self.rows()

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class RowView:
    """Rows ``indices`` of ``dataset``, converted only when read:
    ``view[i]`` is ``dataset.rows(indices[i])``. A trainer that reads
    one batch at a time so holds one batch of float64 rows, not the
    whole local set."""

    dataset: LabeledDataset
    indices: np.ndarray

    def __getitem__(self, i) -> np.ndarray:
        return self.dataset.rows(self.indices[i])

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, dim) of the float64 matrix the view stands for."""
        return (self.indices.shape[0], self.dataset.dim)


@dataclass
class ClientPartition:
    """Index sets owned by one client.

    ``train_indices`` point into the training set, ``test_indices``
    into the global test set (assigned later by ``client_test_split``;
    test samples may be shared across clients, train indices may not).
    """

    client_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)
        if self.train_indices.size < 1:
            raise PartitionError(f"client {self.client_id} received no training samples")
        # Sorted neighbours, not np.unique: numpy 2.x imports numpy.ma on
        # the first np.unique call, which no run otherwise needs.
        ordered = np.sort(self.train_indices, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise PartitionError(f"client {self.client_id} has duplicate train indices")

    @property
    def n_k(self) -> int:
        return self.train_indices.size


def _read_be_u32(data: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(data):
        raise IdxParseError(f"truncated {what} at byte offset {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx(images_bytes: bytes, labels_bytes: bytes) -> LabeledDataset:
    """Parse an IDX image/label file pair into a pixel-backed dataset.

    Each image is flattened row-major to a rows*cols feature vector.
    The pixels stay bytes, a zero-copy view over ``images_bytes``;
    ``rows`` reads them as pixel / 255, in [0, 1].
    """
    magic = _read_be_u32(images_bytes, 0, "images header")
    if magic != IMAGES_MAGIC:
        raise IdxParseError(
            f"bad images magic 0x{magic:08x} at byte offset 0, expected 0x{IMAGES_MAGIC:08x}"
        )
    count = _read_be_u32(images_bytes, 4, "images header")
    if count == 0:
        raise IdxParseError("image count at byte offset 4 is 0; need at least one image")
    rows = _read_be_u32(images_bytes, 8, "images header")
    cols = _read_be_u32(images_bytes, 12, "images header")
    for what, offset, size in (("rows", 8, rows), ("cols", 12, cols)):
        if size == 0:
            raise IdxParseError(f"image {what} at byte offset {offset} is 0; need at least one")
    need = 16 + count * rows * cols
    if len(images_bytes) != need:
        raise IdxParseError(
            f"images payload ends at byte offset {len(images_bytes)}, expected {need}"
        )

    lmagic = _read_be_u32(labels_bytes, 0, "labels header")
    if lmagic != LABELS_MAGIC:
        raise IdxParseError(
            f"bad labels magic 0x{lmagic:08x} at byte offset 0, expected 0x{LABELS_MAGIC:08x}"
        )
    lcount = _read_be_u32(labels_bytes, 4, "labels header")
    if len(labels_bytes) != 8 + lcount:
        raise IdxParseError(
            f"labels payload ends at byte offset {len(labels_bytes)}, expected {8 + lcount}"
        )
    if lcount != count:
        raise IdxParseError(
            f"count mismatch at byte offset 4: {count} images but {lcount} labels"
        )

    pixels = np.frombuffer(images_bytes, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(labels_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return LabeledDataset(pixels, labels, num_classes=int(labels.max()) + 1, pixels=True)


def save_idx(dataset: LabeledDataset, rows: int = 0, cols: int = 0) -> tuple[bytes, bytes]:
    """Serialize a dataset back to an IDX pair.

    Features must lie in [0, 1]; they are quantized to bytes, so the
    round-trip is exact only for data already on the 1/255 grid. Labels
    are bytes too, so each must be below 256. The image shape defaults
    to a single row of the full feature width.
    """
    if rows == 0 and cols == 0:
        rows, cols = 1, dataset.dim
    if rows < 1 or cols < 1:
        raise ContractViolation(f"image shape {rows}x{cols} must be positive")
    if rows * cols != dataset.dim:
        raise ContractViolation(f"{rows}x{cols} does not match feature dim {dataset.dim}")
    f = dataset.features
    # "Not all in range", so that NaN, which fails every comparison, fails.
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise ContractViolation("features must lie in [0, 1] for byte serialization")
    if dataset.labels.max() > 255:
        raise ContractViolation("labels must be below 256 for byte serialization")
    pixels = np.round(f * 255.0).astype(np.uint8)
    images = struct.pack(">IIII", IMAGES_MAGIC, dataset.num_samples, rows, cols) + pixels.tobytes()
    labels = struct.pack(">II", LABELS_MAGIC, dataset.num_samples) + \
        dataset.labels.astype(np.uint8).tobytes()
    return images, labels


def _map_file(path):
    """The file's bytes, mapped read-only; an empty file (which mmap
    refuses) reads as ``b""``, so its parse error names offset 0."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def load_idx_files(images_path, labels_path) -> LabeledDataset:
    """``load_idx`` over the two files, each mapped read-only.

    The pixels are a read-only view of the mapped images file, so no
    copy of it is made, and forked workers share its pages through the
    page cache. Do not rewrite or truncate a file while a run reads
    it: a read past the new end faults with SIGBUS, not an error.
    """
    return load_idx(_map_file(images_path), _map_file(labels_path))


def synth_generate(
    num_classes: int,
    dim: int,
    per_class: int,
    seed: int,
    spread: float,
    sample_stream: int = 0,
) -> LabeledDataset:
    """Isotropic Gaussian blobs around seed-deterministic unit-norm means.

    Class means depend only on (seed, num_classes, dim), so separate
    calls with different ``sample_stream`` values draw fresh noise
    around the same means; that is how matched train/test pairs are
    built. The noise's standard deviation ``spread`` lies in [0, inf).
    """
    if num_classes < 2 or dim < 2 or per_class < 1:
        raise ContractViolation(
            f"need num_classes >= 2, dim >= 2, per_class >= 1; "
            f"got ({num_classes}, {dim}, {per_class})"
        )
    if not 0.0 <= spread < np.inf:
        raise ContractViolation(f"spread must lie in [0, inf), got {spread}")
    mean_rng = np.random.default_rng([seed, _MEANS_STREAM])
    means = mean_rng.standard_normal((num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    labels = np.repeat(np.arange(num_classes), per_class)
    noise_rng = np.random.default_rng([seed, _NOISE_STREAM, sample_stream])
    features = means[labels] + spread * noise_rng.standard_normal((labels.size, dim))

    order_rng = np.random.default_rng([seed, _ORDER_STREAM, sample_stream])
    order = order_rng.permutation(labels.size)
    return LabeledDataset(features[order], labels[order], num_classes)


def partition_sharding(
    dataset: LabeledDataset, shards_per_client: int, num_clients: int, seed: int
) -> list[ClientPartition]:
    """Pathological non-IID split: label-sorted data cut into
    shards_per_client * num_clients equal contiguous shards, each client
    taking shards_per_client of them at random (disjointly).

    Samples beyond the largest multiple of the shard count are dropped
    from the tail of the label-sorted order. When the shard size divides
    every class count, each client sees at most shards_per_client classes.
    """
    s, k = shards_per_client, num_clients
    m = dataset.num_samples
    if s < 1 or k < 1:
        raise PartitionError(f"need shards_per_client >= 1 and num_clients >= 1, got ({s}, {k})")
    if s * k > m:
        raise PartitionError(f"{s * k} shards cannot be cut from {m} samples")
    shard_size = m // (s * k)
    order = np.argsort(dataset.labels, kind="stable")[: shard_size * s * k]
    rng = np.random.default_rng([seed, _SHARD_STREAM])
    shard_ids = rng.permutation(s * k)
    partitions = []
    for c in range(k):
        take = shard_ids[c * s : (c + 1) * s]
        idx = np.concatenate([order[j * shard_size : (j + 1) * shard_size] for j in take])
        partitions.append(ClientPartition(client_id=c, train_indices=np.sort(idx)))
    return partitions


def _apportion(proportions: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of total * proportions to integers summing to total."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def partition_dirichlet(
    dataset: LabeledDataset, alpha: float, num_clients: int, seed: int
) -> list[ClientPartition]:
    """Per-client label proportions drawn from a symmetric Dirichlet.

    Every client gets exactly M // num_clients samples, whose class mix
    follows its own Dirichlet draw, from per-class pools without
    replacement. A deficit left by exhausted classes is redistributed
    proportionally over the classes with supply, which always fills the
    budget: at least M // num_clients samples remain for each client.
    Up to M mod num_clients tail samples stay unassigned.
    """
    if not 0.0 < alpha < np.inf or num_clients < 1:
        raise PartitionError(f"need 0 < alpha < inf, num_clients > 0; got ({alpha}, {num_clients})")
    m, l = dataset.num_samples, dataset.num_classes
    budget = m // num_clients
    if budget < 1:
        raise PartitionError(
            f"{num_clients} clients cannot each get a sample from {m}; use a larger dataset"
        )
    rng = np.random.default_rng([seed, _DIRICHLET_STREAM])
    pools = [rng.permutation(pool) for pool in class_pools(dataset)]
    cursor = np.zeros(l, dtype=np.int64)  # consumed prefix of each pool

    partitions = []
    for client in range(num_clients):
        p = rng.dirichlet(np.full(l, alpha))
        remaining = np.array([pools[c].size - cursor[c] for c in range(l)])
        want = np.minimum(_apportion(p, budget), remaining)
        deficit = budget - int(want.sum())
        while deficit > 0:
            supply = remaining - want
            open_classes = supply > 0
            if not open_classes.any():
                break
            weights = np.where(open_classes, p, 0.0)
            if weights.sum() <= 0:
                weights = open_classes.astype(np.float64)
            extra = _apportion(weights / weights.sum(), deficit)
            want += np.minimum(extra, supply)
            deficit = budget - int(want.sum())
        picked = [pools[c][cursor[c] : cursor[c] + want[c]] for c in range(l) if want[c] > 0]
        cursor += want
        idx = np.sort(np.concatenate(picked))
        partitions.append(ClientPartition(client_id=client, train_indices=idx))
    return partitions


def class_pools(dataset: LabeledDataset) -> list[np.ndarray]:
    """The ascending indices of each class's samples, one array per class."""
    return [np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)]


def client_test_split(
    test_pools: list[np.ndarray],
    partition: ClientPartition,
    train_set: LabeledDataset,
    seed: int,
    budget: int = 100,
) -> np.ndarray:
    """Test indices matching the client's train label proportions.

    ``budget`` samples are apportioned over the classes present in the
    client's train split (each present class gets at least one) and
    drawn from ``test_pools``, the global test set's ``class_pools``,
    built once for all clients. Different clients may draw the same
    test samples. A class missing from the global test set is skipped
    with a warning.
    """
    if budget < 1:
        raise ContractViolation(f"budget must be >= 1, got {budget}")
    if len(test_pools) != train_set.num_classes:
        raise ContractViolation(
            f"test set has {len(test_pools)} classes, train set {train_set.num_classes}"
        )
    train_labels = train_set.labels[partition.train_indices]
    counts = np.bincount(train_labels, minlength=train_set.num_classes)
    present = np.flatnonzero(counts)
    alloc = _apportion(counts[present] / counts.sum(), budget)
    # Every present class gets at least one sample, funded by the largest
    # allocations; with more present classes than budget the total overshoots.
    alloc[alloc == 0] = 1
    overshoot = int(alloc.sum()) - budget
    while overshoot > 0 and (alloc > 1).any():
        alloc[np.argmax(alloc)] -= 1
        overshoot -= 1

    rng = np.random.default_rng([seed, _TEST_SPLIT_STREAM, partition.client_id])
    chosen = []
    for cls, n in zip(present, alloc):
        pool = test_pools[cls]
        if pool.size == 0:
            warnings.warn(
                f"class {cls} present in client {partition.client_id} train data "
                "but absent from the global test set; skipping",
                stacklevel=2,
            )
            continue
        chosen.append(rng.choice(pool, size=min(int(n), pool.size), replace=False))
    if not chosen:
        raise PartitionError(
            f"no test samples available for any class of client {partition.client_id}"
        )
    return np.sort(np.concatenate(chosen))


def class_prior(labels: np.ndarray, num_classes: int, epsilon: float = 1.0) -> np.ndarray:
    """Additively smoothed label distribution: (count_y + eps) / (n + L*eps).

    Labels are 1-D in [0, num_classes), epsilon in [0, inf); the result has length num_classes.
    """
    labels = np.asarray(labels)
    if labels.size < 1:
        raise ContractViolation("need at least one label for a class prior")
    _check_labels(labels, num_classes)
    if not 0.0 <= epsilon < np.inf:
        raise ContractViolation(f"epsilon must lie in [0, inf), got {epsilon}")
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    probs = (counts + epsilon) / (labels.size + num_classes * epsilon)
    if probs.min() <= 0.0:
        raise ContractViolation(
            "prior has a zero entry; epsilon > 0 is required when some class is absent"
        )
    return probs
