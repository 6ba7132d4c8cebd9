"""Shared fixtures: a check that no test leaves a child process behind,
and an MNIST-layout digit corpus on disk.

Image-scale tests read IDX files from a directory. Point the
FEDPSD_MNIST_DIR environment variable at real MNIST files to run them
against the genuine dataset; without it, a deterministic stand-in with
the same layout (60000 train / 10000 test, 28x28, ten classes, standard
IDX filenames) is rendered once per session from digit glyphs.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from fedpsd.data import LabeledDataset, save_idx

# 5x7 bitmaps, one per digit, upscaled 3x onto the 28x28 canvas.
_GLYPHS = (
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
)

_SCALE = 3
_GLYPH_H, _GLYPH_W = 7 * _SCALE, 5 * _SCALE
_Y0, _X0 = (28 - _GLYPH_H) // 2, (28 - _GLYPH_W) // 2
_MAX_SHIFT = 3

_FILENAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _glyph(digit: int) -> np.ndarray:
    bits = np.array([[int(c) for c in row] for row in _GLYPHS[digit]], dtype=np.float64)
    return np.kron(bits, np.ones((_SCALE, _SCALE)))


def _render_digit(digit: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count noisy shifted renderings of one digit, flattened to 784."""
    glyph = _glyph(digit)
    images = np.zeros((count, 28, 28))
    dys = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=count)
    dxs = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=count)
    intensity = rng.uniform(0.45, 1.0, size=count)
    keep = rng.random(size=(count, _GLYPH_H, _GLYPH_W)) > 0.25
    stamped = glyph[None, :, :] * keep * intensity[:, None, None]
    for dy in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
        for dx in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
            mask = (dys == dy) & (dxs == dx)
            if not mask.any():
                continue
            y, x = _Y0 + dy, _X0 + dx
            images[mask, y : y + _GLYPH_H, x : x + _GLYPH_W] = stamped[mask]
    images += rng.normal(0.0, 0.18, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images.reshape(count, 28 * 28)


def _render_split(per_class: int, rng: np.random.Generator) -> LabeledDataset:
    total = 10 * per_class
    features = np.empty((total, 28 * 28))
    labels = np.empty(total, dtype=np.int64)
    for digit in range(10):
        lo = digit * per_class
        features[lo : lo + per_class] = _render_digit(digit, per_class, rng)
        labels[lo : lo + per_class] = digit
    order = rng.permutation(total)
    return LabeledDataset(features[order], labels[order], num_classes=10)


def write_digit_corpus(directory: Path) -> None:
    """Render the full stand-in corpus and write the four IDX files."""
    rng = np.random.default_rng(4242)
    train = _render_split(6000, rng)
    test = _render_split(1000, rng)
    for split, (img_name, lbl_name) in zip(
        (train, test), (_FILENAMES[:2], _FILENAMES[2:])
    ):
        images_bytes, labels_bytes = save_idx(split, rows=28, cols=28)
        (directory / img_name).write_bytes(images_bytes)
        (directory / lbl_name).write_bytes(labels_bytes)


@pytest.fixture(scope="session")
def mnist_dir(tmp_path_factory) -> Path:
    env = os.environ.get("FEDPSD_MNIST_DIR")
    if env:
        candidate = Path(env)
        if all((candidate / name).exists() for name in _FILENAMES):
            return candidate
    out = tmp_path_factory.mktemp("mnist_idx")
    write_digit_corpus(out)
    return out


@pytest.fixture(autouse=True)
def no_unreaped_child_process():
    """Fails a test that leaves a child process running or unreaped.

    Engine workers are forked from the test process, so a pool that is
    not closed shows up here as a child of this process.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    # pid 0: a child still running; otherwise one that had exited
    # unreaped (and is reaped now).
    pytest.fail(f"the test left a child process behind (waitpid returned pid {pid})")
