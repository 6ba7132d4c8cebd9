"""Render the image workload's glyph corpus from a seed and write it as IDX files.

    python3 perfbench/inputs.py SEED OUT_DIR

Draws the 784-d, ten-class corpus in MNIST layout (60000 train / 10000
test, 28x28, the standard IDX filenames) the way the test suite's
stand-in fixture does: 5x7 digit glyphs upscaled 3x, randomly shifted,
dropped out, dimmed and noised. It is a copy, so that the benchmark's
inputs stay put when the tests change. The draws come from ``SEED``, so
one seed always gives the same bytes. Pixels are quantized to bytes as
soon as a digit is rendered and ``fedpsd.data.save_idx`` writes the
files a slice at a time, which keeps this process far below the size
of the float64 corpus.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from fedpsd.data import LabeledDataset, save_idx  # noqa: E402

GLYPHS = (
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
SCALE = 3
GLYPH_H, GLYPH_W = 7 * SCALE, 5 * SCALE
Y0, X0 = (28 - GLYPH_H) // 2, (28 - GLYPH_W) // 2
MAX_SHIFT = 3
SPLITS = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 6000),
    ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 1000),
)
SLICE = 5000


def render_digit(digit: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count noisy shifted renderings of one digit as (count, 784) bytes."""
    bits = np.array([[int(c) for c in row] for row in GLYPHS[digit]], dtype=np.float64)
    glyph = np.kron(bits, np.ones((SCALE, SCALE)))
    images = np.zeros((count, 28, 28))
    dys = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=count)
    dxs = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=count)
    intensity = rng.uniform(0.45, 1.0, size=count)
    keep = rng.random(size=(count, GLYPH_H, GLYPH_W)) > 0.25
    stamped = glyph[None, :, :] * keep * intensity[:, None, None]
    for dy in range(-MAX_SHIFT, MAX_SHIFT + 1):
        for dx in range(-MAX_SHIFT, MAX_SHIFT + 1):
            mask = (dys == dy) & (dxs == dx)
            if mask.any():
                y, x = Y0 + dy, X0 + dx
                images[mask, y : y + GLYPH_H, x : x + GLYPH_W] = stamped[mask]
    images += rng.normal(0.0, 0.18, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    # The byte grid save_idx quantizes to, so the slices below round-trip exactly.
    return np.round(images.reshape(count, 28 * 28) * 255.0).astype(np.uint8)


def write_split(directory: Path, images_name: str, labels_name: str,
                per_class: int, rng: np.random.Generator) -> None:
    total = 10 * per_class
    pixels = np.empty((total, 28 * 28), dtype=np.uint8)
    labels = np.repeat(np.arange(10, dtype=np.int64), per_class)
    for digit in range(10):
        pixels[digit * per_class : (digit + 1) * per_class] = render_digit(digit, per_class, rng)
    order = rng.permutation(total)
    pixels, labels = pixels[order], labels[order]
    with open(directory / images_name, "wb") as img_fh, open(directory / labels_name, "wb") as lbl_fh:
        for lo in range(0, total, SLICE):
            part = LabeledDataset(pixels[lo : lo + SLICE] / 255.0, labels[lo : lo + SLICE], num_classes=10)
            images_bytes, labels_bytes = save_idx(part, rows=28, cols=28)
            if lo == 0:
                # IDX headers carry the sample count: the whole split's
                # count goes in front of the first slice's payload.
                count = total.to_bytes(4, "big")
                img_fh.write(images_bytes[:4] + count + images_bytes[8:16])
                lbl_fh.write(labels_bytes[:4] + count)
            img_fh.write(images_bytes[16:])
            lbl_fh.write(labels_bytes[8:])


def main(argv: list[str]) -> None:
    seed, directory = int(argv[0]), Path(argv[1])
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for images_name, labels_name, per_class in SPLITS:
        write_split(directory, images_name, labels_name, per_class, rng)


if __name__ == "__main__":
    main(sys.argv[1:])
