"""Shared fixtures: a check that no test leaves a child process behind,
the numpy and BLAS build, and an MNIST-layout digit corpus on disk.

Image-scale tests read IDX files from a directory. Point the
FEDPSD_MNIST_DIR environment variable at real MNIST files to run them
against the genuine dataset; without it, a deterministic stand-in with
the same layout (60000 train / 10000 test, 28x28, ten classes, standard
IDX filenames) is rendered once per session from digit glyphs by the
benchmark's renderer, ``perfbench/inputs.py``, from seed 4242.
``tests/test_perfbench_workloads.py`` pins those bytes, so a change to
the renderer fails there.
"""
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


@pytest.fixture(scope="session")
def mnist_dir(tmp_path_factory) -> Path:
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    env = os.environ.get("FEDPSD_MNIST_DIR")
    if env:
        candidate = Path(env)
        if all((candidate / name).exists() for split in inputs.SPLITS for name in split[:2]):
            return candidate
    out = tmp_path_factory.mktemp("mnist_idx")
    rng = np.random.default_rng(4242)
    for images_name, labels_name, per_class in inputs.SPLITS:
        inputs.write_split(out, images_name, labels_name, per_class, rng)
    return out


@pytest.fixture(scope="session")
def blas_build() -> str:
    """The numpy and BLAS build, for the messages of tests whose bytes
    another BLAS may round differently."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}"


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
