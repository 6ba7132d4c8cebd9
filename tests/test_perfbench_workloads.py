"""The benchmark's workloads and the input files it renders.

``engine.run_experiment`` trains a round's clients in worker processes
when ``engine.worker_count`` allows more than one, and in the calling
process otherwise. This reads the benchmark's workload configs
(``perfbench/run.py``, imported, never run) and checks that the image
and many-clients workloads measure the worker side and the desk
workload the calling-process side, so a change to the cap or to a
workload cannot leave one side unmeasured. No experiment runs.

It also renders a tiny split with ``perfbench/inputs.py`` (imported,
never edited) and checks that ``load_idx_files`` reads it back
pixel-backed, with rows equal to the float64 conversion, and pins the
bytes of the full corpus that the ``mnist_dir`` fixture renders with it
for the image tests. Last, it runs
``perfbench/child.py --trace`` on one-round configs of a calling-process
workload and a worker workload, so a change to the engine that the
benchmark's runner no longer drives fails here, not in the benchmark.
"""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedpsd import engine
from fedpsd.config import parse_config
from fedpsd.data import load_idx_files

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POOLED = {"image_fedpsd": True, "desk_fedpsd": False, "many_clients_fedprox": True}


def _load(name: str):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("run").WORKLOADS


def test_every_workload_is_classified(workloads):
    assert set(workloads) == set(POOLED)


@pytest.mark.parametrize("name", sorted(POOLED))
def test_workload_side_of_pool_gate(workloads, name, monkeypatch):
    # Judged for two cores, the fewest on which workers can pay,
    # whatever the core count of the machine running the test.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    template, rounds, _ = workloads[name]
    cfg = parse_config(template.format(seed=1, rounds=rounds, inputs="x"))
    count = engine.worker_count(cfg)
    assert (count > 1) == POOLED[name], f"{name}: {count} worker processes"


def test_rendered_inputs_read_back_pixel_backed(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_split(tmp_path, "images", "labels", per_class=3, rng=np.random.default_rng(5))
    ds = load_idx_files(tmp_path / "images", tmp_path / "labels")
    assert ds.pixels and ds.values.shape == (30, 784)
    assert np.array_equal(np.bincount(ds.labels), [3] * 10)
    assert ds.rows().tobytes() == (ds.values.astype(np.float64) / 255.0).tobytes()


# sha256 of each file of the stand-in corpus that the ``mnist_dir``
# fixture renders with ``perfbench/inputs.py`` from seed 4242. The image
# acceptance criteria read these bytes, so a change to the benchmark's
# renderer fails here, not as a moved accuracy.
STAND_IN_SHA256 = {
    "train-images-idx3-ubyte": "f4abb1d3a91232594db2c8d607b1cd9bbc1601c5b9e20d4021be5deea4d421f1",
    "train-labels-idx1-ubyte": "27172beeb9afdc63983e8ea80bc6c92a1deb5be5678cc027d007fc2889fc205b",
    "t10k-images-idx3-ubyte": "5f2221e68e8f66636b575e4df08e7508575690cd72ebb063715ff77caabf87e2",
    "t10k-labels-idx1-ubyte": "afa825f8a9fbd23d66d6807a04529ac1373e303ab5fba7d8c7d56060bf690d0d",
}


def test_stand_in_corpus_bytes_are_pinned(mnist_dir):
    if os.environ.get("FEDPSD_MNIST_DIR"):
        pytest.skip("the image tests read the FEDPSD_MNIST_DIR files")
    digests = {name: hashlib.sha256((mnist_dir / name).read_bytes()).hexdigest() for name in STAND_IN_SHA256}
    assert digests == STAND_IN_SHA256


# desk_fedpsd trains in the calling process; many_clients_fedprox on two
# forked workers where two cpus are usable.
@pytest.mark.parametrize("name", ["desk_fedpsd", "many_clients_fedprox"])
def test_child_runs_a_traced_round(workloads, name, tmp_path):
    template, _, _ = workloads[name]
    config = tmp_path / "config.txt"
    config.write_text(template.format(seed=1, rounds=1, inputs="x"), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    pinned = {var: "1" for var in _load("child").THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(config), str(out), "--trace"],
        cwd=tmp_path, env={**os.environ, **pinned}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert len(result["round_s"]) == 1 and 0.0 < result["final_client_top1"] <= 1.0
    spans = json.loads((out / "spans.json").read_text(encoding="utf-8"))["spans"]
    assert [span[0] for span in spans].count("engine.run_round") == 1
