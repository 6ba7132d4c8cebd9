"""The benchmark's workloads and the input files it renders.

``engine.run_experiment`` trains a round's clients in worker processes
when ``engine.worker_count`` allows more than one, and on the calling
thread otherwise. This reads the benchmark's workload configs
(``perfbench/run.py``, imported, never run) and checks that the image
and many-clients workloads measure the worker side and the desk
workload the calling-thread side, so a change to the cap or to a
workload cannot leave one side unmeasured. No experiment runs.

It also renders a tiny split with ``perfbench/inputs.py`` (imported,
never edited) and checks that ``load_idx_files`` reads it back
pixel-backed, with rows equal to the float64 conversion.
"""
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from fedpsd import engine
from fedpsd.config import parse_config
from fedpsd.data import load_idx_files

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POOLED = {"image_fedpsd": True, "desk_fedpsd": False, "many_clients_fedprox": True}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.WORKLOADS


def test_every_workload_is_classified(workloads):
    assert set(workloads) == set(POOLED)


@pytest.mark.parametrize("name", sorted(POOLED))
def test_workload_side_of_pool_gate(workloads, name, monkeypatch):
    # Judged for two cores, the fewest on which workers can pay,
    # whatever the core count of the machine running the test.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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
