"""One benchmark run: a single experiment in a fresh process.

    python3 perfbench/child.py CONFIG OUT_DIR [--trace]

Runs the experiment the way ``fedpsd run`` does: ``parse_config`` on
the config text, then ``run_experiment`` with round and sweep callbacks
that append ``metrics.csv`` and ``sweeps.csv`` rows and flush after
each. The only name wrapped in an untraced run is the module global
``fedpsd.engine.run_round``, which ``run_experiment`` looks up every
round, to time-stamp round starts. ``--trace`` also wraps every fedpsd
function bound in ``fedpsd.engine``, ``fedpsd.psd`` and ``fedpsd.data``
and writes the spans to ``OUT_DIR/spans.json``. Timings, the sample
count, the final accuracy, peak RSS and the environment go to
``OUT_DIR/result.json``.
"""
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv: list[str]) -> None:
    # BLAS and OpenMP read these once, when numpy loads; the engine's
    # thread pool must be the only parallelism.
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            sys.exit(f"child.py: {var} must be 1 in the environment, got {os.environ.get(var)!r}")
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import numpy as np

    from fedpsd import config, data, engine, metrics, nn, psd
    from tracing import Tracer

    config_path, out_dir = Path(argv[0]), Path(argv[1])
    traced = argv[2:] == ["--trace"]
    text = config_path.read_text(encoding="utf-8")

    tracer = None
    if traced:
        tracer = Tracer()
        for module in (engine, psd, data):
            tracer.install(module)
        config.parse_config = tracer.wrap(config.parse_config, "config.parse_config")
        tracer.count_calls(nn.ModelParams, "__post_init__", "nn.model_params_built")

    rounds: list[tuple[float, dict, list[int]]] = []  # (start, clients, sampled ids)
    run_round = engine.run_round

    def timed_round(server, clients, train, test, cfg):
        start = time.perf_counter()
        report = run_round(server, clients, train, test, cfg)
        rounds.append((start, clients, report.sampled))
        return report

    engine.run_round = timed_round

    with open(out_dir / "metrics.csv", "w", encoding="utf-8", newline="\n") as mfh, open(
        out_dir / "sweeps.csv", "w", encoding="utf-8", newline="\n"
    ) as sfh:
        mfh.write(metrics.CSV_HEADER + "\n")
        mfh.flush()
        sfh.write(metrics.SWEEP_HEADER + "\n")
        sfh.flush()

        def on_round(record):
            mfh.write(metrics.format_round(record) + "\n")
            mfh.flush()

        def on_sweep(sweep):
            sfh.write(f"{sweep.round},{sweep.all_client_top1:.6f}\n")
            sfh.flush()

        if tracer is not None:
            on_round = tracer.wrap(on_round, "metrics.write")
            on_sweep = tracer.wrap(on_sweep, "metrics.write")
        t0 = time.perf_counter()
        cfg = config.parse_config(text)
        series = engine.run_experiment(cfg, round_callback=on_round, sweep_callback=on_sweep)
        t_end = time.perf_counter()

    bounds = [start for start, _, _ in rounds] + [t_end]
    result = {
        "setup_s": bounds[0] - t0,
        "round_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "train_samples": sum(
            clients[cid].partition.n_k * cfg.epochs for _, clients, ids in rounds for cid in ids
        ),
        "final_client_top1": series.final_avg_client_top1(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(np),
    }
    if tracer is not None:
        tracer.dump(out_dir / "spans.json")
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
