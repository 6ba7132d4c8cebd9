"""The fedpsd benchmark: how long one experiment takes, set-up then rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src/``. The seed becomes the experiment seed and, for the image
workload, the seed of the rendered corpus, which another process draws
before anything is timed. Then, for about ``S`` seconds, fresh
processes each run the workload's experiment once (``child.py``), with
every BLAS/OpenMP thread setting pinned to 1. Each run's inputs are
checked against their digests first and its ``metrics.csv`` and
``sweeps.csv`` after: row counts, finite in-range values, and bytes
identical to the other runs of the set.

``--trace 0`` prints the end-to-end metrics, from untraced runs only:
median set-up time; the median round time and the training throughput,
both from each round's fastest time over the runs; the tail round time
over every round of every run; peak RSS of the run process and the
final accuracy. ``--trace 1``
alternates untraced and traced runs and prints the per-layer metrics
of the traced ones (medians over them, times in seconds summed over one
run) and the tracing overhead. The last line of output is one JSON
object: ``correct``, ``attempted`` and ``failed`` runs, and ``metrics``.
The exit code is 0 only when every run passed its checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS
from tracing import EXACT, PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# A run that exceeds this is killed and counted as failed, so that the
# whole benchmark ends within three minutes.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("round_s.p50", "s"),
    ("round_s.tail", "s"),
    ("train_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
    ("final_client_top1", "fraction"),
)

# DESK_BASE of the acceptance tests: tiny matrices, so per-step Python
# and numpy overhead dominates; one worker, the plain baseline.
DESK_FEDPSD = """\
dataset = synthetic
synth_classes = 10
synth_dim = 32
synth_per_class = 500
synth_test_per_class = 100
synth_spread = 0.5
partition = sharding
S = 2
K = 20
C = 0.5
E = 5
t_total = {rounds}
batch_size = 50
base_lr = 0.005
momentum = 0.0
hidden = 64,32
prior_epsilon = 2500.0
algorithm = fedpsd
rhpk = true
psd = true
cll = true
sweep_every = 10
workers = 1
seed = {seed}
"""

# The 784-d glyph corpus with hidden 128: BLAS-bound forward and
# backward, set-up dominated by reading 47 MB of IDX bytes, and two
# workers, which help here because BLAS releases the GIL. One sweep,
# at the end of the run.
IMAGE_FEDPSD = """\
dataset = mnist
mnist_dir = {inputs}
partition = sharding
S = 2
K = 20
C = 0.25
t_total = {rounds}
sweep_every = {rounds}
hidden = 128
algorithm = fedpsd
workers = 2
seed = {seed}
"""

# Many small uneven clients on the FedProx path, with a 100-client
# evaluation sweep every round; two workers, which hurt here.
MANY_CLIENTS_FEDPROX = """\
dataset = synthetic
synth_classes = 10
synth_per_class = 1000
synth_dim = 32
hidden = 64,32
partition = dirichlet
dirichlet_alpha = 0.1
K = 100
C = 0.2
t_total = {rounds}
algorithm = fedprox
sweep_every = 1
workers = 2
seed = {seed}
"""

# name -> (config template, rounds per run, needs the rendered corpus)
WORKLOADS = {
    "desk_fedpsd": (DESK_FEDPSD, 60, False),
    "image_fedpsd": (IMAGE_FEDPSD, 4, True),
    "many_clients_fedprox": (MANY_CLIENTS_FEDPROX, 30, False),
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_keys(text: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten values above its
    nearest-rank position, and its value; the median below 20 values."""
    n = len(values)
    q = math.floor(100 * (1 - 10 / n))
    if q <= 50:
        return 50, statistics.median(values)
    return q, sorted(values)[math.ceil(q * n / 100) - 1]


def best_rounds(runs: list[dict]) -> list[float]:
    """Each round's fastest time over the runs.

    Every run of a set does the same work round by round (their outputs
    are byte-identical), so the fastest of a round's times is its cost
    with the least interference. On a shared 2-vCPU virtual machine a
    single-threaded run was seen to slow by up to 1.6x for seconds to a
    minute at a time under co-tenant load, which makes pooled round times
    bimodal and their median jump between the two modes from one set of
    runs to the next.
    """
    return [min(times) for times in zip(*(r["round_s"] for r in runs))]


def _finite_in(raw: str, lo: float, hi: float) -> bool:
    value = float(raw)
    return math.isfinite(value) and lo <= value <= hi


def check_outputs(out: Path, keys: dict[str, str], result: dict) -> list[str]:
    """Problems with one run's CSVs and result; empty when it passed."""
    rounds, k = int(keys["t_total"]), int(keys["K"])
    sampled_count = math.ceil(float(keys["C"]) * k)
    sweep_every = int(keys["sweep_every"])
    problems = []

    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["round,avg_client_top1,server_top1,mean_local_loss,sampled"]:
        problems.append("metrics.csv: wrong header")
    if len(lines) != rounds + 1:
        problems.append(f"metrics.csv: {len(lines) - 1} rows, expected {rounds}")
    client_top1 = []
    for t, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        try:
            ids = [int(c) for c in fields[4].split(";")]
            ok = (
                len(fields) == 5
                and fields[0] == str(t)
                and _finite_in(fields[1], 0.0, 1.0)
                and _finite_in(fields[2], 0.0, 1.0)
                and _finite_in(fields[3], 0.0, math.inf)
                and len(ids) == sampled_count
                and ids == sorted(set(ids))
                and 0 <= ids[0] and ids[-1] < k
            )
            client_top1.append(float(fields[1]))
        except (ValueError, IndexError):
            ok = False
        if not ok:
            problems.append(f"metrics.csv: bad row {t}: {line!r}")
            break

    lines = (out / "sweeps.csv").read_text(encoding="utf-8").splitlines()
    want = [t for t in range(1, rounds + 1) if sweep_every and t % sweep_every == 0]
    got = [line.split(",")[0] for line in lines[1:]]
    if lines[:1] != ["round,all_client_top1"] or got != [str(t) for t in want]:
        problems.append(f"sweeps.csv: rows for rounds {got}, expected {want}")
    elif not all(_finite_in(line.split(",", 1)[1], 0.0, 1.0) for line in lines[1:]):
        problems.append("sweeps.csv: accuracy out of [0, 1]")

    final = result["final_client_top1"]
    if client_top1 and abs(final - statistics.fmean(client_top1[-5:])) > 1e-6:
        problems.append(f"final_client_top1 {final} does not match metrics.csv")
    if not 0.0 < final <= 1.0:
        problems.append(f"final_client_top1 {final} out of (0, 1]")
    if len(result["round_s"]) != rounds or min(result["round_s"]) <= 0.0:
        problems.append("round times missing or not positive")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per run instead of the workload's own (smoke checks)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedpsd" / "__init__.py").is_file():
        print(f"error: no fedpsd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another benchmark is still using it
            pass


def bench(args, work: Path) -> int:
    started = time.perf_counter()
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    template, rounds, needs_corpus = WORKLOADS[args.workload]
    rounds = args.rounds or rounds
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    inputs = work / "inputs"
    inputs.mkdir()
    if needs_corpus:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), str(args.seed), str(inputs)],
            env=env, check=True, timeout=DEADLINE_S / 2,
        )
    # Runs start in the work directory, so the config names the corpus
    # by a relative path and its text depends only on workload and seed.
    text = template.format(seed=args.seed, rounds=rounds, inputs=inputs.name)
    (inputs / "config.txt").write_text(text, encoding="utf-8")
    keys = parse_keys(text)
    input_digests = {p.name: sha256(p) for p in sorted(inputs.iterdir())}
    for name, digest in input_digests.items():
        print(f"input {name} sha256 {digest}")

    runs: list[dict] = []
    failed = 0
    output_digests: dict[str, str] = {}
    wall: list[float] = []
    # Untraced, set-up time is a median over runs; traced, one run of
    # each kind gives the split and the overhead.
    min_runs = 2 if args.trace else 3
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(wall) % 2 == 1
        number = len(wall) + 1
        out = work / f"run{number}"
        out.mkdir()
        t0 = time.perf_counter()
        problems = []
        if {p.name: sha256(p) for p in sorted(inputs.iterdir())} != input_digests:
            problems.append("inputs changed")
        cmd = [sys.executable, str(HERE / "child.py"), str(inputs / "config.txt"), str(out)]
        try:
            proc = subprocess.run(
                cmd + (["--trace"] if traced else []), cwd=work, env=env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - (t0 - started)),
            )
        except subprocess.TimeoutExpired:
            proc = None
            problems.append("timed out")
        result = None
        if proc is not None and proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        elif proc is not None:
            result = json.loads((out / "result.json").read_text(encoding="utf-8"))
            problems += check_outputs(out, keys, result)
            for name in ("metrics.csv", "sweeps.csv"):
                digest = output_digests.setdefault(name, sha256(out / name))
                if sha256(out / name) != digest:
                    problems.append(f"{name} differs from run 1")
            if runs and result["final_client_top1"] != runs[0]["final_client_top1"]:
                problems.append("final_client_top1 differs from run 1")
            if traced:
                result["layers"] = layer_metrics(
                    json.loads((out / "spans.json").read_text(encoding="utf-8"))
                )
        wall.append(time.perf_counter() - t0)
        kind = "traced" if traced else "untraced"
        if problems:
            failed += 1
            print(f"run {number} ({kind}) FAILED: " + "; ".join(problems))
        else:
            result["traced"] = traced
            runs.append(result)
            print(
                f"run {number} ({kind}): {rounds} rounds, setup {result['setup_s']:.4f} s, "
                f"rounds {sum(result['round_s']):.3f} s, wall {wall[-1]:.2f} s"
            )
        shutil.rmtree(out)
        now = time.perf_counter()
        if len(wall) >= min_runs and now + statistics.median(wall) > deadline:
            break
        if now - started + max(wall) > DEADLINE_S:
            break

    for name, digest in output_digests.items():
        print(f"output {name} sha256 {digest} (run 1; every run must match)")
    if runs:
        env_info = runs[0]["env"]
        threads = " ".join(f"{k}={v}" for k, v in env_info.pop("threads").items())
        print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()) + " " + threads)

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    metrics: dict[str, dict] = {}
    consistent = True
    if plain and not args.trace:
        pooled = [t for r in plain for t in r["round_s"]]
        q, tail = tail_percentile(pooled)
        best = best_rounds(plain)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "round_s.p50": statistics.median(best),
            "round_s.tail": tail,
            "train_samples_per_s": plain[0]["train_samples"] / sum(best),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "final_client_top1": plain[0]["final_client_top1"],
        }
        notes = {
            "setup_s": f"median of {len(plain)} runs",
            "round_s.p50": f"median of {len(best)} rounds, each the fastest of {len(plain)} runs",
            "round_s.tail": f"p{q} of all {len(pooled)} rounds",
            "train_samples_per_s": f"{plain[0]['train_samples']} samples a run over those {len(best)} rounds",
            "peak_rss_mb": f"median of {len(plain)} runs",
            "final_client_top1": f"identical in {len(plain)} runs",
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit} ({notes[name]})")
    if plain and traced_runs:
        layers = [r["layers"] for r in traced_runs]
        for name in EXACT:
            if len({layer[name] for layer in layers}) != 1:
                consistent = False
                print(f"count {name} differs between traced runs: {[layer[name] for layer in layers]}")
        overhead = statistics.median(best_rounds(traced_runs)) / statistics.median(best_rounds(plain))
        for name, unit in PER_LAYER:
            value = overhead if name == "trace_overhead" else statistics.median(
                layer[name] for layer in layers
            )
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit}")
        print(f"(per-layer: medians of {len(traced_runs)} traced runs of {rounds} rounds; "
              f"trace_overhead: traced / untraced round_s.p50)")

    attempted = len(wall)
    correct = failed == 0 and consistent and bool(metrics)
    print(f"runs attempted {attempted} failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
