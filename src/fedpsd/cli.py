"""Experiment front-end.

Three subcommands:

  run <config> [--seed N] [--out DIR]   train once, stream metrics.csv
  ablate <config> [--out DIR]           the four component-flag rows
  summarize <csv> --target ACC          first round reaching a target

``run`` echoes the parsed config before any metric line and appends to
metrics.csv row by row with a flush after each, so a live run can be
tailed. Re-running the emitted ``config.txt`` with the same seed
reproduces metrics.csv byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import echo_config, parse_config
from .engine import run_ablation, run_experiment
from .metrics import (
    ABLATION_HEADER,
    CSV_HEADER,
    SWEEP_HEADER,
    csv_writer,
    format_round,
    format_sweep,
    load_metrics,
    rounds_to_target,
)


def _cmd_run(args, stdout) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    echo = echo_config(cfg)
    stdout.write(echo)
    stdout.flush()
    (out_dir / "config.txt").write_text(echo, encoding="utf-8", newline="\n")

    metrics_path = out_dir / "metrics.csv"
    with (
        csv_writer(metrics_path, CSV_HEADER) as write_round,
        csv_writer(out_dir / "sweeps.csv", SWEEP_HEADER) as write_sweep,
    ):
        def on_round(record):
            line = format_round(record)
            write_round(line)
            stdout.write(line + "\n")
            stdout.flush()

        series = run_experiment(
            cfg, round_callback=on_round,
            sweep_callback=lambda sweep: write_sweep(format_sweep(sweep)),
        )

    stdout.write(
        f"final avg_client_top1 {series.final_avg_client_top1():.6f} "
        f"server_top1 {series.final_server_top1():.6f} "
        f"({metrics_path})\n"
    )
    return 0


def _cmd_ablate(args, stdout) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout.write(ABLATION_HEADER + "\n")
    stdout.flush()

    def log(line):
        stdout.write(line + "\n")
        stdout.flush()

    run_ablation(cfg, out_dir=out_dir, log=log)
    return 0


def _cmd_summarize(args, stdout) -> int:
    series = load_metrics(args.csv)
    reached = rounds_to_target(series, args.target, args.metric)
    stdout.write("N/A\n" if reached is None else f"{reached}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpsd", description="Deterministic federated-learning experiments."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=".", help="directory for metrics.csv, sweeps.csv, config.txt")
    p_run.set_defaults(func=_cmd_run)

    p_ablate = sub.add_parser("ablate", help="run the four component-flag combinations")
    p_ablate.add_argument("config", help="config file; algorithm must be fedpsd")
    p_ablate.add_argument("--out", default=".", help="directory for per-row CSVs and ablation.csv")
    p_ablate.set_defaults(func=_cmd_ablate)

    p_sum = sub.add_parser("summarize", help="first round that reaches a target accuracy")
    p_sum.add_argument("csv", help="a metrics.csv produced by run")
    p_sum.add_argument("--target", type=float, required=True, help="target top-1 accuracy in [0, 1]")
    p_sum.add_argument("--metric", choices=("client", "server"), default="client")
    p_sum.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stdout = sys.stdout
    try:
        return args.func(args, stdout)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
