"""Experiment front-end.

Three subcommands:

  run <config> [--seed N] [--out DIR]   train once, stream metrics.csv
  ablate <config> [--out DIR]           the four component-flag rows
  summarize <csv> --target ACC          first round reaching a target

``run`` echoes the parsed config before any metric line. ``run`` and
``ablate`` write through ``engine.run_to_dir``: each CSV row is flushed
as it is made, so a live run can be tailed, and each ``config.txt``
(``<row>_config.txt`` for an ablation row) re-runs to the same bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import echo_config, parse_config
from .engine import run_ablation, run_to_dir
from .metrics import format_round, load_metrics, rounds_to_target


def _cmd_run(args, stdout) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    stdout.write(echo_config(cfg))
    stdout.flush()

    def on_round(record):
        stdout.write(format_round(record) + "\n")
        stdout.flush()

    series = run_to_dir(cfg, args.out, round_callback=on_round)
    stdout.write(
        f"final avg_client_top1 {series.final_avg_client_top1():.6f} "
        f"server_top1 {series.final_server_top1():.6f} "
        f"({Path(args.out) / 'metrics.csv'})\n"
    )
    return 0


def _cmd_ablate(args, stdout) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))

    def log(line):
        stdout.write(line + "\n")
        stdout.flush()

    run_ablation(cfg, out_dir=args.out, log=log)
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
    p_ablate.add_argument("--out", default=".", help="directory for per-row files and ablation.csv")
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
