"""Metrics records, CSV emission, and the rounds-to-target summary."""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = "round,avg_client_top1,server_top1,mean_local_loss,sampled"
SWEEP_HEADER = "round,all_client_top1"
ABLATION_HEADER = "row,rhpk,psd,cll,final_avg_client_top1,delta_vs_baseline"


@dataclass(frozen=True)
class RoundRecord:
    """One communication round; ``round`` is 1-indexed."""

    round: int
    avg_client_top1: float
    server_top1: float
    mean_local_loss: float
    sampled: tuple[int, ...]


@dataclass(frozen=True)
class SweepRecord:
    """Periodic evaluation over every client, participants or not."""

    round: int
    all_client_top1: float


@dataclass
class MetricsSeries:
    rounds: list[RoundRecord]
    sweeps: list[SweepRecord] = field(default_factory=list)

    def final_avg_client_top1(self, window: int = 5) -> float:
        """Mean of the last ``window`` rounds; the reported headline number."""
        return float(np.mean([r.avg_client_top1 for r in self._tail(window)]))

    def final_server_top1(self, window: int = 5) -> float:
        return float(np.mean([r.server_top1 for r in self._tail(window)]))

    def _tail(self, window: int) -> list[RoundRecord]:
        # rounds[-0:] is every round, and rounds[1:] for window -1.
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if not self.rounds:
            raise ValueError("a series with no rounds has no final accuracy")
        return self.rounds[-window:]


@dataclass(frozen=True)
class AblationRow:
    """One flag combination and its 5-round-smoothed final accuracy."""

    name: str
    rhpk: bool
    psd: bool
    cll: bool
    final_avg_client_top1: float
    delta_vs_baseline: float
    series: MetricsSeries


def format_round(record: RoundRecord) -> str:
    ids = ";".join(str(c) for c in record.sampled)
    return (
        f"{record.round},{record.avg_client_top1:.6f},{record.server_top1:.6f},"
        f"{record.mean_local_loss:.6f},{ids}"
    )


def format_sweep(sweep: SweepRecord) -> str:
    return f"{sweep.round},{sweep.all_client_top1:.6f}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def format_ablation_row(row: AblationRow) -> str:
    return (
        f"{row.name},{_flag(row.rhpk)},{_flag(row.psd)},{_flag(row.cll)},"
        f"{row.final_avg_client_top1:.6f},{row.delta_vs_baseline:+.6f}"
    )


@contextmanager
def csv_writer(path, header: str):
    """Create the CSV file ``path`` and write ``header``; yield a row writer.

    Every CSV the package writes goes through here. The writer takes
    one formatted line, appends it with a newline and flushes, so a
    file being written row by row can be tailed.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        def write_row(line: str) -> None:
            fh.write(line + "\n")
            fh.flush()

        write_row(header)
        yield write_row


def emit_metrics(series: MetricsSeries, path) -> None:
    """Write the per-round CSV: 6-decimal floats, sampled ids ;-joined."""
    with csv_writer(path, CSV_HEADER) as write_row:
        for record in series.rounds:
            write_row(format_round(record))


def emit_sweeps(series: MetricsSeries, path) -> None:
    with csv_writer(path, SWEEP_HEADER) as write_row:
        for sweep in series.sweeps:
            write_row(format_sweep(sweep))


def _parse_row(line: str) -> RoundRecord:
    fields = line.split(",")
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")
    r, avg, server, loss, sampled = fields
    record = RoundRecord(
        int(r), float(avg), float(server), float(loss),
        tuple(int(c) for c in sampled.split(";")) if sampled else (),
    )
    for name in ("avg_client_top1", "server_top1"):
        value = getattr(record, name)
        if not 0.0 <= value <= 1.0:  # also false for NaN
            raise ValueError(f"{name} must be a finite value in [0, 1], got {value}")
    if not (math.isfinite(record.mean_local_loss) and record.mean_local_loss >= 0.0):
        raise ValueError(f"mean_local_loss must be a finite value >= 0, got {record.mean_local_loss}")
    return record


def load_metrics(path) -> MetricsSeries:
    """Parse a CSV produced by emit_metrics (sweeps are not stored there).

    A row with the wrong field count, a non-numeric field, an accuracy
    that is not finite or lies outside [0, 1], a mean local loss that is
    not finite or is negative, or a round other than the one after the
    previous row's (rows count 1, 2, ...) raises ValueError naming the
    file and its 1-based line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [
            (lineno, line.rstrip("\n"))
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: not a metrics CSV (unexpected header)")
    rounds = []
    for lineno, line in lines[1:]:
        try:
            record = _parse_row(line)
            if record.round != len(rounds) + 1:
                raise ValueError(f"expected round {len(rounds) + 1}, got {record.round}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        rounds.append(record)
    return MetricsSeries(rounds=rounds)


def rounds_to_target(
    series: MetricsSeries, target_acc: float, metric: str = "client"
) -> int | None:
    """First 1-indexed round whose accuracy reaches target_acc, else None.

    ``metric`` picks the column: "client" for avg_client_top1, "server"
    for server_top1. None mirrors the usual N/A convention for targets
    a method never attains.
    """
    if not 0.0 <= target_acc <= 1.0:
        raise ValueError(f"target accuracy must be in [0, 1], got {target_acc}")
    if metric not in ("client", "server"):
        raise ValueError(f"metric must be 'client' or 'server', got {metric!r}")
    for record in series.rounds:
        value = record.avg_client_top1 if metric == "client" else record.server_top1
        if value >= target_acc:
            return record.round
    return None
