"""Experiment configuration: a flat key=value file format with strict
validation, plus the canonical echo used for provenance.

Unknown keys, duplicate keys, bad types, and out-of-range values are
all rejected with the offending line number. Missing keys fall back to
the standard defaults (100 clients, 10% participation, 5 local epochs,
200 rounds, batch 50, lr 0.01 decayed by 0.99, momentum 0.9, weight
decay 1e-5).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

# Shared RNG stream tags. Client sampling and the per-client batch
# shuffle must draw from the same streams in every algorithm so that
# runs with different algorithms stay comparable batch-for-batch.
SAMPLING_STREAM = 31
LOCAL_SHUFFLE_STREAM = 32


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    mnist_dir: str = ""
    partition: str = "sharding"
    shards_per_client: int = 2
    dirichlet_alpha: float = 0.1
    num_clients: int = 100
    fraction: float = 0.1
    t_total: int = 200
    epochs: int = 5
    batch_size: int = 50
    base_lr: float = 0.01
    lr_decay: float = 0.99
    momentum: float = 0.9
    weight_decay: float = 1e-5
    hidden: tuple[int, ...] = (128,)
    algorithm: str = "fedavg"
    prox_mu: float = 0.01
    rhpk: bool = True
    psd: bool = True
    cll: bool = True
    prior_epsilon: float = 1.0
    test_budget: int = 100
    sweep_every: int = 10
    workers: int = 1
    seed: int = 0
    synth_classes: int = 10
    synth_dim: int = 32
    synth_per_class: int = 500
    synth_test_per_class: int = 100
    synth_spread: float = 0.45


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str, lo=None, hi=None):
    val = int(raw)
    if lo is not None and val < lo:
        raise ValueError(f"must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ValueError(f"must be <= {hi}, got {val}")
    return val


def _parse_float(raw: str, lo=None, hi=None, lo_open=False, hi_open=False):
    val = float(raw)
    if not math.isfinite(val):  # NaN would pass every comparison below
        raise ValueError(f"must be finite, got {val}")
    if lo is not None and (val < lo or (lo_open and val == lo)):
        raise ValueError(f"must be {'>' if lo_open else '>='} {lo}, got {val}")
    if hi is not None and (val > hi or (hi_open and val == hi)):
        raise ValueError(f"must be {'<' if hi_open else '<='} {hi}, got {val}")
    return val


def _parse_choice(raw: str, options: tuple[str, ...]) -> str:
    if raw not in options:
        raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
    return raw


def _parse_hidden(raw: str) -> tuple[int, ...]:
    sizes = tuple(int(part) for part in raw.split(",") if part.strip())
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"expected comma-separated sizes >= 1, got {raw!r}")
    return sizes


# key in the file -> (config field, parser)
_KEYS: dict[str, tuple[str, callable]] = {
    "dataset": ("dataset", lambda r: _parse_choice(r, ("synthetic", "mnist"))),
    "mnist_dir": ("mnist_dir", str),
    "partition": ("partition", lambda r: _parse_choice(r, ("sharding", "dirichlet"))),
    "S": ("shards_per_client", lambda r: _parse_int(r, lo=1)),
    "dirichlet_alpha": ("dirichlet_alpha", lambda r: _parse_float(r, lo=0, lo_open=True)),
    "K": ("num_clients", lambda r: _parse_int(r, lo=1)),
    "C": ("fraction", lambda r: _parse_float(r, lo=0, hi=1, lo_open=True)),
    "t_total": ("t_total", lambda r: _parse_int(r, lo=1)),
    "E": ("epochs", lambda r: _parse_int(r, lo=1)),
    "batch_size": ("batch_size", lambda r: _parse_int(r, lo=1)),
    "base_lr": ("base_lr", lambda r: _parse_float(r, lo=0, lo_open=True)),
    "lr_decay": ("lr_decay", lambda r: _parse_float(r, lo=0, hi=1, lo_open=True)),
    "momentum": ("momentum", lambda r: _parse_float(r, lo=0, hi=1, hi_open=True)),
    "weight_decay": ("weight_decay", lambda r: _parse_float(r, lo=0)),
    "hidden": ("hidden", _parse_hidden),
    "algorithm": ("algorithm", lambda r: _parse_choice(r, ("fedavg", "fedprox", "fedpsd"))),
    "prox_mu": ("prox_mu", lambda r: _parse_float(r, lo=0)),
    "rhpk": ("rhpk", _parse_bool),
    "psd": ("psd", _parse_bool),
    "cll": ("cll", _parse_bool),
    "prior_epsilon": ("prior_epsilon", lambda r: _parse_float(r, lo=0)),
    "test_budget": ("test_budget", lambda r: _parse_int(r, lo=1)),
    "sweep_every": ("sweep_every", lambda r: _parse_int(r, lo=0)),
    "workers": ("workers", lambda r: _parse_int(r, lo=1)),
    "seed": ("seed", lambda r: _parse_int(r, lo=0)),
    "synth_classes": ("synth_classes", lambda r: _parse_int(r, lo=2)),
    "synth_dim": ("synth_dim", lambda r: _parse_int(r, lo=2)),
    "synth_per_class": ("synth_per_class", lambda r: _parse_int(r, lo=1)),
    "synth_test_per_class": ("synth_test_per_class", lambda r: _parse_int(r, lo=1)),
    "synth_spread": ("synth_spread", lambda r: _parse_float(r, lo=0)),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}
_SECTION_RE = re.compile(r"^\[[A-Za-z0-9 _.-]+\]$")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key=value config format.

    Lines hold one ``key = value`` pair each; ``#`` starts a comment
    and ``[section]`` lines are purely organizational. Every key is
    optional and may appear at most once.
    """
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if _SECTION_RE.match(line):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        if field_name in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {first_line[field_name]})"
            )
        try:
            values[field_name] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
        first_line[field_name] = lineno
    return ExperimentConfig(**values)


def echo_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parse_config(echo_config(c)) == c.

    A value the format cannot carry raises ``ConfigError`` naming its
    key: one holding ``#`` (a comment to the parser) or a line break,
    or with whitespace at either end (stripped on parse). Values are
    never quoted.
    """
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        if "#" in rendered or rendered != rendered.strip() or len(rendered.splitlines()) > 1:
            raise ConfigError(
                f"{_FIELD_TO_KEY[f.name]!r}: {rendered!r} would not read back; values "
                "cannot hold '#' or a line break, or start or end with whitespace"
            )
        lines.append(f"{_FIELD_TO_KEY[f.name]} = {rendered}")
    return "\n".join(lines) + "\n"
