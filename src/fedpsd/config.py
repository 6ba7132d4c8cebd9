"""Experiment configuration: a flat key=value file format with strict
validation, plus the canonical echo used for provenance.

Each ``ExperimentConfig`` field declares its file key and parser. Unknown
keys, duplicate keys, bad types, and out-of-range values are rejected
with the offending line number, and a config built in code is held to
the same parsers. Missing keys fall back to the standard defaults (100
clients, 10% participation, 5 local epochs, 200 rounds, batch 50, lr
0.01 decayed by 0.99, momentum 0.9, weight decay 1e-5).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

# Shared RNG stream tags. Client sampling and the per-client batch
# shuffle must draw from the same streams in every algorithm so that
# runs with different algorithms stay comparable batch-for-batch.
SAMPLING_STREAM = 31
LOCAL_SHUFFLE_STREAM = 32


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _at_least(lo: int):
    def parse(raw: str) -> int:
        val = int(raw)
        if val < lo:
            raise ValueError(f"must be >= {lo}, got {val}")
        return val
    return parse


def _float(lo=None, hi=None, lo_open=False, hi_open=False):
    def parse(raw: str) -> float:
        val = float(raw)
        if not math.isfinite(val):  # NaN would pass every comparison below
            raise ValueError(f"must be finite, got {val}")
        if lo is not None and (val < lo or (lo_open and val == lo)):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}, got {val}")
        if hi is not None and (val > hi or (hi_open and val == hi)):
            raise ValueError(f"must be {'<' if hi_open else '<='} {hi}, got {val}")
        return val
    return parse


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
        return raw
    return parse


def _parse_hidden(raw: str) -> tuple[int, ...]:
    # An empty entry, as in "64,,32" or "", reads as size 0 and is refused.
    sizes = tuple(int(part) if part.strip() else 0 for part in raw.split(","))
    if any(s < 1 for s in sizes):
        raise ValueError(f"expected comma-separated sizes >= 1, got {raw!r}")
    return sizes


def _key(key: str, default, parse):
    """A config field: its key in the file, its default, and the parser
    that reads the key's value and checks every constructed config."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = _key("dataset", "synthetic", _choice("synthetic", "mnist"))
    mnist_dir: str = _key("mnist_dir", "", str)
    partition: str = _key("partition", "sharding", _choice("sharding", "dirichlet"))
    shards_per_client: int = _key("S", 2, _at_least(1))
    dirichlet_alpha: float = _key("dirichlet_alpha", 0.1, _float(lo=0, lo_open=True))
    num_clients: int = _key("K", 100, _at_least(1))
    fraction: float = _key("C", 0.1, _float(lo=0, hi=1, lo_open=True))
    t_total: int = _key("t_total", 200, _at_least(1))
    epochs: int = _key("E", 5, _at_least(1))
    batch_size: int = _key("batch_size", 50, _at_least(1))
    base_lr: float = _key("base_lr", 0.01, _float(lo=0, lo_open=True))
    lr_decay: float = _key("lr_decay", 0.99, _float(lo=0, hi=1, lo_open=True))
    momentum: float = _key("momentum", 0.9, _float(lo=0, hi=1, hi_open=True))
    weight_decay: float = _key("weight_decay", 1e-5, _float(lo=0))
    hidden: tuple[int, ...] = _key("hidden", (128,), _parse_hidden)
    algorithm: str = _key("algorithm", "fedavg", _choice("fedavg", "fedprox", "fedpsd"))
    prox_mu: float = _key("prox_mu", 0.01, _float(lo=0))
    rhpk: bool = _key("rhpk", True, _parse_bool)
    psd: bool = _key("psd", True, _parse_bool)
    cll: bool = _key("cll", True, _parse_bool)
    prior_epsilon: float = _key("prior_epsilon", 1.0, _float(lo=0))
    test_budget: int = _key("test_budget", 100, _at_least(1))
    sweep_every: int = _key("sweep_every", 10, _at_least(0))
    workers: int = _key("workers", 1, _at_least(1))
    seed: int = _key("seed", 0, _at_least(0))
    synth_classes: int = _key("synth_classes", 10, _at_least(2))
    synth_dim: int = _key("synth_dim", 32, _at_least(2))
    synth_per_class: int = _key("synth_per_class", 500, _at_least(1))
    synth_test_per_class: int = _key("synth_test_per_class", 100, _at_least(1))
    synth_spread: float = _key("synth_spread", 0.45, _float(lo=0))

    def __post_init__(self):
        # Each value, rendered as the file holds it, must pass its key's
        # parser and read back as itself, so K = 10.5 or a list hidden fail.
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                parsed = f.metadata["parse"](_render(value))
                if parsed != value:
                    raise ValueError(f"must be of type {type(parsed).__name__}, got {value!r}")
            except ValueError as exc:
                raise ConfigError(f"invalid value for {f.metadata['key']!r}: {exc}") from exc


def _render(value) -> str:
    """A field value as the config file holds it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 echoes as 0.5, not np.float64(0.5)
    return str(value)


# key in the file -> its ExperimentConfig field
_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
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
        if not line or _SECTION_RE.match(line):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        f = _KEYS[key]
        try:
            values[f.name] = f.metadata["parse"](raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
        first_line[key] = lineno
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
        key, rendered = f.metadata["key"], _render(getattr(cfg, f.name))
        if "#" in rendered or rendered != rendered.strip() or len(rendered.splitlines()) > 1:
            raise ConfigError(
                f"{key!r}: {rendered!r} would not read back; values "
                "cannot hold '#' or a line break, or start or end with whitespace"
            )
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
