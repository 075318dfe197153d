"""Run configuration: dataclasses per subsystem plus a small key=value
config-file format with one section per subsystem.

The defaults are the full-scale operating point (300-dim embeddings, 256
hidden units, 500-dim fact representations, 50K vocabulary, 800-word
passages, 120-word answers, batch 16, beam 4, up to 1000 related facts).
The desk profile shrinks everything so the synthetic suite trains in
minutes on one core.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .errors import ConfigError, InvalidScheduleError
from .text import SPECIAL_TOKENS


@dataclass
class ModelConfig:
    emb_dim: int = 300
    hidden_dim: int = 256
    fact_dim: int = 500

    @property
    def attn_dim(self) -> int:
        return self.hidden_dim


@dataclass
class DataConfig:
    vocab_size: int = 50000
    passage_limit: int = 800
    answer_limit: int = 120


@dataclass
class KnowledgeConfig:
    max_facts: int = 1000
    enabled: bool = True


@dataclass
class TrainingConfig:
    batch_size: int = 16
    lr: float = 1e-3
    max_steps: int = 2000
    lambda_cov: float = 1.0
    tau0: float = 1.0
    tau_min: float = 0.1
    anneal_rate: float = 1e-4
    mc_samples: int = 1
    seed: int = 0
    clip_norm: float = 2.0


@dataclass
class TemperatureSchedule:
    """The Gumbel-Softmax temperature's anneal: tau0 * exp(-rate * step),
    clamped at tau_min."""
    tau0: float = 1.0
    tau_min: float = 0.1
    rate: float = 1e-4

    def validate(self) -> "TemperatureSchedule":
        if self.tau_min <= 0:
            raise InvalidScheduleError(f"tau_min must be > 0, got {self.tau_min}")
        if self.tau0 < self.tau_min:
            raise InvalidScheduleError("tau0 below tau_min")
        if self.rate < 0:
            raise InvalidScheduleError("negative anneal rate")
        return self


@dataclass
class GenerationConfig:
    beam_size: int = 4


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def validate(self) -> "RunConfig":
        m, d, t = self.model, self.data, self.training
        for label, value in [("model.emb_dim", m.emb_dim), ("model.hidden_dim", m.hidden_dim),
                             ("model.fact_dim", m.fact_dim),
                             ("data.passage_limit", d.passage_limit),
                             ("data.answer_limit", d.answer_limit),
                             ("knowledge.max_facts", self.knowledge.max_facts),
                             ("training.batch_size", t.batch_size),
                             ("training.mc_samples", t.mc_samples),
                             ("generation.beam_size", self.generation.beam_size)]:
            if value < 1:
                raise ConfigError(f"{label} must be >= 1, got {value}")
        if d.vocab_size < len(SPECIAL_TOKENS):
            raise ConfigError(f"data.vocab_size must be >= {len(SPECIAL_TOKENS)}, "
                              f"got {d.vocab_size}")
        for f in fields(t):
            value = getattr(t, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"training.{f.name} must be finite, got {value}")
        for label, value in [("training.lr", t.lr), ("training.clip_norm", t.clip_norm)]:
            if value <= 0:
                raise ConfigError(f"{label} must be > 0, got {value}")
        for label, value in [("training.lambda_cov", t.lambda_cov), ("training.seed", t.seed),
                             ("training.max_steps", t.max_steps)]:
            if value < 0:
                raise ConfigError(f"{label} must be >= 0, got {value}")
        TemperatureSchedule(t.tau0, t.tau_min, t.anneal_rate).validate()
        return self

    @classmethod
    def desk(cls) -> "RunConfig":
        """Small profile for the synthetic suite."""
        return cls(
            model=ModelConfig(emb_dim=32, hidden_dim=32, fact_dim=48),
            data=DataConfig(vocab_size=2000, passage_limit=120, answer_limit=30),
            knowledge=KnowledgeConfig(max_facts=64),
            training=TrainingConfig(batch_size=8, lr=5e-3, max_steps=2000,
                                    anneal_rate=5e-3),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        cfg = cls()
        for name, values in payload.items():
            if name not in _SECTIONS:
                raise ConfigError(f"unknown config section [{name}]")
            if not isinstance(values, dict):
                raise ConfigError(f"config section [{name}] must map keys to values")
            for key, value in values.items():
                _set(cfg, f"{name}.{key}", value)
        return cfg.validate()


_SECTIONS = frozenset(f.name for f in fields(RunConfig))

# --profile name -> the RunConfig its defaults come from; the first is the default
PROFILES = {"full": RunConfig, "desk": RunConfig.desk}


def _set(cfg: RunConfig, dotted: str, value) -> None:
    """Set ``section.key`` on cfg from config text or a JSON/Python scalar,
    coerced by the field's declared type: a bool key takes true or false in
    any case, an int key integer text or an int, a float key decimal text or
    a number. A bool is never read as a number, nor a number as a bool."""
    name, _, key = dotted.partition(".")
    if not key:
        raise ConfigError(f"config key {dotted!r} must be section.key")
    if name not in _SECTIONS:
        raise ConfigError(f"unknown config section [{name}]")
    section = getattr(cfg, name)
    # dataclass field types arrive as strings under `from __future__ annotations`
    kind = {f.name: f.type for f in fields(section)}.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {dotted}")
    parsed = None
    if isinstance(value, str):
        text = value.strip()
        if kind == "bool":
            parsed = {"true": True, "false": False}.get(text.lower())
        else:
            with contextlib.suppress(ValueError):
                parsed = int(text) if kind == "int" else float(text)
    elif isinstance(value, bool):
        parsed = value if kind == "bool" else None
    elif kind == "int" and isinstance(value, int):
        parsed = value
    elif kind == "float" and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            parsed = float(value)
    if parsed is None:
        raise ConfigError(f"{dotted}: expected {kind}, got {value!r}")
    setattr(section, key, parsed)


def _config_lines(text: str):
    """Yield (section.key, value text) for each ``key = value`` line of the
    [section] / key = value format, in file order."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"config line {lineno}: unknown config section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"config line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        yield f"{section}.{key.strip()}", value


def load_config(path=None, profile: str = next(iter(PROFILES)),
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from profile defaults, an optional file, then overrides.

    Override keys are dotted, e.g. {"training.seed": 7}, with text or scalar
    values; they win over the file, which wins over the profile.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r} (expected one of {', '.join(PROFILES)})")
    cfg = PROFILES[profile]()

    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for dotted, value in _config_lines(text):
            _set(cfg, dotted, value)
    for dotted, value in (overrides or {}).items():
        _set(cfg, dotted, value)
    return cfg.validate()
