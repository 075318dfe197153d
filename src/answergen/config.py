"""Run configuration: dataclasses per subsystem plus a small key=value
config-file format with one section per subsystem.

The defaults are the full-scale operating point (300-dim embeddings, 256
hidden units, 500-dim fact representations, 50K vocabulary, 800-word
passages, 120-word answers, batch 16, beam 4, up to 1000 related facts).
The desk profile shrinks everything so the synthetic suite trains in
minutes on one core.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .errors import ConfigError


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
                             ("model.fact_dim", m.fact_dim), ("data.vocab_size", d.vocab_size),
                             ("data.passage_limit", d.passage_limit),
                             ("data.answer_limit", d.answer_limit),
                             ("knowledge.max_facts", self.knowledge.max_facts),
                             ("training.batch_size", t.batch_size),
                             ("training.mc_samples", t.mc_samples),
                             ("generation.beam_size", self.generation.beam_size)]:
            if value < 1:
                raise ConfigError(f"{label} must be >= 1, got {value}")
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
        if t.tau_min <= 0 or t.tau0 < t.tau_min or t.anneal_rate < 0:
            raise ConfigError("training temperature schedule invalid")
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
        return _apply_sections(cls(), payload).validate()


def _apply_sections(cfg: RunConfig, sections: dict) -> RunConfig:
    """Set {section: {key: value}} entries on cfg's subsystem dataclasses."""
    names = {f.name for f in fields(cfg)}
    for section_name, values in sections.items():
        if section_name not in names:
            raise ConfigError(f"unknown config section [{section_name}]")
        if not isinstance(values, dict):
            raise ConfigError(f"config section [{section_name}] must map keys to values")
        section = getattr(cfg, section_name)
        for key, value in values.items():
            _set_field(section, section_name, key, value)
    return cfg


def _set_field(section, section_name: str, key: str, value) -> None:
    for f in fields(section):
        if f.name == key:
            try:
                setattr(section, key, _coerce(f.type, value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section_name}.{key}: {exc}") from None
            return
    raise ConfigError(f"unknown config key {section_name}.{key}")


def _coerce(type_name: Any, value):
    # dataclass field types arrive as strings under `from __future__ annotations`
    name = type_name if isinstance(type_name, str) else getattr(type_name, "__name__", str(type_name))
    if name == "int":
        if isinstance(value, bool):
            raise ValueError(f"expected int, got bool {value}")
        if isinstance(value, float) and value != int(value):
            raise ValueError(f"expected int, got {value}")
        return int(value)
    if name == "float":
        return float(value)
    if name == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(f"expected bool, got {value!r}")
    return value


def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse the [section] / key = value format into a nested dict."""
    sections: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"config line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        current[key.strip()] = _parse_scalar(value)
    return sections


def load_config(path=None, profile: str = "full",
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from profile defaults, an optional file, then overrides.

    Override keys are dotted, e.g. {"training.seed": 7}; they win over the
    file, which wins over the profile.
    """
    if profile == "full":
        cfg = RunConfig()
    elif profile == "desk":
        cfg = RunConfig.desk()
    else:
        raise ConfigError(f"unknown profile {profile!r} (expected full or desk)")

    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                sections = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        _apply_sections(cfg, sections)

    nested: dict[str, dict[str, Any]] = {}
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        section_name, key = dotted.split(".", 1)
        nested.setdefault(section_name, {})[key] = \
            _parse_scalar(value) if isinstance(value, str) else value
    return _apply_sections(cfg, nested).validate()
