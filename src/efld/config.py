"""Human-readable configuration files: key/value pairs in nested sections.

The schema is documented in docs/config.md. A model file holds a ``[model]``
section, one ``[eosa.N]`` section per backbone module, and one
``[head.NAME]`` section per detection head; training runs add a ``[train]``
section. Rendering is canonical, so parse -> render round-trips exactly.

The config dataclasses are the schema: a section's keys are its class's
fields, in field order, each read by its type; a field with a default is
optional and one without is required. The model's ``eosa`` and ``heads``
are sections of their own, and a head's ``format`` is its section name.
``ModelConfig``, ``EosaConfig`` and ``HeadConfig`` live in ``efld.model``,
which builds the model from them. ``TrainConfig`` lives here, with the
checks of its documented ranges; ``efld.training`` runs it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from functools import cache

import numpy as np

from .errors import ConfigError
from .model import EosaConfig, HeadConfig, ModelConfig

_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class TrainConfig:
    epochs: int = 1500
    batch_size: int = 512
    lr_max: float = 0.001
    lr_min: float = 0.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.lr_min <= self.lr_max):
            raise ConfigError(f"need 0 <= lr_min <= lr_max, got {self.lr_min}, {self.lr_max}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        # the update runs in the parameters' float32, where a larger eps is inf
        if self.eps > _FLOAT32_MAX:
            raise ConfigError(f"eps must be <= {_FLOAT32_MAX} (the largest float32), "
                              f"got {self.eps}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        # each step scales every weight by 1 - lr * weight_decay, which must not go negative
        if self.lr_max * self.weight_decay > 1.0:
            raise ConfigError(f"need lr_max * weight_decay <= 1, got {self.lr_max} * "
                              f"{self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_NOT_KEYS = {ModelConfig: ("eosa", "heads"), HeadConfig: ("format",)}
# field type -> its reader (as ConfigParser's getint, getfloat and get) and
# what a value it rejects was expected to be
_READERS = {"int": (int, "an integer"), "float": (float, "a number"), "str": (str, None)}


@cache
def _keys(cls) -> tuple:
    """The fields of ``cls`` that are keys of its section."""
    return tuple(f for f in fields(cls) if f.name not in _NOT_KEYS.get(cls, ()))


def _render(section: str, config) -> str:
    keys = (f"{f.name} = {getattr(config, f.name)}\n" for f in _keys(type(config)))
    return f"[{section}]\n" + "".join(keys)


def render_model_config(config: ModelConfig) -> str:
    return "\n".join([
        _render("model", config),
        *(_render(f"eosa.{i}", ec) for i, ec in enumerate(config.eosa, 1)),
        *(_render(f"head.{hc.format}", hc) for hc in config.heads),
    ])


def render_train_config(config: TrainConfig) -> str:
    return _render("train", config)


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file: {exc}") from None
    return parser


def _values(parser, section: str, cls) -> dict:
    """The values of ``section`` by key; every key must be a key of ``cls``."""
    values = dict(parser.items(section))
    unknown = values.keys() - {f.name for f in _keys(cls)}
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
    return values


def _read(parser, section: str, cls, **given):
    """``cls`` from the keys of ``section``, plus the fields in ``given``."""
    values = _values(parser, section, cls)
    for f in _keys(cls):
        if f.name not in values:
            if f.default is MISSING:
                raise ConfigError(f"[{section}]: missing required key {f.name!r}")
            continue
        read, expected = _READERS[f.type]
        try:
            given[f.name] = read(values[f.name])
        except ValueError:
            raise ConfigError(f"[{section}] {f.name}: expected {expected}") from None
    return cls(**given)


def parse_model_config(text: str) -> ModelConfig:
    parser = _parser(text)
    if not parser.has_section("model"):
        raise ConfigError("config file lacks a [model] section")
    _values(parser, "model", ModelConfig)  # an unknown key here is reported before the sections
    eosa_sections = [s for s in parser.sections() if s.startswith("eosa.")]
    if not eosa_sections:
        raise ConfigError("config file lacks [eosa.N] sections")
    expected = [f"eosa.{i}" for i in range(1, len(eosa_sections) + 1)]
    if set(eosa_sections) != set(expected):
        raise ConfigError(f"[eosa.N] sections must be numbered 1..{len(eosa_sections)}")
    config = _read(
        parser, "model", ModelConfig,
        eosa=tuple(_read(parser, section, EosaConfig) for section in expected),
        heads=tuple(_read(parser, section, HeadConfig, format=section.split(".", 1)[1])
                    for section in parser.sections() if section.startswith("head.")),
    )
    config.validate()
    return config


def parse_train_config(text: str) -> TrainConfig:
    parser = _parser(text)
    if not parser.has_section("train"):
        return TrainConfig()
    config = _read(parser, "train", TrainConfig)
    config.validate()
    return config


def load_config_file(path) -> tuple:
    """(ModelConfig, TrainConfig) from one file; [train] falls back to defaults."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as text mode reads
        return parse_model_config(text), parse_train_config(text)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
