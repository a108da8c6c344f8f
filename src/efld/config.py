"""Human-readable configuration files: key/value pairs in nested sections.

The schema is documented in docs/config.md. A model file holds a ``[model]``
section, one ``[eosa.N]`` section per backbone module, and one
``[head.NAME]`` section per detection head; training runs add a ``[train]``
section. Rendering is canonical, so parse -> render round-trips exactly.

The config dataclasses are the schema: a section's keys are its class's
fields, in field order, each read by its type; a field with a default is
optional and one without is required. The model's ``eosa`` and ``heads``
are sections of their own, and a head's ``format`` is its section name.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, fields
from functools import cache

from .errors import ConfigError
from .model import EosaConfig, HeadConfig, ModelConfig
from .training import TrainConfig

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
