"""Human-readable configuration files: key/value pairs in nested sections.

The schema is documented in docs/config.md. A model file holds a ``[model]``
section, one ``[eosa.N]`` section per backbone module, and one
``[head.NAME]`` section per detection head; training runs add a ``[train]``
section. Rendering is canonical, so parse -> render round-trips exactly.
"""

from __future__ import annotations

import configparser
import io

from .errors import ConfigError
from .model import EosaConfig, HeadConfig, ModelConfig
from .training import TrainConfig

_MODEL_KEYS = ("input_size", "decoder_dim", "head_kind")
_EOSA_KEYS = ("f_osa", "n_osa", "f_conv", "extra_conv")
_HEAD_KEYS = ("points", "blocks", "width")
_TRAIN_KEYS = (
    "epochs", "batch_size", "lr_max", "lr_min", "weight_decay",
    "beta1", "beta2", "eps", "seed",
)


def render_model_config(config: ModelConfig) -> str:
    out = io.StringIO()
    out.write("[model]\n")
    out.write(f"input_size = {config.input_size}\n")
    out.write(f"decoder_dim = {config.decoder_dim}\n")
    out.write(f"head_kind = {config.head_kind}\n")
    for i, ec in enumerate(config.eosa, 1):
        out.write(f"\n[eosa.{i}]\n")
        out.write(f"f_osa = {ec.f_osa}\n")
        out.write(f"n_osa = {ec.n_osa}\n")
        out.write(f"f_conv = {ec.f_conv}\n")
        out.write(f"extra_conv = {ec.extra_conv}\n")
    for hc in config.heads:
        out.write(f"\n[head.{hc.format}]\n")
        out.write(f"points = {hc.points}\n")
        out.write(f"blocks = {hc.blocks}\n")
        out.write(f"width = {hc.width}\n")
    return out.getvalue()


def render_train_config(config: TrainConfig) -> str:
    out = io.StringIO()
    out.write("[train]\n")
    out.write(f"epochs = {config.epochs}\n")
    out.write(f"batch_size = {config.batch_size}\n")
    out.write(f"lr_max = {config.lr_max!r}\n")
    out.write(f"lr_min = {config.lr_min!r}\n")
    out.write(f"weight_decay = {config.weight_decay!r}\n")
    out.write(f"beta1 = {config.beta1!r}\n")
    out.write(f"beta2 = {config.beta2!r}\n")
    out.write(f"eps = {config.eps!r}\n")
    out.write(f"seed = {config.seed}\n")
    return out.getvalue()


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file: {exc}") from None
    return parser


def _check_keys(section: str, items, allowed) -> None:
    unknown = set(items) - set(allowed)
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")


def _get_int(parser, section, key, default=None):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"[{section}]: missing required key {key!r}")
        return default
    try:
        return parser.getint(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer") from None


def _get_float(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    try:
        return parser.getfloat(section, key)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number") from None


def parse_model_config(text: str) -> ModelConfig:
    parser = _parser(text)
    if not parser.has_section("model"):
        raise ConfigError("config file lacks a [model] section")
    _check_keys("model", parser.options("model"), _MODEL_KEYS)
    eosa_sections = [s for s in parser.sections() if s.startswith("eosa.")]
    if not eosa_sections:
        raise ConfigError("config file lacks [eosa.N] sections")
    expected = [f"eosa.{i}" for i in range(1, len(eosa_sections) + 1)]
    if set(eosa_sections) != set(expected):
        raise ConfigError(f"[eosa.N] sections must be numbered 1..{len(eosa_sections)}")
    eosa = []
    for section in expected:
        _check_keys(section, parser.options(section), _EOSA_KEYS)
        eosa.append(
            EosaConfig(
                f_osa=_get_int(parser, section, "f_osa"),
                n_osa=_get_int(parser, section, "n_osa"),
                f_conv=_get_int(parser, section, "f_conv"),
                extra_conv=parser.get(section, "extra_conv", fallback="conventional"),
            )
        )
    heads = []
    for section in parser.sections():
        if not section.startswith("head."):
            continue
        _check_keys(section, parser.options(section), _HEAD_KEYS)
        heads.append(
            HeadConfig(
                format=section.split(".", 1)[1],
                points=_get_int(parser, section, "points"),
                blocks=_get_int(parser, section, "blocks", 3),
                width=_get_int(parser, section, "width", 32),
            )
        )
    config = ModelConfig(
        input_size=_get_int(parser, "model", "input_size", 128),
        eosa=tuple(eosa),
        decoder_dim=_get_int(parser, "model", "decoder_dim", 256),
        heads=tuple(heads),
        head_kind=parser.get("model", "head_kind", fallback="efld"),
    )
    config.validate()
    return config


def parse_train_config(text: str) -> TrainConfig:
    parser = _parser(text)
    if not parser.has_section("train"):
        return TrainConfig()
    _check_keys("train", parser.options("train"), _TRAIN_KEYS)
    defaults = TrainConfig()
    config = TrainConfig(
        epochs=_get_int(parser, "train", "epochs", defaults.epochs),
        batch_size=_get_int(parser, "train", "batch_size", defaults.batch_size),
        lr_max=_get_float(parser, "train", "lr_max", defaults.lr_max),
        lr_min=_get_float(parser, "train", "lr_min", defaults.lr_min),
        weight_decay=_get_float(parser, "train", "weight_decay", defaults.weight_decay),
        beta1=_get_float(parser, "train", "beta1", defaults.beta1),
        beta2=_get_float(parser, "train", "beta2", defaults.beta2),
        eps=_get_float(parser, "train", "eps", defaults.eps),
        seed=_get_int(parser, "train", "seed", defaults.seed),
    )
    config.validate()
    return config


def load_config_file(path) -> tuple:
    """(ModelConfig, TrainConfig) from one file; [train] falls back to defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model_config(text), parse_train_config(text)
