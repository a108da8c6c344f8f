"""The config file contract: canonical rendering, round trips, defaults and
the exact text of each parse error. See docs/config.md."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from efld.config import (TrainConfig, load_config_file, parse_model_config, parse_train_config,
                         render_model_config, render_train_config)
from efld.errors import ConfigError
from efld.model import VARIANTS, EosaConfig, HeadConfig, ModelConfig, apply_variant, default_config

DOCS = Path(__file__).resolve().parent.parent / "docs" / "config.md"

# Every field of every config class holds a value other than its default.
NON_DEFAULT_MODEL = ModelConfig(
    input_size=64,
    eosa=(EosaConfig(3, 1, 5, "depthwise-separable"), EosaConfig(2, 2, 2, "depthwise-separable")),
    decoder_dim=17,
    heads=(HeadConfig("p3", 3, 1, 4), HeadConfig("p68", 68, 0, 5)),
    head_kind="pfld-plain",
)
NON_DEFAULT_TRAIN = TrainConfig(epochs=7, batch_size=3, lr_max=0.30000000000000004,
                                lr_min=0.0625, weight_decay=0.125, beta1=0.5, beta2=0.75,
                                eps=1e-06, seed=11)

REQUIRED_ONLY = """\
[model]

[eosa.1]
f_osa = 4
n_osa = 2
f_conv = 8

[head.p51]
points = 51
"""


def doc_block(after: str) -> str:
    """The first fenced block in docs/config.md after the line ``after``."""
    text = DOCS.read_text(encoding="utf-8")
    return re.search(re.escape(after) + r"\n.*?```\n(.*?)```", text, re.S).group(1)


def assert_no_default_fields(obj):
    for f in fields(obj):
        if f.default is not MISSING:
            assert getattr(obj, f.name) != f.default, f"{type(obj).__name__}.{f.name}"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("formats", [("p51",), ("p51", "p68", "p98")], ids=["1head", "3heads"])
def test_variant_configs_round_trip(variant, formats):
    config = apply_variant(default_config(formats), variant)
    assert parse_model_config(render_model_config(config)) == config


def test_every_model_field_round_trips():
    for obj in (NON_DEFAULT_MODEL, *NON_DEFAULT_MODEL.eosa, *NON_DEFAULT_MODEL.heads):
        assert_no_default_fields(obj)
    assert parse_model_config(render_model_config(NON_DEFAULT_MODEL)) == NON_DEFAULT_MODEL


def test_every_train_field_round_trips():
    assert_no_default_fields(NON_DEFAULT_TRAIN)
    assert parse_train_config(render_train_config(NON_DEFAULT_TRAIN)) == NON_DEFAULT_TRAIN


def test_stock_render_is_the_documented_example():
    assert render_model_config(default_config()) == doc_block("## Example: the stock architecture")


def test_train_defaults_render_as_documented():
    assert render_train_config(TrainConfig()) == doc_block("### `[train]`: optional; defaults shown")


def test_required_keys_alone_parse_to_the_defaults():
    config = parse_model_config(REQUIRED_ONLY)
    assert config == ModelConfig(eosa=(EosaConfig(4, 2, 8),), heads=(HeadConfig("p51", 51),))
    assert parse_train_config(REQUIRED_ONLY) == TrainConfig()
    assert parse_train_config(REQUIRED_ONLY + "\n[train]\n") == TrainConfig()


def test_model_and_train_share_one_file():
    text = render_model_config(NON_DEFAULT_MODEL) + "\n" + render_train_config(NON_DEFAULT_TRAIN)
    assert parse_model_config(text) == NON_DEFAULT_MODEL
    assert parse_train_config(text) == NON_DEFAULT_TRAIN


def parse_error(text, parse=parse_model_config) -> str:
    with pytest.raises(ConfigError) as exc:
        parse(text)
    return str(exc.value)


@pytest.mark.parametrize("text,message", [
    (REQUIRED_ONLY + "bogus = 1\n", "[head.p51]: unknown keys ['bogus']"),
    (REQUIRED_ONLY.replace("[model]\n", "[model]\nsize = 32\nwidth = 2\n"),
     "[model]: unknown keys ['size', 'width']"),
    (REQUIRED_ONLY.replace("f_conv = 8\n", ""), "[eosa.1]: missing required key 'f_conv'"),
    (REQUIRED_ONLY.replace("points = 51\n", ""), "[head.p51]: missing required key 'points'"),
    (REQUIRED_ONLY + "format = p51\n", "[head.p51]: unknown keys ['format']"),
    (REQUIRED_ONLY.replace("[eosa.1]", "[eosa.2]"), "[eosa.N] sections must be numbered 1..1"),
    (REQUIRED_ONLY.replace("[head.p51]", "[eosa.3]\nf_osa = 1\nn_osa = 1\nf_conv = 1\n\n"
                           "[head.p51]"), "[eosa.N] sections must be numbered 1..2"),
    (REQUIRED_ONLY.replace("[model]\n", "[model]\ninput_size = banana\n"),
     "[model] input_size: expected an integer"),
    (REQUIRED_ONLY.replace("n_osa = 2", "n_osa = 2.0"), "[eosa.1] n_osa: expected an integer"),
    (REQUIRED_ONLY.replace("points = 51", "points ="), "[head.p51] points: expected an integer"),
    ("[eosa.1]\nf_osa = 1\n", "config file lacks a [model] section"),
    ("[model]\n", "config file lacks [eosa.N] sections"),
    ("[model\n", "invalid config file: File contains no section headers.\n"
                 "file: '<string>', line: 1\n'[model\\n'"),
], ids=["unknown-key", "unknown-model-keys", "missing-eosa-key", "missing-head-key",
        "format-in-head", "eosa-from-2", "eosa-gap", "model-not-integer", "eosa-not-integer",
        "head-empty-value", "no-model", "no-eosa", "no-header"])
def test_model_parse_error_text(text, message):
    assert parse_error(text) == message


@pytest.mark.parametrize("line,message", [
    ("lr_max = fast", "[train] lr_max: expected a number"),
    ("epochs = 1.5", "[train] epochs: expected an integer"),
    ("momentum = 0.9", "[train]: unknown keys ['momentum']"),
    ("epochs = 0", "epochs must be >= 1, got 0"),
])
def test_train_parse_error_text(line, message):
    assert parse_error(f"[train]\n{line}\n", parse_train_config) == message


def test_two_faults_report_the_model_key_first():
    """An unknown [model] key is reported before any fault in the modules;
    a bad [model] value only after the modules and heads have been read."""
    broken_eosa = REQUIRED_ONLY.replace("f_conv = 8\n", "")
    assert parse_error(broken_eosa.replace("[model]\n", "[model]\nbogus = 1\n")) == (
        "[model]: unknown keys ['bogus']")
    assert parse_error(broken_eosa.replace("[model]\n", "[model]\ninput_size = x\n")) == (
        "[eosa.1]: missing required key 'f_conv'")


def test_load_config_file_reads_both_sections(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text(render_model_config(NON_DEFAULT_MODEL) + "\n"
                    + render_train_config(NON_DEFAULT_TRAIN))
    assert load_config_file(path) == (NON_DEFAULT_MODEL, NON_DEFAULT_TRAIN)
