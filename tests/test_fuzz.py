"""Seeded fuzzing of the loaders: truncations, bit flips and field resizes
applied to containers, PPM headers and JSONL records. ``load``,
``read_ppm_codes`` (and ``read_ppm`` over it) and ``load_dataset`` either
return or raise a ``DataError`` (exit code 2); any other exception is a
bug.

The CLI boundary is fuzzed too: hostile values for every config key and
global flag end in exit 0, 1 or 2 with a message naming the file and the
key or the flag, never in a traceback or an internal error (exit 3). Empty,
unknown and repeated head lists for ``export --heads``, and an unknown
``eval``/``infer --format``, end in exit 0 or 1 with a message naming the
heads."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from efld.cli import run
from efld.config import render_model_config, render_train_config
from efld.container import load, save
from efld.data import load_dataset, save_dataset
from efld.errors import DataError
from efld.image import read_ppm, read_ppm_codes
from efld.model import EosaConfig, HeadConfig, ModelConfig, build_model
from efld.quantize import calibrate, quantize_model
from efld.synthetic import generate_synthetic
from efld.training import TrainConfig

from conftest import reduced_config

CASES = 120  # per file kind and mutation


def truncate(raw: bytes, rng) -> bytes:
    return raw[: int(rng.integers(len(raw)))]


def flip_bits(raw: bytes, rng, end=None) -> bytes:
    """One to three bits flipped within the first ``end`` bytes."""
    out = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(end or len(out)))
        out[at] ^= 1 << int(rng.integers(8))
    return bytes(out)


def resize_field(raw: bytes, rng, end=None) -> bytes:
    """One to eight bytes inserted at or deleted from a point within the
    first ``end`` bytes, so that a field grows or shrinks under its length
    prefix and everything after it shifts."""
    at = int(rng.integers(end or len(raw)))
    n = int(rng.integers(1, 9))
    if rng.integers(2):
        return raw[:at] + rng.integers(256, size=n, dtype=np.uint8).tobytes() + raw[at:]
    return raw[:at] + raw[at + n :]


MUTATIONS = {"truncate": truncate, "flip": flip_bits, "resize": resize_field}


def loads_or_data_error(read, path):
    try:
        read(path)
    except DataError:
        pass


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """A float and an int8 container of a small two-head model, each with
    the length of its header and tensor table, where a mutation changes
    the structure rather than a weight."""
    config = ModelConfig(16, (EosaConfig(2, 1, 2), EosaConfig(2, 2, 2, "depthwise-separable")),
                         4, (HeadConfig("p3", 3, 1, 4), HeadConfig("p51", 51, 0, 2)))
    model = build_model(config, seed=2)
    samples = generate_synthetic(2, 16, seed=3, formats=["p51"])
    qmodel = quantize_model(model, calibrate(model, samples))
    out = {}
    for kind, m in (("float", model), ("int8", qmodel)):
        path = tmp_path_factory.mktemp("fuzz") / f"{kind}.efld"
        save(m, path)
        raw = path.read_bytes()
        payload = (sum(t.data.nbytes for t in m.params.values()) if kind == "float"
                   else sum(a.nbytes for a in (*m.weights.values(), *m.biases.values())))
        out[kind] = (raw, len(raw) - payload)
    return out


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("kind", ["float", "int8"])
def test_container_load_raises_only_data_errors(containers, kind, mutation, tmp_path):
    raw, structure = containers[kind]
    rng = np.random.default_rng([len(kind), len(mutation)])
    path = tmp_path / "fuzzed.efld"
    for _ in range(CASES):
        if mutation == "truncate":
            path.write_bytes(truncate(raw, rng))
        else:
            path.write_bytes(MUTATIONS[mutation](raw, rng, structure))
        loads_or_data_error(load, path)


def ppm_header_variants(rng):
    """A width, height or maxval field replaced by another token."""
    tokens = [b"0", b"-3", b"4", b"+4", b"007", b"65536", b"256", b"254", b"99999999999999999999",
              b"1e3", b"0x4", b"\xff", b"", b"4 4", b"-4"]
    for _ in range(CASES):
        fields = [b"P6", b"4", b"3", b"255"]
        fields[int(rng.integers(1, 4))] = tokens[int(rng.integers(len(tokens)))]
        yield b"\n".join(fields) + b"\n"


def test_read_ppm_raises_only_data_errors(tmp_path):
    rng = np.random.default_rng(7)
    pixels = rng.integers(256, size=4 * 3 * 3, dtype=np.uint8).tobytes()
    raw = b"P6\n4 3\n255\n" + pixels
    header = len(raw) - len(pixels)
    path = tmp_path / "fuzzed.ppm"
    mutated = [truncate(raw, rng) for _ in range(CASES)]
    mutated += [flip_bits(raw, rng, header) for _ in range(CASES)]
    mutated += [resize_field(raw, rng, header) for _ in range(CASES)]
    mutated += [h + pixels for h in ppm_header_variants(rng)]
    for data in mutated:
        path.write_bytes(data)
        try:
            codes = read_ppm_codes(path)
        except DataError:
            with pytest.raises(DataError):
                read_ppm(path)
            continue
        assert codes.dtype == np.uint8
        assert codes.ndim == 3 and codes.shape[2] == 3 and codes.size > 0
        np.testing.assert_array_equal(read_ppm(path), codes / 255.0)


def jsonl_field_variants(records, rng):
    """One record with a field of another size or type: a point dropped or
    added, a coordinate list nested deeper or replaced by another value."""
    values = [None, True, "0.5", "x" * 40, 1e400, 10 ** 400, -1, [], {}, [[0.5, 0.5]], 0.5,
              [0.5, 0.5, 0.5], [[0.5]], [[[0.5, 0.5]]], "images/missing.ppm", 7]
    for _ in range(CASES):
        edited = json.loads(json.dumps(records))
        record = edited[int(rng.integers(len(edited)))]
        points = record["annotations"]["p51"]
        choice = int(rng.integers(5))
        if choice == 0:
            points.pop(int(rng.integers(len(points))))
        elif choice == 1:
            points.append([0.5, 0.5])
        elif choice == 2:
            points[int(rng.integers(len(points)))] = values[int(rng.integers(len(values)))]
        elif choice == 3:
            points[0][int(rng.integers(2))] = values[int(rng.integers(len(values)))]
        else:
            key = ["image", "annotations"][int(rng.integers(2))]
            record[key] = values[int(rng.integers(len(values)))]
        yield "\n".join(json.dumps(r) for r in edited) + "\n"


def test_load_dataset_raises_only_data_errors(tmp_path):
    root = tmp_path / "ds"
    save_dataset(generate_synthetic(2, 8, seed=5, formats=["p51"]), root)
    index = root / "annotations.jsonl"
    text = index.read_bytes()
    records = [json.loads(line) for line in text.decode("utf-8").splitlines()]
    rng = np.random.default_rng(11)
    mutated = [truncate(text, rng) for _ in range(CASES)]
    mutated += [flip_bits(text, rng) for _ in range(CASES)]
    mutated += [resize_field(text, rng) for _ in range(CASES)]
    mutated += [v.encode("utf-8") for v in jsonl_field_variants(records, rng)]
    for data in mutated:
        index.write_bytes(data)
        loads_or_data_error(load_dataset, root)


HOSTILE = [b"nan", b"inf", b"-inf", b"-1", b"0", b"1e300", b"", b"word", b"\xff\xfe"]
CONFIG_CLASSES = {"model": ModelConfig, "eosa.1": EosaConfig, "head.p51": HeadConfig,
                  "train": TrainConfig}


def config_keys(text: bytes):
    """(section, key) for each field of the config classes that is a key of
    its section in ``text``."""
    keys = []
    for section, cls in CONFIG_CLASSES.items():
        body = text.split(f"[{section}]\n".encode(), 1)[1].split(b"\n\n", 1)[0]
        keys += [(section, f.name) for f in fields(cls)
                 if re.search(rb"(?m)^" + f.name.encode() + rb" = ", body)]
    return keys


def set_key(text: bytes, section: str, key: str, value: bytes) -> bytes:
    """``text`` with the first ``key`` line after ``[section]`` set to ``value``."""
    head, body = text.split(f"[{section}]\n".encode(), 1)
    body = re.sub(rb"(?m)^" + key.encode() + rb" = .*$", lambda _: key.encode() + b" = " + value,
                  body, count=1)
    return head + f"[{section}]\n".encode() + body


def test_train_config_values_exit_cleanly(tmp_path, capsys):
    """Every key takes every hostile value, then seeded pairs of them."""
    data = tmp_path / "data"
    save_dataset(generate_synthetic(4, 32, seed=1, formats=["p51"]), data)
    base = (render_model_config(reduced_config()) + "\n"
            + render_train_config(TrainConfig(epochs=1, batch_size=2))).encode()
    keys = config_keys(base)
    assert {key for _, key in keys} >= {f.name for f in fields(TrainConfig)}
    rng = np.random.default_rng(17)
    cases = [[(key, value)] for key in keys for value in HOSTILE]
    cases += [[(keys[int(i)], HOSTILE[int(rng.integers(len(HOSTILE)))]) for i in pair]
              for pair in (rng.choice(len(keys), 2, replace=False) for _ in range(40))]
    config = tmp_path / "fuzzed.ini"
    for edits in cases:
        text = base
        for (section, key), value in edits:
            text = set_key(text, section, key, value)
        config.write_bytes(text)
        capsys.readouterr()
        code = run(["train", "--config", str(config), "--data", str(data),
                    "--out", str(tmp_path / "m.efld")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (edits, err)
        assert "Traceback" not in err and "internal error" not in err, (edits, err)
        if code:
            last = err.splitlines()[-1]
            names = [key for (_, key), _ in edits] + ["not UTF-8"]
            assert str(config) in last and any(name in last for name in names), (edits, last)


@pytest.mark.parametrize("argv", [["--threads"], ["--seed"], ["synth", "--seed"]],
                         ids=["threads", "seed", "synth-seed"])
def test_flag_values_exit_cleanly(argv, tmp_path, monkeypatch, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    command = (["--count", "1", "--size", "8", "--out", str(tmp_path / "d")] if "synth" in argv
               else ["analyze", "--config", "default"])
    for value in [v.decode("utf-8", "replace") for v in HOSTILE] + ["1", "3"]:
        code = run([*argv, value, *command])
        err = capsys.readouterr().err
        assert code in (0, 1), (value, err)
        assert "Traceback" not in err and "internal error" not in err, (value, err)
        if code:
            assert err.startswith(f"error: argument {argv[-1]}: "), (value, err)


@pytest.fixture(scope="module")
def three_heads(tmp_path_factory):
    """A float container with heads p51, p68 and p98, and a 32 px dataset."""
    root = tmp_path_factory.mktemp("heads")
    save(build_model(reduced_config(("p51", "p68", "p98")), seed=1), root / "m.efld")
    save_dataset(generate_synthetic(2, 32, seed=2, formats=["p51"]), root / "data")
    return root


AVAILABLE = "available heads: p51, p68, p98"


@pytest.mark.parametrize("heads,last", [
    ("", f"error: a head subset must be nonempty; {AVAILABLE}"),
    (",", f"error: a head subset must be nonempty; {AVAILABLE}"),
    ("p40", f"error: unknown heads p40; {AVAILABLE}"),
    ("p51,p40", f"error: unknown heads p40; {AVAILABLE}"),
    ("p51,p51", None),
], ids=["empty", "comma", "unknown", "unknown-among-known", "repeated"])
def test_export_head_lists_exit_cleanly(three_heads, tmp_path, capsys, heads, last):
    out = tmp_path / "x.efld"
    code = run(["export", "--model", str(three_heads / "m.efld"), "--heads", heads,
                "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if last is None:
        assert code == 0 and load(out).head_formats() == ("p51",)
    else:
        assert code == 1 and not out.exists()
        assert err.splitlines()[-1] == last


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_unknown_format_exits_cleanly(three_heads, capsys, command):
    code = run([command, "--model", str(three_heads / "m.efld"), "--data",
                str(three_heads / "data"), "--format", "p40"])
    out, err = capsys.readouterr()
    assert code == 1 and not out and "Traceback" not in err
    assert err.splitlines()[-1] == f"error: unknown heads p40; {AVAILABLE}"
