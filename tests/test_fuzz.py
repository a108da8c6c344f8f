"""Seeded fuzzing of the loaders: truncations, bit flips and field resizes
applied to containers, PPM headers and JSONL records. ``load``,
``read_ppm_codes`` (and ``read_ppm`` over it) and ``load_dataset`` either
return or raise a ``DataError`` (exit code 2); any other exception is a
bug."""

import json

import numpy as np
import pytest

from efld.container import load, save
from efld.data import load_dataset, save_dataset
from efld.errors import DataError
from efld.image import read_ppm, read_ppm_codes
from efld.model import EosaConfig, HeadConfig, ModelConfig, build_model
from efld.quantize import calibrate, quantize_model
from efld.synthetic import generate_synthetic

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
