"""Bit-exact binary serialization of float and quantized models.

The byte layout is normative and documented in docs/container.md: magic
"EFLD", a little-endian header, the architecture config as UTF-8 text, a
tensor table, and the payload section. Quantized activation sites are stored
as zero-length int8 entries named ``site:<name>`` carrying their scale and
zero point. Saving is deterministic, writes atomically (temp file + rename),
and save -> load -> save reproduces files byte-identically. Loading checks
every entry against the architecture's plan before it builds a model.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .config import parse_model_config, render_model_config
from .errors import ConfigError, ContainerError, CorruptionError
from .model import Model, iter_layers
from .quantize import QMAX, QMIN, QuantParams, QuantizedModel, plan_sites
from .tensor import Tensor

MAGIC = b"EFLD"
CONTAINER_VERSION = 1
FLAG_INT8 = 0x0001

_DTYPE_TAGS = {"float32": 0, "float64": 1, "int8": 2, "int32": 3}
_TAG_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_TAGS.items()}
_QUANTIZED_TAGS = (2, 3)


class _Entry:
    def __init__(self, name, array, scale=None, zero_point=None, payload=True):
        self.name = name
        self.array = array
        self.scale = scale
        self.zero_point = zero_point
        self.payload = array.tobytes() if payload else b""


def _entries_for_model(model: Model, config) -> list:
    entries = []
    for spec in iter_layers(config):
        for suffix in (".w", ".b"):
            name = spec.name + suffix
            entries.append(_Entry(name, model.params[name].data))
    return entries


def _entries_for_qmodel(qmodel: QuantizedModel, config) -> list:
    entries = []
    for spec in iter_layers(config):
        entries.append(
            _Entry(spec.name + ".w", qmodel.weights[spec.name],
                   qmodel.weight_scales[spec.name], 0)
        )
        entries.append(
            _Entry(spec.name + ".b", qmodel.biases[spec.name],
                   qmodel.bias_scales[spec.name], 0)
        )
    for site in plan_sites(config):
        qp = qmodel.activations[site]
        entries.append(
            _Entry(f"site:{site}", np.empty(0, dtype=np.int8), qp.scale, qp.zero_point,
                   payload=False)
        )
    return entries


def save(model, path, keep_heads=None) -> None:
    """Serialize the backbone, decoder, and selected heads only.

    ``keep_heads`` defaults to all heads, else picks them as
    ``ModelConfig.with_heads`` does. The stored config lists only the kept
    heads, so pruning commutes with inference.
    """
    config = model.config if keep_heads is None else model.config.with_heads(keep_heads)

    quantized = isinstance(model, QuantizedModel)
    entries = _entries_for_qmodel(model, config) if quantized else _entries_for_model(model, config)

    blob = render_model_config(config).encode("utf-8")
    table = bytearray()
    offset = 0
    for entry in entries:
        name = entry.name.encode("utf-8")
        arr = entry.array
        tag = _DTYPE_TAGS[arr.dtype.name]
        table += struct.pack("<H", len(name)) + name
        table += struct.pack("<BB", tag, arr.ndim if entry.payload else 0)
        if entry.payload:
            for dim in arr.shape:
                table += struct.pack("<I", dim)
        if tag in _QUANTIZED_TAGS:
            table += struct.pack("<di", entry.scale, entry.zero_point)
        table += struct.pack("<QQ", offset, len(entry.payload))
        offset += len(entry.payload)

    header = MAGIC + struct.pack("<HH", CONTAINER_VERSION, FLAG_INT8 if quantized else 0)
    header += struct.pack("<I", len(blob)) + blob
    header += struct.pack("<I", len(entries))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".efld-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(bytes(table))
            for entry in entries:
                fh.write(entry.payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise CorruptionError(f"{self.path}: truncated while reading {what}")
        piece = self.raw[self.pos : self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerError(f"{self.path}: {what} is not UTF-8 text") from None


def load(path):
    """Reconstruct a float Model or a QuantizedModel from a container file.

    The loaded model's forward outputs are bit-identical to the saved
    model's on the same dtype path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    reader = _Reader(raw, path)
    if reader.take(4, "magic") != MAGIC:
        raise ContainerError(f"{path}: bad magic; not a model container")
    version, flags = reader.unpack("<HH", "header")
    if version != CONTAINER_VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    (blob_len,) = reader.unpack("<I", "config length")
    blob = reader.text(blob_len, "config blob")
    try:
        config = parse_model_config(blob)
    except ConfigError as exc:
        raise ContainerError(f"{path}: config blob: {exc}") from None
    (count,) = reader.unpack("<I", "tensor count")

    table = []
    for _ in range(count):
        (name_len,) = reader.unpack("<H", "tensor name length")
        name = reader.text(name_len, "tensor name")
        tag, rank = reader.unpack("<BB", f"tensor {name} header")
        if tag not in _TAG_DTYPES:
            raise ContainerError(f"{path}: tensor {name!r} has unknown dtype tag {tag}")
        dims = tuple(reader.unpack("<I", f"tensor {name} dims")[0] for _ in range(rank))
        scale = zero_point = None
        if tag in _QUANTIZED_TAGS:
            scale, zero_point = reader.unpack("<di", f"tensor {name} quant params")
        offset, length = reader.unpack("<QQ", f"tensor {name} location")
        table.append((name, tag, dims, scale, zero_point, offset, length))

    payload_start = reader.pos
    payload_size = len(raw) - payload_start
    spans = []
    arrays = {}
    quant = {}
    for name, tag, dims, scale, zero_point, offset, length in table:
        if offset + length > payload_size:
            raise CorruptionError(f"{path}: tensor {name!r} payload out of bounds")
        for other, (lo, hi) in spans:
            if length and hi > offset and lo < offset + length:
                raise CorruptionError(f"{path}: tensors {name!r} and {other!r} overlap")
        spans.append((name, (offset, offset + length)))
        dtype = _TAG_DTYPES[tag]
        expected = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if dims else 0
        if dims and length != expected:
            raise CorruptionError(
                f"{path}: tensor {name!r} payload is {length} bytes, expected {expected}"
            )
        data = raw[payload_start + offset : payload_start + offset + length]
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(dims).copy() if dims else None
        quant[name] = (scale, zero_point)

    if flags & FLAG_INT8:
        return _assemble_quantized(path, config, arrays, quant)
    return _assemble_float(path, config, arrays)


def _check_plan(path, config, arrays, quant=None) -> tuple:
    """The architecture's layers, and its activation sites when ``quant`` is
    given, once every tensor of the container matches the plan: its name
    and shape and, with ``quant``, its scale (finite and > 0) and zero point
    (0 for a weight or bias, within [-128, 127] for a site)."""
    layers = list(iter_layers(config))
    sites = [] if quant is None else plan_sites(config)
    shapes = {}
    for spec in layers:
        shapes.update({spec.name + ".w": spec.weight_shape, spec.name + ".b": (spec.cout,)})
    shapes.update((f"site:{site}", ()) for site in sites)
    if set(arrays) != set(shapes):
        raise ContainerError(f"{path}: tensor names do not match the architecture")
    for name, shape in shapes.items():
        got = () if arrays[name] is None else arrays[name].shape
        if got != shape:
            raise ContainerError(f"{path}: tensor {name!r} has shape {got}, expected {shape}")
        if quant is None:
            continue
        scale, zero_point = quant[name]
        lo, hi = (0, 0) if shape else (QMIN, QMAX)  # a site has no dims
        if scale is None or not (math.isfinite(scale) and scale > 0) or not lo <= zero_point <= hi:
            raise ContainerError(f"{path}: tensor {name!r} has scale {scale} and zero point "
                                 f"{zero_point}; it needs a finite scale > 0 and a zero point "
                                 f"within [{lo}, {hi}]")
    return layers, sites


def _assemble_float(path, config, arrays) -> Model:
    layers, _ = _check_plan(path, config, arrays)
    dtypes = {array.dtype.name for array in arrays.values()}
    if len(dtypes) != 1 or not dtypes <= {"float32", "float64"}:
        raise ContainerError(f"{path}: float container holds dtypes {sorted(dtypes)}")
    params = {name: Tensor(arrays[name]) for spec in layers
              for name in (spec.name + ".w", spec.name + ".b")}
    return Model(config, params, dtypes.pop())


def _assemble_quantized(path, config, arrays, quant) -> QuantizedModel:
    layers, sites = _check_plan(path, config, arrays, quant)
    weights, weight_scales, biases, bias_scales = {}, {}, {}, {}
    for spec in layers:
        w_name, b_name = spec.name + ".w", spec.name + ".b"
        if arrays[w_name].dtype != np.int8 or arrays[b_name].dtype != np.int32:
            raise ContainerError(f"{path}: layer {spec.name!r} has wrong quantized dtypes")
        weights[spec.name] = arrays[w_name]
        weight_scales[spec.name] = quant[w_name][0]
        biases[spec.name] = arrays[b_name]
        bias_scales[spec.name] = quant[b_name][0]
    activations = {site: QuantParams(*quant[f"site:{site}"]) for site in sites}
    return QuantizedModel(config, weights, weight_scales, biases, bias_scales, activations)
