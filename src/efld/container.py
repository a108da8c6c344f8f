"""Bit-exact binary serialization of float and quantized models.

The byte layout is normative and documented in docs/container.md: magic
"EFLD", a little-endian header, the architecture config as UTF-8 text, a
tensor table, and the payload section. Quantized activation sites are stored
as zero-length int8 entries named ``site:<name>`` carrying their scale and
zero point. Saving is deterministic, writes atomically (temp file + rename),
and save -> load -> save reproduces files byte-identically. One list of the
tensors a config's container holds (``_layout``) is what save writes, what
load checks the table against before it builds a model, and what both
model kinds are assembled from.
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
from .quantize import QMAX, QMIN, QuantParams, QuantizedModel, layer_input_sites, plan_sites
from .tensor import Tensor

MAGIC = b"EFLD"
CONTAINER_VERSION = 1
FLAG_INT8 = 0x0001

_DTYPE_TAGS = {"float32": 0, "float64": 1, "int8": 2, "int32": 3}
_TAG_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_TAGS.items()}
_QUANTIZED_TAGS = (2, 3)


def _layout(config, quantized: bool) -> list:
    """Every tensor of a container of ``config``, in file order, as (name,
    shape, kind, key): each layer's "weight" and then its "bias", in plan
    order, keyed by the layer's name; then, for int8, one "site" entry of
    shape () per activation site, in execution order, keyed by the site."""
    tensors = []
    for spec in iter_layers(config):
        tensors.append((spec.name + ".w", spec.weight_shape, "weight", spec.name))
        tensors.append((spec.name + ".b", (spec.cout,), "bias", spec.name))
    if quantized:
        tensors += [(f"site:{site}", (), "site", site) for site in plan_sites(config)]
    return tensors


def save(model, path, keep_heads=None) -> None:
    """Serialize the backbone, decoder, and selected heads only.

    ``keep_heads`` defaults to all heads, else saves
    ``model.with_heads(keep_heads)``. The stored config lists only the kept
    heads, so pruning commutes with inference.
    """
    model = model if keep_heads is None else model.with_heads(keep_heads)
    quantized = isinstance(model, QuantizedModel)
    layout = _layout(model.config, quantized)

    table = bytearray()
    payloads = []
    offset = 0
    for name, shape, kind, key in layout:
        if kind == "site":  # a scale and zero point, no payload
            qp = model.activations[key]
            array, quant = np.empty(0, np.int8), (qp.scale, qp.zero_point)
        elif not quantized:
            array, quant = model.params[name].data, ()
        elif kind == "weight":
            array, quant = model.weights[key], (model.weight_scales[key], 0)
        else:
            array, quant = model.biases[key], (model.bias_scales[key], 0)
        payload = array.tobytes()
        encoded = name.encode("utf-8")
        table += struct.pack("<H", len(encoded)) + encoded
        table += struct.pack("<BB", _DTYPE_TAGS[array.dtype.name], len(shape))
        for dim in shape:
            table += struct.pack("<I", dim)
        if quant:
            table += struct.pack("<di", *quant)
        table += struct.pack("<QQ", offset, len(payload))
        offset += len(payload)
        payloads.append(payload)

    blob = render_model_config(model.config).encode("utf-8")
    header = MAGIC + struct.pack("<HH", CONTAINER_VERSION, FLAG_INT8 if quantized else 0)
    header += struct.pack("<I", len(blob)) + blob
    header += struct.pack("<I", len(layout))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".efld-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([header, table, *payloads])
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
    entries = []
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
        array = np.frombuffer(data, dtype=dtype).reshape(dims).copy() if dims else None
        entries.append((name, (dtype, array, scale, zero_point)))
    return _assemble(path, config, bool(flags & FLAG_INT8), entries)


def _assemble(path, config, quantized: bool, entries: list):
    """The model that ``entries`` (name, (dtype, array or None, scale, zero
    point)), in table order, make up, once they are the tensors of ``_layout``,
    in its order and each once: each with its shape; a float container in
    one float dtype; in an int8 container, every scale finite and > 0, the
    zero point of a weight or bias 0 and that of a site within [-128, 127],
    weights int8 and biases int32; then each bias's scale exactly its input
    site's scale times its weight's scale, as ``quantize_model`` computes
    it, and each site int8."""
    layout = _layout(config, quantized)
    if [name for name, _ in entries] != [tensor[0] for tensor in layout]:
        raise ContainerError(f"{path}: tensor names do not match the architecture")
    tensors = dict(entries)
    for name, shape, kind, _ in layout:
        _, array, scale, zero_point = tensors[name]
        got = () if array is None else array.shape
        if got != shape:
            raise ContainerError(f"{path}: tensor {name!r} has shape {got}, expected {shape}")
        lo, hi = (QMIN, QMAX) if kind == "site" else (0, 0)
        if quantized and (scale is None or not (math.isfinite(scale) and scale > 0)
                          or not lo <= zero_point <= hi):
            raise ContainerError(f"{path}: tensor {name!r} has scale {scale} and zero point "
                                 f"{zero_point}; it needs a finite scale > 0 and a zero point "
                                 f"within [{lo}, {hi}]")
    if not quantized:
        dtypes = {tensors[name][0].name for name, *_ in layout}
        if len(dtypes) != 1 or not dtypes <= {"float32", "float64"}:
            raise ContainerError(f"{path}: float container holds dtypes {sorted(dtypes)}")
        return Model(config, {name: Tensor(tensors[name][1]) for name, *_ in layout},
                     dtypes.pop())
    wanted = {"weight": np.int8, "bias": np.int32}
    for name, _, kind, key in layout:
        if kind in wanted and tensors[name][0] != wanted[kind]:
            raise ContainerError(f"{path}: layer {key!r} has wrong quantized dtypes")
    input_sites = layer_input_sites(config)
    weights, weight_scales, biases, bias_scales, activations = {}, {}, {}, {}, {}
    for name, _, kind, key in layout:
        dtype, array, scale, zero_point = tensors[name]
        if kind == "weight":
            weights[key], weight_scales[key] = array, scale
        elif kind == "bias":
            site, weight = f"site:{input_sites[key]}", key + ".w"
            product = tensors[site][2] * tensors[weight][2]
            if scale != product:
                raise ContainerError(f"{path}: tensor {name!r} has scale {scale!r}; it needs the "
                                     f"scale of {site!r} times that of {weight!r}, {product!r}")
            biases[key], bias_scales[key] = array, scale
        elif dtype != np.int8:
            raise ContainerError(f"{path}: tensor {name!r} has dtype {dtype}; a site entry "
                                 f"needs int8")
        else:
            activations[key] = QuantParams(scale, zero_point)
    return QuantizedModel(config, weights, weight_scales, biases, bias_scales, activations)
