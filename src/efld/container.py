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

import bisect
import math
import os
import struct
import tempfile

import numpy as np

from . import CONTAINER_VERSION
from .config import parse_model_config, render_model_config
from .errors import ConfigError, ContainerError, CorruptionError
from .model import Model, iter_layers
from .quantize import QMAX, QMIN, QuantParams, QuantizedModel, layer_input_sites, plan_sites
from .tensor import Tensor

MAGIC = b"EFLD"
FLAG_INT8 = 0x0001

_TAG_DTYPES = dict(enumerate(map(np.dtype, ["float32", "float64", "int8", "int32"])))
_DTYPE_TAGS = {dtype: tag for tag, dtype in _TAG_DTYPES.items()}
_QUANTIZED_TAGS = (2, 3)
_FLOAT_DTYPES = {np.dtype(np.float32), np.dtype(np.float64)}

# The fixed-size fields, read and written by precompiled structs.
_MAGIC = struct.Struct("4s")
_HEADER = struct.Struct("<HH")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_TAG_RANK = struct.Struct("<BB")
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(256))
_QUANT = struct.Struct("<di")
_LOCATION = struct.Struct("<QQ")


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
        table += _U16.pack(len(encoded)) + encoded
        table += _TAG_RANK.pack(_DTYPE_TAGS[array.dtype], len(shape))
        table += _DIMS[len(shape)].pack(*shape)
        if quant:
            table += _QUANT.pack(*quant)
        table += _LOCATION.pack(offset, len(payload))
        offset += len(payload)
        payloads.append(payload)

    blob = render_model_config(model.config).encode("utf-8")
    header = MAGIC + _HEADER.pack(CONTAINER_VERSION, FLAG_INT8 if quantized else 0)
    header += _U32.pack(len(blob)) + blob + _U32.pack(len(layout))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".efld-")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([header, table, *payloads])
        umask = os.umask(0o077)  # read the umask: mkstemp made the file 0600
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the file asked for, not the temporary one
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


class _Reader:
    """Reads a container's fields in order, each after one bounds check. The
    field ``what`` of a table entry is named ``tensor <name> <what>`` in an
    error, and formatted only then."""

    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def truncated(self, what: str, name) -> CorruptionError:
        what = what if name is None else f"tensor {name} {what}"
        return CorruptionError(f"{self.path}: truncated while reading {what}")

    def unpack(self, fmt: struct.Struct, what: str, name=None) -> tuple:
        pos = self.pos
        self.pos = pos + fmt.size
        if self.pos > len(self.raw):
            raise self.truncated(what, name)
        return fmt.unpack_from(self.raw, pos)

    def text(self, n: int, what: str) -> str:
        pos = self.pos
        self.pos = pos + n
        if self.pos > len(self.raw):
            raise self.truncated(what, None)
        try:
            return self.raw[pos : self.pos].decode("utf-8")
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
    if reader.unpack(_MAGIC, "magic") != (MAGIC,):
        raise ContainerError(f"{path}: bad magic; not a model container")
    version, flags = reader.unpack(_HEADER, "header")
    if version != CONTAINER_VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    (blob_len,) = reader.unpack(_U32, "config length")
    blob = reader.text(blob_len, "config blob")
    try:
        config = parse_model_config(blob)
    except ConfigError as exc:
        raise ContainerError(f"{path}: config blob: {exc}") from None
    (count,) = reader.unpack(_U32, "tensor count")

    table = []
    for _ in range(count):
        (name_len,) = reader.unpack(_U16, "tensor name length")
        name = reader.text(name_len, "tensor name")
        tag, rank = reader.unpack(_TAG_RANK, "header", name)
        if tag not in _TAG_DTYPES:
            raise ContainerError(f"{path}: tensor {name!r} has unknown dtype tag {tag}")
        dims = reader.unpack(_DIMS[rank], "dims", name)
        scale = zero_point = None
        if tag in _QUANTIZED_TAGS:
            scale, zero_point = reader.unpack(_QUANT, "quant params", name)
        offset, length = reader.unpack(_LOCATION, "location", name)
        table.append((name, tag, dims, scale, zero_point, offset, length))

    payload_start = reader.pos
    payload_size = len(raw) - payload_start
    scan = _may_overlap(table)
    spans = []
    entries = []
    for name, tag, dims, scale, zero_point, offset, length in table:
        if offset + length > payload_size:
            raise CorruptionError(f"{path}: tensor {name!r} payload out of bounds")
        if scan:
            for other, (lo, hi) in spans:
                if length and hi > offset and lo < offset + length:
                    raise CorruptionError(f"{path}: tensors {name!r} and {other!r} overlap")
            spans.append((name, (offset, offset + length)))
        dtype = _TAG_DTYPES[tag]
        items = math.prod(dims)
        if dims and length != items * dtype.itemsize:
            raise CorruptionError(f"{path}: tensor {name!r} payload is {length} bytes, "
                                  f"expected {items * dtype.itemsize}")
        array = (np.frombuffer(raw, dtype, items, payload_start + offset).reshape(dims).copy()
                 if dims else None)
        entries.append((name, (dtype, array, scale, zero_point)))
    return _assemble(path, config, bool(flags & FLAG_INT8), entries)


def _may_overlap(table) -> bool:
    """Whether two payloads of ``table`` overlap, or a zero-length entry's
    offset lies strictly inside a payload. The pairwise scan in ``load``,
    which checks each nonempty entry against every entry before it in the
    table, can find an overlap only then."""
    spans = sorted((offset, offset + length) for *_, offset, length in table if length)
    if any(lo < hi for (_, hi), (lo, _) in zip(spans, spans[1:])):
        return True
    starts = [lo for lo, _ in spans]
    for *_, offset, length in table:
        if not length:
            at = bisect.bisect_left(starts, offset)
            if at and offset < spans[at - 1][1]:
                return True
    return False


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
        dtypes = {tensors[name][0] for name, *_ in layout}
        if len(dtypes) != 1 or not dtypes <= _FLOAT_DTYPES:
            raise ContainerError(f"{path}: float container holds dtypes "
                                 f"{sorted(dtype.name for dtype in dtypes)}")
        return Model(config, {name: Tensor(tensors[name][1]) for name, *_ in layout},
                     dtypes.pop().name)
    wanted = {"weight": np.dtype(np.int8), "bias": np.dtype(np.int32)}
    for name, _, kind, key in layout:
        if kind in wanted and tensors[name][0] != wanted[kind]:
            raise ContainerError(f"{path}: layer {key!r} has wrong quantized dtypes")
    input_sites = layer_input_sites(config)
    weights, weight_scales, biases, activations = {}, {}, {}, {}
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
            biases[key] = array
        elif dtype != np.int8:
            raise ContainerError(f"{path}: tensor {name!r} has dtype {dtype}; a site entry "
                                 f"needs int8")
        else:
            activations[key] = QuantParams(scale, zero_point)
    return QuantizedModel(config, weights, weight_scales, biases, activations)
