"""Int8 post-training quantization with min/max calibration, plus an
integer-only inference path.

Weights are per-tensor symmetric (zero point 0); activations are per-site
asymmetric, mapping the calibrated [min, max] onto [-128, 127]; biases are
int32 at input_scale * weight_scale. Requantization multiplies the integer
accumulator by a double-precision constant, rounds half away from zero, and
clamps, which pins a bit-exact, platform-independent contract. The constant
is (input_scale * weight_scale) / output_scale after a layer and
input_scale / output_scale for a ReLU (which first clamps at the input zero
point) or a concat operand; a head's final accumulator is multiplied by
input_scale * weight_scale and returned as reals.

The integer path compiles the model's execution plan (``build_plan``) once
per model, on its first forward, into backbone steps and head steps, and
runs each through the float path's interpreter, ``model.run_plan``. The
batch is split into at most ``model.STEP_LANES`` chunks of
ceil(B / STEP_LANES) samples; each chunk runs from the quantization of its
images to ``decoder.out`` on one of the lanes (``model.rows_on_lanes``), in
buffers of its own, and the heads then run once on the joined rows, on the
calling thread. A batch of one sample is one chunk, on the calling thread.
Each layer step takes in the ReLU step that alone reads its output. A spatial
convolution (every conv and depthwise layer but the flattened
``decoder.dw``) runs one block of samples at a time (up to
``_BLOCK_ELEMENTS`` = 2**16 input or output elements; one sample for the
large layers), so that its scratch stays in cache: it writes q - zero_point
into the interior of a zero-bordered float scratch, which the kernel body of
the float op (``ops._conv_gemm`` or ``ops._depthwise_taps``) reads as its
padded input; it then requantizes the kernel's exact sums (below) through a
float64 buffer into uint8 codes: 14 bytes of scratch per output element. It
maps the codes through the ReLU's table, and writes each concat operand
through that operand's table straight into its channel slice of the concat
buffer, so that the concat step only hands the buffer on.
A group of ``sibling_convs`` (``eosa1.extra`` with ``eosa1.osa.l0`` in the
stock model) is one such step: one scratch, one receptive-field copy per
sample and one ``_conv_gemm`` call, in which each layer has its own GEMM, so
that each requantizes its own contiguous accumulator with scalar constants
(one GEMM over the weights joined along cout, requantized with per-channel
rows and read back through strided channel slices, made batch 1 slower).
The step of a later layer of the group hands on the int8 value that the
group's step left in the call's buffers.
The input is quantized one sample at a time too, and an image with a NaN or
infinite pixel is rejected, named by its index in the batch. The heads'
linears and ``decoder.dw`` accumulate the whole chunk, or the whole batch,
through the float path's step, ``model._apply``, and share the
requantization. Every buffer belongs to one chunk or one call, so concurrent
forwards are safe. Every layer's integer sum is exact (below), so no split
of the batch into chunks or blocks changes a bit of the outputs.

A layer with fan-in K (kh*kw*cin for a convolution, kh*kw for a depthwise
convolution, the input width for a linear) accumulates in float32 when
K <= 514 and in float64 otherwise. The bound: |q - zero_point| <= 255 and
|w| <= 128, so every product, and every partial sum of any subset of the K
products, is an integer of magnitude at most K * 255 * 128 < 2**24, which
float32 holds exactly. Each addition is therefore exact in any summation
order, with or without fused multiply-add, and the float32 accumulator
equals the integer one. Above that bound float64 holds every partial sum
exactly (K * 255 * 128 stays far below 2**53). ReLU and concat
requantizations map int8 to int8, so they run as 256-entry tables built
with the same arithmetic; a layer maps its codes into a concat slice
through one table, its ReLU's table followed by the operand's.

A layer's code is the contract's for its exact accumulator A = y + b, the
kernel's sum y plus the int32 bias b, but it is not computed that way.
Compiling the plan proves, for every layer but a head's final one at once
(``_proved_offsets``), that four float64 passes give those bits for every
y the layer can reach: u = trunc(clip(fl(fl(y * m) + o), 0, 255)), with
the per-channel offset o = fl(fl(b * m) + (zero_point + 128.5)) laid along
an output row as the bias is, is the code plus 128 (``_floor_requant``).
That is a floor map, and it fails at an exact negative tie, which the
contract rounds away from zero: a dyadic multiplier such as 0.5 with a
reachable negative side. A layer whose proof fails keeps the contract's
chain: y + b in float64, times m, ``_to_int8``, then XOR 0x80. Either way
a layer step's codes are the int8 code plus 128 (its uint8 view XOR
0x80), so its ReLU and concat tables are built in that order, rotated by
128 from a concat step's tables, which its int8 operands index through
their uint8 view.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ShapeError, UsageError, ValidationError
from .image import stack_images
from .model import (STEP_LANES, LayerSpec, Model, ModelConfig, PlanStep, _apply, build_plan,
                    iter_layers, last_reads, model_forward, rows_on_lanes, run_plan,
                    sibling_convs)
from .ops import _conv_gemm, _depthwise_taps, _out_and_pad, _receptive_fields
from .tensor import LayerParams, Tensor

log = logging.getLogger(__name__)

SCALE_FLOOR = 1e-8
QMIN, QMAX = -128, 127
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
# Every int8 value, at the index of its uint8 view: the domain of a concat step's table.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8)
# Every int8 value at index code + 128 (its uint8 view XOR 0x80): the domain
# of a layer step's tables, which ``_floor_requant``'s codes index.
_LEVELS = np.arange(QMIN, QMAX + 1).astype(np.int8)


def _round_half_away(x, out=None, half=None):
    """trunc(x + copysign(0.5, x)) in float64, written to ``out`` when given,
    else to a fresh buffer. copysign(0.5, x) goes to ``half`` when given,
    else to ``out``: ``half`` may be a buffer of any float dtype shaped like
    ``x``, since each holds ±0.5 exactly, and then ``out`` may be ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    halves = np.copysign(0.5, x, out=out if half is None else half)
    np.add(x, halves, out=out)
    return np.trunc(out, out=out)


def _to_int8(x, zero_point: int, out=None, half=None) -> np.ndarray:
    """clamp(round_half_away(x) + zero_point, -128, 127) as int8, written to
    ``out`` when given. Given ``half`` (see ``_round_half_away``), the float64
    ``x`` is rounded in place, so the caller must own it; else it is rounded
    in a fresh buffer."""
    q = _round_half_away(x, None if half is None else x, half)
    q += zero_point
    np.clip(q, QMIN, QMAX, out=q)
    if out is None:
        return q.astype(np.int8)
    out[...] = q
    return out


def _floor_requant(y, multiplier: float, offset: np.ndarray, real, codes) -> np.ndarray:
    """codes = trunc(clip(fl(fl(y * multiplier) + offset), 0, 255)) as uint8,
    in four passes, through the float64 scratch ``real`` shaped like ``y``;
    ``offset`` runs along the last axis of ``y.reshape(-1, len(offset))``.
    With an offset of ``_proved_offsets``, codes is the int8 code of
    ``y`` + bias, plus 128. The float64 ``dtype`` is forced: numpy 2 would
    multiply a float32 ``y`` by a Python float in float32."""
    np.multiply(y, multiplier, out=real, dtype=np.float64)
    rows = real.reshape(-1, len(offset))
    np.add(rows, offset, out=rows)
    np.clip(real, 0, 255, out=real)
    codes[...] = real
    return codes


def _chain_requant(y, bias: np.ndarray, multiplier: float, zero_point: int, real,
                   codes) -> np.ndarray:
    """``_floor_requant``'s codes by the contract's own chain, for a layer
    whose offset is not proved: real = y + bias (along the last axis of
    ``y.reshape(-1, len(bias))``), times the multiplier, through
    ``_to_int8`` with ``y`` as its ``half`` buffer, then XOR 0x80."""
    np.add(y.reshape(-1, len(bias)), bias, out=real.reshape(-1, len(bias)))
    real *= multiplier
    _to_int8(real, zero_point, out=codes.view(np.int8), half=y)
    return np.bitwise_xor(codes, 0x80, out=codes)


def _proved_offsets(layers) -> list:
    """Per layer (multiplier m > 0, output zero point, int32 bias b, fan-in),
    the per-channel offsets o = fl(fl(b * m) + (zero_point + 128.5)) of
    ``_floor_requant``, when they are proved to give
    ``_to_int8((y + b) * m, zero_point)`` + 128 for every exact kernel sum y
    that the layer can reach (|y| <= fan_in * 255 * 128), else None.

    Both maps are non-decreasing step functions of the integer y, so they
    are equal iff, at each level L = -127..127, they put the same integers
    at or above L. The contract puts there the y whose accumulator A = y + b
    is at least a threshold T_L, which ``_to_int8`` itself finds among the
    three integers around (L - zero_point - 0.5) / m; a level whose step
    lies outside them fails the proof. The fast map puts y there iff its value
    fl(fl(y * m) + o) is at least L + 128. That value lies within
    2**-51 * ((|y| + |b|) * m + 256) of y * m + o = A * m + h, where
    h = o - b * m is the channel's zero_point + 128.5 as its offset holds
    it. So a level at which T_L * m + h clears L + 128, and
    (T_L - 1) * m + h stays below it, by more than
    2**-48 * ((|T_L| + 2 * max|b| + 1) * m + 256) for the layer's least and
    greatest h, holds in every channel. Any other level (an exact or near
    tie, such as a dyadic m like 0.5 makes, or a threshold beyond every
    reachable A) is checked per channel by ``_fits_every_channel``. One
    vectorized pass serves every layer; the per-channel check runs only for
    a layer with such a level. Exact negative ties, which the contract
    rounds away from zero and the fast map up, fail it."""
    counts = [len(b) for _, _, b, _ in layers]
    starts = np.cumsum([0] + counts[:-1])
    m, zp, reach = (np.array(column, dtype=np.float64)[:, None] for column in zip(
        *[(mul, z, fan_in * (QMAX - QMIN) * -QMIN) for mul, z, _, fan_in in layers]))
    bias = np.concatenate([b for _, _, b, _ in layers]).astype(np.float64)
    scaled = bias * np.repeat(m[:, 0], counts)
    offset = scaled + np.repeat(zp[:, 0] + 128.5, counts)
    half = offset - scaled  # h, within 2**-52 * (|b| * m + 256) of o - b * m
    low, high, big = (ufunc.reduceat(values, starts)[:, None] for ufunc, values in (
        (np.minimum, half), (np.maximum, half), (np.maximum, np.abs(bias))))
    edge = reach - INT32_MIN + 8  # beyond every reachable accumulator
    levels = np.arange(QMIN + 1, QMAX + 1)
    guess = np.minimum(np.maximum(np.ceil((levels - zp - 0.5) / m), -edge), edge)
    low_end, high_end = guess == -edge, guess == edge
    # whether the code is at least L at guess - 1, guess and guess + 1
    below, at, above = _to_int8((guess + np.array([-1, 0, 1])[:, None, None]) * m, zp) >= levels
    bracketed = ((above | high_end) & (~below | low_end)).all(axis=1)
    # T_L; where every reachable A is on one side of it, a value on that side
    thresholds = guess + 2.0 - below - at - above
    error = 2.0**-48 * ((np.abs(thresholds) + 2 * big + 1) * m + 256)
    target = levels + 128
    tied = ((thresholds * m + low - target <= error)
            | (target - ((thresholds - 1) * m + high) <= error) | low_end | high_end)
    proved = []
    for (multiplier, _, b, _), o, ok, ties, t, span in zip(
            layers, np.split(offset, starts[1:]), bracketed, tied, thresholds, reach[:, 0]):
        if ok and ties.any():
            ok = _fits_every_channel(multiplier, o, b, span, t[ties], levels[ties])
        proved.append(o if ok else None)
    return proved


def _fits_every_channel(multiplier: float, offset, bias, reach: float, thresholds,
                        levels) -> bool:
    """Whether, in every channel, ``_floor_requant``'s value with ``offset``
    reaches L + 128 at y = T_L - b and stays below it at y = T_L - b - 1,
    for each level L of ``levels`` and its threshold T_L of
    ``thresholds``, at each such y within [-reach, reach], and at the
    reach's end for a threshold beyond it (see ``_proved_offsets``)."""
    gap = thresholds - bias[:, None].astype(np.float64)  # T_L - b: the least y at or above L
    fast_at = np.clip(gap, -reach, reach) * multiplier + offset[:, None]
    fast_below = np.clip(gap - 1, -reach, reach) * multiplier + offset[:, None]
    fits_at = (gap > reach) | (fast_at >= levels + 128)
    fits_below = (gap <= -reach) | (fast_below < levels + 128)
    return bool(fits_at.all() and fits_below.all())


def accumulator_dtype(spec: LayerSpec):
    """float32 when every partial sum of the layer's integer accumulator is
    exact in float32 (fan-in * 255 * 128 < 2**24), else float64."""
    return np.float32 if spec.fan_in * (QMAX - QMIN) * -QMIN < 2**24 else np.float64


@dataclass(frozen=True)
class QuantParams:
    """Affine int8 mapping: real = (q - zero_point) * scale."""

    scale: float
    zero_point: int

    def __post_init__(self):
        if not (self.scale > 0.0):
            raise UsageError(f"quantization scale must be > 0, got {self.scale}")
        if not (QMIN <= self.zero_point <= QMAX):
            raise UsageError(f"zero point {self.zero_point} outside [{QMIN}, {QMAX}]")


def params_from_range(lo: float, hi: float, site: str) -> QuantParams:
    """Asymmetric params mapping [lo, hi] of activation site ``site`` onto
    [-128, 127]."""
    scale = (hi - lo) / 255.0
    if scale < SCALE_FLOOR:
        log.warning("site %s has constant activations (range [%g, %g]); flooring scale",
                    site, lo, hi)
        scale = SCALE_FLOOR
    zp = int(np.clip(-128.0 - float(_round_half_away(lo / scale)), QMIN, QMAX))
    return QuantParams(scale=scale, zero_point=zp)


def plan_sites(config: ModelConfig) -> list:
    """Every activation site, in execution order, starting at the input."""
    return ["input"] + [step.output for step in build_plan(config)]


def layer_input_sites(config: ModelConfig) -> dict:
    return {step.layer: step.inputs[0] for step in build_plan(config) if step.layer}


def calibrate(model: Model, dataset, batch_size: int = 32) -> dict:
    """Float forward passes over every calibration sample, recording global
    per-site min/max and deriving asymmetric int8 params. Sites after ReLU
    get their min clamped to 0 so exact zero stays representable. The
    dataset is read once, one batch at a time, each sample through its
    ``pixels`` as ``data.Sample`` holds them. The forward reports each
    backbone site once per block of samples, from the lanes in any block
    order: a block's min and max merge under a lock into the range of the
    batch, with a NaN kept whichever block saw it, so the ranges of finite
    values do not depend on the order. Raises ``CalibrationError`` naming
    the first site, in plan order, whose range is not finite."""
    ranges, lock = {}, threading.Lock()

    def observer(site, value):
        lo, hi = float(value.min()), float(value.max())
        with lock:
            old_lo, old_hi = ranges.get(site, (lo, hi))
            ranges[site] = (np.minimum(old_lo, lo), np.maximum(old_hi, hi))

    samples = iter(dataset)
    # a forward that overflows shows in the ranges, and is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        while chunk := list(islice(samples, batch_size)):
            crops = stack_images([s.pixels for s in chunk], model.dtype)
            model_forward(model, Tensor(crops), tape=None, observer=observer)
    if not ranges:
        raise UsageError("calibrate requires a nonempty dataset")

    relu_sites = {step.output for step in build_plan(model.config) if step.op == "relu"}
    params = {}
    for site in plan_sites(model.config):
        lo, hi = map(float, ranges[site])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise CalibrationError(f"site {site!r} has calibration range [{lo}, {hi}], "
                                   f"which is not finite")
        if site in relu_sites:
            lo = 0.0
        params[site] = params_from_range(lo, hi, site)
    return params


class QuantizedModel:
    """Int8 weights/activations with per-tensor scale and zero point, plus
    the float reference config. Immutable; concurrent forwards are safe."""

    def __init__(self, config: ModelConfig, weights: dict, weight_scales: dict,
                 biases: dict, activations: dict):
        self.config = config
        self.weights = weights
        self.weight_scales = weight_scales
        self.biases = biases
        self.activations = activations
        self.plan = build_plan(config)

    @cached_property
    def bias_scales(self) -> dict:
        """Each layer's int32 bias scale: its input site's scale times its
        weight's, the float64 product that ``quantize_model`` quantizes the
        bias with."""
        sites = layer_input_sites(self.config)
        return {name: self.activations[sites[name]].scale * w_scale
                for name, w_scale in self.weight_scales.items()}

    @property
    def dtype(self) -> str:
        return "int8"

    def head_formats(self) -> tuple:
        return tuple(h.format for h in self.config.heads)

    def weight_byte_count(self) -> int:
        return sum(w.size for w in self.weights.values())

    def parameter_count(self) -> int:
        return self.weight_byte_count() + sum(b.size for b in self.biases.values())

    def with_heads(self, formats) -> "QuantizedModel":
        """This model over ``config.with_heads(formats)``: the same arrays,
        scales and site parameters, those of its own layers and sites only.
        The one way to run or save a head subset."""
        config = self.config.with_heads(formats)
        layers = [spec.name for spec in iter_layers(config)]
        tables = [{name: table[name] for name in layers}
                  for table in (self.weights, self.weight_scales, self.biases)]
        return QuantizedModel(config, *tables,
                              {site: self.activations[site] for site in plan_sites(config)})

    @cached_property
    def _states(self) -> "_Int8Plan":
        """The compiled int8 plan (see ``_compile``). Built on the first
        forward, so that loading a container or quantizing a model does not
        pay for it."""
        return _compile(self)


def quantize_model(model: Model, activations: dict) -> QuantizedModel:
    """Per-tensor symmetric weights (scale = max|w| / 127), int32 biases at
    input_scale * weight_scale."""
    config = model.config
    for site in plan_sites(config):
        if site not in activations:
            raise CalibrationError(f"calibration does not cover site {site!r}")
    in_sites = layer_input_sites(config)
    weights, weight_scales, biases = {}, {}, {}
    for spec in iter_layers(config):
        w = model.params[spec.name + ".w"].data.astype(np.float64)
        b = model.params[spec.name + ".b"].data.astype(np.float64)
        w_scale = float(np.abs(w).max()) / QMAX
        if w_scale < SCALE_FLOOR:
            w_scale = SCALE_FLOOR
        q_w = _to_int8(w / w_scale, 0)
        in_scale = activations[in_sites[spec.name]].scale
        b_scale = in_scale * w_scale
        q_b = _round_half_away(b / b_scale)
        clipped = int(np.count_nonzero((q_b < INT32_MIN) | (q_b > INT32_MAX)))
        if clipped:
            log.warning("layer %s: %d of %d int32 bias entries saturate and are clipped",
                        spec.name, clipped, q_b.size)
        q_b = np.clip(q_b, INT32_MIN, INT32_MAX).astype(np.int32)
        weights[spec.name] = q_w
        weight_scales[spec.name] = w_scale
        biases[spec.name] = q_b
    return QuantizedModel(config, weights, weight_scales, biases, dict(activations))


def _requant(values, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    shifted = values.astype(np.float64) - in_qp.zero_point
    return _to_int8(shifted * (in_qp.scale / out_qp.scale), out_qp.zero_point)


def _relu_table(in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """The ReLU's requantization, indexed by code + 128."""
    return _requant(np.maximum(_LEVELS, in_qp.zero_point), in_qp, out_qp)


# A blocked layer takes as many samples at a time as keep its block's input
# and output at most this many elements each (one sample when a sample alone
# holds more), so that the block's float scratch stays in cache.
_BLOCK_ELEMENTS = 1 << 16


class _Output(NamedTuple):
    """One layer of a compiled layer step: its weights, its requantization,
    and where its int8 codes go. Its tables are indexed by code + 128."""

    params: LayerParams  # int8 weights cast to the accumulator dtype, zero bias
    bias: np.ndarray  # the int32 bias in float64, along one output row if blocked
    offset: np.ndarray | None  # proved (``_proved_offsets``), along the bias's row; or None
    multiplier: float  # see the module docstring
    zero_point: int  # of the layer's output site; unused for a head output
    site: str  # the fused ReLU's site, else the layer's
    table: np.ndarray  # the fused ReLU's table; the identity without one
    keep: bool  # a later step reads the site's int8 value
    writes: tuple  # per concat: (site, its channels, first channel, ReLU-then-operand table)

    def allocate(self, batch: int, y, buffers: dict) -> tuple:
        """This call's int8 value (None unless ``keep``), its concat slices,
        and the uint8 scratch of a block shaped like ``y``."""
        shape = (batch,) + y.shape[1:]
        out = np.empty(shape, np.int8) if self.keep else None
        dests = [_concat_buffer(buffers, site, shape[:-1] + (channels,))[..., lo : lo + shape[-1]]
                 for site, channels, lo, _ in self.writes]
        return out, dests, (np.empty(y.shape, np.uint8), np.empty(y.shape, np.int8))


class _Layer(NamedTuple):
    """A conv, depthwise or linear step of the compiled int8 plan, with the
    ReLU step that alone reads its output fused in. A group of
    ``sibling_convs`` is one step: its layers share one scratch and one
    receptive-field copy per sample, and each has its own GEMM and
    requantization."""

    step: PlanStep  # the plan step of the (first) layer
    in_zero_point: int
    head: bool  # a head's final layer, whose accumulator is returned as reals
    blocked: bool  # a spatial convolution, run a block of samples at a time
    outputs: tuple  # an ``_Output`` per layer, in plan order

    @property
    def inputs(self) -> tuple:
        return self.step.inputs

    @property
    def output(self) -> str:
        return self.outputs[0].site

    def run(self, operands, buffers: dict):
        """The first layer's int8 value (None when only concats written in
        place read it), or a head's reals; a later layer's value goes to
        ``buffers`` under its site, for its own step to hand on. ``buffers``
        holds this call's concat buffers and group values by site."""
        (q,) = operands
        for rows, ys, reals in _accumulate(self, q):
            if self.head:
                (o,), (y,), (real,) = self.outputs, ys, reals
                np.add(y, o.bias, out=real)
                real *= o.multiplier
                return real
            if rows.start == 0:  # the first block sizes this call's buffers
                targets = [o.allocate(len(q), y, buffers) for o, y in zip(self.outputs, ys)]
            n = len(ys[0])
            for o, y, real, (out, dests, (code, mapped)) in zip(self.outputs, ys, reals, targets):
                # Requantize the block, then map it through the ReLU table and
                # through each concat's table into its slice, while it is in cache.
                codes = code[:n]
                if o.offset is None:  # the layer's proof failed
                    _chain_requant(y, o.bias, o.multiplier, o.zero_point, real, codes)
                else:
                    _floor_requant(y, o.multiplier, o.offset, real, codes)
                if out is not None:  # mode "wrap" (codes are 0..255) does not buffer ``out``
                    np.take(o.table, codes, out=out[rows], mode="wrap")
                for dest, (*_, table) in zip(dests, o.writes):
                    # A contiguous take and a strided copy beat a strided take (38 vs 54 µs / 32K).
                    np.take(table, codes, out=mapped[:n], mode="wrap")
                    dest[rows] = mapped[:n]
        for o, (out, _, _) in zip(self.outputs[1:], targets[1:]):
            buffers[o.site] = out
        return targets[0][0]


class _Tables(NamedTuple):
    """A concat step of the compiled int8 plan that no layer step writes in
    place: it maps each operand through its int8-to-int8 table and joins
    the results on the last axis. (No ReLU step is left to run alone:
    ``build_plan`` puts each ReLU after a layer as its only reader.)"""

    inputs: tuple
    output: str
    tables: tuple

    def run(self, operands, buffers: dict):
        return np.concatenate([np.take(table, q.view(np.uint8))
                               for q, table in zip(operands, self.tables)], axis=-1)


class _Buffered(NamedTuple):
    """A step whose value an earlier step of the call put in its buffers: a
    concat whose operands' layer steps wrote it in place, or a layer that
    ran in the step of the first layer of its sibling group. It hands the
    value on."""

    inputs: tuple
    output: str

    def run(self, operands, buffers: dict):
        return buffers.pop(self.output)


class _Section(NamedTuple):
    """Compiled steps of the int8 plan, run through ``run_plan``."""

    steps: tuple
    drops: list  # ``model.last_reads(steps)``

    def run(self, values: dict) -> dict:
        buffers = {}  # this run's concat buffers and group values, by site
        return run_plan(self.steps, values, lambda step, operands: step.run(operands, buffers),
                        self.drops)


class _Int8Plan(NamedTuple):
    input: QuantParams
    backbone: _Section  # from the int8 input to ``decoder.out``, run per chunk of samples
    heads: _Section  # every head, run on the whole batch


def _concat_buffer(buffers: dict, site: str, shape) -> np.ndarray:
    """This call's int8 buffer of the concat ``site``, made by its first writer."""
    buf = buffers.get(site)
    if buf is None:
        buf = buffers[site] = np.empty(shape, np.int8)
    return buf


def _blocked(step: PlanStep) -> bool:
    return step.op in ("conv", "depthwise") and not step.flatten


def _compile(qmodel: QuantizedModel) -> _Int8Plan:
    """The int8 plan of ``qmodel.plan``: the backbone steps, from the int8
    input to ``decoder.out``, and the head steps, each with its own
    ``last_reads``. Each layer step takes in the ReLU step that alone reads
    its output. A concat whose operands all come from blocked layer steps is
    written in place by those steps, each through its operand's table into
    its channel slice. Any other concat maps its operands through tables."""
    plan, act = qmodel.plan, qmodel.activations
    readers = {}
    for step in plan:
        for site in step.inputs:
            readers.setdefault(site, []).append(step)
    fused, layer_of = {}, {}  # the ReLU taken in, by layer; the layer, by its output site
    for step in plan:
        if step.spec is not None:
            after = readers.get(step.output, [])
            fused[step] = after[0] if [r.op for r in after] == ["relu"] else None
            layer_of[(fused[step] or step).output] = step
    slices = {}  # operand site -> [(concat site, its channels, first channel)]
    for step in plan:
        if step.op == "concat" and all(site in layer_of and _blocked(layer_of[site])
                                       for site in step.inputs):
            widths = [layer_of[site].spec.cout for site in step.inputs]
            for k, site in enumerate(step.inputs):
                slices.setdefault(site, []).append((step.output, sum(widths), sum(widths[:k])))
    in_place = {site for entries in slices.values() for site, _, _ in entries}
    taken = set(fused.values())
    groups = {group[0]: group for group in sibling_convs(plan)}
    later = {step for group in groups.values() for step in group[1:]}
    heads_out = {f"head.{fmt}.out" for fmt in qmodel.head_formats()}
    requantized = [step for step in plan if step.spec is not None and step.output not in heads_out]
    offsets = dict(zip(requantized, _proved_offsets([
        (_multiplier(qmodel, step), act[step.output].zero_point, qmodel.biases[step.spec.name],
         step.spec.fan_in) for step in requantized])))

    def layer_output(layer):
        site = (fused[layer] or layer).output
        keep = any(r.output not in in_place for r in readers.get(site, ()))
        return fused[layer], keep, slices.get(site, ())

    backbone, heads = [], []
    for step in plan:
        steps = heads if step.stage.startswith("head.") else backbone
        if step in taken:
            continue
        if step.output in in_place:
            steps.append(_Buffered(step.inputs, step.output))
        elif step.spec is None:
            steps.append(_Tables(step.inputs, step.output, tuple(
                _requant(_CODES, act[site], act[step.output]) for site in step.inputs)))
        elif step in later:  # it ran in the step of its group's first layer
            steps.append(_Buffered((), (fused[step] or step).output))
        else:
            group = groups.get(step, (step,))
            steps.append(_compile_layer(qmodel, group, [layer_output(layer) for layer in group],
                                        offsets))
    return _Int8Plan(act["input"], *(_Section(tuple(steps), last_reads(steps))
                                     for steps in (backbone, heads)))


def _multiplier(qmodel: QuantizedModel, step: PlanStep) -> float:
    """The requantization multiplier of a layer that is not a head's final
    one: its bias scale over its output site's scale."""
    return qmodel.bias_scales[step.spec.name] / qmodel.activations[step.output].scale


def _compile_layer(qmodel: QuantizedModel, group, outputs, offsets: dict) -> _Layer:
    """The step of one layer, or of a group of sibling convolutions, from
    each layer's (ReLU taken in, keep, concat slices) and the
    ``_proved_offsets`` of every layer but a head's final one, by step."""
    act, step = qmodel.activations, group[0]
    dtype = accumulator_dtype(step.spec)
    in_qp = act[step.inputs[0]]
    head = step not in offsets
    blocked = _blocked(step)
    row = step.spec.out_hw[1] if blocked else 1  # a blocked layer adds its bias along rows
    compiled = []
    for layer, (relu, keep, slices) in zip(group, outputs):
        name, out_qp = layer.spec.name, act[layer.output]
        w = qmodel.weights[name]
        params = LayerParams(layer.spec.kind, Tensor(w.astype(dtype)),
                             Tensor(np.zeros(w.shape[-1], dtype)))
        bias = qmodel.biases[name]
        multiplier = qmodel.bias_scales[name] if head else _multiplier(qmodel, layer)
        offset = None if head else offsets[layer]
        site = (relu or layer).output
        table = _relu_table(out_qp, act[site]) if relu else _LEVELS
        writes = tuple((concat, channels, first, _requant(table, act[site], act[concat]))
                       for concat, channels, first in slices)
        compiled.append(_Output(params, np.tile(bias.astype(np.float64), row),
                                None if offset is None else np.tile(offset, row), multiplier,
                                out_qp.zero_point, site, table, keep, writes))
    return _Layer(step, in_qp.zero_point, head, blocked, tuple(compiled))


def _accumulate(layer: _Layer, q: np.ndarray):
    """Yield (rows, ys, reals): per layer of the step, the kernel's exact
    integer sums for the int8 input ``q[rows]``, bias excluded, in the
    accumulator dtype, and a float64 buffer of the same shape; the caller
    may overwrite both. A blocked step yields one block of samples at a
    time: it writes q - zero_point into the interior of a zero-bordered
    scratch, which the ``ops`` kernel reads as its padded input, and reuses
    every buffer; the layers of a group read one receptive-field copy per
    sample. A whole-batch layer runs its ``ops`` op once and yields all
    rows."""
    first = layer.outputs[0]
    dtype = first.params.weights.data.dtype
    if not layer.blocked:
        x = Tensor(np.subtract(q, layer.in_zero_point, dtype=dtype))
        y = _apply(layer.step, first.params, [x]).data
        yield slice(0, len(q)), [y], [np.empty(y.shape)]
        return
    spec, outputs = layer.step.spec, layer.outputs
    batch, h, w, cin = q.shape
    (kh, kw), stride = spec.kernel, spec.stride
    out_h, pt, pb = _out_and_pad(spec.name, h, kh, stride, spec.padding)
    out_w, pl, pr = _out_and_pad(spec.name, w, kw, stride, spec.padding)
    weights = [o.params.weights.data for o in outputs]
    widths = [wt.shape[-1] for wt in weights]
    block = min(batch, max(1, _BLOCK_ELEMENTS // max(h * w * cin, out_h * out_w * sum(widths))))
    padded = np.zeros((block, h + pt + pb, w + pl + pr, cin), dtype)
    kernel_outs = [np.empty((block, out_h, out_w, c), dtype) for c in widths]
    reals = [np.empty(y.shape) for y in kernel_outs]
    gemm = [wt.reshape(-1, c) for wt, c in zip(weights, widths)]
    for start in range(0, batch, block):
        rows = slice(start, min(start + block, batch))
        n = rows.stop - start
        x = padded[:n]
        ys = [y[:n] for y in kernel_outs]
        np.subtract(q[rows], layer.in_zero_point, out=x[:, pt : pt + h, pl : pl + w], dtype=dtype)
        if layer.step.op == "conv":
            _conv_gemm(_receptive_fields(x, kh, kw, stride, out_h, out_w), gemm, ys)
        else:
            ys[0].fill(0)
            _depthwise_taps(x, weights[0], stride, ys[0])
        yield rows, ys, [real[:n] for real in reals]


def _quantize_images(images: np.ndarray, qp: QuantParams, first: int) -> np.ndarray:
    """The int8 input site of float64 ``images``, samples ``first`` onward
    of the batch, one sample at a time. Raises ``ValidationError`` naming
    the first image with a NaN or an infinite pixel by its batch index."""
    q = np.empty(images.shape, np.int8)
    real, half = np.empty(images.shape[1:]), np.empty(images.shape[1:], np.float32)
    for n, image in enumerate(images):
        if not np.isfinite(image).all():
            raise ValidationError(f"quantized_forward: image {first + n} has a non-finite pixel")
        np.divide(image, qp.scale, out=real)
        _to_int8(real, qp.zero_point, out=q[n], half=half)
    return q


def _backbone_chunk(plan: _Int8Plan, images: np.ndarray, first: int) -> np.ndarray:
    """The int8 ``decoder.out`` rows of float64 ``images``, samples ``first``
    onward of the batch: the input quantized, then the backbone steps, in
    buffers of this chunk's own."""
    (rows,) = plan.backbone.run({"input": _quantize_images(images, plan.input, first)}).values()
    return rows


def quantized_forward(qmodel: QuantizedModel, images) -> dict:
    """Integer-only inference. Convolutions and linears accumulate int values
    and requantize to each output site; ReLU runs in the quantized domain;
    concat operands are requantized to the shared output site. The final head
    accumulator is dequantized directly to reals. The batch is split into
    at most ``STEP_LANES`` chunks of ceil(B / ``STEP_LANES``) samples (the
    last may hold fewer), which run from the input to ``decoder.out`` on the
    lanes (``rows_on_lanes``; a batch of one sample runs on the calling
    thread); their rows are joined in batch order, and the heads run once on
    the whole batch on the calling thread. Each layer's integer sum is
    exact, so the split changes no bit. Each int8 value is dropped after its
    last reader, and every buffer belongs to this call. Raises
    ``ValidationError`` naming the first image with a NaN or infinite pixel
    by its index in the batch."""
    config = qmodel.config
    arr = np.asarray(images, dtype=np.float64)
    s = config.input_size
    if arr.shape[1:] != (s, s, 3) or not arr.shape[0]:
        raise ShapeError("quantized_forward",
                         f"expected images (B, {s}, {s}, 3) with B >= 1, got {tuple(arr.shape)}")
    plan = qmodel._states  # compiled here, not on the lanes
    chunk = -(-len(arr) // STEP_LANES)

    def chunk_rows(start):
        return _backbone_chunk(plan, arr[start : start + chunk], start)

    # the joined rows are held by the heads' run alone, which drops them after their last reader
    values = plan.heads.run({plan.backbone.steps[-1].output:
                             rows_on_lanes(chunk_rows, len(arr), chunk)})
    return {fmt: values[f"head.{fmt}.out"] for fmt in qmodel.head_formats()}
