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
per model, on its first forward, and runs it through the float path's
interpreter, ``model.run_plan``. Each layer step takes in the ReLU step that
alone reads its output. A spatial convolution (every conv and depthwise layer
but the flattened ``decoder.dw``) runs one block of samples at a time, one
sample for the large layers, so that its scratch stays in cache: it writes
q - zero_point into the interior of a zero-bordered float scratch, which the
kernel body of the float op (``ops._conv_gemm`` or ``ops._depthwise_taps``)
reads as its padded input; it then adds the int32 bias in float64 along
whole output rows, through the float ops' ``ops._add_bias``, requantizes to
int8, maps the result through the ReLU's table, and writes each concat
operand through that operand's table straight into its channel slice of the
concat buffer, so that the concat step only hands the buffer on.
A group of ``sibling_convs`` (``eosa1.extra`` with ``eosa1.osa.l0`` in the
stock model) is one such step: one scratch, one receptive-field copy per
sample and one ``_conv_gemm`` call, in which each layer has its own GEMM, so
that each requantizes its own contiguous accumulator with scalar constants
(one GEMM over the weights joined along cout, requantized with per-channel
rows and read back through strided channel slices, made batch 1 slower).
The step of a later layer of the group hands on the int8 value that the
group's step left in the call's buffers.
The input is quantized one sample at a time too, and an image with a NaN or
infinite pixel is rejected. The heads' linears and ``decoder.dw`` accumulate
the whole batch through the float path's step, ``model._apply``, and share
the requantization. Every buffer belongs to one call, so concurrent forwards
are safe.

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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .data import Sample, stack_images
from .errors import CalibrationError, ShapeError, UsageError, ValidationError
from .model import (LayerSpec, Model, ModelConfig, PlanStep, _apply, build_plan, iter_layers,
                    last_reads, model_forward, run_plan, sibling_convs)
from .ops import _add_bias, _conv_gemm, _depthwise_taps, _out_and_pad, _receptive_fields
from .tensor import LayerParams, Tensor

log = logging.getLogger(__name__)

SCALE_FLOOR = 1e-8
QMIN, QMAX = -128, 127
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
# Every int8 value, at the index of its uint8 view: the domain of a requantization table.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8)


def _round_half_away(x, out=None):
    """trunc(x + copysign(0.5, x)) in float64, in one scratch buffer: ``out``
    when given, else a fresh one."""
    x = np.asarray(x, dtype=np.float64)
    r = np.copysign(0.5, x, out=np.empty_like(x) if out is None else out)
    np.add(x, r, out=r)
    return np.trunc(r, out=r)


def _to_int8(x, zero_point: int, out=None, scratch=None) -> np.ndarray:
    """clamp(round_half_away(x) + zero_point, -128, 127) as int8, written to
    ``out`` when given; ``scratch`` is the float64 buffer of the rounding."""
    q = _round_half_away(x, scratch)
    q += zero_point
    np.clip(q, QMIN, QMAX, out=q)
    if out is None:
        return q.astype(np.int8)
    out[...] = q
    return out


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


def quantize_value(x, qp: QuantParams):
    """q = clamp(round(x / scale) + zero_point, -128, 127), saturating,
    round half away from zero. Nondecreasing in x."""
    q = _to_int8(np.asarray(x, dtype=np.float64) / qp.scale, qp.zero_point)
    return q if q.ndim else q[()]


def dequantize_value(q, qp: QuantParams):
    x = (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale
    return x if x.ndim else float(x)


def params_from_range(lo: float, hi: float, site: str = "") -> QuantParams:
    """Asymmetric params mapping [lo, hi] onto [-128, 127]."""
    scale = (hi - lo) / 255.0
    if scale < SCALE_FLOOR:
        log.warning("site %s has constant activations (range [%g, %g]); flooring scale",
                    site or "?", lo, hi)
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
    dataset is read once, one batch at a time; the forward reports each
    backbone site once per block of samples, and min and max merge over the
    blocks into the range of the whole batch."""
    ranges = {}

    def observer(site, value):
        lo, hi = float(value.min()), float(value.max())
        if site in ranges:
            old_lo, old_hi = ranges[site]
            ranges[site] = (min(old_lo, lo), max(old_hi, hi))
        else:
            ranges[site] = (lo, hi)

    samples = iter(dataset)
    while chunk := list(islice(samples, batch_size)):
        # a sample that is not a ``Sample`` calibrates on its ``image``
        crops = [s.pixels if isinstance(s, Sample) else s.image for s in chunk]
        model_forward(model, Tensor(stack_images(crops, model.dtype)), tape=None,
                      observer=observer)
    if not ranges:
        raise UsageError("calibrate requires a nonempty dataset")

    relu_sites = {step.output for step in build_plan(model.config) if step.op == "relu"}
    params = {}
    for site, (lo, hi) in ranges.items():
        if site in relu_sites:
            lo = 0.0
        params[site] = params_from_range(lo, hi, site)
    return params


class QuantizedModel:
    """Int8 weights/activations with per-tensor scale and zero point, plus
    the float reference config. Immutable; concurrent forwards are safe."""

    def __init__(self, config: ModelConfig, weights: dict, weight_scales: dict,
                 biases: dict, bias_scales: dict, activations: dict):
        self.config = config
        self.weights = weights
        self.weight_scales = weight_scales
        self.biases = biases
        self.bias_scales = bias_scales
        self.activations = activations
        self.plan = build_plan(config)

    @property
    def dtype(self) -> str:
        return "int8"

    def head_formats(self) -> tuple:
        return tuple(h.format for h in self.config.heads)

    def weight_byte_count(self) -> int:
        return sum(w.size for w in self.weights.values())

    def parameter_count(self) -> int:
        return self.weight_byte_count() + sum(b.size for b in self.biases.values())

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
    weights, weight_scales, biases, bias_scales = {}, {}, {}, {}
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
        bias_scales[spec.name] = b_scale
    return QuantizedModel(config, weights, weight_scales, biases, bias_scales, dict(activations))


def _requant(values, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    shifted = values.astype(np.float64) - in_qp.zero_point
    return _to_int8(shifted * (in_qp.scale / out_qp.scale), out_qp.zero_point)


def _relu_table(in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    return _requant(np.maximum(_CODES, in_qp.zero_point), in_qp, out_qp)


# A blocked layer takes as many samples at a time as keep its block's input
# and output at most this many elements each (one sample when a sample alone
# holds more), so that the block's float scratch stays in cache.
_BLOCK_ELEMENTS = 1 << 15


class _Output(NamedTuple):
    """One layer of a compiled layer step: its weights, its requantization,
    and where its int8 codes go."""

    params: LayerParams  # int8 weights cast to the accumulator dtype, zero bias
    bias: np.ndarray  # the int32 bias in float64
    multiplier: float  # see the module docstring
    zero_point: int  # of the layer's output site; unused for a head output
    site: str  # the fused ReLU's site, else the layer's
    table: np.ndarray  # the fused ReLU's table; the identity without one
    keep: bool  # a later step reads the site's int8 value
    writes: tuple  # per concat: (site, its channels, first channel, ReLU-then-operand table)

    def allocate(self, batch: int, acc, buffers: dict) -> tuple:
        """This call's int8 value (None unless ``keep``), its concat slices,
        and the scratch of a block shaped like ``acc``."""
        shape = (batch,) + acc.shape[1:]
        out = np.empty(shape, np.int8) if self.keep else None
        dests = [_concat_buffer(buffers, site, shape[:-1] + (channels,))[..., lo : lo + shape[-1]]
                 for site, channels, lo, _ in self.writes]
        return out, dests, (np.empty_like(acc), np.empty(acc.shape, np.int8),
                            np.empty(acc.shape, np.int8))


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
        for rows, accs in _accumulate(self, q):
            if self.head:
                (acc,) = accs
                acc *= self.outputs[0].multiplier
                return acc
            if rows.start == 0:  # the first block sizes this call's buffers
                targets = [o.allocate(len(q), acc, buffers) for o, acc in zip(self.outputs, accs)]
            n = len(accs[0])
            for o, acc, (out, dests, (spare, code, mapped)) in zip(self.outputs, accs, targets):
                # Requantize the block, then map it through the ReLU table and
                # through each concat's table into its slice, while it is in cache.
                acc *= o.multiplier
                codes = _to_int8(acc, o.zero_point, out=code[:n], scratch=spare[:n]).view(np.uint8)
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


class _Int8Plan(NamedTuple):
    steps: tuple
    drops: list  # ``model.last_reads(steps)``


def _concat_buffer(buffers: dict, site: str, shape) -> np.ndarray:
    """This call's int8 buffer of the concat ``site``, made by its first writer."""
    buf = buffers.get(site)
    if buf is None:
        buf = buffers[site] = np.empty(shape, np.int8)
    return buf


def _blocked(step: PlanStep) -> bool:
    return step.op in ("conv", "depthwise") and not step.flatten


def _compile(qmodel: QuantizedModel) -> _Int8Plan:
    """The int8 plan of ``qmodel.plan``. Each layer step takes in the ReLU
    step that alone reads its output. A concat whose operands all come from
    blocked layer steps is written in place by those steps, each through its
    operand's table into its channel slice. Any other concat maps its
    operands through tables."""
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

    def layer_output(layer):
        site = (fused[layer] or layer).output
        keep = any(r.output not in in_place for r in readers.get(site, ()))
        return fused[layer], keep, slices.get(site, ())

    steps = []
    for step in plan:
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
            steps.append(_compile_layer(qmodel, group, [layer_output(layer) for layer in group]))
    steps = tuple(steps)
    return _Int8Plan(steps, last_reads(steps))


def _compile_layer(qmodel: QuantizedModel, group, outputs) -> _Layer:
    """The step of one layer, or of a group of sibling convolutions, from
    each layer's (ReLU taken in, keep, concat slices)."""
    act, step = qmodel.activations, group[0]
    dtype = accumulator_dtype(step.spec)
    in_qp = act[step.inputs[0]]
    head = step.output in {f"head.{fmt}.out" for fmt in qmodel.head_formats()}
    compiled = []
    for layer, (relu, keep, slices) in zip(group, outputs):
        name, out_qp = layer.spec.name, act[layer.output]
        w = qmodel.weights[name]
        params = LayerParams(layer.spec.kind, Tensor(w.astype(dtype)),
                             Tensor(np.zeros(w.shape[-1], dtype)))
        bias = qmodel.biases[name].astype(np.float64)
        multiplier = in_qp.scale * qmodel.weight_scales[name]
        if not head:
            multiplier /= out_qp.scale
        site = (relu or layer).output
        table = _relu_table(out_qp, act[site]) if relu else _CODES
        writes = tuple((concat, channels, first, _requant(table, act[site], act[concat]))
                       for concat, channels, first in slices)
        compiled.append(_Output(params, bias, multiplier, out_qp.zero_point, site, table, keep,
                                writes))
    return _Layer(step, in_qp.zero_point, head, _blocked(step), tuple(compiled))


def _accumulate(layer: _Layer, q: np.ndarray):
    """Yield (rows, accs): per layer of the step, its integer accumulator for
    the int8 input ``q[rows]``, bias included, as exact integers in float64
    that the caller may overwrite. A blocked step yields one block of
    samples at a time: it writes q - zero_point into the interior of a
    zero-bordered scratch, which the ``ops`` kernel reads as its padded
    input, and reuses every buffer; the layers of a group read one
    receptive-field copy per sample. A whole-batch layer runs its ``ops`` op
    once and yields all rows."""
    first = layer.outputs[0]
    dtype = first.params.weights.data.dtype
    if not layer.blocked:
        x = Tensor(np.subtract(q, layer.in_zero_point, dtype=dtype))
        yield slice(0, len(q)), [np.add(_apply(layer.step, first.params, [x]).data, first.bias,
                                        dtype=np.float64)]
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
    accs = [np.empty((block, out_h, out_w, c), dtype) for c in widths]
    reals = [np.empty(acc.shape) for acc in accs]
    gemm = [wt.reshape(-1, c) for wt, c in zip(weights, widths)]
    for start in range(0, batch, block):
        rows = slice(start, min(start + block, batch))
        n = rows.stop - start
        x = padded[:n]
        ys, rs = [acc[:n] for acc in accs], [real[:n] for real in reals]
        np.subtract(q[rows], layer.in_zero_point, out=x[:, pt : pt + h, pl : pl + w], dtype=dtype)
        if layer.step.op == "conv":
            _conv_gemm(_receptive_fields(x, kh, kw, stride, out_h, out_w), gemm, ys)
        else:
            ys[0].fill(0)
            _depthwise_taps(x, weights[0], stride, ys[0])
        for y, r, o in zip(ys, rs, outputs):
            np.copyto(r, y)
            _add_bias(r, o.bias)
        yield rows, rs


def _quantize_images(images: np.ndarray, qp: QuantParams) -> np.ndarray:
    """The int8 input site of float64 ``images``, one sample at a time.
    Raises ``ValidationError`` naming the first image with a NaN or an
    infinite pixel."""
    q = np.empty(images.shape, np.int8)
    real, spare = np.empty(images.shape[1:]), np.empty(images.shape[1:])
    for n, image in enumerate(images):
        if not np.isfinite(image).all():
            raise ValidationError(f"quantized_forward: image {n} has a non-finite pixel")
        np.divide(image, qp.scale, out=real)
        _to_int8(real, qp.zero_point, out=q[n], scratch=spare)
    return q


def quantized_forward(qmodel: QuantizedModel, images) -> dict:
    """Integer-only inference. Convolutions and linears accumulate int values
    and requantize to each output site; ReLU runs in the quantized domain;
    concat operands are requantized to the shared output site. The final head
    accumulator is dequantized directly to reals. Each int8 value is dropped
    after its last reader, and every buffer belongs to this call. Raises
    ``ValidationError`` naming the first image with a NaN or infinite pixel."""
    config = qmodel.config
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    s = config.input_size
    if arr.shape[1:] != (s, s, 3) or not arr.shape[0]:
        raise ShapeError("quantized_forward",
                         f"expected images (B, {s}, {s}, 3) with B >= 1, got {tuple(arr.shape)}")
    plan, buffers = qmodel._states, {}
    values = run_plan(plan.steps, {"input": _quantize_images(arr, qmodel.activations["input"])},
                      lambda step, operands: step.run(operands, buffers), plan.drops)
    return {fmt: values[f"head.{fmt}.out"] for fmt in qmodel.head_formats()}
