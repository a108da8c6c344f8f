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

The integer path runs the model's execution plan (``build_plan``) through
the float path's interpreter, ``model.run_plan``. Its convolutions and
linears accumulate (q - zero_point) * w through the float path's step,
``model._apply``, and the int32 bias is added afterwards in float64.
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
with the same arithmetic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ShapeError, UsageError
from .model import (LayerSpec, Model, ModelConfig, PlanStep, _apply, build_plan, iter_layers,
                    model_forward, run_plan)
from .tensor import LayerParams, Tensor

log = logging.getLogger(__name__)

SCALE_FLOOR = 1e-8
QMIN, QMAX = -128, 127
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
# Every int8 value, at the index of its uint8 view: the domain of a requantization table.
_CODES = np.arange(256, dtype=np.uint8).view(np.int8)


def _round_half_away(x):
    """trunc(x + copysign(0.5, x)) in float64, in one scratch buffer."""
    x = np.asarray(x, dtype=np.float64)
    r = np.copysign(0.5, x, out=np.empty_like(x))
    np.add(x, r, out=r)
    return np.trunc(r, out=r)


def _to_int8(x, zero_point: int) -> np.ndarray:
    """clamp(round_half_away(x) + zero_point, -128, 127) as int8."""
    q = _round_half_away(x)
    q += zero_point
    return np.clip(q, QMIN, QMAX, out=q).astype(np.int8)


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
    dataset is read once, one batch at a time."""
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
        images = np.stack([s.image for s in chunk]).astype(model.dtype)
        model_forward(model, Tensor(images), tape=None, observer=observer)
    if not ranges:
        raise UsageError("calibrate requires a nonempty dataset")

    relu_sites = {step.output for step in build_plan(model.config) if step.op == "relu"}
    params = {}
    for site, (lo, hi) in ranges.items():
        if site in relu_sites:
            lo = 0.0
        params[site] = params_from_range(lo, hi, site)
    return params


class _LayerState(NamedTuple):
    """What ``quantized_forward`` needs for one layer step besides its input."""

    params: LayerParams  # int8 weights cast to the accumulator dtype, zero bias
    in_zero_point: int
    bias: np.ndarray  # the int32 bias in float64
    multiplier: float  # see the module docstring
    zero_point: int  # of the output site; unused for a head output
    head: bool  # a head's final layer, whose accumulator is returned as reals


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
    def _states(self) -> dict:
        """Per plan step, keyed by its output site: a ``_LayerState`` for a
        layer, and one int8-to-int8 table per operand for a ReLU or a concat.
        Built on the first forward, so that loading a container or quantizing
        a model does not pay for it."""
        heads = {f"head.{fmt}.out" for fmt in self.head_formats()}
        act = self.activations
        states = {}
        for step in self.plan:
            out_qp = act[step.output]
            if step.op == "relu":
                in_qp = act[step.inputs[0]]
                state = [_requant(np.maximum(_CODES, in_qp.zero_point), in_qp, out_qp)]
            elif step.op == "concat":
                state = [_requant(_CODES, act[site], out_qp) for site in step.inputs]
            else:
                name = step.spec.name
                dtype = accumulator_dtype(step.spec)
                w = self.weights[name]
                params = LayerParams(step.spec.kind, Tensor(w.astype(dtype)),
                                     Tensor(np.zeros(w.shape[-1], dtype)))
                in_qp = act[step.inputs[0]]
                multiplier = in_qp.scale * self.weight_scales[name]
                head = step.output in heads
                if not head:
                    multiplier /= out_qp.scale
                state = _LayerState(params, in_qp.zero_point,
                                    self.biases[name].astype(np.float64), multiplier,
                                    out_qp.zero_point, head)
            states[step.output] = state
        return states


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


def _accumulate(step: PlanStep, state: _LayerState, q: np.ndarray) -> np.ndarray:
    """The layer's integer accumulator, bias included, for its int8 input
    ``q``, as exact integers in float64."""
    x = Tensor(np.subtract(q, state.in_zero_point, dtype=state.params.weights.data.dtype))
    return np.add(_apply(step, state.params, [x]).data, state.bias, dtype=np.float64)


def _run_step(step: PlanStep, state, operands: list) -> np.ndarray:
    """One plan step on its int8 operands: the output site's int8 value, or a
    head's reals. Its temporaries die on return, before the next step runs."""
    if step.spec is None:  # ReLU or concat: each operand through its table
        parts = [np.take(table, q.view(np.uint8)) for q, table in zip(operands, state)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    acc = _accumulate(step, state, operands[0])
    acc *= state.multiplier
    return acc if state.head else _to_int8(acc, state.zero_point)


def quantized_forward(qmodel: QuantizedModel, images) -> dict:
    """Integer-only inference. Convolutions and linears accumulate int values
    and requantize to each output site; ReLU runs in the quantized domain;
    concat operands are requantized to the shared output site. The final head
    accumulator is dequantized directly to reals. Each int8 value is dropped
    after its last reader."""
    config = qmodel.config
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    s = config.input_size
    if arr.shape[1:] != (s, s, 3):
        raise ShapeError(
            "quantized_forward", f"expected images (B, {s}, {s}, 3), got {tuple(arr.shape)}"
        )
    values = run_plan(qmodel.plan, {"input": quantize_value(arr, qmodel.activations["input"])},
                      lambda step, operands: _run_step(step, qmodel._states[step.output], operands))
    return {fmt: values[f"head.{fmt}.out"] for fmt in qmodel.head_formats()}
