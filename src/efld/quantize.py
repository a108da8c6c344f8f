"""Int8 post-training quantization with min/max calibration, plus an
integer-only inference path.

Weights are per-tensor symmetric (zero point 0); activations are per-site
asymmetric, mapping the calibrated [min, max] onto [-128, 127]; biases are
int32 at input_scale * weight_scale. Requantization multiplies the integer
accumulator by a double-precision constant, rounds half away from zero, and
clamps, which pins a bit-exact, platform-independent contract.

The integer path interprets the model's execution plan (``build_plan``).
Its convolutions and linears accumulate through the float kernels of ``ops``
in float64: every accumulator value is an exact integer far below 2**53, so
the arithmetic is exact and bit-deterministic whatever the summation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ShapeError, UsageError
from .model import Model, ModelConfig, build_plan, iter_layers, model_forward
from .ops import conv2d, depthwise_conv2d, linear
from .tensor import LayerParams, Tensor

log = logging.getLogger(__name__)

SCALE_FLOOR = 1e-8
QMIN, QMAX = -128, 127
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


def _round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


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
    q = _round_half_away(np.asarray(x, dtype=np.float64) / qp.scale) + qp.zero_point
    q = np.clip(q, QMIN, QMAX).astype(np.int8)
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
    get their min clamped to 0 so exact zero stays representable."""
    samples = list(dataset)
    if not samples:
        raise UsageError("calibrate requires a nonempty dataset")
    ranges = {}

    def observer(site, value):
        lo, hi = float(value.min()), float(value.max())
        if site in ranges:
            old_lo, old_hi = ranges[site]
            ranges[site] = (min(old_lo, lo), max(old_hi, hi))
        else:
            ranges[site] = (lo, hi)

    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        images = np.stack([s.image for s in chunk]).astype(model.dtype)
        model_forward(model, Tensor(images), tape=None, observer=observer)

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
        q_w = np.clip(_round_half_away(w / w_scale), QMIN, QMAX).astype(np.int8)
        in_scale = activations[in_sites[spec.name]].scale
        b_scale = in_scale * w_scale
        q_b = np.clip(_round_half_away(b / b_scale), INT32_MIN, INT32_MAX).astype(np.int32)
        weights[spec.name] = q_w
        weight_scales[spec.name] = w_scale
        biases[spec.name] = q_b
        bias_scales[spec.name] = b_scale
    return QuantizedModel(config, weights, weight_scales, biases, bias_scales, dict(activations))


def _requant(values, in_qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    shifted = values.astype(np.float64) - in_qp.zero_point
    scaled = _round_half_away(shifted * (in_qp.scale / out_qp.scale)) + out_qp.zero_point
    return np.clip(scaled, QMIN, QMAX).astype(np.int8)


def _requant_acc(acc, multiplier: float, zp_out: int) -> np.ndarray:
    q = _round_half_away(acc * multiplier) + zp_out
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def quantized_forward(qmodel: QuantizedModel, images) -> dict:
    """Integer-only inference. Convolutions and linears accumulate int values
    and requantize to each output site; ReLU runs in the quantized domain;
    concat operands are requantized to the shared output site. The final head
    accumulator is dequantized directly to reals."""
    config = qmodel.config
    act = qmodel.activations
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    s = config.input_size
    if arr.shape[1:] != (s, s, 3):
        raise ShapeError(
            "quantized_forward", f"expected images (B, {s}, {s}, 3), got {tuple(arr.shape)}"
        )
    heads = {f"head.{fmt}.out": fmt for fmt in qmodel.head_formats()}
    values = {"input": quantize_value(arr, act["input"])}
    results = {}
    for step in qmodel.plan:
        spec = step.spec
        if spec is not None:
            in_qp = act[step.inputs[0]]
            q_x = Tensor(values[step.inputs[0]].astype(np.float64) - in_qp.zero_point)
            params = LayerParams(spec.kind, Tensor(qmodel.weights[spec.name].astype(np.float64)),
                                 Tensor(qmodel.biases[spec.name].astype(np.float64)))
            if step.op == "linear":
                acc = linear(q_x, params).data
            else:
                conv = conv2d if step.op == "conv" else depthwise_conv2d
                acc = conv(q_x, params, stride=spec.stride, padding=spec.padding).data
            if step.flatten:
                acc = acc.reshape(acc.shape[0], -1)
            multiplier = in_qp.scale * qmodel.weight_scales[spec.name]
            if step.output in heads:
                results[heads[step.output]] = acc * multiplier
            else:
                out_qp = act[step.output]
                values[step.output] = _requant_acc(acc, multiplier / out_qp.scale,
                                                   out_qp.zero_point)
        elif step.op == "relu":
            in_qp = act[step.inputs[0]]
            clamped = np.maximum(values[step.inputs[0]], in_qp.zero_point)
            values[step.output] = _requant(clamped, in_qp, act[step.output])
        else:
            out_qp = act[step.output]
            parts = [_requant(values[site], act[site], out_qp) for site in step.inputs]
            values[step.output] = np.concatenate(parts, axis=-1)
    return results
