"""Shared test oracles: naive loop-reference layers, an int64 interpreter of
the int8 plan built on them, a whole-image bilinear resize, and finite
differences; plus a container byte-patcher, an int8 model whose layer
requantizes exact ties, and probes that delay blocks of the untaped
forward and chunks of the int8 forward on the lanes.

These stay deliberately independent of the library's vectorized kernels so
they can serve as ground truth for them.
"""

import struct
import threading
import time

import numpy as np
import pytest

from efld.model import EosaConfig, HeadConfig, ModelConfig, build_plan


def _pad_split(size, k, stride, padding):
    if padding == "same":
        out = -(-size // stride)
        total = max((out - 1) * stride + k - size, 0)
        return out, total // 2
    return (size - k) // stride + 1, 0


def ref_conv2d(x, w, b, stride=1, padding="same"):
    """Six-nested-loop conventional convolution with explicit zero padding."""
    batch, h, wdt, cin = x.shape
    kh, kw, _, cout = w.shape
    out_h, pt = _pad_split(h, kh, stride, padding)
    out_w, pl = _pad_split(wdt, kw, stride, padding)
    out = np.zeros((batch, out_h, out_w, cout), dtype=x.dtype)
    for bi in range(batch):
        for oy in range(out_h):
            for ox in range(out_w):
                for co in range(cout):
                    acc = b[co]
                    for i in range(kh):
                        for j in range(kw):
                            iy = oy * stride + i - pt
                            ix = ox * stride + j - pl
                            if 0 <= iy < h and 0 <= ix < wdt:
                                for ci in range(cin):
                                    acc += x[bi, iy, ix, ci] * w[i, j, ci, co]
                    out[bi, oy, ox, co] = acc
    return out


def ref_depthwise_conv2d(x, w, b, stride=1, padding="same"):
    """Per-channel loop convolution."""
    batch, h, wdt, c = x.shape
    kh, kw, _ = w.shape
    out_h, pt = _pad_split(h, kh, stride, padding)
    out_w, pl = _pad_split(wdt, kw, stride, padding)
    out = np.zeros((batch, out_h, out_w, c), dtype=x.dtype)
    for bi in range(batch):
        for oy in range(out_h):
            for ox in range(out_w):
                for ci in range(c):
                    acc = b[ci]
                    for i in range(kh):
                        for j in range(kw):
                            iy = oy * stride + i - pt
                            ix = ox * stride + j - pl
                            if 0 <= iy < h and 0 <= ix < wdt:
                                acc += x[bi, iy, ix, ci] * w[i, j, ci]
                    out[bi, oy, ox, ci] = acc
    return out


def ref_depthwise_input_grad(grad, w, x_shape, stride=1, padding="same"):
    """d(sum of grad * depthwise_conv2d(x)) / dx by the tap-loop scatter:
    tap by tap in row-major order, grad * w[i, j] is added into the tap's
    strided window of a zero padded buffer, whose interior is the gradient.
    Each pixel gets its taps' products in that order, from +0.0."""
    batch, h, wdt, c = x_shape
    kh, kw, _ = w.shape
    out_h, pt = _pad_split(h, kh, stride, padding)
    out_w, pl = _pad_split(wdt, kw, stride, padding)
    dpadded = np.zeros((batch, pt + h + kh, pl + wdt + kw, c), dtype=grad.dtype)
    for i in range(kh):
        for j in range(kw):
            dpadded[:, i : i + (out_h - 1) * stride + 1 : stride,
                    j : j + (out_w - 1) * stride + 1 : stride] += grad * w[i, j]
    return dpadded[:, pt : pt + h, pl : pl + wdt]


def oracle_requant(x, zero_point):
    """clamp(round half away from zero(x) + zero_point, -128, 127) in int64."""
    rounded = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    return np.clip(rounded.astype(np.int64) + zero_point, -128, 127)


def integer_oracle(qmodel, images):
    """The plan interpreted in int64 with the loop oracles, following the
    requantization formula of the ``efld.quantize`` docstring."""
    act = qmodel.activations
    real = np.asarray(images, dtype=np.float64)
    values = {"input": oracle_requant(real / act["input"].scale, act["input"].zero_point)}
    heads = {f"head.{fmt}.out": fmt for fmt in qmodel.head_formats()}
    results = {}
    for step in build_plan(qmodel.config):
        out_qp = act[step.output]
        if step.op == "concat":
            values[step.output] = np.concatenate([
                oracle_requant((values[site] - act[site].zero_point)
                               * (act[site].scale / out_qp.scale), out_qp.zero_point)
                for site in step.inputs], axis=-1)
            continue
        in_qp = act[step.inputs[0]]
        x = values[step.inputs[0]]
        if step.op == "relu":
            shifted = np.maximum(x, in_qp.zero_point) - in_qp.zero_point
            values[step.output] = oracle_requant(shifted * (in_qp.scale / out_qp.scale),
                                                 out_qp.zero_point)
            continue
        spec = step.spec
        w = qmodel.weights[spec.name].astype(np.int64)
        b = qmodel.biases[spec.name].astype(np.int64)
        x = x - in_qp.zero_point
        if step.op == "conv":
            acc = ref_conv2d(x, w, b, spec.stride, spec.padding)
        elif step.op == "depthwise":
            acc = ref_depthwise_conv2d(x, w, b, spec.stride, spec.padding)
        else:
            acc = x @ w + b
        acc = acc.reshape(acc.shape[0], -1) if step.flatten else acc
        multiplier = in_qp.scale * qmodel.weight_scales[spec.name]
        if step.output in heads:
            results[heads[step.output]] = acc * multiplier
        else:
            values[step.output] = oracle_requant(acc * (multiplier / out_qp.scale),
                                                 out_qp.zero_point)
    return results


def halving_model(qmodel, layer="decoder.dw"):
    """``qmodel`` with ``layer``, a depthwise layer with no ReLU after it,
    remade so that its requantization multiplier is exactly 0.5 and its
    output zero point 0: one weight of 1 per channel, at the first tap, and
    odd negative biases. Wherever that tap reads the input's zero point,
    the accumulator is an odd negative integer, whose half is an exact tie
    that the contract rounds away from zero. The output site's scale is
    twice the layer's bias scale, which makes the multiplier 0.5 exactly."""
    from efld.quantize import QuantizedModel, QuantParams

    w = np.zeros_like(qmodel.weights[layer])
    w[0, 0] = 1
    channels = w.shape[-1]
    b = (-1 - 2 * (np.arange(channels) % 100)).astype(np.int32)
    out = next(step.output for step in qmodel.plan if step.layer == layer)
    activations = {**qmodel.activations,
                   out: QuantParams(2 * qmodel.bias_scales[layer], 0)}
    return QuantizedModel(qmodel.config, {**qmodel.weights, layer: w}, qmodel.weight_scales,
                          {**qmodel.biases, layer: b}, activations)


def ref_bilinear_resize(image, out_h, out_w):
    """Bilinear resize of an (H, W, C) image with half-pixel centers, on
    whole-image float64 temporaries: per element
    (a00*(1-wx) + a01*wx)*(1-wy) + (a10*(1-wx) + a11*wx)*wy."""
    arr = np.asarray(image, dtype=np.float64)
    h, w = arr.shape[:2]
    if (h, w) == (out_h, out_w):
        return arr.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bottom = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def central_difference(f, arrays, eps=1e-5):
    """d f() / d array for each array, perturbing elements in place."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = f()
            flat[i] = orig - eps
            minus = f()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * eps)
        grads.append(grad)
    return grads


def max_rel_error(analytic, numeric, floor=1e-4):
    """max |a - n| / max(|a|, |n|, floor) over all elements."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def patch_entry(path, name, dims=None, scale=None, zero_point=None, tag=None, offset=None,
                length=None):
    """Overwrite fields of tensor ``name``'s table entry in the container
    file ``path`` in place: its dims (same rank), scale, zero point, dtype
    tag (one that keeps the entry's fields: int8 for int32, say), payload
    offset or payload length."""
    raw = bytearray(path.read_bytes())
    key = struct.pack("<H", len(name)) + name.encode("utf-8")
    at = raw.index(key) + len(key)
    quantized = raw[at] in (2, 3)
    if tag is not None:
        raw[at] = tag
    rank = raw[at + 1]
    at += 2
    if dims is not None:
        assert len(dims) == rank
        raw[at : at + 4 * rank] = struct.pack(f"<{rank}I", *dims)
    at += 4 * rank
    if scale is not None:
        raw[at : at + 8] = struct.pack("<d", scale)
    if zero_point is not None:
        raw[at + 8 : at + 12] = struct.pack("<i", zero_point)
    at += 12 if quantized else 0
    if offset is not None:
        raw[at : at + 8] = struct.pack("<Q", offset)
    if length is not None:
        raw[at + 8 : at + 16] = struct.pack("<Q", length)
    path.write_bytes(bytes(raw))


def reduced_config(formats=("p51",), input_size=32, decoder_dim=128, width=16):
    """Halved-channel architecture used by the small training/gradient runs."""
    points = {"p51": 51, "p68": 68, "p98": 98, "p3": 3}
    return ModelConfig(
        input_size=input_size,
        eosa=(
            EosaConfig(2, 2, 4, "conventional"),
            EosaConfig(4, 3, 4, "depthwise-separable"),
            EosaConfig(8, 3, 8, "depthwise-separable"),
            EosaConfig(8, 3, 16, "depthwise-separable"),
        ),
        decoder_dim=decoder_dim,
        heads=tuple(HeadConfig(f, points[f], 3, width) for f in formats),
    )


def delay_block(monkeypatch, delays):
    """Make the backbone block of samples ``first`` onward start
    ``delays[first]`` seconds late, for each ``first`` in ``delays``, on
    whichever lane runs it. Returns the lists that get each block's first
    sample as the block starts and as it returns or raises, and the set of
    the names of the threads that ran a block."""
    import efld.model as model_module

    block = model_module._backbone_block
    started, returned, threads = [], [], set()

    def delayed(model, images, tape, observer, start):
        started.append(start)
        threads.add(threading.current_thread().name)
        time.sleep(delays.get(start, 0))
        try:
            return block(model, images, tape, observer, start)
        finally:
            returned.append(start)

    monkeypatch.setattr(model_module, "_backbone_block", delayed)
    return started, returned, threads


def delay_chunk(monkeypatch, delays):
    """Make the int8 backbone chunk of samples ``first`` onward start
    ``delays[first]`` seconds late, for each ``first`` in ``delays``, on
    whichever lane runs it. Returns the lists that get each chunk's first
    sample as the chunk starts and as it returns or raises, and the set of
    the names of the threads that ran a chunk."""
    import efld.quantize as quantize_module

    chunk = quantize_module._backbone_chunk
    started, returned, threads = [], [], set()

    def delayed(plan, images, first):
        started.append(first)
        threads.add(threading.current_thread().name)
        time.sleep(delays.get(first, 0))
        try:
            return chunk(plan, images, first)
        finally:
            returned.append(first)

    monkeypatch.setattr(quantize_module, "_backbone_chunk", delayed)
    return started, returned, threads


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
