"""The five layer primitives with forward and tape-recorded backward passes.

All ops are pure functions of their inputs: they never mutate arguments and
are safe to call concurrently. Feature maps are batch/height/width/channel.
Same-padding pads with zeros, output size ceil(size/stride), with the extra
pixel on the bottom/right.

A convolution reads its input inside a zero border, its padding. When the
input ``Tensor`` carries a ``border`` at least that wide on every side, the
padded input is a view of the border's buffer and nothing is copied;
otherwise it is copied once into a fresh zero buffer of the needed size.
``relu``, ``concat_channels`` and ``with_border`` take a ``pad`` =
(top, bottom, left, right) and write their result into the interior of a
fresh zero buffer with that border; the model passes each site the border
its convolutions read (see ``model.site_pads``).

The convolutions read the padded input through one read-only strided view
of every receptive field, shaped (B, out_h, out_w, kh, kw, C), which copies
nothing. A conventional convolution reshapes one sample of that view into
its column matrix, (out_h*out_w, kh*kw*cin), and multiplies it by the
weights, (kh*kw*cin, cout), in one BLAS GEMM; the weight gradient sums
columns^T @ grad over the samples the same way, and a depthwise convolution
takes its weight gradient from the view one sample at a time too. The GEMM
runs per sample, not on the whole batch: one sample's columns stay in cache,
and the whole-batch column matrix (kh*kw times the input) was slower and
raised peak memory. The input gradient of a conventional convolution is a
transposed convolution, run through the same view: the input rows and
columns split into stride phases (one phase at stride 1), and each phase is
a stride-1 correlation of the output gradient, zero-extended where the
phase needs it, with the flipped, transposed sub-kernel of its taps, in one
GEMM per sample. A depthwise input gradient is the transpose of its tap
loop: each stride phase gets its own buffer, each tap of the phase adds its
product along whole output rows into it, and the phases are interleaved into
the gradient once; a full-extent kernel's is one broadcast product. A bias
gradient sums the output gradient's rows of W*C values, then the W pixels of
the result, not one C-wide pixel at a time. Every op forms an input gradient
only when the backward's ``Gradients`` wants it (see ``tensor.Tape``). The
GEMMs sum float32 inputs in float32 and float64 inputs in float64, never in
a narrower type; the int8 path relies on it for exact integer sums (see
``quantize``). The forward kernel bodies, the per-sample GEMM loop
``_conv_gemm`` and the depthwise tap loop ``_depthwise_taps``, are also the
int8 path's kernels, which it runs on its own zero-bordered blocks of
samples (it adds its float64 bias along output rows itself, in the same pass
that widens the accumulator to float64).

Every conventional convolution runs through one body: ``sibling_conv2d``
runs convolutions that share an input and a kernel size (the model's
``sibling_convs``), and ``conv2d`` is that body with one layer. Per sample,
the receptive fields are copied into one column matrix, and each layer's
GEMM reads it. Each GEMM keeps the shape it has for its layer alone, so
each output has the bits of its layer's own ``conv2d``; one GEMM over the
weights joined along cout gave other float64 bits on OpenBLAS, which picks
its kernel by shape. With a tape, each layer records its own backward
node, so its weight gradient sums in the same order as alone, and the
input gradient is the sum of the layers' input gradients.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError, UsageError
from .tensor import LayerParams, Tape, Tensor


def _check_params(op: str, x: Tensor, params: LayerParams, kind: str) -> None:
    if params.kind != kind:
        raise ShapeError(op, f"expected {kind} params, got {params.kind}")
    if params.weights.data.dtype != x.data.dtype:
        raise ShapeError(
            op, f"dtype mismatch: input {x.dtype}, weights {params.weights.dtype}"
        )


def _out_and_pad(op: str, size: int, k: int, stride: int, padding: str):
    """Output size plus (before, after) zero padding for one spatial axis."""
    if padding == "same":
        out = -(-size // stride)
        total = max((out - 1) * stride + k - size, 0)
        return out, total // 2, total - total // 2
    if padding == "valid":
        if size < k:
            raise ShapeError(op, f"kernel {k} exceeds input extent {size} with valid padding")
        return (size - k) // stride + 1, 0, 0
    raise UsageError(f"{op}: padding must be 'same' or 'valid', got {padding!r}")


def _check_stride(op: str, stride: int) -> None:
    if stride not in (1, 2):
        raise UsageError(f"{op}: stride must be 1 or 2, got {stride}")


def _zeros_bordered(shape, dtype, pad) -> Tensor:
    """A zero (B, H, W, C) ``Tensor`` of ``shape`` inside a zero border of
    ``pad`` = (top, bottom, left, right), in one fresh buffer."""
    top, bottom, left, right = pad
    batch, h, w, c = shape
    buf = np.zeros((batch, h + top + bottom, w + left + right, c), dtype=dtype)
    return Tensor(buf[:, top : top + h, left : left + w], border=(buf, top, left))


def _padded(x: Tensor, pt, pb, pl, pr):
    """``x.data`` inside a zero border of (pt, pb, pl, pr): a view of
    ``x.border`` when it is at least that wide on every side, else a copy."""
    xd = x.data
    if not (pt or pb or pl or pr):
        return xd
    _, h, w, _ = xd.shape
    if x.border is not None:
        buf, top, left = x.border
        if (top >= pt and left >= pl and buf.shape[1] - top - h >= pb
                and buf.shape[2] - left - w >= pr):
            return buf[:, top - pt : top + h + pb, left - pl : left + w + pr]
    padded = _zeros_bordered(xd.shape, xd.dtype, (pt, pb, pl, pr))
    padded.data[...] = xd
    return padded.border[0]


def _receptive_fields(padded, kh, kw, stride, out_h, out_w):
    """Read-only (B, out_h, out_w, kh, kw, C) view of every receptive field.
    The ``np.ndarray`` constructor builds it in a quarter of ``as_strided``'s
    time, but takes only a C-contiguous buffer; any other ``padded`` (a
    view into a wider border) goes through ``as_strided``."""
    sb, sh, sw, sc = padded.strides
    shape = (padded.shape[0], out_h, out_w, kh, kw, padded.shape[3])
    strides = (sb, sh * stride, sw * stride, sh, sw, sc)
    if not padded.flags.c_contiguous:
        return as_strided(padded, shape, strides, writeable=False)
    fields = np.ndarray(shape, padded.dtype, buffer=padded, strides=strides)
    fields.flags.writeable = False
    return fields


def _conv_gemm(fields, weights, outs):
    """outs[k][n] = the receptive fields ``fields[n]`` (out_h, out_w, kh, kw,
    cin) of sample n times the weights ``weights[k]`` (kh*kw*cin, cout_k),
    into ``outs[k]`` (B, out_h, out_w, cout_k): per sample, one column copy
    of the fields and one GEMM per weight matrix on it."""
    fan_in = weights[0].shape[0]
    gemms = [(w2, out.reshape(len(out), -1, w2.shape[1])) for w2, out in zip(weights, outs)]
    for n in range(len(fields)):
        cols = fields[n].reshape(-1, fan_in)
        for w2, out in gemms:
            np.matmul(cols, w2, out=out[n])
        del cols  # before the next sample's copy, which can then reuse its memory


def _depthwise_taps(padded, w, stride, out):
    """out += each tap's strided window of ``padded`` (B, H, W, C) times its
    filter ``w[i, j]``, tap by tap in row-major order, into the C-contiguous
    ``out``.

    Each multiply-add runs along whole output rows, out_w*C values, with the
    tap's filter tiled along the row; at stride 2 the windows are read from
    contiguous copies of the four stride phases of ``padded``. A 1x1 output
    (a full-extent kernel) of more than one channel is one reduction over
    the taps: the tap axis is then not the innermost one, so numpy adds
    along it in tap order, from +0.0 as the loop does (along the innermost
    axis it would add pairwise)."""
    batch, out_h, out_w, c = out.shape
    kh, kw = w.shape[:2]
    if out_h == out_w == 1 and c > 1:
        taps = padded[:, :kh, :kw].reshape(batch, kh * kw, c) * w.reshape(kh * kw, c)
        out += np.add.reduce(taps, axis=1, initial=0.0).reshape(out.shape)
        return
    w_rows = np.tile(w, (1, 1, out_w))
    rows = out.reshape(batch, out_h, out_w * c)
    phases = {(a, b): padded if stride == 1
              else np.ascontiguousarray(padded[:, a::stride, b::stride])
              for a in range(min(stride, kh)) for b in range(min(stride, kw))}
    for i in range(kh):
        for j in range(kw):
            r, s = i // stride, j // stride
            window = phases[i % stride, j % stride][:, r : r + out_h, s : s + out_w]
            rows += window.reshape(rows.shape) * w_rows[i, j]


def _depthwise_input_grad(grad, w, stride, pt, pl, padded_hw, shape):
    """Gradient of depthwise_conv2d with respect to its input of the given
    shape, whose forward read it inside the (top, left) padding (pt, pl) as
    a padded extent ``padded_hw``: the transpose of ``_depthwise_taps``.

    Tap (i, j) reaches only the padded pixels of stride phase
    (i mod stride, j mod stride). So each phase gets its own zero buffer,
    each of its taps adds grad * w[i, j] along whole output rows into it, in
    row-major tap order, and the phase is written into its rows and columns
    of ``dx`` once. Every pixel gets its taps'
    products in the order the scatter over the padded input added them,
    from +0.0, so the bits are the scatter's. A 1x1 output (a full-extent
    kernel) meets each pixel with at most one tap: one broadcast product.
    """
    batch, h, wdt, c = shape
    _, out_h, out_w, _ = grad.shape
    kh, kw = w.shape[:2]
    if out_h == out_w == 1:
        dx = np.zeros(shape, dtype=grad.dtype)
        rows, cols = min(h, kh - pt), min(wdt, kw - pl)
        dx[:, :rows, :cols] += grad * w[pt : pt + rows, pl : pl + cols]
        return dx
    dx = np.empty(shape, dtype=grad.dtype)
    hp, wp = padded_hw
    w_rows = np.tile(w, (1, 1, out_w))
    g = grad.reshape(batch, out_h, out_w * c)
    for a in range(stride):
        r0 = (a - pt) % stride  # the first row of dx in phase a
        for b in range(stride):
            c0 = (b - pl) % stride
            phase = np.zeros((batch, len(range(a, hp, stride)), len(range(b, wp, stride)), c),
                             dtype=grad.dtype)
            for i in range(a, kh, stride):
                for j in range(b, kw, stride):
                    r, s = i // stride, j // stride
                    window = phase[:, r : r + out_h, s : s + out_w].reshape(g.shape)
                    window += g * w_rows[i, j]
            top, left = (r0 + pt) // stride, (c0 + pl) // stride
            dx[:, r0::stride, c0::stride] = phase[
                :, top : top + len(range(r0, h, stride)),
                left : left + len(range(c0, wdt, stride))]
    return dx


def _add_bias(out, b):
    """out += b for a C-contiguous (B, H, W, C) ``out``, with ``b`` repeated
    along a whole output row: the add then runs along rows of W*C values
    instead of C, which for a narrow layer is several times faster. Each
    element gets the same sum."""
    batch, h, w, c = out.shape
    rows = out.reshape(batch * h, w * c)
    rows += b[None].repeat(w, 0).reshape(-1)


def _channel_sums(grad):
    """The bias gradient: ``grad`` (B, H, W, C) summed over every axis but
    the channel axis, as its B*H rows of W*C values added in turn, then the
    W pixels of the row sum. numpy's sum over axes (0, 1, 2) runs its inner
    loop over the C channels only, a handful for a narrow layer. A GEMV with
    a ones vector is as fast at one BLAS thread, but OpenBLAS splits the
    sums of a narrow, tall matrix between its threads, so their bits would
    depend on the thread count; these sums are numpy's own, in one order."""
    batch, h, w, c = grad.shape
    return grad.reshape(batch * h, w * c).sum(axis=0).reshape(w, c).sum(axis=0)


def _zero_extended(grad, top, left, rows, cols):
    """grad[:, top:top+rows, left:left+cols], zero outside grad; a view when
    the window lies inside grad."""
    _, gh, gw, _ = grad.shape
    if top >= 0 and left >= 0 and top + rows <= gh and left + cols <= gw:
        return grad[:, top : top + rows, left : left + cols]
    out = np.zeros((grad.shape[0], rows, cols, grad.shape[3]), dtype=grad.dtype)
    r0, r1 = max(top, 0), min(top + rows, gh)
    c0, c1 = max(left, 0), min(left + cols, gw)
    if r0 < r1 and c0 < c1:
        out[:, r0 - top : r1 - top, c0 - left : c1 - left] = grad[:, r0:r1, c0:c1]
    return out


def _phase(start, size, pad, k, stride):
    """One axis of one phase, the input rows start, start+stride, ...: their
    count, the first tap a that reaches them, their number of taps, and the
    output-gradient row read by the first window of the stride-1 correlation
    that gives their gradient."""
    a = (start + pad) % stride
    taps = len(range(a, k, stride))
    return len(range(start, size, stride)), a, taps, (start + pad - a) // stride - taps + 1


def _conv_input_grad(grad, w, stride, pt, pl, shape):
    """Gradient of conv2d with respect to its input of the given shape.

    Input pixel (r, c) meets only taps i = (r + pt) mod stride and
    j = (c + pl) mod stride, plus multiples of stride. So the input splits
    into stride x stride phases, and each phase's gradient is a stride-1
    correlation of the output gradient with the flipped kernel
    w[a::stride, b::stride][::-1, ::-1], transposed to map cout to cin.
    Pixels that no tap reaches (a 1x1 kernel at stride 2) stay zero.
    """
    batch, h, wdt, cin = shape
    cout = w.shape[3]
    dx = np.zeros(shape, dtype=grad.dtype)
    for r0 in range(stride):
        rows, a, ku, top = _phase(r0, h, pt, w.shape[0], stride)
        for c0 in range(stride):
            cols, b, kv, left = _phase(c0, wdt, pl, w.shape[1], stride)
            if not (rows and cols and ku and kv):
                continue
            g = _zero_extended(grad, top, left, rows + ku - 1, cols + kv - 1)
            wt = w[a::stride, b::stride][::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin)
            if ku * kv == 1:  # the phase's field is g itself: one GEMM for the batch
                dx[:, r0::stride, c0::stride] = (
                    g.reshape(-1, cout) @ wt).reshape(batch, rows, cols, cin)
                continue
            fields = _receptive_fields(g, ku, kv, 1, rows, cols)
            fan = ku * kv * cout
            for n in range(batch):
                dx[n, r0::stride, c0::stride] = (
                    fields[n].reshape(-1, fan) @ wt).reshape(rows, cols, cin)
    return dx


def _conv_layers(op: str, x: Tensor, layers, stride: int, padding: str, tape: Tape | None):
    """The outputs of the conventional convolutions ``layers``, one kernel
    size and one input width, of ``x``, each with its bias: per sample, one
    copy of the receptive fields feeds every layer's GEMM. With a tape, each
    layer records its own backward under ``op``."""
    _check_stride(op, stride)
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(op, f"input must be rank 4, got shape {tuple(xd.shape)}")
    kh, kw = layers[0].weights.shape[:2]
    for params in layers:
        _check_params(op, x, params, "conv")
        w = params.weights.data
        if w.shape[:2] != (kh, kw):
            raise ShapeError(op, f"kernel {w.shape[0]}x{w.shape[1]} differs from its sibling's "
                                 f"{kh}x{kw}")
        if xd.shape[3] != w.shape[2]:
            raise ShapeError(op, f"input channels {xd.shape[3]} do not match kernel input "
                                 f"channels {w.shape[2]} (input {tuple(xd.shape)}, weights "
                                 f"{tuple(w.shape)})")
    batch, h, wdt, cin = xd.shape
    out_h, pt, pb = _out_and_pad(op, h, kh, stride, padding)
    out_w, pl, pr = _out_and_pad(op, wdt, kw, stride, padding)
    cols = _receptive_fields(_padded(x, pt, pb, pl, pr), kh, kw, stride, out_h, out_w)
    weights = [params.weights.data.reshape(kh * kw * cin, -1) for params in layers]
    outs = [np.empty((batch, out_h, out_w, w2.shape[1]), dtype=xd.dtype) for w2 in weights]
    _conv_gemm(cols, weights, outs)
    results = []
    for out, w2, params in zip(outs, weights, layers):
        _add_bias(out, params.bias.data)
        results.append(Tensor(out))
        if tape is not None:
            tape.record(op, results[-1], _conv_backward(x, params, w2, cols, stride, pt, pl))
    return results


def _conv_backward(x: Tensor, params: LayerParams, w2, cols, stride: int, pt: int, pl: int):
    """The backward of one conventional convolution of ``x``, whose forward
    read the receptive-field view ``cols`` with the (top, left) padding
    (pt, pl), and the weights as the (fan_in, cout) matrix ``w2``."""
    w = params.weights.data
    fan_in, cout = w2.shape

    def backward_fn(grad, grads):
        dw = np.zeros_like(w2)
        for n in range(len(grad)):
            dw += cols[n].reshape(-1, fan_in).T @ grad[n].reshape(-1, cout)
        if grads.wants(x):
            grads.accumulate(x, _conv_input_grad(grad, w, stride, pt, pl, x.data.shape))
        grads.accumulate(params.weights, dw.reshape(w.shape))
        grads.accumulate(params.bias, _channel_sums(grad))

    return backward_fn


def conv2d(x: Tensor, params: LayerParams, stride: int = 1, padding: str = "same",
           tape: Tape | None = None) -> Tensor:
    """Conventional 2-D convolution: out[b,y,x,co] = bias[co] + sum over the
    receptive field of input * weight."""
    return _conv_layers("conv2d", x, (params,), stride, padding, tape)[0]


def sibling_conv2d(x: Tensor, layers, stride: int = 1, padding: str = "same",
                   tape: Tape | None = None) -> list:
    """``conv2d`` of ``x`` with each of ``layers``, conventional convolutions
    of one kernel size. Per sample, one copy of the receptive fields feeds
    the GEMM of every layer, and each GEMM has the shape of the layer's own
    ``conv2d``, so each output has its bits. With a tape, each layer records
    the backward of its own ``conv2d``, under the op name
    ``sibling_conv2d``, so its gradients have their bits too."""
    return _conv_layers("sibling_conv2d", x, layers, stride, padding, tape)


def depthwise_conv2d(
    x: Tensor,
    params: LayerParams,
    stride: int = 1,
    padding: str = "same",
    tape: Tape | None = None,
) -> Tensor:
    """Per-channel 2-D convolution: each channel gets its own kh x kw filter
    plus a per-channel bias. The kernel may span the full spatial extent."""
    _check_params("depthwise_conv2d", x, params, "depthwise-conv")
    _check_stride("depthwise_conv2d", stride)
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("depthwise_conv2d", f"input must be rank 4, got shape {tuple(xd.shape)}")
    w = params.weights.data
    b = params.bias.data
    kh, kw, c = w.shape
    if xd.shape[3] != c:
        raise ShapeError(
            "depthwise_conv2d",
            f"input channels {xd.shape[3]} do not match filter channels {c} "
            f"(input {tuple(xd.shape)}, weights {tuple(w.shape)})",
        )
    batch, h, wdt, _ = xd.shape
    out_h, pt, pb = _out_and_pad("depthwise_conv2d", h, kh, stride, padding)
    out_w, pl, pr = _out_and_pad("depthwise_conv2d", wdt, kw, stride, padding)
    padded = _padded(x, pt, pb, pl, pr)
    out = np.zeros((batch, out_h, out_w, c), dtype=xd.dtype)
    _depthwise_taps(padded, w, stride, out)
    _add_bias(out, b)
    result = Tensor(out)

    if tape is not None:
        def backward_fn(grad, grads):
            cols = _receptive_fields(padded, kh, kw, stride, out_h, out_w)
            dw = np.zeros_like(w)
            for n in range(batch):
                dw += np.einsum("hwijc,hwc->ijc", cols[n], grad[n])
            if grads.wants(x):
                grads.accumulate(x, _depthwise_input_grad(grad, w, stride, pt, pl,
                                                          padded.shape[1:3], xd.shape))
            grads.accumulate(params.weights, dw)
            grads.accumulate(params.bias, _channel_sums(grad))

        tape.record("depthwise_conv2d", result, backward_fn)
    return result


def linear(x: Tensor, params: LayerParams, tape: Tape | None = None) -> Tensor:
    """Affine map over flat vectors: out = x @ W + bias."""
    _check_params("linear", x, params, "linear")
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError("linear", f"input must be rank 2, got shape {tuple(xd.shape)}")
    w = params.weights.data
    if xd.shape[1] != w.shape[0]:
        raise ShapeError(
            "linear",
            f"input width {xd.shape[1]} does not match weight rows {w.shape[0]} "
            f"(input {tuple(xd.shape)}, weights {tuple(w.shape)})",
        )
    out = xd @ w + params.bias.data
    result = Tensor(out)

    if tape is not None:
        def backward_fn(grad, grads):
            if grads.wants(x):
                grads.accumulate(x, grad @ w.T)
            grads.accumulate(params.weights, xd.T @ grad)
            grads.accumulate(params.bias, grad.sum(axis=0))

        tape.record("linear", result, backward_fn)
    return result


def relu(x: Tensor, tape: Tape | None = None, pad=None) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0. With ``pad``, the
    result lies inside a zero border of that width (see the module doc)."""
    xd = x.data
    if pad is None:
        result = Tensor(np.maximum(xd, 0))
    else:
        result = _zeros_bordered(xd.shape, xd.dtype, pad)
        np.maximum(xd, 0, out=result.data)

    if tape is not None:
        def backward_fn(grad, grads):
            if grads.wants(x):
                grads.accumulate(x, grad * (xd > 0))

        tape.record("relu", result, backward_fn)
    return result


def concat_channels(*parts: Tensor, tape: Tape | None = None, pad=None) -> Tensor:
    """Concatenate along the channel (or vector) axis, in argument order.
    With ``pad``, the result lies inside a zero border of that width (see
    the module doc)."""
    first = parts[0]
    for part in parts[1:]:
        if part.shape[:-1] != first.shape[:-1]:
            raise ShapeError(
                "concat_channels",
                f"non-channel dims differ: {tuple(first.shape)} vs {tuple(part.shape)}",
            )
        if part.data.dtype != first.data.dtype:
            raise ShapeError("concat_channels", f"dtype mismatch: {first.dtype} vs {part.dtype}")
    arrays = [part.data for part in parts]
    if pad is None:
        result = Tensor(np.concatenate(arrays, axis=-1))
    else:
        shape = first.shape[:-1] + (sum(a.shape[-1] for a in arrays),)
        result = _zeros_bordered(shape, first.data.dtype, pad)
        np.concatenate(arrays, axis=-1, out=result.data)

    if tape is not None:
        splits = np.cumsum([part.shape[-1] for part in parts[:-1]])

        def backward_fn(grad, grads):
            for part, g in zip(parts, np.split(grad, splits, axis=-1)):
                if grads.wants(part):
                    grads.accumulate(part, g)

        tape.record("concat_channels", result, backward_fn)
    return result


def with_border(x: Tensor, pad, tape: Tape | None = None) -> Tensor:
    """A copy of the feature map ``x`` inside a zero border of ``pad`` =
    (top, bottom, left, right). Its gradient is the gradient of ``x``; the
    copy records itself only when the tape wants that gradient."""
    result = _zeros_bordered(x.shape, x.data.dtype, pad)
    result.data[...] = x.data

    if tape is not None and tape.wants(x):
        def backward_fn(grad, grads):
            grads.accumulate(x, grad)

        tape.record("border", result, backward_fn)
    return result


def flatten_rows(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Reshape (B, ...) to (B, -1) preserving row-major order."""
    xd = x.data
    result = Tensor(xd.reshape(xd.shape[0], -1))

    if tape is not None:
        def backward_fn(grad, grads):
            if grads.wants(x):
                grads.accumulate(x, grad.reshape(xd.shape))

        tape.record("reshape", result, backward_fn)
    return result
