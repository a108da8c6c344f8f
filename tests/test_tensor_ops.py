"""Forward contracts of the five layer primitives against loop oracles."""

import numpy as np
import pytest

import efld.ops
from efld.errors import ShapeError, UsageError
from efld.ops import (concat_channels, conv2d, depthwise_conv2d, linear, relu, sibling_conv2d,
                      with_border)
from efld.tensor import LayerParams, Tape, Tensor, backward, backward_multi

from conftest import (_pad_split, central_difference, max_rel_error, ref_conv2d,
                      ref_depthwise_conv2d, ref_depthwise_input_grad)


def conv_params(w, b=None, kind="conv"):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[-1])
    return LayerParams(kind, Tensor(w), Tensor(np.asarray(b, dtype=np.float64)))


class TestConv2d:
    def test_box_sum_of_ones(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        p = conv_params(np.ones((3, 3, 1, 1)))
        out = conv2d(x, p, stride=1, padding="same").data[0, :, :, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0

    def test_stride2_same_output_size(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1))
        p = conv_params(np.ones((3, 3, 1, 1)))
        assert conv2d(x, p, stride=2, padding="same").shape == (1, 2, 2, 1)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 5, 5, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        out = conv2d(Tensor(x), conv_params(w, b), stride=1, padding="same").data
        np.testing.assert_allclose(out, ref_conv2d(x, w, b, 1, "same"), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_oracle_all_modes(self, rng, stride, padding):
        x = rng.standard_normal((2, 7, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), conv_params(w, b), stride=stride, padding=padding).data
        np.testing.assert_allclose(out, ref_conv2d(x, w, b, stride, padding), atol=1e-12, rtol=0)

    def test_one_by_one_kernel_is_per_pixel_linear(self, rng):
        x = rng.standard_normal((1, 4, 4, 5))
        w = rng.standard_normal((1, 1, 5, 3))
        b = rng.standard_normal(3)
        out = conv2d(Tensor(x), conv_params(w, b), stride=1, padding="same").data
        expected = x.reshape(-1, 5) @ w[0, 0] + b
        np.testing.assert_array_equal(out.reshape(-1, 3), expected)

    @pytest.mark.parametrize("layout", ["channel-slice", "fortran"])
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_oracle_non_contiguous_input(self, rng, layout, stride, padding):
        if layout == "channel-slice":
            x = rng.standard_normal((2, 7, 6, 6))[..., ::2]
        else:
            x = np.asfortranarray(rng.standard_normal((2, 7, 6, 3)))
        assert not x.flags.c_contiguous
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), conv_params(w, b), stride=stride, padding=padding).data
        np.testing.assert_allclose(out, ref_conv2d(x, w, b, stride, padding), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((2, 8, 8, 3), (3, 3), 2, "same"),  # even input: no padding before, one pixel after
        ((2, 7, 8, 5), (1, 1), 2, "same"),
        ((2, 5, 5, 3), (5, 5), 1, "valid"),  # the kernel spans the whole input
        ((2, 5, 4, 3), (5, 4), 2, "valid"),
    ])
    def test_oracle_window_shapes(self, rng, shape, kernel, stride, padding):
        x = rng.standard_normal(shape)
        w = rng.standard_normal(kernel + (shape[3], 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), conv_params(w, b), stride=stride, padding=padding).data
        np.testing.assert_allclose(out, ref_conv2d(x, w, b, stride, padding), atol=1e-12, rtol=0)

    def test_channel_mismatch_names_op_and_dims(self):
        x = Tensor(np.zeros((1, 4, 4, 3)))
        p = conv_params(np.zeros((3, 3, 2, 4)))
        with pytest.raises(ShapeError, match=r"conv2d.*3.*2"):
            conv2d(x, p)

    def test_bad_stride_rejected(self):
        x = Tensor(np.zeros((1, 4, 4, 1)))
        p = conv_params(np.zeros((3, 3, 1, 1)))
        with pytest.raises(UsageError, match="stride"):
            conv2d(x, p, stride=3)

    def test_deterministic(self, rng):
        x = rng.standard_normal((1, 6, 6, 2))
        w = rng.standard_normal((3, 3, 2, 2))
        p = conv_params(w)
        a = conv2d(Tensor(x), p).data
        b = conv2d(Tensor(x), p).data
        np.testing.assert_array_equal(a, b)


def ref_conv2d_input_grad(grad, w, x_shape, stride, padding):
    """d(sum of grad * conv2d(x)) / dx by a plain scatter loop: each output
    pixel adds w[i, j] @ grad back into every input pixel its window reads."""
    batch, h, wdt, _ = x_shape
    kh, kw, _, _ = w.shape
    out_h, pt = _pad_split(h, kh, stride, padding)
    out_w, pl = _pad_split(wdt, kw, stride, padding)
    dx = np.zeros(x_shape)
    for bi in range(batch):
        for oy in range(out_h):
            for ox in range(out_w):
                for i in range(kh):
                    for j in range(kw):
                        iy = oy * stride + i - pt
                        ix = ox * stride + j - pl
                        if 0 <= iy < h and 0 <= ix < wdt:
                            dx[bi, iy, ix] += w[i, j] @ grad[bi, oy, ox]
    return dx


class TestConv2dInputGradient:
    """The phase-GEMM input gradient against the scatter-loop oracle."""

    @staticmethod
    def input_grad(rng, shape, kernel, stride, padding):
        x = Tensor(rng.standard_normal(shape))
        w = rng.standard_normal(kernel + (shape[3], 4))
        tape = Tape()
        out = conv2d(x, conv_params(w), stride=stride, padding=padding, tape=tape)
        grad = rng.standard_normal(out.shape)
        got = backward(tape, grad).wrt(x)
        return got, ref_conv2d_input_grad(grad, w, shape, stride, padding)

    @pytest.mark.parametrize("shape", [(2, 7, 7, 3), (2, 8, 8, 3), (2, 7, 6, 3), (1, 6, 9, 2)],
                             ids=["odd", "even", "non-square", "wide"])
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_matches_scatter_oracle(self, rng, shape, stride, padding):
        got, expected = self.input_grad(rng, shape, (3, 3), stride, padding)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape", [(2, 7, 8, 5), (2, 6, 6, 3)])
    def test_one_by_one_stride2_leaves_untapped_pixels_exactly_zero(self, rng, shape):
        got, expected = self.input_grad(rng, shape, (1, 1), 2, "same")
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        assert not got[:, 1::2].any() and not got[:, :, 1::2].any()
        assert got[:, ::2, ::2].all()

    def test_valid_stride2_trailing_rows_never_read_are_zero(self, rng):
        got, expected = self.input_grad(rng, (2, 6, 7, 3), (3, 3), 2, "valid")
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        assert not got[:, 5].any()
        assert got[:, :5, :7].any()

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((2, 5, 5, 3), (5, 5), 1),
        ((2, 5, 4, 3), (5, 4), 2),
        ((1, 3, 6, 2), (3, 6), 1),
    ])
    def test_full_extent_valid_kernel(self, rng, shape, kernel, stride):
        got, expected = self.input_grad(rng, shape, kernel, stride, "valid")
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)


class TestSiblingConv2d:
    """``sibling_conv2d`` against each layer's own ``conv2d``, bit for bit,
    and against the loop oracle."""

    MODES = [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")]
    TOL = {"float32": 1e-4, "float64": 1e-12}

    @staticmethod
    def siblings(rng, widths, dtype, cin=3, kernel=(3, 3)):
        return [LayerParams("conv", Tensor(rng.standard_normal(kernel + (cin, c)).astype(dtype)),
                            Tensor(rng.standard_normal(c).astype(dtype))) for c in widths]

    @pytest.mark.parametrize("widths", [(8, 4), (3, 5, 1)])
    @pytest.mark.parametrize("stride,padding", MODES)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_each_output_is_its_layers_conv2d(self, rng, dtype, stride, padding, widths):
        x = Tensor(rng.standard_normal((2, 7, 6, 3)).astype(dtype))
        layers = self.siblings(rng, widths, dtype)
        outs = sibling_conv2d(x, layers, stride=stride, padding=padding)
        assert len(outs) == len(layers)
        for out, p in zip(outs, layers):
            alone = conv2d(x, p, stride=stride, padding=padding).data
            assert out.data.dtype == dtype and out.data.shape == alone.shape
            assert out.data.tobytes() == alone.tobytes()
            want = ref_conv2d(x.data.astype(np.float64), p.weights.data.astype(np.float64),
                              p.bias.data.astype(np.float64), stride, padding)
            np.testing.assert_allclose(out.data, want, atol=self.TOL[dtype], rtol=0)

    @pytest.mark.parametrize("widths", [(8, 4), (3, 5, 1)])
    @pytest.mark.parametrize("stride,padding", MODES)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradients_are_each_layers_conv2d_gradients(self, rng, dtype, stride, padding,
                                                        widths):
        """Each layer records the backward of its own ``conv2d``: its weight
        and bias gradients are those bits, and the input gradient is the sum
        of the layers' input gradients, added in reverse tape order."""
        x = Tensor(rng.standard_normal((2, 7, 6, 3)).astype(dtype))
        layers = self.siblings(rng, widths, dtype)
        seeds = [rng.standard_normal(out.shape).astype(dtype)
                 for out in sibling_conv2d(x, layers, stride=stride, padding=padding)]
        refs = []
        for p, seed in zip(layers, seeds):
            alone = Tape()
            out = conv2d(x, p, stride=stride, padding=padding, tape=alone)
            refs.append(backward(alone, seed, output=out))
        params = [t for p in layers for t in (p.weights, p.bias)]
        for wrt in (None, params):
            tape = Tape(wrt)
            outs = sibling_conv2d(x, layers, stride=stride, padding=padding, tape=tape)
            assert tape.op_counts() == {"sibling_conv2d": len(layers)}
            g = backward_multi(tape, list(zip(outs, seeds)))
            for p, ref in zip(layers, refs):
                assert g.wrt(p.weights).tobytes() == ref.wrt(p.weights).tobytes()
                assert g.wrt(p.bias).tobytes() == ref.wrt(p.bias).tobytes()
            if wrt is not None:  # without the input in ``wrt``, no input gradient is formed
                assert g.get(x) is None
                continue
            want = refs[-1].wrt(x)
            for ref in refs[-2::-1]:
                want = want + ref.wrt(x)
            assert g.wrt(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride,padding", MODES)
    def test_central_differences(self, rng, stride, padding):
        x = Tensor(rng.standard_normal((2, 5, 6, 2)))
        layers = self.siblings(rng, (3, 2), "float64", cin=2)
        seeds = [rng.standard_normal(out.shape)
                 for out in sibling_conv2d(x, layers, stride=stride, padding=padding)]

        def loss():
            outs = sibling_conv2d(x, layers, stride=stride, padding=padding)
            return sum(float((out.data * seed).sum()) for out, seed in zip(outs, seeds))

        tape = Tape()
        outs = sibling_conv2d(x, layers, stride=stride, padding=padding, tape=tape)
        g = backward_multi(tape, list(zip(outs, seeds)))
        arrays = [x] + [t for p in layers for t in (p.weights, p.bias)]
        numeric = central_difference(loss, [t.data for t in arrays])
        for t, num in zip(arrays, numeric):
            assert max_rel_error(g.wrt(t), num) < 1e-6

    def test_mismatched_kernel_size_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 6, 6, 3)))
        layers = (self.siblings(rng, (4,), "float64")
                  + self.siblings(rng, (2,), "float64", kernel=(1, 1)))
        with pytest.raises(ShapeError, match=r"sibling_conv2d.*1x1.*3x3"):
            sibling_conv2d(x, layers, stride=2)
        with pytest.raises(ShapeError, match="sibling_conv2d"):
            sibling_conv2d(x, layers, stride=2, tape=Tape())


def bordered(x, pad, channel_step=1):
    """``x`` inside a zero border of ``pad`` = (top, bottom, left, right), as
    a bordered Tensor. With ``channel_step`` > 1 the buffer interleaves zero
    channels, and ``x`` and its border are channel slices of it."""
    top, bottom, left, right = pad
    b, h, w, c = x.shape
    buf = np.zeros((b, h + top + bottom, w + left + right, c * channel_step))
    border = buf[..., ::channel_step]
    border[:, top : top + h, left : left + w] = x
    return Tensor(border[:, top : top + h, left : left + w], border=(border, top, left)), buf


class TestBorderedInput:
    """A convolution reads a bordered input as a view of its border, or
    through the fallback copy when the border is too narrow on some side;
    either way it is bit-equal to the same op on a plain copy, and the
    border stays zero."""

    CASES = [  # shape, kernel, stride, padding, border, whether the border covers the padding
        ((2, 7, 7, 3), (3, 3), 1, "same", (1, 1, 1, 1), True),
        ((2, 7, 7, 3), (3, 3), 2, "same", (1, 1, 1, 1), True),
        ((2, 8, 8, 3), (3, 3), 2, "same", (0, 1, 0, 1), True),
        ((2, 6, 7, 3), (3, 3), 1, "valid", (1, 1, 1, 1), True),
        ((2, 7, 8, 3), (3, 3), 2, "valid", (1, 1, 1, 1), True),
        ((2, 6, 6, 3), (1, 1), 1, "same", (1, 1, 1, 1), True),
        ((2, 7, 8, 3), (1, 1), 2, "same", (1, 1, 1, 1), True),
        ((2, 5, 5, 3), (5, 5), 1, "valid", (1, 1, 1, 1), True),  # full-extent kernel
        ((2, 7, 7, 3), (3, 3), 1, "same", (2, 3, 3, 2), True),  # wider than needed
        ((2, 7, 7, 3), (3, 3), 1, "same", (1, 1, 1, 0), False),  # too narrow on the right
        ((2, 7, 7, 3), (3, 3), 2, "same", (0, 1, 1, 1), False),  # too narrow on the top
    ]

    @pytest.mark.parametrize("channel_step", [1, 2], ids=["contiguous", "channel-slice"])
    @pytest.mark.parametrize("shape,kernel,stride,padding,pad,covers", CASES)
    @pytest.mark.parametrize("op,kind", [(conv2d, "conv"), (depthwise_conv2d, "depthwise-conv")],
                             ids=["conv2d", "depthwise"])
    def test_bit_equal_to_plain_copy(self, rng, monkeypatch, op, kind, shape, kernel, stride,
                                     padding, pad, covers, channel_step):
        x = rng.standard_normal(shape)
        c = shape[3]
        w_shape = kernel + ((c, 4) if kind == "conv" else (c,))
        p = conv_params(rng.standard_normal(w_shape), rng.standard_normal(w_shape[-1]), kind=kind)
        grad = None

        def run(t):
            nonlocal grad
            tape = Tape()
            out = op(t, p, stride=stride, padding=padding, tape=tape)
            if grad is None:
                grad = rng.standard_normal(out.shape)
            g = backward(tape, grad)
            return [out.data, g.wrt(t), g.wrt(p.weights), g.wrt(p.bias)]

        copies = []

        def counted(*args):
            copies.append(args)
            return zeros_bordered(*args)

        zeros_bordered = efld.ops._zeros_bordered
        plain = run(Tensor(x.copy()))
        t, buf = bordered(x, pad, channel_step)
        monkeypatch.setattr(efld.ops, "_zeros_bordered", counted)
        got = run(t)
        for a, b in zip(got, plain):
            np.testing.assert_array_equal(a, b)
        assert len(copies) == (0 if covers else 1)
        interior = np.zeros(buf.shape, dtype=bool)
        interior[:, pad[0] : pad[0] + shape[1], pad[2] : pad[2] + shape[2], ::channel_step] = True
        assert not buf[~interior].any()
        np.testing.assert_array_equal(buf[interior].reshape(x.shape), x)

    @pytest.mark.parametrize("pad", [(0, 1, 0, 1), (1, 2, 3, 0)])
    def test_bordered_outputs(self, rng, pad):
        a = Tensor(rng.standard_normal((2, 5, 4, 3)))
        b = Tensor(rng.standard_normal((2, 5, 4, 2)))
        results = [
            (relu(a, pad=pad), relu(a).data),
            (concat_channels(a, b, pad=pad), concat_channels(a, b).data),
            (with_border(a, pad), a.data),
        ]
        for result, expected in results:
            np.testing.assert_array_equal(result.data, expected)
            buf, top, left = result.border
            assert buf.shape == (2, 5 + pad[0] + pad[1], 4 + pad[2] + pad[3], expected.shape[3])
            assert (top, left) == (pad[0], pad[2])
            assert np.shares_memory(result.data, buf)
            assert np.count_nonzero(buf) == np.count_nonzero(expected)

    def test_with_border_passes_the_gradient_only_when_wanted(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 4, 2)))
        p = conv_params(rng.standard_normal((3, 3, 2, 2)))
        for wrt, wanted in ((None, True), ([x, p.weights], True), ([p.weights], False)):
            tape = Tape(wrt)
            out = conv2d(with_border(x, (1, 1, 1, 1), tape=tape), p, tape=tape)
            assert len(tape) == (2 if wanted else 1)
            g = backward(tape, np.ones(out.shape))
            assert (g.get(x) is not None) == wanted
            if wanted:
                plain = Tape()
                ref = backward(plain, np.ones(out.shape), output=conv2d(x, p, tape=plain))
                np.testing.assert_array_equal(g.get(x), ref.wrt(x))


class TestDepthwiseConv2d:
    def test_full_extent_kernel_gives_one_by_one(self, rng):
        x = Tensor(rng.standard_normal((1, 8, 8, 256)))
        p = conv_params(rng.standard_normal((8, 8, 256)), kind="depthwise-conv")
        out = depthwise_conv2d(x, p, stride=1, padding="valid")
        assert out.shape == (1, 1, 1, 256)

    def test_delta_kernel_is_identity(self, rng):
        x = rng.standard_normal((1, 5, 5, 4))
        w = np.zeros((3, 3, 4))
        w[1, 1, :] = 1.0
        out = depthwise_conv2d(Tensor(x), conv_params(w, kind="depthwise-conv")).data
        np.testing.assert_array_equal(out, x)

    def test_matches_loop_oracle_stride2(self, rng):
        x = rng.standard_normal((1, 6, 6, 3))
        w = rng.standard_normal((3, 3, 3))
        b = rng.standard_normal(3)
        out = depthwise_conv2d(Tensor(x), conv_params(w, b, kind="depthwise-conv"), stride=2).data
        np.testing.assert_allclose(out, ref_depthwise_conv2d(x, w, b, 2, "same"), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch,size,channels,kernel,stride", [
        (1, 8, 256, 8, 1),  # decoder.dw: a full-extent kernel, one reduction
        (3, 8, 256, 8, 1),
        (2, 5, 1, 5, 1),  # one channel: the tap loop
        (2, 9, 16, 3, 2),  # whole rows from four stride phases
        (2, 8, 5, 3, 1),
    ])
    def test_taps_bit_equal_to_the_tap_loop(self, rng, dtype, batch, size, channels, kernel,
                                            stride):
        """``_depthwise_taps`` adds the taps in the loop's order, so every
        bit matches, the sign of each zero included."""
        padded = rng.standard_normal((batch, size, size, channels)).astype(dtype)
        padded[rng.uniform(size=padded.shape) < 0.3] = -0.0
        w = rng.standard_normal((kernel, kernel, channels)).astype(dtype)
        w[rng.uniform(size=w.shape) < 0.3] = -0.0
        if channels > 1:  # every product of channel 0 is -0.0, and the loop's sum is +0.0
            padded[..., 0] = np.abs(padded[..., 0])
            w[:, :, 0] = -0.0
        out_size = (size - kernel) // stride + 1
        want = np.zeros((batch, out_size, out_size, channels), dtype)
        for i in range(kernel):
            for j in range(kernel):
                want += padded[:, i : i + (out_size - 1) * stride + 1 : stride,
                               j : j + (out_size - 1) * stride + 1 : stride] * w[i, j]
        got = np.zeros_like(want)
        efld.ops._depthwise_taps(padded, w, stride, got)
        assert got.tobytes() == want.tobytes()

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 4, 4, 3)))
        p = conv_params(np.zeros((3, 3, 5)), kind="depthwise-conv")
        with pytest.raises(ShapeError, match="depthwise_conv2d"):
            depthwise_conv2d(x, p)

    def test_kernel_larger_than_input_valid_padding(self):
        x = Tensor(np.zeros((1, 4, 4, 2)))
        p = conv_params(np.zeros((8, 8, 2)), kind="depthwise-conv")
        with pytest.raises(ShapeError):
            depthwise_conv2d(x, p, padding="valid")


def typed_params(rng, w_shape, dtype, kind):
    """Random weights and bias of ``w_shape`` in ``dtype``, with about a
    fifth of the weights -0.0."""
    w = rng.standard_normal(w_shape).astype(dtype)
    w[rng.uniform(size=w.shape) < 0.2] = -0.0
    b = rng.standard_normal(w_shape[-1]).astype(dtype)
    return LayerParams(kind, Tensor(w), Tensor(b))


class TestDepthwiseInputGradient:
    """The stride-phase input gradient against the tap-loop scatter."""

    MODES = [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")]

    @staticmethod
    def input_grad(rng, shape, kernel, stride, padding, dtype):
        x = Tensor(rng.standard_normal(shape).astype(dtype))
        p = typed_params(rng, kernel + (shape[3],), dtype, "depthwise-conv")
        tape = Tape()
        out = depthwise_conv2d(x, p, stride=stride, padding=padding, tape=tape)
        grad = rng.standard_normal(out.shape).astype(dtype)
        grad[rng.uniform(size=grad.shape) < 0.2] = -0.0
        got = backward(tape, grad).wrt(x)
        return got, ref_depthwise_input_grad(grad, p.weights.data, shape, stride, padding)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("size", [8, 7, 65])
    @pytest.mark.parametrize("stride,padding", MODES)
    def test_bit_equal_to_the_scatter(self, rng, dtype, batch, size, stride, padding):
        """Every bit, the sign of each zero included."""
        got, want = self.input_grad(rng, (batch, size, size, 4), (3, 3), stride, padding, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((3, 8, 8, 16), (8, 8), 1, "valid"),  # decoder.dw
        ((2, 9, 8, 4), (8, 8), 2, "valid"),  # row 8 meets no tap
        ((2, 1, 2, 4), (3, 3), 2, "same"),  # padded above, a 1x1 output
    ])
    def test_one_by_one_output_bit_equal_to_the_scatter(self, rng, dtype, shape, kernel,
                                                       stride, padding):
        got, want = self.input_grad(rng, shape, kernel, stride, padding, dtype)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [7, 65])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_sample_has_the_bits_of_its_own_call(self, rng, size, stride):
        """Over a batch of 3, the forward and the input gradient of each
        sample are, bit for bit, those of a call on that sample alone, and
        the batch's input gradient is the scatter's."""
        x = Tensor(rng.standard_normal((3, size, size, 4)).astype("float32"))
        p = typed_params(rng, (3, 3, 4), "float32", "depthwise-conv")
        tape = Tape()
        out = depthwise_conv2d(x, p, stride=stride, tape=tape)
        grad = rng.standard_normal(out.shape).astype("float32")
        dx = backward(tape, grad).wrt(x)
        for n in range(3):
            alone = Tensor(x.data[n : n + 1].copy())
            tape = Tape()
            y = depthwise_conv2d(alone, p, stride=stride, tape=tape)
            assert y.data.tobytes() == out.data[n : n + 1].tobytes()
            assert backward(tape, grad[n : n + 1]).wrt(alone).tobytes() == dx[n : n + 1].tobytes()
        assert dx.tobytes() == ref_depthwise_input_grad(grad, p.weights.data, x.shape,
                                                        stride).tobytes()

    @pytest.mark.parametrize("shape", [(2, 7, 7, 3), (1, 5, 7, 2)], ids=["odd", "odd-wide"])
    @pytest.mark.parametrize("stride,padding", MODES)
    def test_central_differences_at_odd_extents(self, rng, shape, stride, padding):
        x = Tensor(rng.standard_normal(shape))
        p = typed_params(rng, (3, 3, shape[3]), "float64", "depthwise-conv")
        seed = rng.standard_normal(depthwise_conv2d(x, p, stride, padding).shape)

        def loss():
            return float((depthwise_conv2d(x, p, stride, padding).data * seed).sum())

        tape = Tape()
        g = backward(tape, seed, output=depthwise_conv2d(x, p, stride, padding, tape=tape))
        arrays = [x, p.weights, p.bias]
        numeric = central_difference(loss, [t.data for t in arrays])
        for t, num in zip(arrays, numeric):
            assert max_rel_error(g.wrt(t), num) < 1e-6


class TestBiasGradients:
    """Each bias gradient is its output gradient summed over the batch and
    the pixels, within a summation's rounding of the float64 sum: at most
    ``tol`` times the sum of the magnitudes summed, per channel."""

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
    @pytest.mark.parametrize("op", ["conv2d", "sibling_conv2d", "depthwise_conv2d"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_within_tolerance_of_a_float64_sum(self, rng, op, dtype, tol, stride):
        x = Tensor(rng.standard_normal((3, 65, 65, 4)).astype(dtype))
        tape = Tape()
        if op == "depthwise_conv2d":
            layers = [typed_params(rng, (3, 3, 4), dtype, "depthwise-conv")]
            outs = [depthwise_conv2d(x, layers[0], stride=stride, tape=tape)]
        elif op == "conv2d":
            layers = [typed_params(rng, (3, 3, 4, 5), dtype, "conv")]
            outs = [conv2d(x, layers[0], stride=stride, tape=tape)]
        else:
            layers = [typed_params(rng, (3, 3, 4, cout), dtype, "conv") for cout in (4, 2)]
            outs = sibling_conv2d(x, layers, stride=stride, tape=tape)
        seeds = [rng.standard_normal(out.shape).astype(dtype) for out in outs]
        g = backward_multi(tape, list(zip(outs, seeds)))
        for p, seed in zip(layers, seeds):
            got = g.wrt(p.bias)
            assert got.dtype == dtype
            exact = seed.astype(np.float64).sum(axis=(0, 1, 2))
            magnitude = np.abs(seed.astype(np.float64)).sum(axis=(0, 1, 2))
            assert np.all(np.abs(got - exact) <= tol * magnitude)


class TestLinear:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        p = conv_params(np.eye(3), kind="linear")
        np.testing.assert_array_equal(linear(Tensor(x), p).data, x)

    def test_hand_case(self):
        p = conv_params(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]), kind="linear")
        out = linear(Tensor(np.array([[1.0, 2.0]])), p).data
        np.testing.assert_array_equal(out, [[2.0, 5.0]])

    def test_batch_512_rows_independent(self, rng):
        x = rng.standard_normal((512, 8))
        p = conv_params(rng.standard_normal((8, 4)), rng.standard_normal(4), kind="linear")
        full = linear(Tensor(x), p).data
        one = linear(Tensor(x[100:101]), p).data
        # same affine map per row; batched and single-row kernels may differ
        # in the last ulp, so compare within float64 roundoff
        np.testing.assert_allclose(full[100:101], one, rtol=0, atol=1e-12)
        assert full.shape == (512, 4)
        perm = rng.permutation(512)
        permuted = linear(Tensor(x[perm]), p).data
        np.testing.assert_array_equal(permuted, full[perm])

    def test_width_mismatch(self):
        p = conv_params(np.zeros((3, 2)), kind="linear")
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.zeros((1, 4))), p)


class TestReluConcat:
    def test_relu(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0]))).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_concat_channel_addition(self, rng):
        a = Tensor(rng.standard_normal((1, 8, 8, 16)))
        b = Tensor(rng.standard_normal((1, 8, 8, 8)))
        assert concat_channels(a, b).shape == (1, 8, 8, 24)

    def test_concat_then_split_recovers_operands(self, rng):
        a = rng.standard_normal((2, 4, 4, 3))
        b = rng.standard_normal((2, 4, 4, 5))
        out = concat_channels(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(out[..., :3], a)
        np.testing.assert_array_equal(out[..., 3:], b)

    def test_concat_vector_axis(self, rng):
        a = rng.standard_normal((3, 10))
        b = rng.standard_normal((3, 4))
        out = concat_channels(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(out[:, :10], a)

    def test_concat_shape_error(self):
        ok = Tensor(np.zeros((1, 4, 4, 2)))
        with pytest.raises(ShapeError, match="concat"):
            concat_channels(ok, Tensor(np.zeros((1, 5, 4, 2))))
        with pytest.raises(ShapeError, match="concat"):
            concat_channels(ok, ok, Tensor(np.zeros((1, 4, 5, 2))))


class TestInvariants:
    """Forward ops agree with the naive references on random inputs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_oracle_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(3, 9, size=2)
        cin, cout = rng.integers(1, 9, size=2)
        stride = int(rng.integers(1, 3))
        x = rng.standard_normal((2, h, w, cin))
        wt = rng.standard_normal((3, 3, cin, cout))
        b = rng.standard_normal(cout)
        got = conv2d(Tensor(x), conv_params(wt, b), stride=stride).data
        np.testing.assert_allclose(got, ref_conv2d(x, wt, b, stride, "same"), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_depthwise_oracle_random_shapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        h, w = rng.integers(3, 9, size=2)
        c = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 3))
        x = rng.standard_normal((2, h, w, c))
        wt = rng.standard_normal((3, 3, c))
        b = rng.standard_normal(c)
        got = depthwise_conv2d(Tensor(x), conv_params(wt, b, kind="depthwise-conv"), stride=stride).data
        np.testing.assert_allclose(got, ref_depthwise_conv2d(x, wt, b, stride, "same"), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid")])
    @pytest.mark.parametrize("op,kind,w_shape", [
        (conv2d, "conv", (3, 3, 3, 4)),
        (depthwise_conv2d, "depthwise-conv", (3, 3, 3)),
    ], ids=["conv2d", "depthwise"])
    def test_arguments_unchanged_by_forward_and_backward(self, rng, op, kind, w_shape,
                                                         stride, padding):
        x = rng.standard_normal((2, 6, 6, 3))
        p = conv_params(rng.standard_normal(w_shape), rng.standard_normal(w_shape[-1]), kind=kind)
        arrays = (x, p.weights.data, p.bias.data)
        copies = [a.copy() for a in arrays]
        tape = Tape()
        out = op(Tensor(x), p, stride=stride, padding=padding, tape=tape)
        backward(tape, rng.standard_normal(out.shape))
        for arr, before in zip(arrays, copies):
            np.testing.assert_array_equal(arr, before)

    def test_outputs_stay_finite(self, rng):
        x = Tensor(rng.standard_normal((1, 8, 8, 8)) * 1e3)
        p = conv_params(rng.standard_normal((3, 3, 8, 8)) * 1e3)
        out = conv2d(x, p).data
        assert np.all(np.isfinite(out))
