"""Backward-pass contracts: finite-difference oracles, accumulation, ordering."""

import numpy as np
import pytest

from efld.errors import UsageError
from efld.model import VARIANTS, apply_variant, build_model, model_forward
from efld.ops import concat_channels, conv2d, depthwise_conv2d, linear, relu
from efld.tensor import LayerParams, Tape, Tensor, backward, backward_multi

from conftest import central_difference, max_rel_error, reduced_config


def params(w, b=None, kind="conv"):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[-1])
    return LayerParams(kind, Tensor(w), Tensor(np.asarray(b, dtype=np.float64)))


def test_linear_identity_sum_gradient():
    x = Tensor(np.array([[0.5, -1.5, 2.0]]))
    p = params(np.eye(3), kind="linear")
    tape = Tape()
    out = linear(x, p, tape=tape)
    grads = backward(tape, np.ones_like(out.data))
    np.testing.assert_array_equal(grads.wrt(x), np.ones((1, 3)))


def test_backward_before_forward_is_usage_error():
    with pytest.raises(UsageError, match="backward before forward"):
        backward(Tape(), np.ones(1))


def test_value_feeding_two_ops_sums_gradients(rng):
    x = Tensor(rng.standard_normal((1, 4)))
    w1 = params(rng.standard_normal((4, 4)), kind="linear")
    w2 = params(rng.standard_normal((4, 4)), kind="linear")
    tape = Tape()
    a = linear(x, w1, tape=tape)
    b = linear(x, w2, tape=tape)
    grads = backward_multi(tape, [(a, np.ones_like(a.data)), (b, np.ones_like(b.data))])
    expected = w1.weights.data.sum(axis=1) + w2.weights.data.sum(axis=1)
    np.testing.assert_allclose(grads.wrt(x)[0], expected, atol=1e-12)


def test_untouched_tensor_gets_zeros(rng):
    x = Tensor(rng.standard_normal((1, 4)))
    unused = Tensor(rng.standard_normal((2, 2)))
    p = params(rng.standard_normal((4, 2)), kind="linear")
    tape = Tape()
    out = linear(x, p, tape=tape)
    grads = backward(tape, np.ones_like(out.data))
    np.testing.assert_array_equal(grads.wrt(unused), np.zeros((2, 2)))


def test_excluded_leaf_gradient_is_never_read_as_zero(rng):
    x = Tensor(rng.standard_normal((2, 4)))
    p = params(rng.standard_normal((4, 3)), kind="linear")
    unreached = params(rng.standard_normal((5, 2)), kind="linear")
    tape = Tape([p.weights, p.bias, unreached.weights])
    out = linear(x, p, tape=tape)
    grads = backward(tape, np.ones_like(out.data))
    assert grads.get(x) is None
    with pytest.raises(UsageError, match=r"\(2, 4\)"):
        grads.wrt(x)
    # A wanted leaf that no op reached keeps the zero fill.
    np.testing.assert_array_equal(grads.wrt(unreached.weights), np.zeros((5, 2)))
    with pytest.raises(UsageError, match=r"\(2,\)"):
        grads.wrt(unreached.bias)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("formats", [("p51",), ("p51", "p68", "p98")], ids=["1head", "3heads"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_pruning_changes_no_parameter_gradient_bit(variant, formats, dtype):
    model = build_model(apply_variant(reduced_config(formats), variant), seed=4, dtype=dtype)
    rng = np.random.default_rng(5)
    images = Tensor(rng.uniform(size=(2, 32, 32, 3)).astype(dtype))
    seed_grads = {f: rng.standard_normal((2, out)).astype(dtype)
                  for f, out in zip(formats, (102, 136, 196))}

    def run(tape):
        preds = model_forward(model, images, tape=tape)
        return backward_multi(tape, [(preds[f], seed_grads[f]) for f in formats])

    params = list(model.params.values())
    full = run(Tape())
    pruned = run(Tape(params))
    with_images = run(Tape(params + [images]))
    for tensor in params:
        np.testing.assert_array_equal(pruned.wrt(tensor), full.wrt(tensor))
        np.testing.assert_array_equal(with_images.wrt(tensor), full.wrt(tensor))
    assert pruned.get(images) is None
    assert full.get(images) is not None
    assert with_images.get(images) is not None
    with pytest.raises(UsageError, match=r"\(2, 32, 32, 3\)"):
        pruned.wrt(images)
    np.testing.assert_array_equal(with_images.wrt(images), full.wrt(images))


class TestFiniteDifferences:
    """Analytic vs central-difference gradients (float64, eps=1e-5, rel < 1e-4)."""

    EPS = 1e-5
    TOL = 1e-4

    def check(self, forward, x, layer_params_list, seed=5):
        rng = np.random.default_rng(seed)
        arrays = [x.data] + [a for p in layer_params_list for a in (p.weights.data, p.bias.data)]
        loss_weights = rng.standard_normal(forward().data.shape)

        def scalar():
            return float((forward().data * loss_weights).sum())

        numeric = central_difference(scalar, arrays, eps=self.EPS)

        tape = Tape()
        out = forward(tape)
        grads = backward(tape, loss_weights, output=out)
        analytic = [grads.wrt(x)] + [
            a for p in layer_params_list for a in (grads.wrt(p.weights), grads.wrt(p.bias))
        ]
        for a, n in zip(analytic, numeric):
            assert max_rel_error(a, n) < self.TOL

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid")])
    def test_conv2d(self, rng, stride, padding):
        x = Tensor(rng.standard_normal((2, 5, 5, 3)))
        p = params(rng.standard_normal((3, 3, 3, 4)), rng.standard_normal(4))
        self.check(lambda tape=None: conv2d(x, p, stride=stride, padding=padding, tape=tape), x, [p])

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((2, 6, 6, 3), 3, 2),  # even input: no padding before, one pixel after
        ((2, 5, 5, 3), 1, 1),
        ((2, 6, 6, 3), 1, 2),
    ])
    def test_conv2d_window_shapes(self, rng, shape, kernel, stride):
        x = Tensor(rng.standard_normal(shape))
        p = params(rng.standard_normal((kernel, kernel, shape[3], 4)), rng.standard_normal(4))
        self.check(lambda tape=None: conv2d(x, p, stride=stride, tape=tape), x, [p])

    def test_depthwise_stride2_even_input(self, rng):
        x = Tensor(rng.standard_normal((2, 6, 6, 3)))
        p = params(rng.standard_normal((3, 3, 3)), rng.standard_normal(3), kind="depthwise-conv")
        self.check(lambda tape=None: depthwise_conv2d(x, p, stride=2, tape=tape), x, [p])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise(self, rng, stride):
        x = Tensor(rng.standard_normal((2, 5, 5, 3)))
        p = params(rng.standard_normal((3, 3, 3)), rng.standard_normal(3), kind="depthwise-conv")
        self.check(lambda tape=None: depthwise_conv2d(x, p, stride=stride, tape=tape), x, [p])

    def test_depthwise_full_extent(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 4)))
        p = params(rng.standard_normal((5, 5, 4)), rng.standard_normal(4), kind="depthwise-conv")
        self.check(
            lambda tape=None: depthwise_conv2d(x, p, padding="valid", tape=tape), x, [p]
        )

    def test_linear(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        p = params(rng.standard_normal((5, 4)), rng.standard_normal(4), kind="linear")
        self.check(lambda tape=None: linear(x, p, tape=tape), x, [p])

    def test_relu(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 5, 2)) + 0.05)
        self.check(lambda tape=None: relu(x, tape=tape), x, [])

    def test_concat(self, rng):
        parts = [Tensor(rng.standard_normal((1, 5, 5, c))) for c in (2, 3, 1)]
        for x in parts:
            self.check(lambda tape=None: concat_channels(*parts, tape=tape), x, [])

    def test_chained_ops(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        c1 = params(rng.standard_normal((3, 3, 2, 3)), rng.standard_normal(3))
        c2 = params(rng.standard_normal((3, 3, 2, 3)), rng.standard_normal(3))

        def forward(tape=None):
            a = relu(conv2d(x, c1, stride=2, tape=tape), tape=tape)
            b = relu(conv2d(x, c2, stride=2, tape=tape), tape=tape)
            return concat_channels(a, b, tape=tape)

        self.check(forward, x, [c1, c2])


def test_backward_is_deterministic(rng):
    x = Tensor(rng.standard_normal((2, 6, 6, 3)))
    p = params(rng.standard_normal((3, 3, 3, 4)), rng.standard_normal(4))

    def run():
        tape = Tape()
        out = conv2d(x, p, stride=2, tape=tape)
        g = backward(tape, np.ones_like(out.data))
        return g.wrt(p.weights).copy(), g.wrt(x).copy()

    w1, x1 = run()
    w2, x2 = run()
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(x1, x2)


def test_a_tape_output_gradient_is_released_never_read_as_zero(rng):
    """The backward keeps the gradients of the leaves and releases those of
    the tape outputs; asking for a released one raises."""
    x = Tensor(rng.standard_normal((2, 4)))
    p = params(rng.standard_normal((4, 3)), kind="linear")
    tape = Tape()
    hidden = linear(x, p, tape=tape)
    out = relu(hidden, tape=tape)
    grads = backward(tape, np.ones_like(out.data))
    for tensor in (hidden, out):
        with pytest.raises(UsageError, match=r"\(2, 3\).*released"):
            grads.wrt(tensor)
        with pytest.raises(UsageError, match="released"):
            grads.get(tensor)
    mask = (hidden.data > 0).astype(np.float64)
    np.testing.assert_allclose(grads.wrt(x), mask @ p.weights.data.T, atol=1e-12)
    np.testing.assert_allclose(grads.wrt(p.weights), x.data.T @ mask, atol=1e-12)
    np.testing.assert_array_equal(grads.get(p.bias), mask.sum(axis=0))


def test_a_second_backward_on_a_consumed_tape_raises(rng):
    x = Tensor(rng.standard_normal((1, 3)))
    p = params(rng.standard_normal((3, 2)), kind="linear")
    tape = Tape([p.weights])
    out = linear(x, p, tape=tape)
    backward(tape, np.ones_like(out.data), output=out)
    assert len(tape) == 0
    for output in (out, None):
        with pytest.raises(UsageError, match="consumed"):
            backward(tape, np.ones_like(out.data), output=output)
