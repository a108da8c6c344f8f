"""Differential tests over generated architectures: the float and int8
forward passes of small random configs against loop-oracle interpreters of
the plan, which share no kernel code with them; the taped forward's
gradients against central differences; and the container's
``save(load(f))`` for every generated shape."""

from types import SimpleNamespace

import numpy as np
import pytest

from efld.container import load, save
from efld.metrics import count_cost
from efld.model import (EXTRA_CONV_KINDS, HEAD_KINDS, EosaConfig, HeadConfig, ModelConfig,
                        build_model, build_plan, model_forward, sibling_convs)
from efld.quantize import calibrate, quantize_model, quantized_forward
from efld.tensor import Tape, Tensor, backward_multi

from conftest import (central_difference, integer_oracle, max_rel_error, ref_conv2d,
                      ref_depthwise_conv2d)

SEEDS = tuple(range(16))
# The loop oracles run about a million multiply-adds a second: the input
# size is drawn from those that keep a sample's forward within this many,
# and an architecture that fits none is drawn again.
MACS_PER_SAMPLE = 200_000


def generated_config(seed: int) -> ModelConfig:
    """A small valid config from ``seed``: 1-4 modules of both extra-conv
    kinds, chains of 1-3 layers, channel widths 1-8, 1-3 heads of either
    kind with 1-3 points, and an input of 16-64 px that the module count
    divides."""
    rng = np.random.default_rng(seed)

    def width():
        return int(rng.integers(1, 9))

    while True:
        modules = int(rng.integers(1, 5))
        eosa = tuple(EosaConfig(width(), int(rng.integers(1, 4)), width(),
                                str(rng.choice(EXTRA_CONV_KINDS))) for _ in range(modules))
        heads = tuple(HeadConfig(f"h{k}", int(rng.integers(1, 4)), int(rng.integers(0, 3)),
                                 width()) for k in range(int(rng.integers(1, 4))))
        decoder_dim, head_kind = width(), str(rng.choice(HEAD_KINDS))
        configs = [ModelConfig(size, eosa, decoder_dim, heads, head_kind)
                   for size in range(16, 65, 2 ** modules)]
        fits = [c for c in configs if count_cost(c).macs <= MACS_PER_SAMPLE]
        if fits:
            return fits[int(rng.integers(len(fits)))]


def float_oracle(model, images):
    """The plan interpreted in float64 with the loop convolutions; ReLU,
    concat, flatten and the linears written out."""
    p = {name: tensor.data for name, tensor in model.params.items()}
    values = {"input": images}
    for step in build_plan(model.config):
        operands = [values[site] for site in step.inputs]
        if step.op == "relu":
            values[step.output] = np.maximum(operands[0], 0.0)
            continue
        if step.op == "concat":
            values[step.output] = np.concatenate(operands, axis=-1)
            continue
        (x,), spec = operands, step.spec
        w, b = p[step.layer + ".w"], p[step.layer + ".b"]
        if step.op == "conv":
            y = ref_conv2d(x, w, b, spec.stride, spec.padding)
        elif step.op == "depthwise":
            y = ref_depthwise_conv2d(x, w, b, spec.stride, spec.padding)
        else:
            y = (x[:, :, None] * w[None]).sum(axis=1) + b
        values[step.output] = y.reshape(len(y), -1) if step.flatten else y
    return {hc.format: values[f"head.{hc.format}.out"] for hc in model.config.heads}


def random_biases(model, rng):
    """Nonzero biases, so that a bias in the wrong channel shows."""
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            tensor.data[:] = rng.uniform(-0.5, 0.5, size=tensor.shape)


def calibration_samples(config, rng, count=4):
    size = config.input_size
    return [SimpleNamespace(image=image) for image in rng.uniform(size=(count, size, size, 3))]


def test_generated_configs_cover_the_grid():
    configs = [generated_config(seed) for seed in SEEDS]
    assert {len(c.eosa) for c in configs} == {1, 2, 3, 4}
    assert {ec.n_osa for c in configs for ec in c.eosa} == {1, 2, 3}
    assert {ec.extra_conv for c in configs for ec in c.eosa} == set(EXTRA_CONV_KINDS)
    assert {c.head_kind for c in configs} == set(HEAD_KINDS)
    assert {len(c.heads) for c in configs} == {1, 2, 3}
    sizes = {c.input_size for c in configs}
    assert min(sizes) == 16 and max(sizes) > 32
    widths = {w for c in configs for ec in c.eosa for w in (ec.f_osa, ec.f_conv)}
    assert 1 in widths and 8 in widths
    assert sum(bool(sibling_convs(build_plan(c))) for c in configs) >= len(configs) // 2


@pytest.mark.parametrize("seed", SEEDS)
def test_float_forward_matches_the_loop_oracle(seed):
    """Untaped float64, in blocks of 2 samples and a ragged 1, with every
    group of sibling convolutions run as one ``sibling_conv2d``."""
    config = generated_config(seed)
    model = build_model(config, seed=seed, dtype="float64")
    rng = np.random.default_rng(seed)
    random_biases(model, rng)
    model._block = 2
    images = rng.uniform(size=(3, config.input_size, config.input_size, 3))
    got = model_forward(model, Tensor(images))
    want = float_oracle(model, images)
    assert list(got) == list(want)
    for fmt in want:
        np.testing.assert_allclose(got[fmt].data, want[fmt], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_quantized_forward_matches_the_integer_oracle(seed):
    config = generated_config(seed)
    model = build_model(config, seed=seed)
    rng = np.random.default_rng(seed)
    random_biases(model, rng)
    qmodel = quantize_model(model, calibrate(model, calibration_samples(config, rng)))
    images = rng.uniform(size=(2, config.input_size, config.input_size, 3))
    got = quantized_forward(qmodel, images)
    want = integer_oracle(qmodel, images)
    assert list(got) == list(want)
    for fmt in want:
        np.testing.assert_array_equal(got[fmt], want[fmt])


@pytest.mark.parametrize("seed", SEEDS)
def test_taped_gradients_match_central_differences(seed):
    """Float64, on a few sampled elements of the layers of each sibling
    group and of two other layers drawn from the plan."""
    config = generated_config(seed)
    model = build_model(config, seed=seed, dtype="float64")
    rng = np.random.default_rng(seed)
    random_biases(model, rng)
    images = Tensor(rng.uniform(size=(2, config.input_size, config.input_size, 3)))
    outputs = model_forward(model, images)
    seeds = {fmt: rng.standard_normal(out.shape) for fmt, out in outputs.items()}
    tape = Tape(list(model.params.values()))
    outputs = model_forward(model, images, tape=tape)
    grads = backward_multi(tape, [(outputs[fmt], g) for fmt, g in seeds.items()])

    plan = build_plan(config)
    names = [step.layer for group in sibling_convs(plan) for step in group]
    others = [n for n in model.layer_names() if n not in names]
    names += [str(n) for n in rng.choice(others, size=min(2, len(others)), replace=False)]
    picks = []  # (tensor, flat index)
    for name in names:
        for suffix in (".w", ".b"):
            tensor = model.params[name + suffix]
            picks += [(tensor, int(i)) for i in rng.choice(tensor.size, min(2, tensor.size),
                                                           replace=False)]
    probe = np.zeros(len(picks))

    def loss():
        for (tensor, i), value in zip(picks, probe):
            tensor.data.flat[i] = value
        outs = model_forward(model, images)
        return sum(float((outs[fmt].data * g).sum()) for fmt, g in seeds.items())

    probe[:] = [tensor.data.flat[i] for tensor, i in picks]
    (numeric,) = central_difference(loss, [probe])
    analytic = [grads.wrt(tensor).flat[i] for tensor, i in picks]
    assert max_rel_error(analytic, numeric) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_containers_save_load_save_byte_identical(seed, tmp_path):
    config = generated_config(seed)
    model = build_model(config, seed=seed)
    rng = np.random.default_rng(seed)
    random_biases(model, rng)
    qmodel = quantize_model(model, calibrate(model, calibration_samples(config, rng)))
    for kind, m in (("float", model), ("int8", qmodel)):
        first, second = tmp_path / f"{kind}.efld", tmp_path / f"{kind}-again.efld"
        save(m, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes(), kind
