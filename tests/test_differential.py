"""Differential tests over generated architectures: the float and int8
forward passes of small random configs against loop-oracle interpreters of
the plan, which share no kernel code with them; the taped forward's
gradients against central differences; the container's ``save(load(f))``
for every generated shape; the parameter and MAC counts against a layer
list derived from the config alone; and a micro-batched training step
against the whole batch on one tape."""

from dataclasses import replace

import numpy as np
import pytest

import efld.model
import efld.training as training
from efld.container import load, save
from efld.data import Sample
from efld.formats import FormatRegistry, LandmarkFormat
from efld.metrics import count_cost
from efld.model import (EXTRA_CONV_KINDS, HEAD_KINDS, EosaConfig, HeadConfig, ModelConfig,
                        build_model, build_plan, model_forward, sibling_convs, site_shapes)
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
    return [Sample(image, {}) for image in rng.uniform(size=(count, size, size, 3))]


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


def config_layers(config):
    """(kind, kernel area, cin, cout, output pixels) of every layer, worked
    out from the config's fields as the module docstring of ``efld.model``
    describes the network, without its plan."""
    layers = []
    size, cin = config.input_size, 3
    for ec in config.eosa:
        size = -(-size // 2)
        if ec.extra_conv == "conventional":
            layers.append(("conv", 9, cin, ec.f_conv, size * size))
        else:
            layers += [("depthwise", 9, cin, cin, size * size),
                       ("conv", 1, cin, ec.f_conv, size * size)]
        for j in range(ec.n_osa):
            layers.append(("conv", 9, cin if j == 0 else ec.f_osa, ec.f_osa, size * size))
        cin = ec.f_conv + ec.n_osa * ec.f_osa
    dim = config.decoder_dim
    layers += [("conv", 1, cin, dim, size * size), ("depthwise", size * size, dim, dim, 1)]
    for hc in config.heads:
        width = dim
        for _ in range(hc.blocks if config.head_kind == "efld" else 0):
            layers.append(("linear", 1, width, hc.width, 1))
            width += hc.width
        layers.append(("linear", 1, width, 2 * hc.points, 1))
    return layers


@pytest.mark.parametrize("seed", SEEDS)
def test_parameter_and_mac_counts_match_the_config(seed):
    config = generated_config(seed)
    params = macs = 0
    for kind, area, cin, cout, pixels in config_layers(config):
        fan_in = area if kind == "depthwise" else area * cin
        params += fan_in * cout + cout
        macs += fan_in * cout * pixels
    cost = count_cost(config)
    assert (cost.parameters, cost.macs) == (params, macs)
    assert build_model(config, seed=seed).parameter_count() == params


def training_case(seed, dtype):
    """A model of the seed's config with every head widened to at least 2
    points (the inter-ocular pair), a registry of its formats, and a batch
    of 5 samples: head k is annotated on every sample but one, except that
    the second head is annotated on the first two only and the third on
    the last two only, and the first sample's first head has coincident
    eyes, so a micro-batch of 2 meets a skipped head and a degenerate one."""
    config = generated_config(seed)
    config = replace(config, heads=tuple(replace(hc, points=max(2, hc.points))
                                         for hc in config.heads))
    model = build_model(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    random_biases(model, rng)
    registry = FormatRegistry(LandmarkFormat(hc.format, hc.points, (0, 1))
                              for hc in config.heads)
    annotated = [{0, 1, 3, 4}, {0, 1}, {3, 4}]
    batch = []
    for i in range(5):
        image = rng.uniform(size=(config.input_size, config.input_size, 3))
        annotations = {hc.format: rng.uniform(size=2 * hc.points)
                       for k, hc in enumerate(config.heads) if i in annotated[k]}
        batch.append(Sample(image=image, annotations=annotations))
    first = config.heads[0].format
    batch[0].annotations[first][2:4] = batch[0].annotations[first][0:2]
    return model, registry, batch


def whole_batch_step(model, batch, registry):
    """A step as one forward and one backward on the whole batch: the loss,
    the per-head detail and the parameter gradients."""
    formats = [f for f in model.head_formats() if any(s.has(f) for s in batch)]
    tape = Tape(model.params.values())
    images = np.stack([s.image for s in batch]).astype(model.dtype)
    predictions = model_forward(model.with_heads(formats), Tensor(images), tape=tape)
    total, detail, seeds = training.masked_multihead_loss(predictions, batch, registry)
    grads = backward_multi(tape, seeds)
    return total, detail, {name: grads.wrt(t) for name, t in model.params.items()}


def train_step(model, batch, registry, monkeypatch):
    """``training._train_step`` with the AdamW update replaced by a copy of
    the gradients it would apply."""
    applied = {}
    monkeypatch.setattr(training, "adamw_step",
                        lambda params, grads, *args: applied.update(grads))
    formats = [f for f in model.head_formats() if any(s.has(f) for s in batch)]
    total, detail = training._train_step(model, batch, formats, registry, None, 0.0, None,
                                         "test")
    return total, detail, applied


@pytest.mark.parametrize("seed", SEEDS)
def test_micro_batched_step_matches_the_whole_batch(seed, monkeypatch):
    """Float64, with the budget cut to 2 samples a lane: the batch of 5 runs
    as 2 + 2 + 1, and its losses and gradients match one tape over all 5."""
    model, registry, batch = training_case(seed, "float64")
    sites = site_shapes(build_plan(model.config), model.config.input_size).values()
    per_sample = sum(int(np.prod(shape)) for shape in sites)
    monkeypatch.setattr(efld.model, "_STEP_ELEMENTS",
                        efld.model.STEP_LANES * 2 * per_sample + 1)
    model = efld.model.Model(model.config, model.params, model.dtype)
    assert model.micro_batch == 2
    total, detail, grads = train_step(model, batch, registry, monkeypatch)
    want_total, want_detail, want_grads = whole_batch_step(model, batch, registry)
    assert total == pytest.approx(want_total, rel=1e-12, abs=0)
    assert set(detail) == set(want_detail)
    for fmt, (loss, count) in want_detail.items():
        assert detail[fmt][1] == count
        assert detail[fmt][0] == pytest.approx(loss, rel=1e-12, abs=0)
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("seed", SEEDS)
def test_step_that_fits_is_bit_equal_to_the_whole_batch(seed, monkeypatch):
    model, registry, batch = training_case(seed, "float32")
    assert model.micro_batch >= len(batch)
    total, detail, grads = train_step(model, batch, registry, monkeypatch)
    want_total, want_detail, want_grads = whole_batch_step(model, batch, registry)
    assert (total, detail) == (want_total, want_detail)
    for name, want in want_grads.items():
        assert grads[name].tobytes() == want.tobytes(), name
