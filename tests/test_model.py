"""Architecture assembly: parameter counts, shapes, head wiring, ablations."""

import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest

from efld.errors import ConfigError, ShapeError, UsageError, ValidationError
from efld.model import (
    VARIANTS,
    EosaConfig,
    HeadConfig,
    LayerSpec,
    Model,
    ModelConfig,
    PlanStep,
    apply_variant,
    backbone_forward,
    build_model,
    build_plan,
    decoder_forward,
    default_config,
    eosa_forward,
    head_forward,
    iter_layers,
    last_reads,
    model_forward,
    run_plan,
    sibling_convs,
    site_pads,
    site_shapes,
)
from efld.tensor import LayerParams, Tape, Tensor, backward

from conftest import (
    central_difference,
    delay_block,
    max_rel_error,
    reduced_config,
    ref_conv2d,
    ref_depthwise_conv2d,
)


def count_parameters_by_hand(config):
    """Independent layer-by-layer parameter arithmetic from the config alone."""
    total = 0
    cin = 3
    for ec in config.eosa:
        if ec.extra_conv == "conventional":
            total += 3 * 3 * cin * ec.f_conv + ec.f_conv
        else:
            total += 3 * 3 * cin + cin  # depthwise
            total += cin * ec.f_conv + ec.f_conv  # pointwise 1x1
        chain = cin
        for _ in range(ec.n_osa):
            total += 3 * 3 * chain * ec.f_osa + ec.f_osa
            chain = ec.f_osa
        cin = ec.f_conv + ec.n_osa * ec.f_osa
    total += cin * config.decoder_dim + config.decoder_dim
    spatial = config.input_size // 2 ** len(config.eosa)
    total += spatial * spatial * config.decoder_dim + config.decoder_dim
    for hc in config.heads:
        if config.head_kind == "pfld-plain":
            total += config.decoder_dim * 2 * hc.points + 2 * hc.points
            continue
        width = config.decoder_dim
        for _ in range(hc.blocks):
            total += width * hc.width + hc.width
            width += hc.width
        total += width * 2 * hc.points + 2 * hc.points
    return total


class TestParameterCounts:
    def test_default_51_point_model(self):
        config = default_config()
        model = build_model(config)
        assert model.parameter_count() == 130938
        assert count_parameters_by_hand(config) == 130938

    def test_three_head_model(self):
        config = default_config(("p51", "p68", "p98"))
        model = build_model(config)
        assert model.parameter_count() == 303622
        assert count_parameters_by_hand(config) == 303622

    def test_conv_backbone_variant(self):
        config = apply_variant(default_config(), "conv-backbone")
        assert build_model(config).parameter_count() == 151322
        assert count_parameters_by_hand(config) == 151322

    def test_hand_count_matches_builder_on_odd_configs(self):
        config = reduced_config(("p51", "p98"), input_size=48, decoder_dim=96, width=12)
        assert build_model(config).parameter_count() == count_parameters_by_hand(config)

    def test_eosa_output_channels(self):
        config = default_config()
        assert [ec.out_channels for ec in config.eosa] == [16, 32, 64, 80]

    def test_parameter_names_unique_and_reachable(self):
        model = build_model(default_config(("p51", "p68")))
        names = list(model.params)
        assert len(names) == len(set(names))
        for layer in model.layer_names():
            lp = model.layer(layer)
            assert lp.weights is model.params[layer + ".w"]
            assert lp.bias is model.params[layer + ".b"]


class TestConfigValidation:
    def test_input_size_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(input_size=100).validate()

    def test_duplicate_heads(self):
        config = ModelConfig(heads=(HeadConfig("p51", 51), HeadConfig("p51", 51)))
        with pytest.raises(ConfigError, match="distinct"):
            config.validate()

    def test_empty_heads(self):
        with pytest.raises(ConfigError, match="head"):
            ModelConfig(heads=()).validate()

    def test_bad_eosa(self):
        with pytest.raises(ConfigError, match="n_osa"):
            EosaConfig(4, 0, 8).validate()

    def test_unknown_variant(self):
        with pytest.raises(UsageError, match="variant"):
            apply_variant(default_config(), "bogus")


class TestForwardShapes:
    def test_eosa_module1_shape(self):
        model = build_model(default_config(), dtype="float64")
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 128, 128, 3)))
        assert eosa_forward(model, 1, x).shape == (1, 64, 64, 16)

    def test_eosa_module4_shape(self):
        model = build_model(default_config(), dtype="float64")
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 16, 16, 64)))
        assert eosa_forward(model, 4, x).shape == (1, 8, 8, 80)

    def test_spatial_sizes_halve_along_backbone(self):
        model = build_model(default_config(), dtype="float64")
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 128, 128, 3)))
        sizes = [x.shape[1]]
        for i in range(1, 5):
            x = eosa_forward(model, i, x)
            sizes.append(x.shape[1])
        assert sizes == [128, 64, 32, 16, 8]

    def test_zero_input_zero_bias_gives_zero(self):
        model = build_model(default_config(), dtype="float64")
        x = Tensor(np.zeros((1, 128, 128, 3)))
        out = eosa_forward(model, 1, x)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_zero_input_nonzero_bias_gives_relu_bias(self):
        model = build_model(default_config(), dtype="float64")
        bias = model.params["eosa1.extra.b"].data
        bias[:] = np.linspace(-1.0, 1.0, bias.size)
        out = eosa_forward(model, 1, Tensor(np.zeros((1, 128, 128, 3))))
        expected = np.maximum(bias, 0.0)
        np.testing.assert_array_equal(out.data[0, 5, 5, : bias.size], expected)

    def test_decoder_output_dim(self):
        model = build_model(default_config(), dtype="float64")
        x = Tensor(np.random.default_rng(1).uniform(size=(2, 8, 8, 80)))
        assert decoder_forward(model, x).shape == (2, 256)

    def test_decoder_spatial_mismatch(self):
        model = build_model(default_config(), dtype="float64")
        with pytest.raises(ShapeError, match="decoder"):
            decoder_forward(model, Tensor(np.zeros((1, 9, 9, 80))))

    def test_head_output_lengths(self):
        model = build_model(default_config(("p51", "p68", "p98")), dtype="float64")
        v = Tensor(np.random.default_rng(2).uniform(size=(1, 256)))
        assert head_forward(model, "p51", v).shape == (1, 102)
        assert head_forward(model, "p68", v).shape == (1, 136)
        assert head_forward(model, "p98", v).shape == (1, 196)

    def test_head_intermediate_widths(self):
        config = default_config()
        widths = [spec.cin for spec in iter_layers(config) if spec.name.startswith("head.")]
        assert widths == [256, 288, 320, 352]


@pytest.mark.parametrize("extra_conv", ["conventional", "depthwise-separable"])
def test_eosa_forward_matches_loop_oracles(extra_conv):
    """One backbone module in float64 against the conftest loop convolutions,
    ReLU and channel concat composed by hand."""
    ec = EosaConfig(2, 2, 3, extra_conv)
    config = ModelConfig(input_size=8, eosa=(ec,), decoder_dim=4,
                         heads=(HeadConfig("p3", 3, 1, 4),))
    model = build_model(config, seed=5, dtype="float64")
    rng = np.random.default_rng(6)
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            tensor.data[:] = rng.uniform(-0.5, 0.5, size=tensor.shape)
    p = {name: tensor.data for name, tensor in model.params.items()}
    x = rng.standard_normal((2, 8, 8, 3))

    def conv_relu(oracle, layer, inp, stride):
        return np.maximum(oracle(inp, p[layer + ".w"], p[layer + ".b"], stride, "same"), 0.0)

    if extra_conv == "conventional":
        parts = [conv_relu(ref_conv2d, "eosa1.extra", x, 2)]
    else:
        mid = conv_relu(ref_depthwise_conv2d, "eosa1.extra.dw", x, 2)
        parts = [conv_relu(ref_conv2d, "eosa1.extra.pw", mid, 1)]
    y = x
    for j in range(ec.n_osa):
        y = conv_relu(ref_conv2d, f"eosa1.osa.l{j}", y, 2 if j == 0 else 1)
        parts.append(y)
    got = eosa_forward(model, 1, Tensor(x)).data
    np.testing.assert_allclose(got, np.concatenate(parts, axis=-1), atol=1e-12, rtol=0)


def test_site_pads_are_the_widest_padding_of_the_readers():
    config = default_config()
    plan = build_plan(config)
    pads = site_pads(plan, site_shapes(plan, config.input_size))
    assert pads["input"] == (0, 1, 0, 1)  # two 3x3 stride-2 convs on an even input
    assert pads["eosa1.osa.l0.relu"] == (1, 1, 1, 1)
    assert pads["eosa1.concat"] == (0, 1, 0, 1)
    assert "eosa2.extra.dw.relu" not in pads  # read only by a 1x1 conv
    assert "eosa4.osa.l2.relu" not in pads  # read only by the concat
    assert "decoder.pw.relu" not in pads  # a valid kernel pads nothing

    def reader(name, kernel, stride):
        return PlanStep("s", "conv", ("input",), name + ".out",
                        LayerSpec(name, "conv", kernel, 1, 1, stride, "same", (8, 8)))

    plan = [reader("a", (3, 3), 2), reader("b", (1, 5), 1), reader("c", (3, 1), 1)]
    assert site_pads(plan, site_shapes(plan, 8)) == {"input": (1, 1, 2, 2)}


@pytest.mark.parametrize("formats", [("p51",), ("p51", "p68", "p98")], ids=["1head", "3heads"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sibling_convs_are_the_extra_conv_and_the_first_chain_conv(variant, formats):
    """A conventional extra conv and the first chain conv both read the
    module's input with a 3x3 stride-2 kernel; a depthwise extra conv joins
    no group."""
    config = apply_variant(default_config(formats), variant)
    plan = build_plan(config)
    groups = [tuple(step.layer for step in group) for group in sibling_convs(plan)]
    stages = range(1, len(config.eosa) + 1) if variant == "conv-backbone" else [1]
    assert groups == [(f"eosa{i}.extra", f"eosa{i}.osa.l0") for i in stages]
    for group in sibling_convs(plan):
        assert len({(step.inputs, step.spec.kernel, step.spec.stride, step.spec.padding)
                    for step in group}) == 1


def test_sibling_convs_need_one_site_kernel_stride_padding_and_kind():
    def conv(name, src="input", kernel=(3, 3), stride=2, padding="same", kind="conv"):
        op = "conv" if kind == "conv" else "depthwise"
        return PlanStep("s", op, (src,), name + ".out",
                        LayerSpec(name, kind, kernel, 4, 4, stride, padding, (4, 4)))

    first = conv("a")
    assert sibling_convs([first, conv("b"), conv("c")]) == [(first, conv("b"), conv("c"))]
    for other in (conv("b", src="other"), conv("b", kernel=(1, 1)), conv("b", kernel=(3, 1)),
                  conv("b", stride=1), conv("b", padding="valid"),
                  conv("b", kind="depthwise-conv")):
        assert sibling_convs([first, other]) == []


@pytest.mark.parametrize("change", ["replace", "in place"])
@pytest.mark.parametrize("tensor", ["eosa1.osa.l0.w", "eosa1.osa.l0.b", "eosa1.extra.w"])
def test_untaped_forward_reads_the_current_parameters(tensor, change):
    """After a forward, a sibling convolution's parameter tensor is replaced
    in ``params``, or overwritten in place as training does: the next
    forward equals that of a fresh ``Model`` on the new parameters."""
    config = reduced_config()
    model = build_model(config, seed=1)
    x = Tensor(np.random.default_rng(2).uniform(size=(3, 32, 32, 3)).astype("float32"))
    before = model_forward(model, x)["p51"].data
    old = model.params[tensor]
    new = np.random.default_rng(3).uniform(-1.0, 1.0, size=old.shape).astype("float32")
    if change == "replace":
        model.params[tensor] = Tensor(new)
    else:
        old.data[...] = new
    after = model_forward(model, x)["p51"].data
    fresh = model_forward(Model(config, dict(model.params), model.dtype), x)["p51"].data
    assert after.tobytes() == fresh.tobytes()
    assert after.tobytes() != before.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_non_finite_pixel_is_rejected(bad, taped):
    """Also -inf, which the first ReLU would turn into a finite 0. The
    untaped forward checks one block of samples at a time and names the
    image by its index in the batch."""
    model = build_model(reduced_config(), seed=1)
    model._block = 2
    images = np.random.default_rng(4).uniform(size=(5, 32, 32, 3)).astype("float32")
    images[3, 7, 9, 1] = bad
    images[4, 0, 0, 0] = bad
    with pytest.raises(ValidationError, match="image 3 has a non-finite pixel"):
        model_forward(model, Tensor(images), tape=Tape() if taped else None)


def test_forward_calls_each_patched_op_once_per_plan_step(monkeypatch):
    """The benchmark's tracer wraps these ``efld.model`` attributes and names
    a layer by ``params.weights is model.params[layer + ".w"]``; the forward
    must call them that way, with ``x`` and ``params`` positional. With or
    without a tape, each group of ``sibling_convs`` is one ``sibling_conv2d``
    call, made at the step of its first layer, with its layers' params in
    order; on the tape each of its layers is one ``sibling_conv2d`` node."""
    import efld.model as model_module

    config = reduced_config(("p51", "p68"))
    model = build_model(config, seed=1)
    plan = build_plan(config)
    pads = site_pads(plan, site_shapes(plan, config.input_size))
    groups = sibling_convs(plan)
    assert [[step.layer for step in group] for group in groups] == [["eosa1.extra",
                                                                     "eosa1.osa.l0"]]
    calls, layers, bordered = {}, [], []

    def name_of(params):
        assert isinstance(params, LayerParams)
        (layer,) = [n for n in model.layer_names() if params.weights is model.params[n + ".w"]]
        return layer

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name in ("conv2d", "depthwise_conv2d", "linear", "sibling_conv2d"):
                x, params = args[:2]
                assert isinstance(x, Tensor)
                group = params if name == "sibling_conv2d" else [params]
                layers.extend(name_of(p) for p in group)
                bordered.extend(x.border is not None for _ in group)
            return fn(*args, **kwargs)
        return wrapper

    names = ("conv2d", "depthwise_conv2d", "linear", "relu", "concat_channels", "eosa_forward",
             "sibling_conv2d")
    for name in names:
        monkeypatch.setattr(model_module, name, counting(name, getattr(model_module, name)))

    ops = {"conv": "conv2d", "depthwise": "depthwise_conv2d", "linear": "linear",
           "relu": "relu", "concat": "concat_channels"}
    expected = {name: 0 for name in names}
    for step in plan:
        expected[ops[step.op]] += 1
    expected["conv2d"] -= sum(len(group) for group in groups)
    expected["sibling_conv2d"] = len(groups)
    expected["eosa_forward"] = len(config.eosa)
    layer_steps = [step for step in plan if step.spec is not None]
    for tape in (None, Tape()):
        calls.clear()
        layers.clear()
        bordered.clear()
        model_forward(model, Tensor(np.zeros((2, 32, 32, 3), dtype="float32")), tape=tape)
        assert calls == expected
        assert layers == [step.layer for step in layer_steps]
        # every padded convolution reads its input as a view of the site's border
        assert bordered == [step.inputs[0] in pads for step in layer_steps]
    counts = tape.op_counts()
    assert counts["sibling_conv2d"] == sum(len(group) for group in groups)
    assert counts["conv2d"] == expected["conv2d"]


@pytest.mark.parametrize("formats", [("p51",), ("p51", "p68", "p98")], ids=["1head", "3heads"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_untaped_backbone_runs_in_blocks_bit_equal_to_the_taped_forward(monkeypatch, variant,
                                                                        formats):
    """Without a tape the backbone runs two full blocks of samples and a
    ragged remainder on the lanes, each group of ``sibling_convs`` as one
    ``sibling_conv2d``; a taped forward runs the whole batch at once, here
    with the groups taken away, so one ``conv2d`` per layer. Every output
    bit is the same, and so is every bit that the observer sees of every
    plan site, which is all calibration reads: per backbone site, the
    blocks' values, in whichever order the lanes ran them, are the taped
    value cut into the same blocks."""
    import efld.model as model_module

    config = apply_variant(default_config(formats), variant)
    model = build_model(config, seed=4)
    block = model._block
    assert block > 1
    batch = 2 * block + 1
    x = Tensor(np.random.default_rng(5).uniform(size=(batch, 128, 128, 3)).astype("float32"))
    stage1 = []
    eosa = model_module.eosa_forward

    def recording(model, index, x, *args, **kwargs):
        if index == 1:
            stage1.append(len(x.data))
        return eosa(model, index, x, *args, **kwargs)

    seen = {}

    def observer(site, value):
        seen.setdefault(site, []).append(value.copy())

    monkeypatch.setattr(model_module, "eosa_forward", recording)
    blocked = model_forward(model, x, observer=observer)
    assert sorted(stage1) == [1, block, block]
    blocked_seen, seen = seen, {}
    monkeypatch.setattr(model, "_siblings", {})
    whole = model_forward(model, x, tape=Tape(), observer=observer)
    assert stage1[3:] == [batch]
    assert list(blocked) == list(whole) == list(formats)
    for fmt in formats:
        assert blocked[fmt].data.tobytes() == whole[fmt].data.tobytes()
    plan = build_plan(config)
    sites = ["input"] + [step.output for step in plan]
    heads = {step.output for step in plan if step.stage.startswith("head.")}
    assert list(blocked_seen) == list(seen) == sites
    for site in sites:
        (value,) = seen[site]
        pieces = [value] if site in heads else np.split(value, [block, 2 * block])
        assert sorted(v.tobytes() for v in blocked_seen[site]) == \
            sorted(v.tobytes() for v in pieces), site


def test_untaped_forward_peak_memory_does_not_grow_with_the_batch():
    """At batch 16 the untaped stock forward holds at most a fifth of the
    float32 bytes of all its activation sites at once: the backbone keeps
    only two blocks of samples alive, one per lane, and the bordered copy
    of a block's images lives only until the first convolutions have read
    it. (A whole-batch forward peaks above a third of them.)"""
    import tracemalloc

    model = build_model(default_config(), seed=3)
    sizes = []
    one = np.random.default_rng(0).uniform(size=(1, 128, 128, 3)).astype("float32")
    model_forward(model, Tensor(one), observer=lambda site, value: sizes.append(value.size))
    batch = 16
    activation_bytes = 4 * batch * sum(sizes)
    images = Tensor(np.random.default_rng(1).uniform(size=(batch, 128, 128, 3)).astype("float32"))
    tracemalloc.start()
    try:
        model_forward(model, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * activation_bytes, (peak, activation_bytes)


class TestForwardLanes:
    """An untaped forward of more than one block of samples runs the blocks
    on two lanes; its bits are those of the taped forward, which runs the
    whole batch on the calling thread, whichever lane ends first."""

    def _case(self, scale=1.0):
        config = reduced_config(("p51", "p68"))
        model = build_model(config, seed=1)
        model = Model(config, {name: Tensor(t.data * np.float32(scale))
                               for name, t in model.params.items()}, model.dtype)
        model._block = 2  # a batch of 5 runs as blocks of 2, 2 and 1
        images = np.random.default_rng(7).uniform(size=(5, 32, 32, 3)).astype("float32")
        return model, images

    def test_first_block_ending_last_gives_the_whole_batch_bits(self, monkeypatch):
        model, images = self._case()
        want = model_forward(model, Tensor(images), tape=Tape())
        _, returned, threads = delay_block(monkeypatch, {0: 0.5})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the lanes trade the GIL as often as they can
        try:
            got = model_forward(model, Tensor(images))
        finally:
            sys.setswitchinterval(interval)
        assert returned == [2, 4, 0]  # the first block ended last
        assert {name.startswith("efld-lane") for name in threads} == {True}
        assert list(got) == list(want)
        for fmt in want:
            assert got[fmt].data.tobytes() == want[fmt].data.tobytes()

    def test_nan_pixel_raises_the_first_failing_blocks_error(self, monkeypatch):
        """NaN pixels in the second and third blocks, the second made to
        fail last: the forward names the second's image, as a loop would."""
        model, images = self._case()
        images[3, 5, 7, 1] = images[4, 0, 0, 2] = np.nan
        _, returned, _ = delay_block(monkeypatch, {2: 0.5})
        with pytest.raises(ValidationError) as info:
            model_forward(model, Tensor(images))
        assert str(info.value) == "model_forward: image 3 has a non-finite pixel"
        assert returned == [0, 4, 2]  # the third failed first; the second raised after its delay

    def test_raising_forward_returns_after_every_started_block(self, monkeypatch):
        """The first block fails while the second sleeps on the other lane:
        the forward raises only once the second has returned, and the third
        either ran to its end or never started."""
        model, images = self._case()
        images[0, 0, 0, 0] = np.nan
        started, returned, _ = delay_block(monkeypatch, {0: 0.2, 2: 0.5})
        with pytest.raises(ValidationError, match="image 0 has"):
            model_forward(model, Tensor(images))
        assert 2 in started and sorted(returned) == sorted(started)

    def test_batch_of_one_starts_no_thread(self, monkeypatch):
        import efld.model as model_module

        model, images = self._case()

        def submit(*args, **kwargs):
            raise AssertionError("a batch of one block was sent to the lanes")

        monkeypatch.setattr(model_module._LANES, "submit", submit)
        model_forward(model, Tensor(images[:1]))

    def test_forked_child_runs_lanes_of_its_own(self):
        """A forked child has none of its parent's threads. After a lane
        forward here, a child's multi-block forward runs on lanes of its own
        and exits, where the parent's lanes would leave it waiting forever."""
        model, images = self._case()
        model_forward(model, Tensor(images))
        with warnings.catch_warnings():
            # Python 3.12 on warns of a fork in a process with threads; the
            # child runs only this forward, which takes no lock a lane holds
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                model_forward(model, Tensor(images))
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's forward did not end within 30 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_lanes_raise_on_overflow_under_the_callers_errstate(self):
        """numpy's error state is per thread; each lane runs under the
        caller's, so weights that overflow float32 raise here."""
        model, images = self._case(scale=1e8)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model_forward(model, Tensor(images))

    def test_lanes_ignore_overflow_under_the_callers_errstate(self):
        """Under the caller's ``all="ignore"`` no lane warns (the suite turns
        warnings into errors), and the overflow shows in the outputs."""
        model, images = self._case(scale=1e8)
        with np.errstate(all="ignore"):
            out = model_forward(model, Tensor(images))
        assert not np.isfinite(out["p51"].data).all()


def test_layer_params_are_rebuilt_only_when_a_tensor_is_replaced():
    model = build_model(reduced_config(), seed=1)
    first = model.layer("eosa1.extra")
    assert model.layer("eosa1.extra") is first
    model.params["eosa1.extra.b"] = Tensor(np.ones(first.out_channels, dtype="float32"))
    second = model.layer("eosa1.extra")
    assert second is not first
    assert second.bias is model.params["eosa1.extra.b"]
    assert second.weights is first.weights


class TestModelForward:
    def test_single_requested_head_runs_one_head(self):
        model = build_model(reduced_config(("p51", "p68", "p98")), dtype="float64")
        x = Tensor(np.random.default_rng(3).uniform(size=(1, 32, 32, 3)))
        tape_one = Tape()
        model_forward(model.with_heads({"p51"}), x, tape=tape_one)
        tape_all = Tape()
        model_forward(model, x, tape=tape_all)
        # 3 block linears + 1 output linear per head
        assert tape_one.op_counts()["linear"] == 4
        assert tape_all.op_counts()["linear"] == 12

    def test_one_concat_node_per_plan_concat(self):
        config = default_config(("p51", "p68", "p98"))
        model = build_model(config)
        tape = Tape()
        model_forward(model, Tensor(np.zeros((1, 128, 128, 3), dtype="float32")), tape=tape)
        concats = sum(step.op == "concat" for step in build_plan(config))
        assert tape.op_counts()["concat_channels"] == concats == 13

    def test_all_heads_lengths(self):
        model = build_model(reduced_config(("p51", "p68", "p98")), dtype="float64")
        x = Tensor(np.random.default_rng(3).uniform(size=(1, 32, 32, 3)))
        out = model_forward(model, x)
        assert [o.shape[1] for o in out.values()] == [102, 136, 196]

    def test_unknown_format_lists_available(self):
        model = build_model(reduced_config(("p51",)), dtype="float64")
        x = Tensor(np.zeros((1, 32, 32, 3)))
        with pytest.raises(UsageError, match="p51"):
            model_forward(model.with_heads({"p98"}), x)

    def test_identical_batch_rows_give_identical_outputs(self):
        model = build_model(reduced_config(("p51",)))
        img = np.random.default_rng(4).uniform(size=(32, 32, 3)).astype("float32")
        batch = Tensor(np.stack([img, img]))
        out = model_forward(model, batch)["p51"].data
        np.testing.assert_array_equal(out[0], out[1])

    def test_batch_permutation_permutes_outputs(self):
        model = build_model(reduced_config(("p51",)), dtype="float64")
        images = np.random.default_rng(5).uniform(size=(6, 32, 32, 3))
        out = model_forward(model, Tensor(images))["p51"].data
        perm = np.array([4, 0, 5, 2, 1, 3])
        out_perm = model_forward(model, Tensor(images[perm]))["p51"].data
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_batch_permutation_float32_within_roundoff(self):
        # BLAS sgemm tail-block kernels may differ per row position by 1 ulp
        model = build_model(reduced_config(("p51",)))
        images = np.random.default_rng(5).uniform(size=(6, 32, 32, 3)).astype("float32")
        out = model_forward(model, Tensor(images))["p51"].data
        perm = np.array([4, 0, 5, 2, 1, 3])
        out_perm = model_forward(model, Tensor(images[perm]))["p51"].data
        np.testing.assert_allclose(out_perm, out[perm], rtol=0, atol=1e-6)

    def test_forward_is_deterministic(self):
        model = build_model(reduced_config(("p51",)))
        x = Tensor(np.random.default_rng(6).uniform(size=(2, 32, 32, 3)).astype("float32"))
        a = model_forward(model, x)["p51"].data
        b = model_forward(model, x)["p51"].data
        np.testing.assert_array_equal(a, b)

    def test_wrong_input_size_raises(self):
        model = build_model(reduced_config(("p51",)))
        with pytest.raises(ShapeError, match="expected images"):
            model_forward(model, Tensor(np.zeros((1, 64, 64, 3), dtype="float32")))

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_empty_batch_raises(self, taped):
        model = build_model(reduced_config(("p51",)))
        with pytest.raises(ShapeError, match=r"B >= 1, got \(0, 32, 32, 3\)"):
            model_forward(model, Tensor(np.zeros((0, 32, 32, 3), dtype="float32")),
                          tape=Tape() if taped else None)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_plan_returns_the_head_outputs(variant):
    """With each site's name as its value, every step sees its inputs in
    order, steps run in plan order, and only the head outputs are left."""
    formats = ("p51", "p68", "p98")
    plan = build_plan(apply_variant(default_config(formats), variant))
    ran = []

    def apply(step, operands):
        assert operands == list(step.inputs)
        ran.append(step.output)
        return step.output

    out = run_plan(plan, {"input": "input"}, apply, last_reads(plan))
    assert ran == [step.output for step in plan]
    assert out == {f"head.{f}.out": f"head.{f}.out" for f in formats}


def test_last_reads_drops_each_site_at_its_last_reader():
    plan = build_plan(default_config(("p51", "p68")))
    last = {site: k for k, step in enumerate(plan) for site in step.inputs}
    assert last_reads(plan) == [{site for site, k in last.items() if k == i}
                                for i in range(len(plan))]


class TestPfldPlainVariant:
    def test_changes_only_head_parameters(self):
        base = build_model(default_config(), seed=3, dtype="float64")
        plain = build_model(apply_variant(default_config(), "pfld-head"), seed=3, dtype="float64")
        for name, tensor in base.params.items():
            if name.startswith("head."):
                continue
            np.testing.assert_array_equal(tensor.data, plain.params[name].data)
        assert plain.params["head.p51.out.w"].shape == (256, 102)

    def test_backbone_outputs_bit_identical(self):
        base = build_model(reduced_config(("p51",)), seed=3, dtype="float64")
        plain = build_model(
            apply_variant(reduced_config(("p51",)), "pfld-head"), seed=3, dtype="float64"
        )
        x = Tensor(np.random.default_rng(7).uniform(size=(1, 32, 32, 3)))
        np.testing.assert_array_equal(
            backbone_forward(base, x).data, backbone_forward(plain, x).data
        )

    def test_plain_head_is_single_linear(self):
        config = apply_variant(default_config(), "pfld-head")
        head_layers = [s for s in iter_layers(config) if s.name.startswith("head.")]
        assert len(head_layers) == 1
        assert head_layers[0].kind == "linear"


def test_build_is_deterministic_in_seed():
    a = build_model(default_config(), seed=11)
    b = build_model(default_config(), seed=11)
    c = build_model(default_config(), seed=12)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data)
        for n in a.params if n.endswith(".w")
    )


def test_biases_start_at_zero():
    model = build_model(default_config())
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            np.testing.assert_array_equal(tensor.data, np.zeros_like(tensor.data))


def test_full_model_gradient_check():
    """Analytic vs central-difference gradients with respect to the input
    pixels and every parameter through the whole network (float64, 16x16
    input, halved channels, small head).

    Biases get small random values: with the zero-bias init, borderline
    windows of ReLU zeros put activations exactly on the kink, where the
    subgradient and a central difference legitimately disagree.
    """
    config = reduced_config(("p3",), input_size=16, decoder_dim=32, width=8)
    model = build_model(config, seed=9, dtype="float64")
    rng = np.random.default_rng(10)
    for name, tensor in model.params.items():
        if name.endswith(".b"):
            tensor.data[:] = rng.uniform(-0.05, 0.05, size=tensor.data.shape)
    x = Tensor(rng.uniform(size=(1, 16, 16, 3)))
    loss_weights = rng.standard_normal((1, 6))

    tape = Tape()
    out = model_forward(model, x, tape=tape)["p3"]
    grads = backward(tape, loss_weights, output=out)

    def scalar():
        return float((model_forward(model, x)["p3"].data * loss_weights).sum())

    tensors = [x] + list(model.params.values())
    numeric = central_difference(scalar, [t.data for t in tensors], eps=1e-5)
    worst = 0.0
    for tensor, num in zip(tensors, numeric):
        err = max_rel_error(grads.wrt(tensor), num)
        worst = max(worst, err)
    assert worst < 1e-4


class TestHeadSubset:
    """``ModelConfig.with_heads`` is the one check of a head subset: pruning
    either model kind and head pruning on save raise its text."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(reduced_config(("p51", "p68", "p98")), dtype="float64")

    @pytest.fixture(scope="class")
    def qmodel(self, model):
        from efld.quantize import calibrate, quantize_model
        from efld.synthetic import generate_synthetic

        return quantize_model(model, calibrate(model, generate_synthetic(2, 32, 1, [])))

    def test_keeps_the_model_order_and_drops_repeats(self, model):
        kept = model.config.with_heads(["p98", "p51", "p98"])
        assert [h.format for h in kept.heads] == ["p51", "p98"]
        assert kept.eosa == model.config.eosa and kept.decoder_dim == model.config.decoder_dim

    @pytest.mark.parametrize("subset,message", [
        (["p40"], "unknown heads p40; available heads: p51, p68, p98"),
        (["p51", "p40", "p12"], "unknown heads p12, p40; available heads: p51, p68, p98"),
        ([], "a head subset must be nonempty; available heads: p51, p68, p98"),
    ], ids=["unknown", "unknown-among-known", "empty"])
    def test_every_caller_raises_the_same_text(self, model, qmodel, tmp_path, subset, message):
        from efld.container import save

        calls = [
            lambda: model.config.with_heads(subset),
            lambda: model.with_heads(subset),
            lambda: qmodel.with_heads(subset),
            lambda: save(model, tmp_path / "m.efld", keep_heads=subset),
            lambda: save(qmodel, tmp_path / "m.efld", keep_heads=subset),
        ]
        for call in calls:
            with pytest.raises(UsageError) as info:
                call()
            assert str(info.value) == message
        assert not (tmp_path / "m.efld").exists()

    def test_head_forward_of_an_unknown_head(self, model):
        v = Tensor(np.zeros((1, model.config.decoder_dim)))
        with pytest.raises(UsageError) as info:
            head_forward(model, "p40", v)
        assert str(info.value) == "unknown heads p40; available heads: p51, p68, p98"
