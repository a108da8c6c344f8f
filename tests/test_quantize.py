"""Quantization arithmetic, calibration, and the integer inference path."""

import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from efld import quantize as quantize_module
from efld.errors import CalibrationError, ShapeError, UsageError, ValidationError
from efld.model import (
    STEP_LANES,
    VARIANTS,
    EosaConfig,
    LayerSpec,
    Model,
    apply_variant,
    build_model,
    default_config,
    iter_layers,
    model_forward,
    run_plan,
    site_shapes,
)
from efld.quantize import (
    INT32_MAX,
    INT32_MIN,
    QMAX,
    QMIN,
    QuantizedModel,
    QuantParams,
    _floor_requant,
    _Layer,
    _accumulate,
    _proved_offsets,
    _round_half_away,
    _to_int8,
    accumulator_dtype,
    build_plan,
    calibrate,
    params_from_range,
    plan_sites,
    quantize_model,
    quantized_forward,
)
from efld.synthetic import generate_synthetic
from efld.tensor import Tape, Tensor

from conftest import (delay_block, delay_chunk, halving_model, integer_oracle, oracle_requant,
                      reduced_config, ref_conv2d)


class TestQuantizeValue:
    """q = clamp(round_half_away(x / scale) + zero_point, -128, 127), as the
    forward quantizes, through ``_to_int8``; (q - zero_point) * scale is the
    real value that q stands for."""

    def test_hand_case(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert _to_int8(0.5 / qp.scale, qp.zero_point) == 50
        assert (50 - qp.zero_point) * qp.scale == pytest.approx(0.50)

    def test_zero_maps_to_zero_point(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert _to_int8(0.0 / qp.scale, qp.zero_point) == 0
        qp2 = QuantParams(scale=0.01, zero_point=-7)
        assert _to_int8(0.0 / qp2.scale, qp2.zero_point) == -7

    def test_saturation(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert _to_int8(10.0 / qp.scale, qp.zero_point) == 127
        assert _to_int8(-10.0 / qp.scale, qp.zero_point) == -128

    def test_round_half_away_from_zero(self):
        qp = QuantParams(scale=1.0, zero_point=0)
        assert _to_int8(0.5 / qp.scale, qp.zero_point) == 1
        assert _to_int8(-0.5 / qp.scale, qp.zero_point) == -1
        assert _to_int8(1.5 / qp.scale, qp.zero_point) == 2

    def test_roundtrip_within_half_scale(self, rng):
        qp = QuantParams(scale=0.02, zero_point=11)
        lo, hi = (-128 - qp.zero_point) * qp.scale, (127 - qp.zero_point) * qp.scale
        x = rng.uniform(lo, hi, size=10**6)
        q = _to_int8(x / qp.scale, qp.zero_point)
        back = (q.astype(np.float64) - qp.zero_point) * qp.scale
        assert np.abs(back - x).max() <= qp.scale / 2 + 1e-12

    def test_monotonicity(self, rng):
        qp = QuantParams(scale=0.013, zero_point=-3)
        x = np.sort(rng.uniform(-3, 3, size=4096))
        q = _to_int8(x / qp.scale, qp.zero_point).astype(np.int32)
        assert np.all(np.diff(q) >= 0)

    def test_invalid_params(self):
        with pytest.raises(UsageError):
            QuantParams(scale=0.0, zero_point=0)
        with pytest.raises(UsageError):
            QuantParams(scale=0.1, zero_point=200)


class TestRoundHalfAway:
    @staticmethod
    def floor_formula(x):
        """The earlier implementation: copysign(floor(|x| + 0.5), x)."""
        return np.copysign(np.floor(np.abs(x) + 0.5), x)

    def test_bit_equal_to_floor_formula(self, rng):
        big = 2.0**52
        special = np.array([
            0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, 0.49999999999999994,
            -0.49999999999999994, 1e-300, -1e-300, np.inf, -np.inf,
            big - 1.5, big - 0.5, big, big + 1.0, big + 3.0, 2.0 * big + 2.0,
            -(big - 1.5), -(big - 0.5), -big, -(big + 1.0), -(2.0 * big + 2.0),
        ])
        x = np.concatenate([special, rng.normal(scale=300.0, size=10**5),
                            rng.uniform(-1.0, 1.0, size=10**5) * 2.0**60])
        got = _round_half_away(x)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), self.floor_formula(x).view(np.int64))


class TestParamsFromRange:
    def test_relu_style_range(self):
        qp = params_from_range(0.0, 2.54, "x")
        assert qp.scale == pytest.approx(2.54 / 255)
        assert qp.zero_point == -128

    def test_symmetric_range_zero_point_near_zero(self):
        qp = params_from_range(-1.0, 1.0, "x")
        assert abs(qp.zero_point) <= 1

    def test_constant_site_floors_scale(self, caplog):
        with caplog.at_level("WARNING"):
            qp = params_from_range(0.5, 0.5, site="x")
        assert qp.scale == 1e-8
        assert "constant" in caplog.text


HEAD_SETS = [("p51",), ("p51", "p68", "p98")]


@pytest.fixture(scope="module")
def small_setup():
    config = reduced_config(("p51",))
    model = build_model(config, seed=2)
    dataset = generate_synthetic(12, 32, seed=21, formats=["p51"])
    activations = calibrate(model, dataset)
    qmodel = quantize_model(model, activations)
    return config, model, dataset, activations, qmodel


class TestCalibrate:
    def test_covers_every_plan_site(self, small_setup):
        config, _, _, activations, _ = small_setup
        for site in plan_sites(config):
            assert site in activations

    def test_relu_sites_include_zero(self, small_setup):
        config, _, _, activations, _ = small_setup
        for site in plan_sites(config):
            if site.endswith(".relu"):
                qp = activations[site]
                zero = (int(_to_int8(0.0 / qp.scale, qp.zero_point)) - qp.zero_point) * qp.scale
                assert abs(zero) <= qp.scale / 2

    def test_deterministic(self, small_setup):
        _, model, dataset, activations, _ = small_setup
        again = calibrate(model, dataset)
        assert set(again) == set(activations)
        for site, qp in activations.items():
            assert again[site] == qp

    def test_blocked_ranges_equal_whole_batch_ranges(self):
        """Calibration's untaped forward reports each backbone site once per
        block of samples; merged, the ranges are those of one whole-batch
        (taped) forward of the same samples."""
        config = default_config(("p51", "p68"))
        model = build_model(config, seed=6)
        dataset = generate_synthetic(2 * model._block + 1, 128, seed=3, formats=[])
        seen, lock = {}, threading.Lock()

        def observer(site, value):
            with lock:  # the blocks' calls come from two lanes
                seen[site] = seen.get(site, 0) + 1
                ranges[site] = (float(value.min()), float(value.max()))

        ranges = {}
        images = np.stack([s.image for s in dataset]).astype("float32")
        model_forward(model, Tensor(images), tape=Tape(), observer=observer)
        assert set(seen.values()) == {1}
        relu_sites = {step.output for step in build_plan(config) if step.op == "relu"}
        want = {site: params_from_range(0.0 if site in relu_sites else lo, hi, site)
                for site, (lo, hi) in ranges.items()}
        seen.clear()
        model_forward(model, Tensor(images), observer=observer)
        assert seen["input"] == seen["decoder.out"] == 3 and seen["head.p51.out"] == 1
        assert calibrate(model, dataset, batch_size=len(images)) == want

    def test_observer_runs_on_the_lanes_in_any_block_order(self, monkeypatch):
        """A batch of three blocks, the first made to end last, with the
        lanes trading the GIL as often as they can: the observer runs on the
        lanes, and the params are those of the whole-batch (taped) ranges."""
        config = reduced_config(("p51", "p68"))
        model = build_model(config, seed=6)
        model._block = 2  # a batch of 5 runs as blocks of 2, 2 and 1
        dataset = generate_synthetic(5, 32, seed=3, formats=[])
        ranges = {}
        images = np.stack([s.image for s in dataset]).astype("float32")
        model_forward(model, Tensor(images), tape=Tape(),
                      observer=lambda site, value: ranges.setdefault(
                          site, (float(value.min()), float(value.max()))))
        relu_sites = {step.output for step in build_plan(config) if step.op == "relu"}
        want = {site: params_from_range(0.0 if site in relu_sites else lo, hi, site)
                for site, (lo, hi) in ranges.items()}
        threads = set()
        forward = quantize_module.model_forward

        def watched(model, images, tape=None, observer=None):
            def recording(site, value):
                threads.add((site, threading.current_thread().name))
                observer(site, value)
            return forward(model, images, tape, recording)

        monkeypatch.setattr(quantize_module, "model_forward", watched)
        _, returned, _ = delay_block(monkeypatch, {0: 0.3})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = calibrate(model, dataset, batch_size=5)
        finally:
            sys.setswitchinterval(interval)
        assert returned == [2, 4, 0]  # the first block ended last
        assert got == want and list(got) == plan_sites(config)
        lanes = {name for site, name in threads if not site.startswith("head.")}
        assert lanes and all(name.startswith("efld-lane") for name in lanes)
        assert {name for site, name in threads if site.startswith("head.")} == {
            threading.current_thread().name}

    @pytest.mark.parametrize("batch_size", [1, 2], ids=["later-batch", "later-block"])
    def test_nan_in_a_later_block_is_not_dropped(self, monkeypatch, batch_size):
        """The taps of ``eosa1.extra.dw`` alternate between 2 and -2, so the
        second crop's pixels of 3e38 give it +inf and -inf products, and
        NaN sums, which the first crop's range must not hide: as a later
        batch, and as a later block on the lanes that ends last."""
        from efld.data import Sample

        config = reduced_config(("p51",))
        config = replace(config, eosa=(replace(config.eosa[0], extra_conv="depthwise-separable"),
                                       *config.eosa[1:]))
        model = build_model(config, seed=6)
        taps = model.params["eosa1.extra.dw.w"].data
        taps[:] = np.where(np.arange(taps.size).reshape(taps.shape) % 2, -2, 2)
        model._block = 1
        fine = generate_synthetic(1, 32, seed=3, formats=[]).samples[0]
        samples = [fine, Sample(np.full((32, 32, 3), 3e38), {})]
        delay_block(monkeypatch, {1: 0.3})
        with pytest.raises(CalibrationError) as info:
            calibrate(model, samples, batch_size=batch_size)
        assert str(info.value) == (
            "site 'eosa1.extra.dw.out' has calibration range [nan, nan], which is not finite")

    @pytest.mark.parametrize("case", ["weights-1e6", "head-out-inf"])
    def test_non_finite_range_names_the_first_site(self, case):
        """Weights scaled by 1e6 overflow float32 deep in the backbone; an
        infinite bias drives ``head.p51.out`` to +inf. Either way the error
        names the first site, in plan order, whose range is not finite, with
        that range, and no numpy warning is raised on the way (the suite
        turns warnings into errors)."""
        config = reduced_config(("p51", "p68"))
        model = build_model(config, seed=2)
        if case == "weights-1e6":
            model = Model(config, {name: Tensor(t.data * np.float32(1e6))
                                   for name, t in model.params.items()}, model.dtype)
        else:
            model.params["head.p51.out.b"].data[:] = np.inf
        dataset = generate_synthetic(5, 32, seed=21, formats=[])
        ranges = {}

        def observer(site, value):
            lo, hi = ranges.get(site, (np.inf, -np.inf))
            ranges[site] = (np.minimum(lo, value.min()), np.maximum(hi, value.max()))

        images = np.stack([s.image for s in dataset]).astype("float32")
        with np.errstate(all="ignore"):
            model_forward(model, Tensor(images), tape=Tape(), observer=observer)
        site, (lo, hi) = next((site, ranges[site]) for site in plan_sites(config)
                              if not np.isfinite(ranges[site]).all())
        if case == "head-out-inf":
            assert (site, hi) == ("head.p51.out", np.inf)
        with pytest.raises(CalibrationError) as info:
            calibrate(model, dataset)
        assert str(info.value) == (
            f"site {site!r} has calibration range [{float(lo)}, {float(hi)}], "
            f"which is not finite")

    def test_empty_dataset_rejected(self, small_setup):
        _, model, _, _, _ = small_setup
        from efld.data import Dataset

        with pytest.raises(UsageError, match="nonempty"):
            calibrate(model, Dataset([]))
        with pytest.raises(UsageError, match="nonempty"):
            calibrate(model, iter([]))

    def test_reads_a_one_pass_iterable_once(self, small_setup):
        _, model, dataset, _, _ = small_setup
        read = []

        def once():
            for sample in dataset:
                read.append(sample)
                yield sample

        # 12 samples in batches of 5, 5 and 2
        assert calibrate(model, once(), batch_size=5) == calibrate(model, dataset, batch_size=5)
        assert read == dataset.samples


class TestQuantizeModel:
    def test_weight_scale_and_values(self, small_setup):
        _, model, _, _, qmodel = small_setup
        name = "eosa1.extra"
        w = model.params[name + ".w"].data
        scale = qmodel.weight_scales[name]
        assert scale == pytest.approx(np.abs(w).max() / 127)
        assert int(np.abs(qmodel.weights[name]).max()) == 127

    def test_max_weight_127_hand_case(self):
        scale = 1.27 / 127
        assert scale == pytest.approx(0.01)
        assert int(np.clip(_round_half_away(1.27 / scale), -128, 127)) == 127

    def test_zero_weight_tensor_floors_scale(self, small_setup):
        config, model, dataset, activations, _ = small_setup
        zeroed = build_model(config, seed=2)
        for name, t in model.params.items():
            zeroed.params[name].data[:] = t.data
        zeroed.params["eosa1.extra.w"].data[:] = 0.0
        qm = quantize_model(zeroed, activations)
        assert qm.weight_scales["eosa1.extra"] == 1e-8
        assert np.all(qm.weights["eosa1.extra"] == 0)

    def test_payload_bytes_equal_weight_scalar_count(self, small_setup):
        _, model, _, _, qmodel = small_setup
        weight_scalars = sum(
            t.size for name, t in model.params.items() if name.endswith(".w")
        )
        assert qmodel.weight_byte_count() == weight_scalars
        assert qmodel.parameter_count() == model.parameter_count()

    def test_biases_are_int32_at_product_scale(self, small_setup):
        _, model, _, activations, qmodel = small_setup
        from efld.quantize import layer_input_sites

        sites = layer_input_sites(model.config)
        for name, q_b in qmodel.biases.items():
            assert q_b.dtype == np.int32
            expected = activations[sites[name]].scale * qmodel.weight_scales[name]
            assert qmodel.bias_scales[name] == pytest.approx(expected)

    def test_missing_site_is_calibration_error(self, small_setup):
        _, model, _, activations, _ = small_setup
        partial = dict(activations)
        del partial["decoder.out"]
        with pytest.raises(CalibrationError, match="decoder.out"):
            quantize_model(model, partial)

    def test_bias_saturation_is_logged(self, small_setup, caplog):
        config, model, _, activations, _ = small_setup
        with caplog.at_level("WARNING", logger="efld.quantize"):
            quantize_model(model, activations)
        assert not caplog.records
        big = build_model(config, seed=2)
        for name, t in model.params.items():
            big.params[name].data[:] = t.data
        big.params["eosa2.osa.l1.b"].data[:3] = [1e9, -1e9, 1e-3]
        with caplog.at_level("WARNING", logger="efld.quantize"):
            qm = quantize_model(big, activations)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "eosa2.osa.l1" in messages[0] and "2 of 4 int32 bias entries" in messages[0]
        assert qm.biases["eosa2.osa.l1"][:2].tolist() == [2**31 - 1, -(2**31)]


class TestQuantizedForward:
    def test_bit_deterministic_across_runs(self, small_setup):
        _, _, dataset, _, qmodel = small_setup
        images = np.stack([s.image for s in dataset.samples[:4]])
        a = quantized_forward(qmodel, images)["p51"]
        b = quantized_forward(qmodel, images)["p51"]
        np.testing.assert_array_equal(a, b)

    def test_all_zero_model_outputs_exact_zero(self, small_setup):
        config, model, dataset, activations, _ = small_setup
        zeroed = build_model(config, seed=2)
        for name in zeroed.params:
            zeroed.params[name].data[:] = 0.0
        qm = quantize_model(zeroed, activations)
        out = quantized_forward(qm, np.stack([s.image for s in dataset.samples[:2]]))["p51"]
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_close_to_float_forward(self, small_setup):
        _, model, dataset, activations, qmodel = small_setup
        images = np.stack([s.image for s in dataset.samples])
        float_out = model_forward(model, Tensor(images.astype("float32")))["p51"].data
        q_out = quantized_forward(qmodel, images)["p51"]
        out_scale = activations["head.p51.out"].scale
        mean_err = np.abs(q_out - float_out.astype(np.float64)).mean()
        assert mean_err < 3 * out_scale

    @pytest.mark.parametrize("formats", HEAD_SETS, ids=["1head", "3heads"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_matches_observer_sites(self, variant, formats):
        config = apply_variant(reduced_config(formats), variant)
        model = build_model(config, seed=2)
        seen = []
        images = Tensor(np.random.default_rng(0).uniform(size=(1, 32, 32, 3)).astype("float32"))
        model_forward(model, images, observer=lambda s, v: seen.append(s))
        assert seen == plan_sites(config)

    def test_single_image_accepted(self, small_setup):
        _, _, dataset, _, qmodel = small_setup
        out = quantized_forward(qmodel, dataset.samples[0].image[None])["p51"]
        assert out.shape == (1, 102)

    def test_empty_batch_raises(self, small_setup):
        qmodel = small_setup[-1]
        with pytest.raises(ShapeError, match=r"B >= 1, got \(0, 32, 32, 3\)"):
            quantized_forward(qmodel, np.zeros((0, 32, 32, 3)))

    def test_image_without_a_batch_axis_raises(self, small_setup):
        """As in ``model_forward``, one crop is a batch of one."""
        qmodel = small_setup[-1]
        with pytest.raises(ShapeError, match=r"got \(32, 32, 3\)"):
            quantized_forward(qmodel, np.zeros((32, 32, 3)))

    @pytest.mark.parametrize("formats", HEAD_SETS, ids=["1head", "3heads"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_covers_every_layer(self, variant, formats):
        config = apply_variant(reduced_config(formats), variant)
        plan_layers = [(s.layer, s.op) for s in build_plan(config) if s.layer]
        assert plan_layers == layers_by_hand(config)

    def test_int8_values_dropped_after_last_reader(self, small_setup, monkeypatch):
        """Each run of compiled steps, a chunk's backbone on its lane or the
        heads on the joined rows, holds no int8 value past its last reader."""
        _, _, dataset, _, qmodel = small_setup
        runs = []

        def spy_run_plan(steps, values, apply, drops):
            read = {}  # this run's sites, each with its last value read
            runs.append(read)
            last_read = {site: k for k, step in enumerate(steps) for site in step.inputs}

            def spy(step, operands):
                k = next(i for i, s in enumerate(steps) if s is step)
                stale = [site for site, ref in read.items()
                         if last_read[site] < k and ref() is not None]
                assert not stale, f"{stale} still held at step {k} ({step.output})"
                for site, q in zip(step.inputs, operands):
                    if q is not None:
                        read[site] = weakref.ref(q)
                return apply(step, operands)

            return run_plan(steps, values, spy, drops)

        monkeypatch.setattr(quantize_module, "run_plan", spy_run_plan)
        out = quantized_forward(qmodel, np.stack([s.image for s in dataset.samples[:4]]))
        assert len(runs) == STEP_LANES + 1  # a backbone run per chunk, then the heads
        assert "decoder.out" in runs[-1]  # the heads ran last, on the joined rows
        assert min(len(read) for read in runs[:-1]) > 10 and out["p51"].shape == (4, 102)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_pixel_is_rejected(self, small_setup, bad):
        _, _, dataset, _, qmodel = small_setup
        images = np.stack([s.image for s in dataset.samples[:5]])
        images[3, 7, 9, 1] = bad
        images[4, 0, 0, 0] = bad
        with pytest.raises(ValidationError, match="image 3 has a non-finite pixel"):
            quantized_forward(qmodel, images)

    @pytest.mark.parametrize("bad,named", [((4,), 4), ((1, 4), 1)],
                             ids=["second-chunk", "both-chunks"])
    def test_non_finite_pixel_is_named_by_its_batch_index(self, small_setup, monkeypatch, bad,
                                                          named):
        """A batch of 6 runs as chunks of 3: a NaN in the second chunk is
        named by its index in the batch, and with NaNs in both chunks the
        first chunk's image is named, also when the second fails first."""
        _, _, dataset, _, qmodel = small_setup
        images = np.stack([s.image for s in dataset.samples[:6]])
        for k in bad:
            images[k, 2, 3, 0] = np.nan
        _, returned, _ = delay_chunk(monkeypatch, {0: 0.3})
        with pytest.raises(ValidationError) as info:
            quantized_forward(qmodel, images)
        assert str(info.value) == f"quantized_forward: image {named} has a non-finite pixel"
        assert returned == [3, 0]  # the first chunk ended last

    @pytest.mark.parametrize("block", [quantize_module._BLOCK_ELEMENTS, 2048],
                             ids=["stock-blocks", "small-blocks"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_do_not_depend_on_the_batch(self, variant, block, monkeypatch):
        """Row k of a batch-B forward equals the batch-1 forward of image k,
        bit for bit, also when chunks, or blocks of samples within a chunk,
        split the batch unevenly."""
        config = apply_variant(reduced_config(("p51", "p68")), variant)
        model = build_model(config, seed=5)
        dataset = generate_synthetic(17, 32, seed=9, formats=[])
        qmodel = quantize_model(model, calibrate(model, dataset.samples[:8]))
        monkeypatch.setattr(quantize_module, "_BLOCK_ELEMENTS", block)
        images = np.stack([s.image for s in dataset.samples])
        singles = [quantized_forward(qmodel, images[k : k + 1]) for k in range(len(images))]
        for batch in (1, 2, 3, 5, 8, 17):  # chunks of 1; 1 + 1; 2 + 1; 3 + 2; 4 + 4; 9 + 8
            out = quantized_forward(qmodel, images[:batch])
            for fmt in ("p51", "p68"):
                for k in range(batch):
                    np.testing.assert_array_equal(out[fmt][k], singles[k][fmt][0])

    def test_first_chunk_ending_last_gives_the_rows_in_batch_order(self, small_setup,
                                                                   monkeypatch):
        """A batch of 5 runs as chunks of 3 and 2 on the lanes: with the
        first made to end last, the rows still come out in batch order, each
        the bits of its batch-1 forward."""
        _, _, dataset, _, qmodel = small_setup
        images = np.stack([s.image for s in dataset.samples[:5]])
        singles = np.concatenate([quantized_forward(qmodel, images[k : k + 1])["p51"]
                                  for k in range(len(images))])
        _, returned, threads = delay_chunk(monkeypatch, {0: 0.3})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the lanes trade the GIL as often as they can
        try:
            got = quantized_forward(qmodel, images)["p51"]
        finally:
            sys.setswitchinterval(interval)
        assert returned == [3, 0]  # the first chunk ended last
        assert {name.startswith("efld-lane") for name in threads} == {True}
        assert got.tobytes() == singles.tobytes()

    def test_batch_of_one_starts_no_thread(self, small_setup, monkeypatch):
        import efld.model as model_module

        _, _, dataset, _, qmodel = small_setup

        def submit(*args, **kwargs):
            raise AssertionError("a batch of one chunk was sent to the lanes")

        monkeypatch.setattr(model_module._LANES, "submit", submit)
        assert quantized_forward(qmodel, dataset.samples[0].image[None])["p51"].shape == (1, 102)

    def test_peak_memory_is_a_fraction_of_the_activations(self):
        """At batch 16 the stock int8 forward holds at most 3/4 of the bytes of
        all its int8 activation sites at once, with its two chunks of 8 in
        flight on the lanes: values are dropped after their last reader, and
        every layer of a chunk works on one block of samples in float.
        (A forward that quantizes the whole batch in float64 peaks above
        1.5 times those bytes.)"""
        import tracemalloc

        config = default_config()
        model = build_model(config, seed=3)
        qmodel = quantize_model(model, calibrate(model, generate_synthetic(2, 128, seed=1,
                                                                           formats=[])))
        sizes = []
        one = np.random.default_rng(0).uniform(size=(1, 128, 128, 3))
        model_forward(model, Tensor(one.astype("float32")),
                      observer=lambda site, value: sizes.append(value.size))
        batch = 16
        activation_bytes = batch * sum(sizes)  # one byte per int8 value
        images = np.random.default_rng(1).uniform(size=(batch, 128, 128, 3))
        quantized_forward(qmodel, images[:1])  # compile the int8 plan outside the trace
        tracemalloc.start()
        try:
            quantized_forward(qmodel, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * activation_bytes, (peak, activation_bytes)

    def test_kernel_state_built_on_first_forward(self, small_setup, tmp_path):
        from efld.container import load, save

        _, model, dataset, activations, _ = small_setup
        qmodel = quantize_model(model, activations)
        save(qmodel, tmp_path / "q.efld")
        loaded = load(tmp_path / "q.efld")
        assert "_states" not in vars(qmodel) and "_states" not in vars(loaded)
        quantized_forward(loaded, dataset.samples[0].image[None])
        assert "_states" in vars(loaded)


def layers_by_hand(config):
    """Independent (layer, op) list in execution order, from the config alone."""
    layers = []
    for i, ec in enumerate(config.eosa, 1):
        if ec.extra_conv == "conventional":
            layers.append((f"eosa{i}.extra", "conv"))
        else:
            layers += [(f"eosa{i}.extra.dw", "depthwise"), (f"eosa{i}.extra.pw", "conv")]
        layers += [(f"eosa{i}.osa.l{j}", "conv") for j in range(ec.n_osa)]
    layers += [("decoder.pw", "conv"), ("decoder.dw", "depthwise")]
    for hc in config.heads:
        if config.head_kind == "efld":
            layers += [(f"head.{hc.format}.block{j}", "linear") for j in range(hc.blocks)]
        layers.append((f"head.{hc.format}.out", "linear"))
    return layers


def wide_config(formats=("p51", "p68")):
    """``reduced_config`` with a 64-wide eosa4 chain, so eosa4.osa.l1 and l2
    have fan-in 3*3*64 = 576 and accumulate in float64 while every other
    layer accumulates in float32."""
    config = reduced_config(formats)
    return replace(config, eosa=config.eosa[:3] + (EosaConfig(64, 3, 16, "depthwise-separable"),))


class TestIntegerOracle:
    def test_accumulator_dtype_follows_fan_in(self):
        linear = LayerSpec("x", "linear", (), 514, 4)
        assert accumulator_dtype(linear) is np.float32
        assert accumulator_dtype(replace(linear, cin=515)) is np.float64
        wide = [spec.name for spec in iter_layers(default_config())
                if accumulator_dtype(spec) is np.float64]
        assert wide == ["eosa4.osa.l0"]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_quantized_forward_matches_integer_oracle(self, variant):
        config = apply_variant(wide_config(), variant)
        dtypes = {accumulator_dtype(spec) for spec in iter_layers(config)}
        assert dtypes == {np.float32, np.float64}
        model = build_model(config, seed=4)
        dataset = generate_synthetic(6, 32, seed=8, formats=[])
        qmodel = quantize_model(model, calibrate(model, dataset))
        images = np.stack([s.image for s in dataset.samples[:2]])
        got = quantized_forward(qmodel, images)
        want = integer_oracle(qmodel, images)
        assert list(got) == list(want) == ["p51", "p68"]
        for fmt in want:
            np.testing.assert_array_equal(got[fmt], want[fmt])

    @pytest.mark.parametrize("zero_point,q", [(-128, 127), (127, -128)], ids=["+255", "-255"])
    @pytest.mark.parametrize("layer", ["eosa4.osa.l0", "eosa4.osa.l1"])
    def test_accumulator_is_exact_at_the_extremes(self, layer, zero_point, q):
        # at 64 px the layer's input is 8x8 or 4x4, so an output window lies inside it
        config = replace(wide_config(("p51",)), input_size=64)
        model = build_model(config, seed=4)
        dataset = generate_synthetic(2, 64, seed=8, formats=[])
        base = quantize_model(model, calibrate(model, dataset))
        step = next(s for s in base.plan if s.layer == layer)
        kh, kw, cin, cout = step.spec.weight_shape
        # All +127 but for an odd number of -128 taps per output channel, so every
        # full-window sum is odd; with fan-in 576 it is also above 2**24, which
        # makes it a value float32 cannot hold. The biases sit at the int32 ends.
        rng = np.random.default_rng(3)
        w = np.full((kh, kw, cin, cout), 127, dtype=np.int8)
        for co in range(cout):
            taps = rng.choice(kh * kw * cin, size=2 * (co % 4) + 1, replace=False)
            w.reshape(-1, cout)[taps, co] = -128
        b = np.resize(np.array([2**31 - 1, -(2**31), 12345, -1], dtype=np.int32), cout)
        in_site = step.inputs[0]
        activations = dict(base.activations)
        activations[in_site] = QuantParams(activations[in_site].scale, zero_point)
        qmodel = QuantizedModel(config, {**base.weights, layer: w}, base.weight_scales,
                                {**base.biases, layer: b}, activations)
        # the layer's own input shape: a compiled layer adds its bias along output rows
        x = np.full((2,) + site_shapes(base.plan, config.input_size)[in_site], q, dtype=np.int8)
        sums = ref_conv2d(x.astype(np.int64) - zero_point, w.astype(np.int64),
                          np.zeros(cout, np.int64), step.spec.stride, step.spec.padding)
        mid = sums.shape[1] // 2  # the output whose window lies inside the input
        centre = np.abs(sums[:, mid, mid, :])
        assert np.all(centre % 2 == 1)
        assert (centre.min() > 2**24) == (accumulator_dtype(step.spec) is np.float64)
        layer_step = next(s for s in qmodel._states.backbone.steps
                          if isinstance(s, _Layer) and s.step.layer == layer)
        got = np.concatenate([y.copy() for _, (y,), _ in _accumulate(layer_step, x)])
        assert got.dtype == accumulator_dtype(step.spec)
        np.testing.assert_array_equal(got, sums)
        # the layer's int8 codes, with its ReLU taken in, follow the oracle's
        out_qp = activations[step.output]
        relu_qp = activations[next(s.output for s in base.plan if s.inputs == (step.output,))]
        multiplier = activations[in_site].scale * base.weight_scales[layer] / out_qp.scale
        codes = oracle_requant((sums + b) * multiplier, out_qp.zero_point)
        want = oracle_requant((np.maximum(codes, out_qp.zero_point) - out_qp.zero_point)
                              * (out_qp.scale / relu_qp.scale), relu_qp.zero_point)
        np.testing.assert_array_equal(layer_step.run([x], {}), want)


def compiled_layers(qmodel):
    """Every ``_Layer`` of the compiled int8 plan, backbone then heads."""
    plan = qmodel._states
    return [s for section in (plan.backbone, plan.heads) for s in section.steps
            if isinstance(s, _Layer)]


class TestFloorRequant:
    """The four-pass requantization: ``_floor_requant`` with the offsets of
    ``_proved_offsets``, where the proof passes, gives ``_to_int8``'s code
    plus 128 for every accumulator the layer can reach; where it fails, the
    layer keeps the contract's own chain."""

    def test_proved_offsets_give_the_contract_codes(self):
        rng = np.random.default_rng(31)
        ends = np.array([INT32_MIN, INT32_MIN + 1, INT32_MAX - 1, INT32_MAX])
        dyadic = [0.5, 0.25, 1.5, 2.0**-7, 1.0, 3.0]  # exact ties, some of them harmless
        layers = []
        for k in range(2000):
            if k < 120:
                m, small = dyadic[k % len(dyadic)], 300  # with ties in reach of small biases
            else:
                m, small = float(np.exp(rng.uniform(np.log(1e-6), np.log(4.0)))), 2**20
            b = np.concatenate([rng.integers(-small, small + 1, 2), rng.choice(ends, 1),
                                rng.integers(INT32_MIN, INT32_MAX, 1, endpoint=True)])
            layers.append((m, int(rng.integers(QMIN, QMAX + 1)), b.astype(np.int32),
                           int(rng.integers(1, 600))))
        offsets = _proved_offsets(layers)
        assert all(o is not None for o in offsets[120:])  # every random multiplier
        assert 0 < sum(o is None for o in offsets[:120]) < 120
        # m = 0.5 ties at odd accumulators: below the zero point they round
        # away from zero, so the floor map differs; above it, they round up
        zero = np.zeros(1, np.int32)
        assert _proved_offsets([(0.5, 0, zero, 9)]) == [None]
        assert _proved_offsets([(0.5, QMIN, zero, 9)])[0] is not None
        levels = np.arange(QMIN + 1, QMAX + 1)
        for (m, zp, b, fan_in), offset in zip(layers, offsets):
            if offset is None:
                continue
            reach = fan_in * (QMAX - QMIN) * -QMIN
            near = (np.ceil((levels - zp - 0.5) / m)[:, None] + np.arange(-3, 4)).ravel()
            y = np.concatenate([near[:, None] - b, rng.integers(-reach, reach + 1, (64, len(b))),
                                [[-reach] * len(b), [reach] * len(b)]])
            y = np.where(np.abs(y) <= reach, y, 0).astype(np.float64)
            real, codes = np.empty(y.shape), np.empty(y.shape, np.uint8)
            got = _floor_requant(y, m, offset, real, codes).astype(np.int64) - 128
            want = _to_int8((y + b) * m, zp)
            np.testing.assert_array_equal(got, want, err_msg=f"m={m!r} zp={zp} b={b}")

    @pytest.mark.parametrize("batch", [1, 3])
    def test_an_unproved_layer_keeps_the_contract(self, small_setup, batch):
        _, _, dataset, _, qmodel = small_setup
        halved = halving_model(qmodel)
        assert halved.bias_scales["decoder.dw"] / halved.activations["decoder.out"].scale == 0.5
        chains = [o.site for layer in compiled_layers(halved) if not layer.head
                  for o in layer.outputs if o.offset is None]
        assert chains == ["decoder.out"]
        images = np.stack([s.image for s in dataset.samples[:batch]])
        got, want = quantized_forward(halved, images), integer_oracle(halved, images)
        np.testing.assert_array_equal(got["p51"], want["p51"])

    @pytest.mark.parametrize("formats", HEAD_SETS, ids=["1head", "3heads"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_calibrated_layer_is_proved(self, variant, formats):
        model = build_model(apply_variant(default_config(formats), variant), seed=0)
        dataset = generate_synthetic(4, 128, seed=11, formats=[])
        layers = compiled_layers(quantize_model(model, calibrate(model, dataset)))
        outputs = [o for layer in layers if not layer.head for o in layer.outputs]
        assert len(outputs) == len(list(iter_layers(model.config))) - len(formats)
        assert [o.site for o in outputs if o.offset is None] == []
