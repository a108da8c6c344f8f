"""Quantization arithmetic, calibration, and the integer inference path."""

import numpy as np
import pytest

from efld.errors import CalibrationError, UsageError
from efld.model import VARIANTS, apply_variant, build_model, iter_layers, model_forward
from efld.quantize import (
    QuantParams,
    build_plan,
    calibrate,
    dequantize_value,
    params_from_range,
    plan_sites,
    quantize_model,
    quantize_value,
    quantized_forward,
)
from efld.synthetic import generate_synthetic
from efld.tensor import Tensor

from conftest import reduced_config


class TestQuantizeValue:
    def test_hand_case(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert quantize_value(0.5, qp) == 50
        assert dequantize_value(50, qp) == pytest.approx(0.50)

    def test_zero_maps_to_zero_point(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert quantize_value(0.0, qp) == 0
        qp2 = QuantParams(scale=0.01, zero_point=-7)
        assert quantize_value(0.0, qp2) == -7

    def test_saturation(self):
        qp = QuantParams(scale=0.01, zero_point=0)
        assert quantize_value(10.0, qp) == 127
        assert quantize_value(-10.0, qp) == -128

    def test_round_half_away_from_zero(self):
        qp = QuantParams(scale=1.0, zero_point=0)
        assert quantize_value(0.5, qp) == 1
        assert quantize_value(-0.5, qp) == -1
        assert quantize_value(1.5, qp) == 2

    def test_roundtrip_within_half_scale(self, rng):
        qp = QuantParams(scale=0.02, zero_point=11)
        lo, hi = dequantize_value(-128, qp), dequantize_value(127, qp)
        x = rng.uniform(lo, hi, size=10**6)
        back = dequantize_value(quantize_value(x, qp), qp)
        assert np.abs(back - x).max() <= qp.scale / 2 + 1e-12

    def test_monotonicity(self, rng):
        qp = QuantParams(scale=0.013, zero_point=-3)
        x = np.sort(rng.uniform(-3, 3, size=4096))
        q = quantize_value(x, qp).astype(np.int32)
        assert np.all(np.diff(q) >= 0)

    def test_invalid_params(self):
        with pytest.raises(UsageError):
            QuantParams(scale=0.0, zero_point=0)
        with pytest.raises(UsageError):
            QuantParams(scale=0.1, zero_point=200)


class TestParamsFromRange:
    def test_relu_style_range(self):
        qp = params_from_range(0.0, 2.54)
        assert qp.scale == pytest.approx(2.54 / 255)
        assert qp.zero_point == -128

    def test_symmetric_range_zero_point_near_zero(self):
        qp = params_from_range(-1.0, 1.0)
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
                zero = dequantize_value(quantize_value(0.0, qp), qp)
                assert abs(zero) <= qp.scale / 2

    def test_deterministic(self, small_setup):
        _, model, dataset, activations, _ = small_setup
        again = calibrate(model, dataset)
        assert set(again) == set(activations)
        for site, qp in activations.items():
            assert again[site] == qp

    def test_empty_dataset_rejected(self, small_setup):
        _, model, _, _, _ = small_setup
        from efld.data import Dataset

        with pytest.raises(UsageError, match="nonempty"):
            calibrate(model, Dataset([], ()))


class TestQuantizeModel:
    def test_weight_scale_and_values(self, small_setup):
        _, model, _, _, qmodel = small_setup
        name = "eosa1.extra"
        w = model.params[name + ".w"].data
        scale = qmodel.weight_scales[name]
        assert scale == pytest.approx(np.abs(w).max() / 127)
        assert int(np.abs(qmodel.weights[name]).max()) == 127

    def test_max_weight_127_hand_case(self):
        from efld.quantize import _round_half_away

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
        out = quantized_forward(qmodel, dataset.samples[0].image)["p51"]
        assert out.shape == (1, 102)

    @pytest.mark.parametrize("formats", HEAD_SETS, ids=["1head", "3heads"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plan_covers_every_layer(self, variant, formats):
        config = apply_variant(reduced_config(formats), variant)
        plan_layers = {s.layer for s in build_plan(config) if s.layer}
        assert plan_layers == {spec.name for spec in iter_layers(config)}
