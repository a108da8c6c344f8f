"""Evaluation metrics, cost accounting, and the score formula."""

import json
from dataclasses import replace

import numpy as np
import pytest

from efld.errors import UsageError
from efld.formats import LandmarkFormat
from efld.metrics import (
    ced_auc,
    ced_curve,
    competition_score,
    count_cost,
    evaluate,
    failure_rate,
    pixel_accuracy,
)
from efld.model import apply_variant, default_config

from conftest import reduced_config

FMT2 = LandmarkFormat("t2", 2, (0, 1))


class TestEvaluate:
    def test_perfect_predictor(self, rng):
        gt = rng.uniform(size=(5, 4))
        report = evaluate(gt, gt, FMT2, threshold=0.10)
        assert report.nme_mean == 0.0
        assert report.failure_rate == 0.0
        assert report.ced_auc == pytest.approx(1.0)

    def test_failure_rate_counting(self):
        assert failure_rate([0.05, 0.15, 0.20], 0.10) == pytest.approx(2 / 3)

    def test_failure_rate_threshold_tie_counts_success(self):
        assert failure_rate([0.10, 0.05], 0.10) == 0.0

    def test_ced_auc_single_sample(self):
        assert ced_auc([0.05], 0.10) == pytest.approx(0.5)

    def test_ced_auc_step_integral(self):
        # CED: 0 on [0,.02), 1/3 on [.02,.04), 2/3 on [.04,.08), 1 on [.08,.1]
        nmes = [0.02, 0.04, 0.08]
        expected = (0.02 * 0 + 0.02 * (1 / 3) + 0.04 * (2 / 3) + 0.02 * 1.0) / 0.10
        assert ced_auc(nmes, 0.10) == pytest.approx(expected)

    def test_fr_plus_ced_at_threshold_is_one(self, rng):
        nmes = rng.uniform(0, 0.2, size=200)
        nmes[::7] = 0.1  # ties at the threshold
        fr = failure_rate(nmes, 0.1)
        ced_at = float((nmes <= 0.1).mean())
        assert fr + ced_at == pytest.approx(1.0)

    def test_ced_auc_nonincreasing_in_single_nme(self, rng):
        nmes = list(rng.uniform(0, 0.2, size=50))
        base = ced_auc(nmes, 0.10)
        worse = list(nmes)
        worse[3] = worse[3] + 0.05
        assert ced_auc(worse, 0.10) <= base + 1e-12

    def test_ced_curve_breakpoints(self):
        points = ced_curve([0.05], 0.10)
        assert points[0] == (0.0, 0.0)
        assert (0.05, 1.0) in points
        assert points[-1] == (0.10, 1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            evaluate(np.zeros((0, 4)), np.zeros((0, 4)), FMT2)

    def test_report_prints_x100(self, rng):
        gt = rng.uniform(size=(4, 4))
        pred = gt + 0.01
        report = evaluate(pred, gt, FMT2)
        text = report.summary()
        assert f"{100.0 * report.nme_mean:.2f}" in text
        payload = json.loads(report.to_json())
        assert payload["nme_mean_x100"] == pytest.approx(100.0 * report.nme_mean)


class TestPixelAccuracy:
    def test_exact_is_one(self, rng):
        gt = rng.uniform(size=(3, 8))
        assert pixel_accuracy(gt, gt, image_size=128) == 1.0

    def test_three_four_five_triangle_boundary_inclusive(self):
        gt = np.array([[0.5, 0.5]])
        pred = np.array([[0.5 + 3 / 128, 0.5 + 4 / 128]])
        assert pixel_accuracy(pred, gt, image_size=128) == 1.0

    def test_six_pixels_off_is_incorrect(self):
        gt = np.array([[0.5, 0.5]])
        pred = np.array([[0.5 + 6 / 128, 0.5]])
        assert pixel_accuracy(pred, gt, image_size=128) == 0.0

    def test_mixed_points_fraction(self):
        gt = np.array([[0.5, 0.5, 0.2, 0.2]])
        pred = np.array([[0.5, 0.5, 0.2 + 10 / 64, 0.2]])
        assert pixel_accuracy(pred, gt, image_size=64) == 0.5


def instrumented_conv_mac_count(x_shape, w_shape, stride, padding):
    """Count multiplies actually executed by the naive convolution loops."""
    batch, h, wdt, cin = x_shape
    kh, kw, _, cout = w_shape
    if padding == "same":
        out_h, out_w = -(-h // stride), -(-wdt // stride)
    else:
        out_h, out_w = (h - kh) // stride + 1, (wdt - kw) // stride + 1
    count = 0
    for _b in range(batch):
        for _y in range(out_h):
            for _x in range(out_w):
                for _co in range(cout):
                    count += kh * kw * cin
    return count


class TestCostAccounting:
    def test_default_config_flops_and_params(self):
        report = count_cost(default_config())
        assert report.macs == 9562176
        assert report.mflops == pytest.approx(19.124352)
        assert report.parameters == 130938
        assert report.payload_bytes("int8") == 130938
        assert report.payload_bytes("float32") == 4 * 130938

    def test_conv_backbone_variant(self):
        report = count_cost(apply_variant(default_config(), "conv-backbone"))
        assert report.macs == 9562176 + 2887680
        assert report.mflops == pytest.approx(24.899712)
        assert report.parameters == 151322

    def test_pfld_head_variant(self):
        report = count_cost(apply_variant(default_config(), "pfld-head"))
        assert report.mflops == pytest.approx(19.049472)
        assert report.parameters == 130938 - 63750 + 26214

    def test_decoder_macs(self):
        report = count_cost(default_config())
        decoder = {l.name: l.macs for l in report.layers if l.name.startswith("decoder.")}
        assert decoder["decoder.pw"] == 20480 * 64
        assert decoder["decoder.dw"] == 16384
        assert sum(decoder.values()) == 1327104

    def test_separable_call_mac_arithmetic(self):
        report = count_cost(reduced_config(("p51",)))
        named = {l.name: l for l in report.layers}
        # eosa2 extra branch: 8 input channels, 8x8 output spatial
        assert named["eosa2.extra.dw"].macs == 9 * 8 * 8 * 8
        assert named["eosa2.extra.pw"].macs == 8 * 4 * 8 * 8

    def test_separable_macs_per_documented_formula(self):
        # depthwise 3x3 on 16 channels plus 16->8 pointwise at 32x32 output
        from efld.model import LayerSpec

        total = (LayerSpec("dw", "depthwise-conv", (3, 3), 16, 16, out_hw=(32, 32)).macs
                 + LayerSpec("pw", "conv", (1, 1), 16, 8, out_hw=(32, 32)).macs)
        assert total == (9 * 16 + 16 * 8) * 32 * 32 == 278528

    def test_totals_equal_breakdown_sum(self):
        report = count_cost(default_config(("p51", "p68", "p98")))
        assert report.macs == sum(l.macs for l in report.layers)
        assert report.parameters == sum(l.params for l in report.layers)

    def test_head_subset_removes_exact_share(self):
        config = default_config(("p51", "p68", "p98"))
        full = count_cost(config)
        without98 = count_cost(config.with_heads(("p51", "p68")))
        share_macs = sum(l.macs for l in full.layers if l.name.startswith("head.p98"))
        share_params = sum(l.params for l in full.layers if l.name.startswith("head.p98"))
        assert share_macs > 0
        assert full.macs - without98.macs == share_macs
        assert full.parameters - without98.parameters == share_params

    def test_unknown_head_subset(self):
        with pytest.raises(UsageError, match="unknown heads"):
            count_cost(default_config().with_heads(("p99",)))

    def test_mac_formula_matches_instrumented_counter(self):
        report = count_cost(reduced_config(("p51",)))
        named = {l.name: l for l in report.layers}
        # eosa1 extra conv: 3->4 channels over 32->16 spatial, stride 2
        got = named["eosa1.extra"].macs
        assert got == instrumented_conv_mac_count((1, 32, 32, 3), (3, 3, 3, 4), 2, "same")

    def test_input_size_override(self):
        small = count_cost(replace(default_config(), input_size=64))
        assert small.macs < count_cost(default_config()).macs
        assert small.parameters != count_cost(default_config()).parameters  # decoder dw kernel shrinks


class TestCompetitionScore:
    def test_published_rounded_inputs(self):
        score = competition_score(18.47, 1.08, 0.02, 1.93, 0.17)
        assert round(score, 1) == 2606.2
        # the published 2741.92 came from unrounded measurements; agreement
        # stays within 6%
        assert abs(2741.92 - score) / 2741.92 < 0.06

    def test_zero_accuracy_gives_zero(self):
        assert competition_score(0.0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_doubling_time_halves_score(self):
        base = competition_score(10.0, 2.0, 0.5, 1.5, 0.3)
        assert competition_score(10.0, 4.0, 0.5, 1.5, 0.3) == pytest.approx(base / 2)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(UsageError, match="power"):
            competition_score(10.0, 1.0, 1.0, 0.0, 1.0)
