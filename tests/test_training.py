"""Losses, optimizer, schedule, and small end-to-end training runs."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import efld.training as training
from efld.data import Dataset, Sample
from efld.errors import ConfigError, NumericsError, UsageError, ValidationError
from efld.config import TrainConfig
from efld.formats import LandmarkFormat, default_registry, nme_loss
from efld.image import stack_images
from efld.model import (STEP_LANES, Model, build_model, build_plan, default_config,
                        model_forward, site_shapes)
from efld.synthetic import generate_synthetic
from efld.tensor import Tape, Tensor, backward_multi
from efld.training import (
    OptimizerState,
    adamw_step,
    cosine_lr,
    masked_multihead_loss,
    train,
)

from conftest import reduced_config

FMT3 = LandmarkFormat("t3", 3, (0, 1))


class TestNmeLoss:
    def test_exact_prediction_is_zero(self, rng):
        gt = rng.uniform(size=(4, 6))
        assert nme_loss(gt, gt, FMT3) == 0.0

    def test_hand_case(self):
        gt = np.array([[0.0, 0.0, 10.0, 0.0, 5.0, 5.0]])
        pred = gt.copy()
        pred[0, 5] += 1.0  # third point off by (0, 1)
        assert nme_loss(pred, gt, FMT3) == pytest.approx((0 + 0 + 1) / (3 * 10))

    def test_scale_invariance(self, rng):
        gt = rng.uniform(size=(3, 6))
        pred = gt + rng.normal(0, 0.05, size=(3, 6))
        assert nme_loss(2 * pred, 2 * gt, FMT3) == pytest.approx(nme_loss(pred, gt, FMT3))

    def test_similarity_invariance(self, rng):
        gt = rng.uniform(size=(2, 6))
        pred = gt + rng.normal(0, 0.05, size=(2, 6))
        theta = 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

        def apply(coords):
            pts = coords.reshape(-1, 3, 2)
            return (1.7 * pts @ rot.T + np.array([0.2, -0.4])).reshape(-1, 6)

        assert nme_loss(apply(pred), apply(gt), FMT3) == pytest.approx(
            nme_loss(pred, gt, FMT3)
        )

    def test_degenerate_samples_excluded_with_warning(self, caplog):
        gt = np.array(
            [[0.0, 0.0, 1.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5, 0.1, 0.1]]
        )
        pred = gt + 0.1
        with caplog.at_level("WARNING"):
            loss = nme_loss(pred, gt, FMT3)
        assert "degenerate" in caplog.text
        only_first = nme_loss(pred[:1], gt[:1], FMT3)
        assert loss == pytest.approx(only_first)


class TestMaskedLoss:
    def _batch(self, rng):
        def sample(formats):
            return Sample(
                image=np.zeros((8, 8, 3)),
                annotations={f: rng.uniform(size=6) for f in formats},
            )

        return sample

    def test_absent_format_contributes_zero(self, rng):
        make = self._batch(rng)
        batch = [make(["a"]), make(["a"])]
        registry = _tiny_registry()
        preds = {"a": Tensor(rng.uniform(size=(2, 6))), "b": Tensor(rng.uniform(size=(2, 6)))}
        total, detail, seeds = masked_multihead_loss(preds, batch, registry)
        assert detail["b"] == (0.0, 0)
        assert len(seeds) == 1
        gt = np.stack([s.annotations["a"] for s in batch])
        assert total == pytest.approx(nme_loss(preds["a"].data, gt, registry.get("a")))

    def test_all_annotated_sums_per_head_means(self, rng):
        make = self._batch(rng)
        batch = [make(["a", "b"]), make(["a", "b"])]
        registry = _tiny_registry()
        preds = {"a": Tensor(rng.uniform(size=(2, 6))), "b": Tensor(rng.uniform(size=(2, 6)))}
        total, detail, _ = masked_multihead_loss(preds, batch, registry)
        expected = sum(
            nme_loss(preds[f].data, np.stack([s.annotations[f] for s in batch]), registry.get(f))
            for f in ("a", "b")
        )
        assert total == pytest.approx(expected)

    def test_unannotated_rows_have_zero_seed_gradient(self, rng):
        make = self._batch(rng)
        batch = [make(["a"]), make(["b"]), make(["a"])]
        registry = _tiny_registry()
        preds = {"a": Tensor(rng.uniform(size=(3, 6))), "b": Tensor(rng.uniform(size=(3, 6)))}
        _, _, seeds = masked_multihead_loss(preds, batch, registry)
        grads = {id(t): g for t, g in seeds}
        ga = grads[id(preds["a"])]
        gb = grads[id(preds["b"])]
        np.testing.assert_array_equal(ga[1], np.zeros(6))
        np.testing.assert_array_equal(gb[0], np.zeros(6))
        np.testing.assert_array_equal(gb[2], np.zeros(6))
        assert np.abs(ga[0]).max() > 0 and np.abs(gb[1]).max() > 0

    def test_head_params_get_exact_zero_gradients_when_format_absent(self, rng):
        model = build_model(reduced_config(("p51", "p98")), dtype="float64")
        ds = generate_synthetic(3, 32, seed=1, formats=["p51"])
        registry = default_registry()
        batch = ds.samples
        images = Tensor(np.stack([s.image for s in batch]))
        tape = Tape()
        preds = model_forward(model, images, tape=tape)
        _, _, seeds = masked_multihead_loss(preds, batch, registry)
        grads = backward_multi(tape, seeds)
        for name, tensor in model.params.items():
            g = grads.wrt(tensor)
            if name.startswith("head.p98."):
                np.testing.assert_array_equal(g, np.zeros_like(g))
        backbone_grad = grads.wrt(model.params["eosa1.osa.l0.w"])
        assert np.abs(backbone_grad).max() > 0


def _tiny_registry():
    from efld.formats import FormatRegistry

    return FormatRegistry([LandmarkFormat("a", 3, (0, 1)), LandmarkFormat("b", 3, (0, 1))])


class TestCosineSchedule:
    def test_start_is_lr_max(self):
        assert cosine_lr(0, 100, 0.001) == pytest.approx(0.001)

    def test_end_is_lr_min(self):
        assert cosine_lr(100, 100, 0.001, 0.0001) == pytest.approx(0.0001)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 0.001, 0.0) == pytest.approx(0.0005)

    def test_zero_total_is_usage_error(self):
        with pytest.raises(UsageError, match="total"):
            cosine_lr(0, 0, 0.001)

    def test_step_outside_range(self):
        with pytest.raises(UsageError, match="outside"):
            cosine_lr(11, 10, 0.001)


class TestAdamW:
    def _single_param_model(self, value):
        class Stub:
            params = {"w": Tensor(np.array([value]))}

        return Stub()

    def test_hand_computed_first_step(self):
        model = self._single_param_model(1.0)
        state = OptimizerState(model)
        config = TrainConfig(weight_decay=0.01)
        adamw_step(model.params, {"w": np.array([0.5])}, state, lr=0.1, config=config)
        assert model.params["w"].data[0] == pytest.approx(0.899, abs=1e-6)

    def test_zero_gradient_zero_decay_leaves_param(self):
        model = self._single_param_model(1.234)
        state = OptimizerState(model)
        config = TrainConfig(weight_decay=0.0)
        adamw_step(model.params, {"w": np.zeros(1)}, state, lr=0.1, config=config)
        assert model.params["w"].data[0] == pytest.approx(1.234, abs=1e-15)

    def test_decoupled_decay_shrinks_exactly(self):
        model = self._single_param_model(2.0)
        state = OptimizerState(model)
        config = TrainConfig(weight_decay=0.05)
        adamw_step(model.params, {"w": np.zeros(1)}, state, lr=0.1, config=config)
        assert model.params["w"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05), rel=1e-12)

    def test_matches_scalar_reference(self, rng):
        values = rng.standard_normal(5)
        grads_seq = rng.standard_normal((4, 5))
        model = type("Stub", (), {"params": {"w": Tensor(values.copy())}})()
        state = OptimizerState(model)
        config = TrainConfig(weight_decay=0.02)
        lr = 0.01

        theta = values.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in enumerate(grads_seq, 1):
            adamw_step(model.params, {"w": g}, state, lr, config)
            m = config.beta1 * m + (1 - config.beta1) * g
            v = config.beta2 * v + (1 - config.beta2) * g * g
            m_hat = m / (1 - config.beta1 ** t)
            v_hat = v / (1 - config.beta2 ** t)
            theta = theta - lr * (m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * theta)
        np.testing.assert_allclose(model.params["w"].data, theta, atol=1e-12, rtol=0)

    def test_non_finite_gradient_aborts_naming_parameter(self):
        model = self._single_param_model(1.0)
        state = OptimizerState(model)
        with pytest.raises(NumericsError, match="'w'"):
            adamw_step(model.params, {"w": np.array([np.nan])}, state, 0.1, TrainConfig())

    def test_overflowing_update_aborts_before_writing(self):
        model = type("Stub", (), {"params": {"w": Tensor(np.ones(2, np.float32))}})()
        state = OptimizerState(model)
        config = TrainConfig(lr_max=1e300, weight_decay=0.0)
        with pytest.raises(NumericsError, match=r"^the AdamW update of parameter 'w' overflowed "
                                                r"float32; training diverged: lower lr_max"):
            adamw_step(model.params, {"w": np.ones(2, np.float32)}, state, 1e300, config)
        np.testing.assert_array_equal(model.params["w"].data, [1.0, 1.0])

    def test_step_counter_increases(self):
        model = self._single_param_model(1.0)
        state = OptimizerState(model)
        for expected in (1, 2, 3):
            adamw_step(model.params, {"w": np.ones(1)}, state, 0.01, TrainConfig())
            assert state.t == expected


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr_min=0.01, lr_max=0.001).validate()


class TestTrainLoop:
    def test_uncovered_format_rejected(self):
        model = build_model(reduced_config(("p51",)))
        ds = generate_synthetic(4, 32, seed=2, formats=["p51", "p68"])
        with pytest.raises(ConfigError, match="p68"):
            train(model, [ds], TrainConfig(epochs=1, batch_size=4))

    def test_loss_decreases_on_tiny_run(self):
        model = build_model(reduced_config(("p51",)), seed=0)
        ds = generate_synthetic(8, 32, seed=3, formats=["p51"])
        log = train(model, [ds], TrainConfig(epochs=30, batch_size=8, lr_max=0.002))
        assert log.rows[-1].loss_total < 0.5 * log.rows[0].loss_total

    def test_two_runs_same_seed_bit_identical_logs(self):
        ds = generate_synthetic(8, 32, seed=4, formats=["p51", "p68"], annotate="round-robin")

        def run():
            model = build_model(reduced_config(("p51", "p68")), seed=1)
            log = train(model, [ds], TrainConfig(epochs=5, batch_size=4, lr_max=0.002, seed=9))
            return log.to_csv(), model

        csv1, m1 = run()
        csv2, m2 = run()
        assert csv1 == csv2
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    def test_two_runs_in_micro_batches_bit_identical_logs(self):
        ds = generate_synthetic(8, 32, seed=4, formats=["p51", "p68"], annotate="round-robin")

        def run():
            model = build_model(reduced_config(("p51", "p68")), seed=1)
            model.micro_batch = 3  # steps of 4 samples run as 3 + 1
            log = train(model, [ds], TrainConfig(epochs=3, batch_size=4, lr_max=0.002, seed=9))
            return log.to_csv(), model

        csv1, m1 = run()
        csv2, m2 = run()
        assert csv1 == csv2
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    def test_log_counts_and_columns(self):
        ds = generate_synthetic(6, 32, seed=5, formats=["p51", "p68"], annotate="round-robin")
        model = build_model(reduced_config(("p51", "p68")), seed=1)
        log = train(model, [ds], TrainConfig(epochs=2, batch_size=3, lr_max=0.001, seed=0))
        lines = log.to_csv().splitlines()
        assert lines[0] == "epoch,lr,loss_total,loss_p51,loss_p68,n_p51,n_p68"
        assert len(log.rows) == 2
        for row in log.rows:
            assert row.head_count["p51"] == 3
            assert row.head_count["p68"] == 3

    @pytest.mark.parametrize("micro_batch", [4, 2])
    def test_non_finite_loss_names_lr_max(self, micro_batch):
        """An update that fits float32 blows up the next step's forward, in
        one micro-batch or in both. Each lane ignores numpy's overflow on
        its own thread, so no RuntimeWarning escapes (the suite turns
        warnings into errors)."""
        model = build_model(reduced_config(("p51",)), seed=0)
        model.micro_batch = micro_batch
        ds = generate_synthetic(4, 32, seed=3, formats=["p51"])
        config = TrainConfig(epochs=2, batch_size=4, lr_max=1e20, weight_decay=0.0)
        with pytest.raises(NumericsError) as info:
            train(model, [ds], config)
        assert str(info.value) == ("loss became non-finite at epoch 1, step 1; "
                                   "training diverged: lower lr_max (now 1e+20)")

    def test_first_epoch_lr_is_lr_max(self):
        ds = generate_synthetic(4, 32, seed=6, formats=["p51"])
        model = build_model(reduced_config(("p51",)), seed=1)
        log = train(model, [ds], TrainConfig(epochs=2, batch_size=4, lr_max=0.003, seed=0))
        assert log.rows[0].lr == pytest.approx(0.003)


def delay_forward(monkeypatch, delays):
    """Make the forward of each micro-batch of ``delays``, a list of
    (micro-batch, seconds), start that many seconds late, on whichever lane
    runs it. Returns the lists that get, as each forward starts and as it
    returns or raises, the index in ``delays`` of its micro-batch, or None
    for any other."""
    targets = [(stack_images([s.pixels for s in micro], "float32"), seconds)
               for micro, seconds in delays]
    forward = training.model_forward
    started, ended = [], []

    def delayed(model, images, tape=None):
        mine = next((i for i, (target, _) in enumerate(targets)
                     if np.array_equal(images.data, target, equal_nan=True)), None)
        started.append(mine)
        time.sleep(0 if mine is None else targets[mine][1])
        try:
            return forward(model, images, tape=tape)
        finally:
            ended.append(mine)

    monkeypatch.setattr(training, "model_forward", delayed)
    return started, ended


def lane_step(monkeypatch, model, batch, registry, state, lr, config):
    """``training._train_step`` on ``batch``: (total, detail, the gradients
    AdamW was given)."""
    applied = {}
    update = training.adamw_step

    def recorded(params, grads, *args):
        applied.update({name: g.copy() for name, g in grads.items()})
        update(params, grads, *args)

    monkeypatch.setattr(training, "adamw_step", recorded)
    formats = [f for f in model.head_formats() if any(s.has(f) for s in batch)]
    total, detail = training._train_step(model, batch, formats, registry, state, lr, config,
                                         "test")
    return total, detail, applied


def sequential_step(model, batch, registry, state, lr, config):
    """The step written as a loop: each micro-batch run after the last,
    its losses and gradients added as it ends, then one AdamW update."""
    formats = [f for f in model.head_formats() if any(s.has(f) for s in batch)]
    counts = training.head_counts(batch, formats, registry, model.dtype)
    losses = dict.fromkeys(formats, 0.0)
    grads = None
    for start in range(0, len(batch), model.micro_batch):
        micro = batch[start : start + model.micro_batch]
        tape = Tape(model.params.values())
        images = Tensor(stack_images([s.pixels for s in micro], model.dtype))
        predictions = model_forward(model, images, tape=tape)
        _, detail, seeds = masked_multihead_loss(predictions, micro, registry, counts)
        for f in formats:
            losses[f] += detail[f][0]
        wrt = backward_multi(tape, seeds)
        if grads is None:
            grads = {name: wrt.wrt(t).copy() for name, t in model.params.items()}
        else:
            for name, t in model.params.items():
                grads[name] += wrt.wrt(t)
    adamw_step(model.params, grads, state, lr, config)
    return sum(losses.values()), {f: (losses[f], counts[f]) for f in formats}, grads


class TestLanes:
    """Two lanes run a step's micro-batches; the step's bits are those of
    the micro-batches run one after another, whichever lane ends first."""

    def _case(self):
        config = reduced_config(("p51", "p68"))
        ds = generate_synthetic(6, 32, seed=4, formats=["p51", "p68"], annotate="round-robin")
        model = build_model(config, seed=1)
        model.micro_batch = 2  # three micro-batches
        return model, list(ds.samples), default_registry()

    def test_first_micro_batch_ending_last_gives_the_sequential_bits(self, monkeypatch):
        model, batch, registry = self._case()
        twin = Model(model.config, {k: Tensor(t.data.copy()) for k, t in model.params.items()},
                     model.dtype)
        twin.micro_batch = model.micro_batch
        config = TrainConfig(lr_max=0.002, weight_decay=0.01)
        want_total, want_detail, want_grads = sequential_step(
            twin, batch, registry, OptimizerState(twin), 0.002, config)
        _, ended = delay_forward(monkeypatch, [(batch[:2], 0.5)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the lanes trade the GIL as often as they can
        try:
            total, detail, grads = lane_step(monkeypatch, model, batch, registry,
                                             OptimizerState(model), 0.002, config)
        finally:
            sys.setswitchinterval(interval)
        assert ended == [None, None, 0]  # the first micro-batch ended last
        assert (total, detail) == (want_total, want_detail)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name].tobytes() == want.tobytes(), name
        for name, t in model.params.items():
            assert t.data.tobytes() == twin.params[name].data.tobytes(), name

    def test_nan_pixel_raises_the_first_failing_micro_batchs_error(self, monkeypatch):
        """NaN pixels in the second and third micro-batches, the second made
        to fail last: the step raises the second's error, as a loop would."""
        model, batch, registry = self._case()
        for i in (3, 4):  # image 1 of the second micro-batch, image 0 of the third
            batch[i] = Sample(batch[i].image.copy(), batch[i].annotations)
            batch[i].pixels[5, 7, 1] = np.nan
        _, ended = delay_forward(monkeypatch, [(batch[2:4], 0.5)])
        with pytest.raises(ValidationError) as info:
            lane_step(monkeypatch, model, batch, registry, OptimizerState(model), 0.002,
                      TrainConfig())
        assert str(info.value) == "model_forward: image 1 has a non-finite pixel"
        assert ended == [None, None, 0]  # the third failed first; the second raised after its delay

    def test_raising_step_returns_after_every_started_micro_batch(self, monkeypatch):
        """The first micro-batch fails while the second sleeps on the other
        lane: the step raises only once the second has returned, and the
        third either ran to its end or never started."""
        model, batch, registry = self._case()
        batch[0] = Sample(batch[0].image.copy(), batch[0].annotations)
        batch[0].pixels[5, 7, 1] = np.nan
        started, ended = delay_forward(monkeypatch, [(batch[:2], 0.2), (batch[2:4], 0.5)])
        with pytest.raises(ValidationError, match="image 0 has"):
            lane_step(monkeypatch, model, batch, registry, OptimizerState(model), 0.002,
                      TrainConfig())
        assert 1 in started and sorted(ended, key=str) == sorted(started, key=str)


def test_one_set_of_lanes_runs_every_forward_and_step():
    """Many multi-block forwards and two training runs in one process all
    run on the same ``STEP_LANES`` threads."""
    def lanes():
        return {t for t in threading.enumerate() if t.name.startswith("efld-lane")}

    model = build_model(reduced_config(("p51",)), seed=1)
    model._block = 1
    images = Tensor(np.random.default_rng(0).uniform(size=(4, 32, 32, 3)).astype("float32"))
    model_forward(model, images)
    first = lanes()
    assert len(first) == STEP_LANES
    for _ in range(50):
        model_forward(model, images)
        assert lanes() == first
    model.micro_batch = 1
    ds = generate_synthetic(4, 32, seed=3, formats=["p51"])
    for _ in range(2):
        train(model, [ds], TrainConfig(epochs=1, batch_size=4, lr_max=0.001))
        assert lanes() == first


def test_training_step_peak_memory_is_bounded_by_the_plan():
    """One step of the stock 3-head model at batch 64 holds at most 0.4
    times the float32 bytes of all the activation sites of the batch at
    once: the step runs two micro-batches of 8 samples at a time, and the
    backward frees each activation after its last use. (The whole batch on
    one tape, freed only after the backward, peaks at about twice those
    bytes.)"""
    formats = ("p51", "p68", "p98")
    config = default_config(formats)
    model = build_model(config, seed=3)
    assert model.micro_batch == 8
    rng = np.random.default_rng(0)
    batch = 64
    samples = [Sample(rng.uniform(size=(128, 128, 3)),
                      {f: rng.uniform(0.2, 0.8, size=2 * int(f[1:])) for f in formats})
               for _ in range(batch)]
    sites = site_shapes(build_plan(config), config.input_size).values()
    activation_bytes = 4 * batch * sum(int(np.prod(shape)) for shape in sites)
    tracemalloc.start()
    try:
        train(model, [Dataset(samples, formats)], TrainConfig(epochs=1, batch_size=batch))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * activation_bytes, (peak, activation_bytes)


def test_no_activation_of_a_step_survives_into_the_next(monkeypatch):
    """Each tensor and array a step's forward put on its tape, and the
    images, are gone when the next step's forward starts."""
    model = build_model(reduced_config(("p51", "p68")), seed=1)
    ds = generate_synthetic(8, 32, seed=4, formats=["p51", "p68"], annotate="round-robin")
    forward = training.model_forward
    alive = []  # weak references to what the last forward made
    calls = []

    def watched(model, images, tape=None):
        assert [ref for ref in alive if ref() is not None] == []
        calls.append(len(images.data))
        out = forward(model, images, tape=tape)
        values = [images] + [output for _, output, _ in tape._nodes]
        alive[:] = [weakref.ref(obj) for value in values
                    for obj in (value, value.data, value.data.base) if obj is not None]
        return out

    monkeypatch.setattr(training, "model_forward", watched)
    train(model, [ds], TrainConfig(epochs=2, batch_size=2, seed=0))
    assert calls == [2] * 8


# Every variable that sets a BLAS or OpenMP thread count (the benchmark's
# list); each is set to the same value in one run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One step of 512 samples at 32 px, the whole batch on one tape, printing
# the SHA-256 of its gradients, the training log and the trained
# parameters. At 512 samples eosa1's bias gradients sum 131,072 rows of 4
# channels, where OpenBLAS's GEMV splits its sums between two threads.
_THREADED_RUN = """
import hashlib
import efld.training as training
from conftest import reduced_config
from efld.data import Dataset
from efld.model import build_model
from efld.synthetic import generate_synthetic

digest = hashlib.sha256()
update = training.adamw_step

def hashed(params, grads, *args):
    for name in sorted(grads):
        digest.update(grads[name].tobytes())
    update(params, grads, *args)

training.adamw_step = hashed
ds = generate_synthetic(8, 32, seed=2, formats=["p51"])
model = build_model(reduced_config(("p51",)), seed=1)
model.micro_batch = 512
log = training.train(model, [Dataset(ds.samples * 64, ds.formats)],
                     training.TrainConfig(epochs=1, batch_size=512, lr_max=0.002, seed=3))
digest.update(log.to_csv().encode())
for name in sorted(model.params):
    digest.update(model.params[name].data.tobytes())
print(digest.hexdigest())
"""


def test_training_bits_do_not_depend_on_the_blas_thread_count():
    """Training is bit-deterministic whatever the BLAS thread count: a step
    gives the same gradients, log and parameters with one thread and with
    two, so no sum in the backward is split between threads."""
    import efld

    paths = [str(Path(efld.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths + [env.get("PYTHONPATH")] if p)
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUN], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
