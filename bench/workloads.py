"""The five benchmark workloads and the loop that measures them.

Load shape: one process, one client, closed loop; each unit op (a request,
a batch or a training step) starts only after the previous one completed.

- serve-f32-b1 / serve-int8-b1: what ``efld infer`` does per crop. The client
  reads a PPM, resizes it when it is not 128 px (half the crops are larger
  and non-square), forwards at batch 1 and converts to pixel points. Fixed
  per-call costs dominate: 19 MFLOPs of arithmetic per crop.
- eval-f32-b32 / eval-int8-b32: ``efld quantize`` + ``efld eval``. Every head
  of a 3-head model runs at batch 32 and is scored with metrics.evaluate.
  Convolution kernels dominate; the int8 set-up calibrates, quantizes, saves
  and reloads the int8 container.
- train-b32: ``training.train`` on the stock 3-head model, batch 32, AdamW,
  cosine schedule, round-robin annotations so every batch runs all heads.
  Backward and the optimizer show here and nowhere else.

float32 and int8 are separate workloads because every workload reports
the same end-to-end metrics, and a float32 regression must not hide behind
an int8 speed-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

import inputs
from reference import Reference
from efld.container import load, save
from efld.data import load_dataset
from efld.formats import default_registry
from efld.image import bilinear_resize, read_ppm
from efld.metrics import count_cost, evaluate
from efld.model import Model, build_model, default_config, model_forward
from efld.quantize import calibrate, quantize_model, quantized_forward
from efld.tensor import Tensor
from efld.training import TrainConfig, train

SETUP_REPS = 15
MIN_OPS = 2
# float32 against a float64 copy of the same weights: |a - b| <= ATOL + RTOL * max|b|.
F32_ATOL = 1e-5
F32_RTOL = 1e-4
TRAIN_EPOCHS_PER_CALL = 2
SIZE = inputs.IMAGE_SIZE


def _float64_copy(model: Model) -> Model:
    params = {k: Tensor(v.data.astype(np.float64)) for k, v in model.params.items()}
    return Model(model.config, params, "float64")


def _close(pred, ref) -> bool:
    return bool(np.max(np.abs(pred - ref)) <= F32_ATOL + F32_RTOL * np.max(np.abs(ref)))


def _forward_f64(model: Model, images) -> dict:
    out = model_forward(model, Tensor(np.asarray(images, dtype=model.dtype)))
    return {f: t.data.astype(np.float64) for f, t in out.items()}


class Checks:
    """Correctness checks; each one is an attempted op, failed when false."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


class Workload:
    """A workload: set-up (timed as setup_s), the measured closed loop, and
    the references its outputs are checked against."""

    items_per_op = 1

    def __init__(self, seed: int):
        self.seed = seed
        # Batch-1 ops are dominated by per-call overhead, batch-32 ops by
        # memory traffic; each is scaled by the reference of the same kind.
        self.reference = Reference(1 if self.items_per_op == 1 else 8)
        self.checks = Checks()
        self.extra = {}
        self.outputs = []

    def set_flops(self) -> None:
        """FLOPs of one forward of a unit op, from count_cost MACs."""
        self.flops = 2 * count_cost(self.model.config).macs * self.items_per_op

    def measure(self, seconds: float, tracer) -> tuple:
        """Closed loop for ``seconds`` (at least MIN_OPS ops), with one
        host-speed reference run after each op. Returns the op and the
        reference durations. Outputs are kept and checked after the run, so
        the forwards of the checks stay out of it."""
        self.set_flops()
        durations = []
        self.reference.times = []
        end = time.perf_counter() + seconds
        i = 0
        while i < MIN_OPS or time.perf_counter() < end:
            tracer.request = i
            t0 = time.perf_counter()
            out = tracer.call("bench.op", self.op, i, tracer)
            durations.append(time.perf_counter() - t0)
            self.outputs.append((i, out))
            self.reference.run()
            i += 1
        tracer.request = -1
        return durations, self.reference.times

    def check_outputs(self) -> None:
        """Prepare the references, then check every output of the run."""
        self.prepare()
        for i, out in self.outputs:
            self.check(i, out)
        self.outputs.clear()


class Serve(Workload):
    """Batch-1 requests alternating 128 px crops and larger non-square ones."""

    def __init__(self, root, seed, dtype):
        super().__init__(seed)
        self.dtype = dtype
        self.dir = inputs.ensure(root, "serve", seed)
        with open(os.path.join(self.dir, "crops.txt"), encoding="utf-8") as fh:
            self.crops = [os.path.join(self.dir, line.strip()) for line in fh if line.strip()]
        self.path = os.path.join(self.dir, "f32.efld" if dtype == "float32" else "int8.efld")

    def setup(self, tracer) -> None:
        self.model = tracer.call("container.load", load, self.path)
        self.extra["container_bytes"] = os.path.getsize(self.path)

    def prepare(self) -> None:
        images = []
        for path in self.crops:
            image = read_ppm(path)
            if image.shape[:2] != (SIZE, SIZE):
                image = bilinear_resize(image, SIZE, SIZE)
            images.append(image)
        if self.dtype == "float32":
            ref = _float64_copy(self.model)
            self.refs = [_forward_f64(ref, image[None])["p51"][0] for image in images]
            return
        # Reference rows from one batch-32 forward; batch-1 requests must match bit for bit.
        batch = np.stack([images[i % len(images)] for i in range(32)])
        rows = quantized_forward(self.model, batch)["p51"]
        self.refs = [rows[i] for i in range(len(images))]
        f32 = _forward_f64(load(os.path.join(self.dir, "f32.efld")), np.stack(images))["p51"]
        fmt = default_registry().get("p51")
        self.extra["int8_drift_nme"] = evaluate(np.stack(self.refs), f32, fmt).nme_mean

    def op(self, i, tracer):
        image = tracer.call("image.read_ppm", read_ppm, self.crops[i % len(self.crops)])
        h, w, _ = image.shape
        if (h, w) != (SIZE, SIZE):
            image = tracer.call("image.bilinear_resize", bilinear_resize, image, SIZE, SIZE)
        if self.dtype == "float32":
            batch = Tensor(np.stack([image]).astype(self.model.dtype))
            out = tracer.call("model.forward", model_forward, self.model, batch)
            pred = out["p51"].data.astype(np.float64)[0]
        else:
            out = tracer.call("quantize.forward", quantized_forward, self.model,
                              np.stack([image]), flops=self.flops)
            pred = out["p51"][0]
        return pred, pred.reshape(-1, 2) * np.array([w, h], dtype=np.float64)

    def check(self, i, out) -> None:
        pred, points = out
        ref = self.refs[i % len(self.refs)]
        if self.dtype == "float32":
            ok = _close(pred, ref)
        else:
            ok = np.array_equal(pred, ref)
        self.checks.expect(ok and bool(np.all(np.isfinite(points))),
                           f"request {i}: prediction differs from reference")


class Eval(Workload):
    """All heads of the 3-head model at batch 32, scored per head."""

    items_per_op = inputs.EVAL_COUNT

    def __init__(self, root, seed, dtype):
        super().__init__(seed)
        self.dtype = dtype
        self.dir = inputs.ensure(root, "eval", seed)
        self.registry = default_registry()

    def setup(self, tracer) -> None:
        path = os.path.join(self.dir, "model.efld")
        float_model = tracer.call("container.load", load, path)
        dataset = tracer.call("data.load_dataset", load_dataset, os.path.join(self.dir, "eval"))
        size = os.path.getsize(path)
        loaded = len(dataset)
        if self.dtype == "int8":
            calib = tracer.call("data.load_dataset", load_dataset, os.path.join(self.dir, "calib"))
            loaded += len(calib)
            activations = tracer.call("quantize.calibrate", calibrate, float_model, calib)
            self.in_memory = tracer.call("quantize.quantize_model", quantize_model,
                                         float_model, activations)
            q8 = os.path.join(self.dir, "model.q8.efld")
            tracer.call("container.save", save, self.in_memory, q8)
            self.model = tracer.call("container.load", load, q8)
            size += os.path.getsize(q8)
        else:
            self.model = float_model
        self.float_model = float_model
        self.samples = dataset.samples
        self.formats = float_model.head_formats()
        self.gt = {f: np.stack([s.annotations[f] for s in self.samples]) for f in self.formats}
        self.extra["container_bytes"] = size
        self.extra.setdefault("loaded", []).append(loaded)

    def prepare(self) -> None:
        images = np.stack([s.image for s in self.samples])
        if self.dtype == "float32":
            self.refs = _forward_f64(_float64_copy(self.model), images)
            return
        self.refs = quantized_forward(self.model, images)
        again = quantized_forward(self.in_memory, images)
        self.checks.expect(all(np.array_equal(again[f], self.refs[f]) for f in self.formats),
                           "reloaded int8 container predicts differently")
        for k in range(2):
            row = quantized_forward(self.model, images[k : k + 1])
            self.checks.expect(
                all(np.array_equal(row[f][0], self.refs[f][k]) for f in self.formats),
                f"int8 batch-1 sample {k} differs from its batch-32 row")
        f32 = _forward_f64(self.float_model, images)["p51"]
        fmt = self.registry.get("p51")
        self.extra["int8_drift_nme"] = evaluate(self.refs["p51"], f32, fmt).nme_mean

    def op(self, i, tracer):
        images = np.stack([s.image for s in self.samples])
        if self.dtype == "float32":
            out = tracer.call("model.forward", model_forward, self.model,
                              Tensor(images.astype(self.model.dtype)))
            preds = {f: t.data.astype(np.float64) for f, t in out.items()}
        else:
            preds = tracer.call("quantize.forward", quantized_forward, self.model, images,
                                flops=self.flops)
        reports = {
            f: tracer.call("metrics.evaluate", evaluate, preds[f], self.gt[f],
                           self.registry.get(f), image_size=SIZE)
            for f in self.formats
        }
        return preds, reports

    def check(self, i, out) -> None:
        preds, reports = out
        if self.dtype == "float32":
            ok = all(_close(preds[f], self.refs[f]) for f in self.formats)
        else:
            ok = all(np.array_equal(preds[f], self.refs[f]) for f in self.formats)
        ok = ok and all(math.isfinite(r.nme_mean) for r in reports.values())
        self.checks.expect(ok, f"batch {i}: predictions differ from reference")


class StepClock:
    """Marks the end of each training step by wrapping adamw_step, the last
    call of every step; one perf_counter read per step."""

    def __init__(self, tracer):
        self.last = 0.0
        self.durations = []
        self.tracer = tracer

    def wrap(self, adamw_step):
        def timed(*args, **kwargs):
            result = adamw_step(*args, **kwargs)
            now = time.perf_counter()
            self.durations.append(now - self.last)
            self.last = now
            self.tracer.request += 1
            return result
        return timed


class Train(Workload):
    """Repeated identical training runs; a step is one unit op."""

    items_per_op = 32

    def __init__(self, root, seed):
        super().__init__(seed)
        self.dir = inputs.ensure(root, "train", seed)
        self.config = TrainConfig(epochs=TRAIN_EPOCHS_PER_CALL, batch_size=32, lr_max=1e-3,
                                  seed=seed)
        self.digests = set()

    def setup(self, tracer) -> None:
        dataset = tracer.call("data.load_dataset", load_dataset, os.path.join(self.dir, "train"))
        model = tracer.call("model.build", build_model, default_config(inputs.FORMATS),
                            seed=inputs.sub_seed(self.seed, 0))
        self.datasets = [dataset]
        self.model = model
        self.initial = {k: v.data.copy() for k, v in model.params.items()}
        self.extra.setdefault("loaded", []).append(len(dataset))

    def prepare(self) -> None:
        pass

    def check(self, i, out) -> None:
        log, steps = out
        csv = log.to_csv()
        self.digests.add(hashlib.sha256(csv.encode("utf-8")).hexdigest())
        finite = all(math.isfinite(r.loss_total)
                     and all(math.isfinite(v) for v in r.head_loss.values()) for r in log.rows)
        for _ in range(steps):
            self.checks.expect(finite and len(self.digests) == 1,
                               "training log not finite or not reproducible")

    def measure(self, seconds, tracer) -> tuple:
        import efld.training as training

        self.reference.times = []
        clock = StepClock(tracer)
        tracer.request = 0
        original = training.adamw_step
        training.adamw_step = clock.wrap(original)
        try:
            end = time.perf_counter() + seconds
            while len(clock.durations) < MIN_OPS or time.perf_counter() < end:
                params = {k: Tensor(v.copy()) for k, v in self.initial.items()}
                model = Model(self.model.config, params, "float32")
                tracer.register_model(model)
                before = len(clock.durations)
                clock.last = time.perf_counter()
                log = tracer.call("training.train", train, model, self.datasets, self.config)
                self.outputs.append((0, (log, len(clock.durations) - before)))
                self.reference.run()
        finally:
            training.adamw_step = original
        tracer.request = -1
        return clock.durations, self.reference.times


WORKLOADS = {
    "serve-f32-b1": lambda root, seed: Serve(root, seed, "float32"),
    "serve-int8-b1": lambda root, seed: Serve(root, seed, "int8"),
    "eval-f32-b32": lambda root, seed: Eval(root, seed, "float32"),
    "eval-int8-b32": lambda root, seed: Eval(root, seed, "int8"),
    "train-b32": Train,
}
