"""Spans recorded around calls into efld's public functions.

A ``Tracer`` replaces, for the length of the traced phase, the module
attributes that efld's own callers look up at call time, for example
``efld.model.conv2d`` (used by the forward pass), ``efld.training.adamw_step``
and ``Tape.record`` (whose backward closures are wrapped). Nothing inside the
package changes. Spans stay in memory and are written when the run ends.

A span is (name, layer, start, end, parent span, request id). The request id
is the unit op the span belongs to (a request, a batch or a training step);
spans recorded during set-up carry request id -1.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

# Tape op names that carry layer parameters.
LAYER_OPS = ("conv2d", "depthwise_conv2d", "linear")
PLAIN_OPS = ("relu", "concat_channels", "flatten_rows")
# Tape records flatten_rows under the op name "reshape".
TAPE_NAMES = {"reshape": "flatten_rows"}


class NullTracer:
    """Tracing off: calls go straight through."""

    request = -1

    def call(self, name, fn, *args, layer="", flops=0, **kwargs):
        return fn(*args, **kwargs)

    def register_model(self, model) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, layer, start, end, parent, request, flops]
        self.counts = Counter()  # counters of the timed phase only
        self.request = -1
        self._stack = []
        self._patches = []
        self._layer_of = {}  # id(weight tensor) -> layer name
        self._macs = {}  # layer name -> MACs per sample
        self._current_layer = ""

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, layer="", flops=0, **kwargs):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.request, flops]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        if self.request >= 0:
            self.counts[name] += n

    def register_model(self, model) -> None:
        """Take the MACs of the model's layers and, for a float model, name
        its weights so op spans carry layer names."""
        from efld.metrics import count_cost
        from efld.model import Model

        if isinstance(model, Model):
            for layer in model.layer_names():
                self._layer_of[id(model.params[layer + ".w"])] = layer
        for lc in count_cost(model.config).layers:
            self._macs[lc.name] = lc.macs

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        import efld.data as data
        import efld.model as model
        import efld.quantize as quantize
        import efld.tensor as tensor
        import efld.training as training

        for op in LAYER_OPS:
            self._patch(model, op, lambda f, op=op: self._layer_op(op, f))
        for op in PLAIN_OPS:
            self._patch(model, op, lambda f, op=op: self._span(f"ops.{op}.fwd", f))
        self._patch(model, "eosa_forward", self._eosa)
        self._patch(model, "decoder_forward", lambda f: self._span("model.decoder", f))
        self._patch(model, "head_forward", lambda f: self._span("model.head", f))
        self._patch(model.Model, "layer", lambda f: self._counted("model.layer_calls", f))
        self._patch(training, "model_forward", lambda f: self._span("model.forward", f))
        self._patch(training, "masked_multihead_loss", lambda f: self._span("training.loss", f))
        self._patch(training, "backward_multi", self._backward)
        self._patch(training, "adamw_step", lambda f: self._span("training.optimizer", f))
        self._patch(quantize, "model_forward", lambda f: self._span("model.forward", f))
        self._patch(quantize, "build_plan", lambda f: self._counted("quantize.build_plan_calls", f))
        self._patch(tensor.Tape, "record", self._record)
        self._patch(data.BatchStream, "batches", self._batches)

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _layer_op(self, op, fn):
        name = f"ops.{op}.fwd"

        def wrapper(x, params, *args, **kwargs):
            layer = self._layer_of.get(id(params.weights), "?")
            self._current_layer = layer
            flops = 2 * self._macs.get(layer, 0) * x.shape[0]
            return self.call(name, fn, x, params, *args, layer=layer, flops=flops, **kwargs)
        return wrapper

    def _eosa(self, fn):
        def wrapper(model, index, *args, **kwargs):
            return self.call(f"model.eosa{index}", fn, model, index, *args, **kwargs)
        return wrapper

    def _backward(self, fn):
        def wrapper(tape, seeds):
            self.count("tensor.tape_nodes", len(tape))
            return self.call("tensor.backward", fn, tape, seeds)
        return wrapper

    def _record(self, fn):
        tracer = self

        def record(tape, op, output, backward_fn):
            name = f"ops.{TAPE_NAMES.get(op, op)}.bwd"
            layer = tracer._current_layer if op in LAYER_OPS else ""

            def traced_backward(grad, grads):
                return tracer.call(name, backward_fn, grad, grads, layer=layer)
            return fn(tape, op, output, traced_backward)
        return record

    def _batches(self, fn):
        tracer = self

        def batches(stream, epoch):
            it = fn(stream, epoch)
            while True:
                try:
                    batch = tracer.call("data.batch", next, it)
                except StopIteration:
                    return
                yield batch
        return batches

    # -- reading -----------------------------------------------------------

    def timed(self):
        """Spans of the timed phase."""
        return [s for s in self.spans if s[5] >= 0]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,layer,start_us,end_us,parent,request\n")
            for i, (name, layer, start, end, parent, request, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{(start - self.t0) * 1e6:.1f},"
                         f"{(end - self.t0) * 1e6:.1f},{parent},{request}\n")


def _totals(spans):
    total = defaultdict(float)
    calls = Counter()
    for name, _, start, end, *_ in spans:
        total[name] += end - start
        calls[name] += 1
    return total, calls


def layer_table(tracer: Tracer, n_ops: int):
    """Per-layer rows of the timed phase joined with count_cost MACs.

    Times are ms per unit op; the share is of model.forward (or of the int8
    forward). GFLOP/s counts 2 FLOPs per MAC forward and twice that backward
    (input and weight gradients).
    """
    fwd, bwd, flops = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter()
    for name, layer, start, end, _, _, f in tracer.timed():
        if name.startswith("ops."):
            key = layer or name.split(".")[1]
            if name.endswith(".fwd"):
                fwd[key] += end - start
                flops[key] += f
                calls[key] += 1
            else:
                bwd[key] += end - start
        elif name in ("model.forward", "quantize.forward"):
            fwd[name] += end - start
            flops[name] += f
            calls[name] += 1
    macs = dict(tracer._macs)
    macs["quantize.forward"] = sum(tracer._macs.values())
    forward_s = fwd["model.forward"] or fwd["quantize.forward"]
    ops = [key for key in list(tracer._macs) + list(PLAIN_OPS) if key in calls]
    ops_fwd = sum(fwd[key] for key in ops)
    ops_bwd = sum(bwd[key] for key in ops)
    rows = []
    for key in ops + ["ops_total", "model.forward", "quantize.forward"]:
        if key == "ops_total" and ops:
            t_fwd, t_bwd = ops_fwd, ops_bwd
        elif key in calls:
            t_fwd, t_bwd = fwd[key], bwd[key]
        else:
            continue
        rows.append({
            "layer": key,
            "macs_per_sample": macs.get(key, ""),
            "calls_per_op": calls[key] / n_ops if key in calls else "",
            "fwd_ms": 1e3 * t_fwd / n_ops,
            "bwd_ms": 1e3 * t_bwd / n_ops,
            "fwd_gflops": flops[key] / t_fwd / 1e9 if t_fwd and flops[key] else "",
            "bwd_gflops": 2 * flops[key] / t_bwd / 1e9 if t_bwd and flops[key] else "",
            "share_of_forward": t_fwd / forward_s if forward_s else "",
        })
    return rows


def write_table(rows, path) -> None:
    columns = ["layer", "macs_per_sample", "calls_per_op", "fwd_ms", "bwd_ms",
               "fwd_gflops", "bwd_gflops", "share_of_forward"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for c in columns:
                v = row.get(c, "")
                cells.append(f"{v:.6g}" if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


def per_layer_metrics(tracer: Tracer, n_ops: int, extra: dict) -> dict:
    """Every per-layer metric of the benchmark from the traced spans.

    Timed-phase times are ms per unit op (request, batch or training step);
    set-up times are ms per call. A layer the workload never calls reads 0.
    """
    timed = tracer.timed()
    total, calls = _totals(timed)
    setup_total, setup_calls = _totals(s for s in tracer.spans if s[5] < 0)

    def per_op(name):
        return 1e3 * total.get(name, 0.0) / n_ops

    def per_call(name):
        n = setup_calls.get(name, 0)
        return 1e3 * setup_total[name] / n if n else 0.0

    def gflops(pred):
        flops = seconds = 0.0
        for name, layer, start, end, _, _, f in timed:
            if pred(name, layer):
                flops += f
                seconds += end - start
        return flops / seconds / 1e9 if seconds else 0.0

    forward_s = total.get("model.forward", 0.0)
    ops_fwd_s = sum(t for n, t in total.items() if n.startswith("ops.") and n.endswith(".fwd"))
    ops_bwd_s = sum(t for n, t in total.items() if n.startswith("ops.") and n.endswith(".bwd"))
    train_forward_s = sum(s[3] - s[2] for s in timed if s[0] == "model.forward"
                          and s[4] >= 0 and tracer.spans[s[4]][0] == "training.train")
    steps = calls.get("training.optimizer", 0)
    n_forward = calls.get("model.forward", 0)
    n_qforward = calls.get("quantize.forward", 0)

    m = {
        "image.read_ppm_ms": per_op("image.read_ppm"),
        "image.bilinear_resize_ms": per_op("image.bilinear_resize"),
        "data.load_dataset_ms_per_sample": extra.get("load_dataset_ms_per_sample", 0.0),
        "data.batch_ms": per_op("data.batch"),
        "container.load_ms": per_call("container.load"),
        "container.save_ms": per_call("container.save"),
        "container.bytes": extra.get("container_bytes", 0),
        "model.forward_ms": per_op("model.forward"),
    }
    for i in range(1, 5):
        m[f"model.eosa{i}_ms"] = per_op(f"model.eosa{i}")
    m["model.decoder_ms"] = per_op("model.decoder")
    m["model.head_ms"] = per_op("model.head")
    m["model.layer_calls"] = (tracer.counts["model.layer_calls"] / n_forward
                              if n_forward else 0.0)
    m["model.self_share"] = (forward_s - ops_fwd_s) / forward_s if forward_s else 0.0
    for op in LAYER_OPS:
        m[f"ops.{op}.fwd_ms"] = per_op(f"ops.{op}.fwd")
        m[f"ops.{op}.bwd_ms"] = per_op(f"ops.{op}.bwd")
        m[f"ops.{op}.calls"] = calls.get(f"ops.{op}.fwd", 0) / n_ops
    for op in ("relu", "concat_channels"):
        m[f"ops.{op}_ms"] = per_op(f"ops.{op}.fwd") + per_op(f"ops.{op}.bwd")
    for op in ("conv2d", "depthwise_conv2d"):
        m[f"ops.{op}.fwd_gflops"] = gflops(lambda n, _, op=op: n == f"ops.{op}.fwd")
    for layer in ("eosa1.extra", "eosa1.osa.l0", "eosa2.extra.dw"):
        m[f"ops.{layer}.fwd_gflops"] = gflops(
            lambda n, lay, layer=layer: n.endswith(".fwd") and lay == layer)
    m["tensor.tape_nodes"] = tracer.counts["tensor.tape_nodes"] / steps if steps else 0.0
    m["tensor.backward_ms"] = per_op("tensor.backward")
    m["tensor.backward_self_ms"] = 1e3 * (total.get("tensor.backward", 0.0) - ops_bwd_s) / n_ops
    m["training.forward_ms"] = 1e3 * train_forward_s / n_ops
    m["training.loss_ms"] = per_op("training.loss")
    m["training.optimizer_ms"] = per_op("training.optimizer")
    step_s = extra.get("step_seconds", 0.0)
    parts = (train_forward_s + total.get("training.loss", 0.0)
             + total.get("tensor.backward", 0.0) + total.get("training.optimizer", 0.0))
    m["training.self_ms"] = 1e3 * (step_s - parts) / n_ops if steps else 0.0
    m["quantize.forward_ms"] = per_op("quantize.forward")
    m["quantize.forward_gflops"] = gflops(lambda n, _: n == "quantize.forward")
    m["quantize.build_plan_calls"] = (tracer.counts["quantize.build_plan_calls"] / n_qforward
                                      if n_qforward else 0.0)
    m["quantize.calibrate_ms"] = per_call("quantize.calibrate")
    m["quantize.quantize_model_ms"] = per_call("quantize.quantize_model")
    m["quantize.int8_drift_nme"] = extra.get("int8_drift_nme", 0.0)
    m["metrics.evaluate_ms"] = per_op("metrics.evaluate")
    m["trace.overhead_ms"] = extra.get("trace_overhead_ms", 0.0)
    return m


def write_outputs(tracer: Tracer, rows, out_dir: str, stem: str) -> tuple:
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{stem}-spans.csv")
    table = os.path.join(out_dir, f"{stem}-layers.csv")
    tracer.write_spans(spans)
    write_table(rows, table)
    return spans, table
