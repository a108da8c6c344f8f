"""The trainer: cross-format masked loss, AdamW, cosine schedule, training loop.

It runs a ``config.TrainConfig``. The per-sample loss is the NME of
``efld.formats``: the mean per-point Euclidean error divided by the ground
truth's inter-ocular distance. Heads are masked at the gradient level: a
sample lacking a format contributes an exactly-zero gradient to that head,
and a head that reads no sample gets no seed gradient, so it moves no
gradient at all. ``head_rows`` alone decides which samples a head's loss
reads; the loss is normalized by their number, so head gradients stay
scale-comparable when formats are unevenly represented.

A step's memory is bounded by the plan, not by the batch. The step runs
forward and backward on the micro-batches of ``Model.micro_batch`` samples
(see ``model.micro_batch_samples``) that hold a sample some head reads, each
head's loss and seed gradients scaled by its count over the whole batch; a
batch that no head reads is skipped. The micro-batches run through
``model.on_lanes``, ``STEP_LANES`` at once on the process's lanes, each
under its own ``np.errstate``: a micro-batch's work is independent of the
others' until its gradients are added, and numpy releases the GIL for most
of it. The calling thread adds each micro-batch's losses, and its parameter
gradients into the first one's, in micro-batch order whichever lane
finishes first, and raises the error of the first micro-batch that failed;
one AdamW update ends the step. The micro-batch size comes from the plan
alone, so a step gives the same bits on any number of cores or threads. The
backward frees the tape as it goes (see ``tensor.backward_multi``), and
everything a step allocated is freed before the next one starts, so memory
stops growing with the batch past ``STEP_LANES`` micro-batches. A batch that
fits in one micro-batch runs as one forward and one backward, with the same
bits as a step that never splits. No micro-batch of a step runs once the
step returns or raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import BatchStream
from .errors import ConfigError, NumericsError, UsageError
from .formats import (FormatRegistry, _nme_terms, default_registry, eye_distances,
                      usable_eyes, warn_excluded)
from .image import stack_images
from .model import Model, model_forward, on_lanes
from .tensor import Tape, Tensor, backward_multi


class OptimizerState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, model: Model):
        self.m = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in model.params.items()}
        self.t = 0


def cosine_lr(t: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Cosine decay from lr_max at t=0 to lr_min at t=total."""
    if total <= 0:
        raise UsageError(f"cosine_lr: total steps must be > 0, got {total}")
    if not (0 <= t <= total):
        raise UsageError(f"cosine_lr: step {t} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))


def adamw_step(params: dict, grads: dict, state: OptimizerState, lr: float,
               config: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place on the parameters.
    Raises ``NumericsError`` on a non-finite gradient, and when the update
    overflows the parameters' dtype, before it writes an infinite weight."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    try:
        with np.errstate(over="raise"):
            for name, tensor in params.items():
                g = grads[name]
                if not np.all(np.isfinite(g)):
                    raise NumericsError(f"non-finite gradient for parameter {name!r}; "
                                        f"{_diverged(config)}")
                m = state.m[name]
                v = state.v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                m_hat = m / bias1
                v_hat = v / bias2
                tensor.data -= (lr * (m_hat / (np.sqrt(v_hat) + config.eps)
                                      + config.weight_decay * tensor.data)
                                ).astype(tensor.data.dtype)
    except FloatingPointError:
        raise NumericsError(f"the AdamW update of parameter {name!r} overflowed "
                            f"{tensor.data.dtype}; {_diverged(config)}") from None


def _diverged(config: TrainConfig) -> str:
    """What a ``NumericsError`` of training tells the user to change."""
    return f"training diverged: lower lr_max (now {config.lr_max:g})"


def _ground_truth(batch, rows, fmt_name: str, dtype) -> np.ndarray:
    """The (len(rows), 2K) annotations of ``fmt_name`` as the loss reads
    them: rounded to the predictions' ``dtype``, then widened to float64."""
    return np.stack([np.asarray(batch[i].annotations[fmt_name], dtype=dtype)
                     for i in rows]).astype(np.float64)


def head_rows(batch, formats, registry: FormatRegistry, dtype) -> dict:
    """Per format, the rows of ``batch`` that its loss reads, in batch
    order: those annotated in it whose ground truth, as the loss reads it,
    has a usable inter-ocular distance. A head's loss divides by their
    number. Logs the samples it leaves out (``formats.warn_excluded``)."""
    rows = {}
    for fmt_name in formats:
        annotated = [i for i, sample in enumerate(batch) if sample.has(fmt_name)]
        usable = []
        if annotated:
            fmt = registry.get(fmt_name)
            gt = _ground_truth(batch, annotated, fmt_name, dtype)
            usable = usable_eyes(eye_distances(gt, fmt))
            warn_excluded(fmt, usable)
        rows[fmt_name] = [i for i, ok in zip(annotated, usable) if ok]
    return rows


def masked_multihead_loss(predictions: dict, batch, registry: FormatRegistry, read: dict):
    """Total loss over the heads present in ``predictions``.

    Each head contributes the mean NME over the samples it reads, or 0 when
    it reads none. Returns (total, per-head detail, seed gradients suitable
    for ``backward_multi``); gradient rows of unannotated samples are
    exactly zero. The detail maps each head to its loss and the
    number of samples of ``batch`` it averaged over.

    ``read`` is ``head_rows`` of the whole batch of which ``batch`` is a
    micro-batch (or of ``batch`` itself): each head's NME sum and seed
    gradients are divided by the number of rows it reads there, so that the
    losses and gradients of the micro-batches add up to the whole batch's.
    """
    total = 0.0
    detail = {}
    seeds = []
    for fmt_name, pred in predictions.items():
        fmt = registry.get(fmt_name)
        pd = pred.data
        rows = [i for i, sample in enumerate(batch) if sample.has(fmt_name)]
        if not rows:
            detail[fmt_name] = (0.0, 0)
            continue
        gt = _ground_truth(batch, rows, fmt_name, pd.dtype)
        nme, dnme, valid = _nme_terms(pd[rows].astype(np.float64), gt, fmt)
        count = int(valid.sum())
        if count == 0:
            detail[fmt_name] = (0.0, 0)
            continue
        scale = len(read[fmt_name])
        head_loss = float(nme.sum() / scale)
        grad = np.zeros_like(pd)
        grad[rows] = (dnme / scale).astype(pd.dtype)
        seeds.append((pred, grad))
        total += head_loss
        detail[fmt_name] = (head_loss, count)
    return total, detail, seeds


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss_total: float
    head_loss: dict
    head_count: dict


class TrainLog:
    """Per-epoch learning rate, per-head mean loss, and contributing counts."""

    def __init__(self, formats):
        self.formats = tuple(formats)
        self.rows = []

    def append(self, row: EpochStats) -> None:
        self.rows.append(row)

    def to_csv(self) -> str:
        header = ["epoch", "lr", "loss_total"]
        header += [f"loss_{f}" for f in self.formats]
        header += [f"n_{f}" for f in self.formats]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [str(row.epoch), repr(row.lr), repr(row.loss_total)]
            cells += [repr(row.head_loss.get(f, 0.0)) for f in self.formats]
            cells += [str(row.head_count.get(f, 0)) for f in self.formats]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


def _micro_step(model: Model, micro, registry: FormatRegistry, rows: dict,
                config: TrainConfig, where: str) -> tuple:
    """Forward, masked loss and backward of one micro-batch, on a lane's
    thread. Returns ({format: loss} for every head, {parameter name:
    gradient})."""
    # numpy's error state is per thread, so each lane sets its own: a
    # diverging run overflows in the forward and backward first; the loss
    # check and adamw_step's gradient check turn that into NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        images = stack_images([s.pixels for s in micro], model.dtype)
        tape = Tape(model.params.values())
        predictions = model_forward(model, Tensor(images), tape=tape)
        part, detail, seeds = masked_multihead_loss(predictions, micro, registry, rows)
        if not math.isfinite(part):
            raise NumericsError(f"loss became non-finite at {where}; {_diverged(config)}")
        grads = backward_multi(tape, seeds)
        return ({f: loss for f, (loss, _) in detail.items()},
                {name: grads.wrt(t) for name, t in model.params.items()})


def _train_step(model: Model, batch, registry: FormatRegistry, state: OptimizerState,
                lr: float, config: TrainConfig, where: str):
    """One step on ``batch``: forward of every head, masked loss and
    backward per micro-batch of ``model.micro_batch`` samples that holds a
    row some head reads (``head_rows``), on the lanes (``on_lanes``), then
    one AdamW update. A head that reads no row gets no seed, so it moves no
    gradient. The micro-batches' losses and gradients are added in
    micro-batch order, whichever finished first, and the first micro-batch
    that fails raises its error. Returns (total loss, {format: (loss,
    count)}) for every head, or None, with no update, when no head reads a
    row. Its tapes, predictions, seeds and gradients die with it."""
    rows = head_rows(batch, model.head_formats(), registry, model.dtype)
    size = model.micro_batch
    starts = sorted({i - i % size for read in rows.values() for i in read})
    if not starts:
        return None

    def micro_step(start):
        return _micro_step(model, batch[start : start + size], registry, rows, config, where)

    losses = dict.fromkeys(rows, 0.0)
    grad_map = None
    for part, grads in on_lanes(micro_step, starts):
        for fmt_name in losses:
            losses[fmt_name] += part[fmt_name]
        if grad_map is None:
            grad_map = grads
        else:
            for name, grad in grads.items():
                grad_map[name] += grad
    adamw_step(model.params, grad_map, state, lr, config)
    return sum(losses.values()), {f: (losses[f], len(rows[f])) for f in rows}


def train(model: Model, datasets, config: TrainConfig,
          registry: FormatRegistry | None = None) -> TrainLog:
    """Cross-format training loop; mutates the model in place.

    Per step: draw a merged-shuffle batch, forward every head, compute the
    masked loss over the rows each head reads (``head_rows``),
    backpropagate, and apply one AdamW step at the per-step cosine learning
    rate, micro-batch by micro-batch as the module describes, so that memory
    stops growing with ``batch_size`` past ``model.micro_batch`` samples. A
    batch that no head reads is skipped. Raises ``ConfigError`` before the
    first step when no head reads any sample of the data. Fully
    deterministic given (seed, config, data).
    """
    config.validate()
    registry = registry or default_registry()
    for head in model.config.heads:  # the loss reads a head's output as its format's points
        if head.format in registry and head.points != registry.get(head.format).points:
            raise ConfigError(f"[head.{head.format}] points = {head.points}, but format "
                              f"{head.format!r} has {registry.get(head.format).points} points")
    head_formats = model.head_formats()
    samples = [sample for ds in datasets for sample in ds]
    uncovered = {f for sample in samples for f in sample.annotations} - set(head_formats)
    if uncovered:
        raise ConfigError(f"data contains formats with no head: {', '.join(sorted(uncovered))}")
    if not any(head_rows(samples, head_formats, registry, model.dtype).values()):
        raise ConfigError("training data has no annotated sample with a usable "
                          "inter-ocular distance")
    stream = BatchStream(datasets, config.batch_size, config.seed)
    steps = stream.steps_per_epoch
    total_steps = config.epochs * steps
    state = OptimizerState(model)
    train_log = TrainLog(head_formats)
    for epoch in range(config.epochs):
        step_totals = []
        loss_sums = {f: 0.0 for f in head_formats}
        count_sums = {f: 0 for f in head_formats}
        for step, batch in enumerate(stream.batches(epoch), epoch * steps):
            lr = cosine_lr(step, total_steps, config.lr_max, config.lr_min)
            result = _train_step(model, batch, registry, state, lr, config,
                                 f"epoch {epoch}, step {step}")
            if result is None:  # no head reads a row of the batch
                continue
            total, detail = result
            step_totals.append(total)
            for fmt_name, (head_loss, count) in detail.items():
                loss_sums[fmt_name] += head_loss * count
                count_sums[fmt_name] += count
        train_log.append(
            EpochStats(
                epoch=epoch,
                lr=cosine_lr(epoch * steps, total_steps, config.lr_max, config.lr_min),
                loss_total=float(np.mean(step_totals)) if step_totals else 0.0,
                head_loss={f: (loss_sums[f] / count_sums[f] if count_sums[f] else 0.0)
                           for f in head_formats},
                head_count=dict(count_sums),
            )
        )
    return train_log
