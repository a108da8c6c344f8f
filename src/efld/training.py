"""NME loss, cross-format masked loss, AdamW, cosine schedule, training loop.

The per-sample loss is the mean per-point Euclidean error divided by the
ground truth's inter-ocular distance. Heads are masked at the gradient
level: a sample lacking a format contributes an exactly-zero gradient to
that head, and a head with no annotated sample in the batch is not run at
all. Each head's loss is normalized by its annotated-sample count so head
gradients stay scale-comparable when formats are unevenly represented.

A step's memory is bounded by the plan, not by the batch. The step runs
forward and backward on ``Model.micro_batch`` samples at a time (see
``model.micro_batch_samples``), each head's loss and seed gradients scaled
by its count over the whole batch, and adds each micro-batch's parameter
gradients into the first one's; one AdamW update ends the step. The
backward frees the tape as it goes (see ``tensor.backward_multi``), and
everything a step allocated is freed before the next one starts, so memory
stops growing with the batch past one micro-batch. A batch that fits in
one micro-batch runs as one forward and one backward, with the same bits
as a step that never splits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import BatchStream, stack_images
from .errors import ConfigError, NumericsError, UsageError
from .formats import FormatRegistry, LandmarkFormat, MIN_INTEROCULAR, default_registry
from .model import Model, model_forward
from .tensor import Tape, Tensor, backward_multi

log = logging.getLogger(__name__)

_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class TrainConfig:
    epochs: int = 1500
    batch_size: int = 512
    lr_max: float = 0.001
    lr_min: float = 0.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.lr_min <= self.lr_max):
            raise ConfigError(f"need 0 <= lr_min <= lr_max, got {self.lr_min}, {self.lr_max}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        # the update runs in the parameters' float32, where a larger eps is inf
        if self.eps > _FLOAT32_MAX:
            raise ConfigError(f"eps must be <= {_FLOAT32_MAX} (the largest float32), "
                              f"got {self.eps}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        # each step scales every weight by 1 - lr * weight_decay, which must not go negative
        if self.lr_max * self.weight_decay > 1.0:
            raise ConfigError(f"need lr_max * weight_decay <= 1, got {self.lr_max} * "
                              f"{self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def _interocular(gt: np.ndarray, fmt: LandmarkFormat) -> np.ndarray:
    """Per sample, the inter-ocular distance of the (n, 2K) ground truth."""
    g = gt.reshape(len(gt), fmt.points, 2)
    left, right = fmt.interocular
    return np.linalg.norm(g[:, left] - g[:, right], axis=1)


def _nme_terms(pred: np.ndarray, gt: np.ndarray, fmt: LandmarkFormat):
    """Per-sample NME values, gradients w.r.t. pred, and a validity mask.

    Samples with a degenerate inter-ocular distance get weight 0 and a
    logged warning. The gradient at exact point coincidence is 0.
    """
    n = pred.shape[0]
    k = fmt.points
    p = pred.reshape(n, k, 2)
    g = gt.reshape(n, k, 2)
    dio = _interocular(gt, fmt)
    valid = dio >= MIN_INTEROCULAR
    if not np.all(valid):
        log.warning(
            "%s: excluding %d sample(s) with degenerate inter-ocular distance from the loss",
            fmt.name, int((~valid).sum()),
        )
    diff = p - g
    dist = np.sqrt((diff * diff).sum(axis=2))
    safe_dio = np.where(valid, dio, 1.0)
    nme = dist.mean(axis=1) / safe_dio
    nme = np.where(valid, nme, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[..., None] > 0.0, diff / np.maximum(dist, 1e-300)[..., None], 0.0)
    dnme = unit / (k * safe_dio[:, None, None])
    dnme[~valid] = 0.0
    return nme, dnme.reshape(n, 2 * k), valid


def _ground_truth(batch, rows, fmt_name: str, dtype) -> np.ndarray:
    """The (len(rows), 2K) annotations of ``fmt_name`` as the loss reads
    them: rounded to the predictions' ``dtype``, then widened to float64."""
    return np.stack([np.asarray(batch[i].annotations[fmt_name], dtype=dtype)
                     for i in rows]).astype(np.float64)


def head_counts(batch, formats, registry: FormatRegistry, dtype) -> dict:
    """Per format, the samples of ``batch`` that its loss averages over:
    annotated in it, with an inter-ocular distance of at least
    ``MIN_INTEROCULAR`` in the ground truth as the loss reads it."""
    counts = {}
    for fmt_name in formats:
        rows = [i for i, sample in enumerate(batch) if sample.has(fmt_name)]
        counts[fmt_name] = 0
        if rows:
            dio = _interocular(_ground_truth(batch, rows, fmt_name, dtype), registry.get(fmt_name))
            counts[fmt_name] = int(np.count_nonzero(dio >= MIN_INTEROCULAR))
    return counts


def nme_loss(pred, gt, fmt: LandmarkFormat) -> float:
    """Batch-mean normalized mean error; invariant under similarity
    transforms applied jointly to predictions and ground truth."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    g = gt.data if isinstance(gt, Tensor) else np.asarray(gt, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
        g = g[None, :]
    if p.shape != g.shape or p.shape[1] != 2 * fmt.points:
        raise UsageError(
            f"nme_loss: shapes {p.shape} / {g.shape} do not match format "
            f"{fmt.name!r} with {fmt.points} points"
        )
    nme, _, valid = _nme_terms(p, g, fmt)
    if not valid.any():
        raise UsageError("nme_loss: every sample has a degenerate inter-ocular distance")
    return float(nme[valid].sum() / valid.sum())


def masked_multihead_loss(predictions: dict, batch, registry: FormatRegistry, counts=None):
    """Total loss over the heads present in ``predictions``.

    Each head contributes the mean NME over the batch samples annotated in
    its format, or 0 when none are. Returns (total, per-head detail, seed
    gradients suitable for ``backward_multi``); gradient rows of unannotated
    samples are exactly zero. The detail maps each head to its loss and the
    number of samples of ``batch`` it averaged over.

    ``counts``, when given, is ``head_counts`` of a whole batch of which
    ``batch`` is a micro-batch: each head's NME sum and seed gradients are
    divided by the head's count there, so that the losses and gradients of
    the micro-batches add up to the whole batch's.
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
        scale = count if counts is None else counts[fmt_name]
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


def _train_step(model: Model, batch, formats, registry: FormatRegistry,
                state: OptimizerState, lr: float, config: TrainConfig, where: str) -> tuple:
    """One step on ``batch`` for the heads ``formats``: forward, masked loss
    and backward per micro-batch of ``model.micro_batch`` samples, then one
    AdamW update. Returns (total loss, {format: (loss, count)}) for the
    whole batch. Its tapes, predictions, seeds and gradients die with it."""
    counts = head_counts(batch, formats, registry, model.dtype)
    losses = dict.fromkeys(formats, 0.0)
    grad_map = None
    for start in range(0, len(batch), model.micro_batch):
        micro = batch[start : start + model.micro_batch]
        heads = [f for f in formats if any(s.has(f) for s in micro)]
        if not heads:  # calibration-only samples
            continue
        images = stack_images([s.pixels for s in micro], model.dtype)
        tape = Tape(model.params.values())
        predictions = model_forward(model, Tensor(images), heads, tape=tape)
        part, detail, seeds = masked_multihead_loss(predictions, micro, registry, counts)
        if not math.isfinite(part):
            raise NumericsError(f"loss became non-finite at {where}; {_diverged(config)}")
        for fmt_name, (head_loss, _) in detail.items():
            losses[fmt_name] += head_loss
        grads = backward_multi(tape, seeds)
        if grad_map is None:
            grad_map = {name: grads.wrt(t) for name, t in model.params.items()}
        else:
            for name, t in model.params.items():
                grad_map[name] += grads.wrt(t)
    adamw_step(model.params, grad_map, state, lr, config)
    return sum(losses.values()), {f: (losses[f], counts[f]) for f in formats}


def train(model: Model, datasets, config: TrainConfig,
          registry: FormatRegistry | None = None) -> TrainLog:
    """Cross-format training loop; mutates the model in place.

    Per step: draw a merged-shuffle batch, forward every head with at least
    one annotated sample, compute the masked loss, backpropagate, and apply
    one AdamW step at the per-step cosine learning rate, micro-batch by
    micro-batch as the module describes, so that memory stops growing with
    ``batch_size`` past ``model.micro_batch`` samples. Fully deterministic
    given (seed, config, data).
    """
    config.validate()
    registry = registry or default_registry()
    head_formats = model.head_formats()
    present = set()
    for ds in datasets:
        for sample in ds:
            present.update(sample.annotations)
    uncovered = present - set(head_formats)
    if uncovered:
        raise ConfigError(
            f"data contains formats with no head: {', '.join(sorted(uncovered))}"
        )
    if not present:
        raise ConfigError("training data has no annotated samples")
    stream = BatchStream(datasets, config.batch_size, config.seed)
    total_steps = config.epochs * stream.steps_per_epoch
    state = OptimizerState(model)
    train_log = TrainLog(head_formats)
    step = 0
    for epoch in range(config.epochs):
        epoch_lr = None
        step_totals = []
        loss_sums = {f: 0.0 for f in head_formats}
        count_sums = {f: 0 for f in head_formats}
        for batch in stream.batches(epoch):
            lr = cosine_lr(step, total_steps, config.lr_max, config.lr_min)
            if epoch_lr is None:
                epoch_lr = lr
            formats = [f for f in head_formats if any(s.has(f) for s in batch)]
            if formats:  # else a batch of calibration-only samples
                total, detail = _train_step(model, batch, formats, registry, state, lr, config,
                                            f"epoch {epoch}, step {step}")
                step_totals.append(total)
                for fmt_name, (head_loss, count) in detail.items():
                    loss_sums[fmt_name] += head_loss * count
                    count_sums[fmt_name] += count
            step += 1
        train_log.append(
            EpochStats(
                epoch=epoch,
                lr=epoch_lr,
                loss_total=float(np.mean(step_totals)) if step_totals else 0.0,
                head_loss={
                    f: (loss_sums[f] / count_sums[f] if count_sums[f] else 0.0)
                    for f in head_formats
                },
                head_count=dict(count_sums),
            )
        )
    return train_log
