"""Evaluation metrics, static cost analysis, and the competition score.

Conventions: FLOPs = 2 * MACs; only conv, depthwise-conv, and linear layers
cost MACs (activations, concatenation, and padding are free); NME and
CED-AUC are reported x100 in printed output. The cumulative error
distribution integrates exactly as a right-continuous step function, and an
NME equal to the threshold counts as success.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .formats import LandmarkFormat, _nme_terms
from .model import ModelConfig, iter_layers

DTYPE_BYTES = {"float64": 8, "float32": 4, "int8": 1}
# A point is correct within this many pixels of its ground truth (boundary inclusive).
PIXEL_RADIUS = 5.0


@dataclass
class EvalReport:
    """Per-sample NMEs plus the derived aggregate metrics."""

    nmes: list
    threshold: float
    pixel_accuracy: float | None = None

    @property
    def count(self) -> int:
        return len(self.nmes)

    @property
    def nme_mean(self) -> float:
        return float(np.mean(self.nmes))

    @property
    def failure_rate(self) -> float:
        return failure_rate(self.nmes, self.threshold)

    @property
    def ced_auc(self) -> float:
        return ced_auc(self.nmes, self.threshold)

    def summary(self) -> str:
        parts = [
            f"samples {self.count}",
            f"NME {100.0 * self.nme_mean:.2f}",
            f"FR@{self.threshold:g} {100.0 * self.failure_rate:.2f}",
            f"CED-AUC@{self.threshold:g} {100.0 * self.ced_auc:.2f}",
        ]
        if self.pixel_accuracy is not None:
            parts.append(f"acc@{PIXEL_RADIUS:g}px {100.0 * self.pixel_accuracy:.2f}")
        return "  ".join(parts)

    def to_json(self) -> str:
        payload = {
            "count": self.count,
            "threshold": self.threshold,
            "nme_mean": self.nme_mean,
            "nme_mean_x100": 100.0 * self.nme_mean,
            "failure_rate": self.failure_rate,
            "ced_auc": self.ced_auc,
            "ced_auc_x100": 100.0 * self.ced_auc,
            "pixel_accuracy": self.pixel_accuracy,
            "nmes": list(map(float, self.nmes)),
        }
        return json.dumps(payload, indent=2)


def failure_rate(nmes, threshold: float) -> float:
    """Fraction of samples with NME strictly above the threshold."""
    arr = np.asarray(nmes, dtype=np.float64)
    if arr.size == 0:
        raise UsageError("failure_rate over an empty NME list")
    return float((arr > threshold).mean())


def ced_auc(nmes, threshold: float) -> float:
    """Normalized area under the empirical CED curve up to the threshold:
    ``ced_curve``'s step function integrated exactly over [0, threshold]."""
    if np.size(nmes) == 0:
        raise UsageError("ced_auc over an empty NME list")
    if threshold <= 0:
        raise UsageError(f"ced_auc threshold must be > 0, got {threshold}")
    points = ced_curve(nmes, threshold)
    area = sum((e1 - e0) * fraction for (e0, fraction), (e1, _) in zip(points, points[1:]))
    return area / threshold


def ced_curve(nmes, threshold: float):
    """(error, fraction) breakpoints of the CED step function up to
    threshold: CED(e) is the fraction of samples with NME <= e, and holds
    from each breakpoint up to the next."""
    arr = np.sort(np.asarray(nmes, dtype=np.float64))
    n = arr.size
    errors = [0.0, *np.unique(arr[(arr > 0.0) & (arr <= threshold)]), threshold]
    counts = np.searchsorted(arr, errors, side="right")
    return [(float(e), int(c) / n) for e, c in zip(errors, counts)]


def evaluate(predictions, ground_truth, fmt: LandmarkFormat, threshold: float = 0.10,
             image_size: int | None = None) -> EvalReport:
    """Per-sample NME (inter-ocular normalized) with FR and CED-AUC at the
    threshold; pixel accuracy is included when an image size is given."""
    pred = np.asarray(predictions, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if pred.ndim == 1:
        pred, gt = pred[None, :], gt[None, :]
    if pred.shape != gt.shape:
        raise UsageError(f"evaluate: prediction/ground-truth shapes differ: {pred.shape} vs {gt.shape}")
    if pred.shape[0] == 0:
        raise UsageError("evaluate called with an empty sample set")
    if pred.shape[1] != 2 * fmt.points:
        raise UsageError(
            f"evaluate: row length {pred.shape[1]} does not match format "
            f"{fmt.name!r} with {fmt.points} points"
        )
    nmes, _, valid = _nme_terms(pred, gt, fmt)
    if not valid.all():
        raise UsageError("evaluate: ground truth contains degenerate inter-ocular distances")
    acc = pixel_accuracy(pred, gt, image_size) if image_size else None
    return EvalReport(nmes=[float(x) for x in nmes], threshold=threshold, pixel_accuracy=acc)


def pixel_accuracy(predictions, ground_truth, image_size: int) -> float:
    """Fraction of points whose Euclidean pixel distance to the ground truth
    is at most ``PIXEL_RADIUS`` (boundary inclusive)."""
    pred = np.asarray(predictions, dtype=np.float64) * image_size
    gt = np.asarray(ground_truth, dtype=np.float64) * image_size
    if pred.ndim == 1:
        pred, gt = pred[None, :], gt[None, :]
    diff = (pred - gt).reshape(pred.shape[0], -1, 2)
    dist = np.sqrt((diff * diff).sum(axis=2))
    return float((dist <= PIXEL_RADIUS).mean())


@dataclass
class CostReport:
    """Static cost accounting; totals always equal the breakdown sums."""

    layers: list
    input_size: int

    @property
    def macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def mflops(self) -> float:
        return self.flops / 1e6

    @property
    def parameters(self) -> int:
        return sum(layer.params for layer in self.layers)

    def payload_bytes(self, dtype: str) -> int:
        return self.parameters * DTYPE_BYTES[dtype]

    def summary(self) -> str:
        return (
            f"input {self.input_size}  MACs {self.macs:,}  MFLOPs {self.mflops:.2f}  "
            f"params {self.parameters:,}  int8 payload {self.payload_bytes('int8'):,} B  "
            f"float32 payload {self.payload_bytes('float32'):,} B"
        )

    def to_json(self) -> str:
        payload = {
            "input_size": self.input_size,
            "macs": self.macs,
            "flops": self.flops,
            "mflops": self.mflops,
            "parameters": self.parameters,
            "payload_bytes": {d: self.payload_bytes(d) for d in DTYPE_BYTES},
            "layers": [
                {"name": l.name, "kind": l.kind, "macs": l.macs, "params": l.params}
                for l in self.layers
            ],
        }
        return json.dumps(payload, indent=2)


def count_cost(config: ModelConfig) -> CostReport:
    """MACs and parameters per layer, per sample, of the model of ``config``
    with all its heads (``ModelConfig.with_heads`` picks a subset)."""
    config.validate()
    return CostReport(list(iter_layers(config)), config.input_size)


def competition_score(accuracy: float, time_ms: float, gflops: float, power: float,
                      size_mb: float) -> float:
    """accuracy / (time * complexity * power * size); the denominator terms
    must all be positive."""
    for label, value in (
        ("time", time_ms),
        ("gflops", gflops),
        ("power", power),
        ("size", size_mb),
    ):
        if value <= 0:
            raise UsageError(f"competition_score: {label} must be > 0, got {value}")
    return accuracy / (time_ms * gflops * power * size_mb)
