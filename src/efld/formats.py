"""Landmark formats and the normalized mean error (NME) they define.

A format names its point count and the two eye points whose distance, the
inter-ocular distance, normalizes its error. This module holds the format
registry and the one copy of that rule: ``eye_distances`` and
``_nme_terms`` over a batch, which training's loss and evaluation's
metrics both read, and ``nme_loss``, their batch mean. ``usable_eyes``
alone decides which inter-ocular distances the NME can divide by; a sample
with another one is degenerate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError

log = logging.getLogger(__name__)

MIN_INTEROCULAR = 1e-6


@dataclass(frozen=True)
class LandmarkFormat:
    """A named landmark layout: point count and the eye index pair used for
    inter-ocular normalization."""

    name: str
    points: int
    interocular: tuple

    def validate(self) -> None:
        left, right = self.interocular
        if not (0 <= left < self.points and 0 <= right < self.points):
            raise ConfigError(
                f"format {self.name!r}: interocular indices {self.interocular} out of range "
                f"for {self.points} points"
            )
        if left == right:
            raise ConfigError(f"format {self.name!r}: interocular indices must differ")


class FormatRegistry:
    """Mutable registry of landmark formats; eye index pairs are overridable."""

    def __init__(self, formats=()):
        self._formats = {}
        for fmt in formats:
            self.register(fmt)

    def register(self, fmt: LandmarkFormat, replace: bool = False) -> None:
        fmt.validate()
        if fmt.name in self._formats and not replace:
            raise ConfigError(f"format {fmt.name!r} already registered")
        self._formats[fmt.name] = fmt

    def get(self, name: str) -> LandmarkFormat:
        try:
            return self._formats[name]
        except KeyError:
            raise ConfigError(
                f"format {name!r} not registered; known formats: "
                f"{', '.join(sorted(self._formats)) or '(none)'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._formats

    def names(self) -> list:
        return sorted(self._formats)


def default_registry() -> FormatRegistry:
    """The stock 51/68/98-point family.

    The 68-point layout uses outer eye corners (36, 45) and the 98-point
    layout (60, 72); the 51-point layout leads with two eye-center keypoints
    at indices (0, 1). All pairs can be overridden by re-registering.
    """
    return FormatRegistry(
        [
            LandmarkFormat("p51", 51, (0, 1)),
            LandmarkFormat("p68", 68, (36, 45)),
            LandmarkFormat("p98", 98, (60, 72)),
        ]
    )


def eye_distances(gt: np.ndarray, fmt: LandmarkFormat) -> np.ndarray:
    """Per sample, the inter-ocular distance of the (n, 2K) ground truth:
    the Euclidean distance between the format's two eye points."""
    g = gt.reshape(len(gt), fmt.points, 2)
    left, right = fmt.interocular
    return np.linalg.norm(g[:, left] - g[:, right], axis=1)


def usable_eyes(dio: np.ndarray) -> np.ndarray:
    """Which of the inter-ocular distances ``dio`` the NME divides by: those
    of at least ``MIN_INTEROCULAR``."""
    return dio >= MIN_INTEROCULAR


def warn_excluded(fmt: LandmarkFormat, usable: np.ndarray) -> None:
    """Log how many samples of ``fmt`` a loss leaves out because their
    inter-ocular distance is not ``usable``."""
    if not np.all(usable):
        log.warning(
            "%s: excluding %d sample(s) with degenerate inter-ocular distance from the loss",
            fmt.name, int((~usable).sum()),
        )


def _nme_terms(pred: np.ndarray, gt: np.ndarray, fmt: LandmarkFormat):
    """Per-sample NME values, gradients w.r.t. pred, and a validity mask.

    Samples with a degenerate inter-ocular distance get weight 0; the
    callers that leave them out of a loss log them (``warn_excluded``). The
    gradient at exact point coincidence is 0.
    """
    n = pred.shape[0]
    k = fmt.points
    p = pred.reshape(n, k, 2)
    g = gt.reshape(n, k, 2)
    dio = eye_distances(gt, fmt)
    valid = usable_eyes(dio)
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


def nme_loss(pred, gt, fmt: LandmarkFormat) -> float:
    """Batch-mean normalized mean error; invariant under similarity
    transforms applied jointly to predictions and ground truth."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
        g = g[None, :]
    if p.shape != g.shape or p.shape[1] != 2 * fmt.points:
        raise UsageError(
            f"nme_loss: shapes {p.shape} / {g.shape} do not match format "
            f"{fmt.name!r} with {fmt.points} points"
        )
    nme, _, valid = _nme_terms(p, g, fmt)
    warn_excluded(fmt, valid)
    if not valid.any():
        raise UsageError("nme_loss: every sample has a degenerate inter-ocular distance")
    return float(nme[valid].sum() / valid.sum())
