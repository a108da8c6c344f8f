"""Synthetic face dataset generator.

Each sample renders a parametric face (ellipse head, two eye disks, brow
arcs, nose line, mouth arc) under a random similarity transform (scale
0.7-1.0, rotation within 20 degrees, translation within 10% of the crop)
plus pixel noise. Landmarks are the exact analytic positions of template
keypoints under the same transform.

All formats index into one dense template, so the 51/68/98-point subsets of
a sample agree exactly on shared keypoints. The 98- and 68-point layouts
follow the usual outer-eye-corner conventions (indices 60/72 and 36/45); the
51-point layout leads with the two eye centers.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, Sample
from .errors import ConfigError
from .formats import FormatRegistry, default_registry

FACE_CENTER = (0.5, 0.51)
HEAD_AXES = (0.26, 0.34)
EYE_Y = 0.395
EYE_OFFSET = 0.14
EYE_RADIUS = 0.04
BROW_Y = 0.315
BROW_SPAN = 0.17
BROW_RISE = 0.033
MOUTH_CENTER = (0.5, 0.70)
MOUTH_OUTER = (0.115, 0.038)
MOUTH_INNER = (0.078, 0.017)

SCALE_RANGE = (0.7, 1.0)
ROTATION_DEG = 20.0
TRANSLATION = 0.10

COLOR_BG = 0.10
COLOR_FACE = 0.82
COLOR_BROW = 0.28
COLOR_NOSE = 0.38
COLOR_MOUTH = 0.25
COLOR_EYE = 0.12
STROKE_HALFWIDTH = 0.008

_RIM98 = (180, 135, 90, 45, 0, 315, 270, 225)
_RIM68 = (180, 120, 60, 0, 300, 240)
_RIM51 = (180, 120, 0, 300, 240)
_MOUTH_OUTER_ANGLES = (180, 210, 240, 270, 300, 330, 0, 30, 60, 90, 120, 150)
_MOUTH_INNER_ANGLES = (180, 225, 270, 315, 0, 45, 90, 135)


def _on_ellipse(cx, cy, ax, ay, deg):
    rad = math.radians(deg)
    return (cx + ax * math.cos(rad), cy + ay * math.sin(rad))


def dense_template() -> dict:
    """Named canonical keypoints; every format is a selection of these."""
    t = {}
    cx, cy = FACE_CENTER
    ax, ay = HEAD_AXES
    for k in range(33):
        t[f"contour.{k}"] = _on_ellipse(cx, cy, ax, ay, 170 - 5 * k)
    for side, sign in (("r", -1.0), ("l", 1.0)):
        ex = 0.5 + sign * EYE_OFFSET
        for k in range(9):
            frac = k / 8.0
            t[f"brow_{side}.{k}"] = (
                ex + (frac - 0.5) * BROW_SPAN,
                BROW_Y - BROW_RISE * math.sin(math.pi * frac),
            )
    for k in range(4):
        t[f"nose.bridge.{k}"] = (0.5, 0.42 + 0.045 * k)
    for k in range(5):
        dx = (k - 2) * 0.025
        t[f"nose.base.{k}"] = (0.5 + dx, 0.578 + 0.01 * (1.0 - ((k - 2) / 2.0) ** 2))
    for side, sign in (("r", -1.0), ("l", 1.0)):
        ex = 0.5 + sign * EYE_OFFSET
        t[f"eye_{side}.center"] = (ex, EYE_Y)
        for deg in sorted(set(_RIM98) | set(_RIM68)):
            t[f"eye_{side}.a{deg}"] = _on_ellipse(ex, EYE_Y, EYE_RADIUS, EYE_RADIUS, deg)
    mx, my = MOUTH_CENTER
    for k, deg in enumerate(_MOUTH_OUTER_ANGLES):
        t[f"mouth.outer.{k}"] = _on_ellipse(mx, my, MOUTH_OUTER[0], MOUTH_OUTER[1], deg)
    for k, deg in enumerate(_MOUTH_INNER_ANGLES):
        t[f"mouth.inner.{k}"] = _on_ellipse(mx, my, MOUTH_INNER[0], MOUTH_INNER[1], deg)
    return t


def _format_keys() -> dict:
    contour_all = [f"contour.{k}" for k in range(33)]
    brows_9 = [f"brow_r.{k}" for k in range(9)] + [f"brow_l.{k}" for k in range(9)]
    brows_5 = [f"brow_r.{k}" for k in (0, 2, 4, 6, 8)] + [f"brow_l.{k}" for k in (0, 2, 4, 6, 8)]
    nose = [f"nose.bridge.{k}" for k in range(4)] + [f"nose.base.{k}" for k in range(5)]
    mouth = [f"mouth.outer.{k}" for k in range(12)] + [f"mouth.inner.{k}" for k in range(8)]

    def rims(side, angles):
        return [f"eye_{side}.a{deg}" for deg in angles]

    p98 = (
        contour_all
        + brows_9
        + nose
        + rims("r", _RIM98)
        + rims("l", _RIM98)
        + mouth
        + ["eye_r.center", "eye_l.center"]
    )
    p68 = (
        [f"contour.{k}" for k in range(0, 33, 2)]
        + brows_5
        + nose
        + rims("r", _RIM68)
        + rims("l", _RIM68)
        + mouth
    )
    p51 = ["eye_r.center", "eye_l.center"] + brows_5 + nose + rims("r", _RIM51) + rims("l", _RIM51) + mouth
    return {"p98": p98, "p68": p68, "p51": p51}


TEMPLATE = dense_template()
FORMAT_KEYS = _format_keys()


def template_points(fmt_name: str) -> np.ndarray:
    """Canonical (K, 2) template coordinates for a supported format."""
    try:
        keys = FORMAT_KEYS[fmt_name]
    except KeyError:
        raise ConfigError(
            f"synthetic generator has no template for format {fmt_name!r}; "
            f"supported: {', '.join(sorted(FORMAT_KEYS))}"
        ) from None
    return np.array([TEMPLATE[k] for k in keys], dtype=np.float64)


def _rotation(rad: float) -> np.ndarray:
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def _transform_points(points, scale, rad, translate):
    center = np.array([0.5, 0.5])
    return (points - center) * scale @ _rotation(rad).T + center + np.asarray(translate)


def _polyline_distance(pix, pts) -> np.ndarray:
    """Min distance from each pixel (P, 2) to an open polyline through pts."""
    a = pts[:-1]
    b = pts[1:]
    ab = b - a
    ab2 = np.maximum((ab * ab).sum(axis=1), 1e-12)
    ap = pix[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=-1) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * ab[None, :, :]
    return np.linalg.norm(pix[:, None, :] - closest, axis=-1).min(axis=1)


def _render(size: int, scale: float, rad: float, translate, noise: float,
            rng: np.random.Generator) -> np.ndarray:
    grid = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(grid, grid)
    pix = np.stack([gx, gy], axis=-1).reshape(-1, 2)
    center = np.array([0.5, 0.5])
    canonical = ((pix - center - np.asarray(translate)) @ _rotation(rad)) / scale + center
    px_per_unit = scale * size

    canvas = np.full(pix.shape[0], COLOR_BG)

    def paint(signed_dist, color):
        coverage = np.clip(0.5 - signed_dist * px_per_unit, 0.0, 1.0)
        return canvas * (1.0 - coverage) + color * coverage

    cx, cy = FACE_CENTER
    ax, ay = HEAD_AXES
    radial = np.sqrt(((canonical[:, 0] - cx) / ax) ** 2 + ((canonical[:, 1] - cy) / ay) ** 2)
    canvas = paint((radial - 1.0) * min(ax, ay), COLOR_FACE)

    def stroke(keys, color, closed=False):
        pts = np.array([TEMPLATE[k] for k in keys])
        if closed:
            pts = np.vstack([pts, pts[:1]])
        return paint(_polyline_distance(canonical, pts) - STROKE_HALFWIDTH, color)

    for side in ("r", "l"):
        canvas = stroke([f"brow_{side}.{k}" for k in range(9)], COLOR_BROW)
    canvas = stroke([f"nose.bridge.{k}" for k in range(4)], COLOR_NOSE)
    canvas = stroke([f"nose.base.{k}" for k in range(5)], COLOR_NOSE)
    canvas = stroke([f"mouth.outer.{k}" for k in range(12)], COLOR_MOUTH, closed=True)
    for side in ("r", "l"):
        ec = np.array(TEMPLATE[f"eye_{side}.center"])
        canvas = paint(np.linalg.norm(canonical - ec, axis=1) - EYE_RADIUS, COLOR_EYE)

    image = np.repeat(canvas.reshape(size, size, 1), 3, axis=2)
    image = image + rng.normal(0.0, noise, size=image.shape)
    return np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)


def generate_synthetic(count: int, image_size: int, seed: int, formats,
                       annotate: str = "all", noise: float = 0.02,
                       registry: FormatRegistry | None = None) -> Dataset:
    """Deterministic synthetic dataset; each crop is held as its 8-bit codes.

    ``annotate`` is "all" (every sample carries every requested format),
    "round-robin" (sample i carries formats[i mod n], exercising the
    missing-annotation paths), or "none" (calibration-only samples).
    """
    registry = registry or default_registry()
    formats = list(formats)
    canonical = {}
    for name in formats:
        fmt = registry.get(name)
        pts = template_points(name)
        if fmt.points != len(pts):
            raise ConfigError(
                f"registered format {name!r} has {fmt.points} points but the "
                f"template provides {len(pts)}"
            )
        canonical[name] = pts
    if annotate not in ("all", "round-robin", "none"):
        raise ConfigError(f"annotate must be all, round-robin, or none, got {annotate!r}")
    if annotate == "round-robin" and not formats:
        raise ConfigError("round-robin annotation needs at least one format")

    samples = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        scale = rng.uniform(*SCALE_RANGE)
        rad = math.radians(rng.uniform(-ROTATION_DEG, ROTATION_DEG))
        translate = rng.uniform(-TRANSLATION, TRANSLATION, size=2)
        codes = _render(image_size, scale, rad, translate, noise, rng)
        if annotate == "all":
            chosen = formats
        elif annotate == "round-robin":
            chosen = [formats[i % len(formats)]]
        else:
            chosen = []
        annotations = {
            name: _transform_points(canonical[name], scale, rad, translate).reshape(-1)
            for name in chosen
        }
        samples.append(Sample(image=codes, annotations=annotations))
    return Dataset(samples)
