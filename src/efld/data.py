"""Datasets on disk and in memory, plus the merged-shuffled batch stream.

On disk a dataset is a directory holding ``images/`` (binary PPM files) and
``annotations.jsonl`` with one record per line:

    {"image": "images/000000.ppm", "annotations": {"p51": [[x, y], ...]}}

Coordinates are decimal reals in [0, 1] normalized to the crop. A record may
annotate any subset of the registered formats; unannotated formats are absent
from the map, never zero-filled.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DataError, ParseError, UsageError, ValidationError
from .formats import FormatRegistry, default_registry
from .image import _as_float, read_ppm_codes, write_ppm

ANNOTATIONS_FILE = "annotations.jsonl"
IMAGES_DIR = "images"


class Sample:
    """One face crop plus per-format optional landmark annotations.

    ``pixels`` holds the crop as the constructor's ``image`` gave it: the
    (S, S, 3) uint8 codes k of its PPM (``load_dataset``,
    ``generate_synthetic``), 49,152 bytes at 128 px, or the floats in
    [0, 1] of a sample built by hand. ``image`` is the crop in floats:
    float64 k / 255 for codes, computed on each access, else ``pixels``
    itself. ``path`` is the ``image`` field of the record it was loaded
    from, relative to its dataset directory, and None for a sample that was
    not loaded.
    """

    __slots__ = ("pixels", "annotations", "path")

    def __init__(self, image: np.ndarray, annotations: dict, path: str | None = None):
        self.pixels = image
        self.annotations = annotations  # format name -> flat (2K,) float64 coordinates
        self.path = path

    @property
    def image(self) -> np.ndarray:
        return _as_float(self.pixels)

    def has(self, fmt: str) -> bool:
        return fmt in self.annotations


class Dataset:
    """Ordered samples sharing one image size; immutable after load."""

    def __init__(self, samples):
        self.samples = list(samples)
        sizes = {s.pixels.shape for s in self.samples}
        if len(sizes) > 1:
            raise ValidationError(f"samples disagree on image shape: {sorted(sizes)}")
        self.image_size = self.samples[0].pixels.shape[0] if self.samples else 0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def save_dataset(dataset: Dataset, path) -> None:
    """Write images as PPM plus the JSONL annotation index; crops held as
    codes are written as they are."""
    os.makedirs(os.path.join(path, IMAGES_DIR), exist_ok=True)
    records = []
    for i, sample in enumerate(dataset.samples):
        rel = f"{IMAGES_DIR}/{i:06d}.ppm"
        write_ppm(os.path.join(path, rel), sample.pixels)
        annotations = {
            fmt: np.asarray(coords, dtype=np.float64).reshape(-1, 2).tolist()
            for fmt, coords in sample.annotations.items()
        }
        records.append(json.dumps({"image": rel, "annotations": annotations}))
    with open(os.path.join(path, ANNOTATIONS_FILE), "w", encoding="utf-8") as fh:
        fh.write("\n".join(records) + ("\n" if records else ""))


def _parse_record(text: str, line: int, registry: FormatRegistry) -> tuple:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line) from None
    if not isinstance(record, dict):
        raise ParseError("record must be a JSON object", line)
    image = record.get("image")
    if not isinstance(image, str):
        raise ParseError('missing or non-string "image" field', line)
    annotations = record.get("annotations")
    if not isinstance(annotations, dict):
        raise ParseError('missing or malformed "annotations" field', line)
    parsed = {}
    for fmt_name, points in annotations.items():
        if fmt_name not in registry:
            raise ParseError(f"unknown format {fmt_name!r}", line)
        fmt = registry.get(fmt_name)
        try:
            coords = np.asarray(points)
        except ValueError:  # ragged nesting
            coords = None
        if coords is None or coords.dtype.kind not in "if" or coords.shape[1:] != (2,):
            raise ParseError(f'annotation for {fmt_name!r} lacks a list of [x, y] points', line)
        if len(coords) != fmt.points:
            raise ParseError(
                f"annotation for {fmt_name!r} has {len(coords)} points, expected {fmt.points}",
                line,
            )
        coords = coords.astype(np.float64).reshape(-1)
        if not np.all(np.isfinite(coords)):
            raise ValidationError(f"line {line}: non-finite coordinate for {fmt_name!r}")
        lo, hi = coords.min(), coords.max()
        # np.asarray reads true and false as 1 and 0 among numbers, so only
        # points with an exact 0 or 1 can hold one
        if (lo == 0.0 or hi == 1.0) and any(isinstance(v, bool) for p in points for v in p):
            raise ParseError(f"annotation for {fmt_name!r} has a true or false coordinate", line)
        if lo < 0.0 or hi > 1.0:
            raise ValidationError(
                f"line {line}: coordinate out of [0, 1] for {fmt_name!r} (min {lo}, max {hi})"
            )
        parsed[fmt_name] = coords
    return image, parsed


def load_dataset(path, registry: FormatRegistry | None = None) -> Dataset:
    """Load a dataset directory; samples keep file order, hold each crop as
    the uint8 codes of its PPM and keep their record's ``image`` path. The
    index is read one line at a time, numbered as ``bytes.splitlines``
    numbers the whole file."""
    registry = registry or default_registry()
    index = os.path.join(path, ANNOTATIONS_FILE)
    if not os.path.isfile(index):
        raise DataError(f"{path}: no {ANNOTATIONS_FILE} found")
    samples = []
    with open(index, "rb") as fh:
        # one line at a time: the file yields chunks that end in "\n", and
        # splitlines also ends a line at "\r", as on the whole file
        lines = (line for chunk in fh for line in chunk.splitlines())
        for line_no, raw in enumerate(lines, 1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not UTF-8 text", line_no) from None
            if not text.strip():
                continue
            image_rel, annotations = _parse_record(text, line_no, registry)
            image_path = os.path.join(path, image_rel)
            if not os.path.isfile(image_path):
                raise DataError(f"line {line_no}: image file {image_rel!r} not found")
            samples.append(Sample(read_ppm_codes(image_path), annotations, image_rel))
    return Dataset(samples)


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    order = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


class BatchStream:
    """Merged datasets emitted as seeded per-epoch permutations.

    Every sample appears exactly once per epoch; the epoch index is mixed
    into the seed so consecutive epochs shuffle differently. The last batch
    of an epoch may be short. Single-consumer.
    """

    def __init__(self, datasets, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {batch_size}")
        merged = []
        for ds in datasets:
            merged.extend(ds.samples)
        if not merged:
            raise UsageError("batch stream over an empty merged dataset")
        sizes = {s.pixels.shape for s in merged}
        if len(sizes) > 1:
            raise ValidationError(f"merged datasets disagree on image shape: {sorted(sizes)}")
        self.samples = merged
        self.batch_size = batch_size
        self.seed = seed

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def steps_per_epoch(self) -> int:
        return -(-len(self.samples) // self.batch_size)

    def batches(self, epoch: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, epoch]))
        order = _fisher_yates(len(self.samples), rng)
        for start in range(0, len(order), self.batch_size):
            yield [self.samples[i] for i in order[start : start + self.batch_size]]
