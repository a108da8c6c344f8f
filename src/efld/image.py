"""Lossless 8-bit raster I/O (binary PPM) and bilinear resizing."""

from __future__ import annotations

import numpy as np

from .errors import DataError


def from_codes(codes: np.ndarray) -> np.ndarray:
    """8-bit codes k as the float64 image k / 255, in [0, 1]."""
    return np.divide(codes, 255.0, dtype=np.float64)


def write_ppm(path, image) -> None:
    """Write an (H, W, 3) image as a binary P6 PPM: uint8 codes as they
    are, floats in [0, 1] rounded to the nearest code."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DataError(f"PPM image must be (H, W, 3), got {arr.shape}")
    if arr.dtype == np.uint8:
        data = arr
    else:
        data = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into an (H, W, 3) float64 image in [0, 1]."""
    return from_codes(read_ppm_codes(path))


def read_ppm_codes(path) -> np.ndarray:
    """Read a binary P6 PPM into its (H, W, 3) uint8 codes, read-only."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(raw):
            if raw[pos : pos + 1].isspace():
                pos += 1
            elif raw[pos : pos + 1] == b"#":
                while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        return raw[start:pos]

    for _ in range(4):
        fields.append(next_token())
    if fields[0] != b"P6":
        raise DataError(f"{path}: not a binary PPM (magic {fields[0]!r})")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    if w < 1 or h < 1:
        raise DataError(f"{path}: PPM size {w}x{h} is not positive")
    pos += 1  # single whitespace byte after the header
    expected = w * h * 3
    pixels = raw[pos : pos + expected]
    if len(pixels) != expected:
        raise DataError(f"{path}: truncated PPM payload ({len(pixels)} of {expected} bytes)")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W, C) with bilinear interpolation, half-pixel centers.

    Non-square inputs are stretched to the target aspect ratio.
    """
    arr = np.asarray(image, dtype=np.float64)
    h, w = arr.shape[:2]
    if (h, w) == (out_h, out_w):
        return arr.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bottom = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy
