"""Crops as pixels: lossless 8-bit raster I/O (binary PPM), the codes-to-floats
conversion, batch stacking and bilinear resizing.

A crop is held either as the (S, S, 3) uint8 codes k of its PPM or as floats
in [0, 1]; ``from_codes`` maps codes to the float64 image k / 255, and
``stack_images`` turns a list of crops held either way into one batch.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def from_codes(codes: np.ndarray) -> np.ndarray:
    """8-bit codes k as the float64 image k / 255, in [0, 1]."""
    return np.divide(codes, 255.0, dtype=np.float64)


def _as_float(pixels: np.ndarray) -> np.ndarray:
    return from_codes(pixels) if pixels.dtype == np.uint8 else pixels


def stack_images(images, dtype) -> np.ndarray:
    """One (B, S, S, 3) batch in ``dtype`` of crops held as ``Sample.pixels``
    holds them, with the bits of ``np.stack([s.image ...]).astype(dtype)``:
    codes k become float64 k / 255 before the cast. A batch of codes alone
    is stacked as codes and converted once."""
    if all(p.dtype == np.uint8 for p in images):
        return from_codes(np.stack(images)).astype(dtype, copy=False)
    return np.stack([_as_float(p) for p in images]).astype(dtype, copy=False)


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


# Output rows resized per band. A band's source rows and its scratch stay in
# cache from the horizontal pass to the vertical one.
_BAND_ROWS = 32


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W, C) with bilinear interpolation, half-pixel centers, into
    a new float64 image; uint8 input is read as its codes, not codes / 255.

    Non-square inputs are stretched to the target aspect ratio. Output pixel
    (y, x) samples the source at ys = (y + 0.5) * H / out_h - 0.5 and xs
    likewise, each clipped to the image; a00, a01, a10 and a11 are the four
    source pixels around it and wy, wx its offsets from a00. Bit contract:
    each output value is, in float64 and in this order,

        (a00 * (1 - wx) + a01 * wx) * (1 - wy) + (a10 * (1 - wx) + a11 * wx) * wy

    The image is resized in bands of output rows. A horizontal pass blends
    the band's source rows (at most two per output row) along x, then a
    vertical pass blends those rows along y into the band's output rows.
    Both run along whole rows of out_w * C values, with the x weights
    repeated per channel; one scratch serves every band.

    A NaN made by adding two NaNs takes the sign of the one that numpy's add
    loop returns, which depends on where the element falls in that loop (as
    with whole-image temporaries), so the sign bit of a NaN output is outside
    the contract; where the output is NaN is not.
    """
    arr = np.asarray(image, dtype=np.float64)
    h, w = arr.shape[:2]
    if (h, w) == (out_h, out_w):
        return arr.copy()
    c = arr.shape[2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0
    right_w, left_w = np.repeat(wx, c), np.repeat(1 - wx, c)
    lanes = np.arange(c)
    left = (x0[:, None] * c + lanes).reshape(-1)
    right = (x1[:, None] * c + lanes).reshape(-1)
    # The source rows read, in order, and the place among them of each
    # output row's upper and lower source row.
    read = np.zeros(h, dtype=bool)
    read[y0] = True
    read[y1] = True
    rows = np.flatnonzero(read)
    place = np.cumsum(read) - 1
    upper, lower = place[y0], place[y1]

    src = arr.reshape(h, w * c)
    out = np.empty((out_h, out_w * c))
    band = min(_BAND_ROWS, out_h)
    scratch = np.empty((2, 2 * band, out_w * c))
    for start in range(0, out_h, band):
        stop = min(start + band, out_h)
        first, last = upper[start], lower[stop - 1] + 1
        n = last - first
        # the band's source rows: a view when they are consecutive
        lo = rows[first]
        picked = src[lo : lo + n] if rows[last - 1] == lo + n - 1 else src[rows[first:last]]
        # Every index is in range; mode="clip" writes ``out`` directly,
        # where the default mode goes through a buffer.
        blend, other = scratch[0, :n], scratch[1, :n]
        np.take(picked, left, axis=1, out=blend, mode="clip")
        blend *= left_w
        np.take(picked, right, axis=1, out=other, mode="clip")
        other *= right_w
        blend += other
        band_out, below = out[start:stop], scratch[1, : stop - start]
        np.take(blend, upper[start:stop] - first, axis=0, out=band_out, mode="clip")
        band_out *= 1 - wy[start:stop]
        np.take(blend, lower[start:stop] - first, axis=0, out=below, mode="clip")
        below *= wy[start:stop]
        band_out += below
    return out.reshape(out_h, out_w, c)
