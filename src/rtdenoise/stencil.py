"""Neighborhood access shared by the temporal, spatial and composition passes.

`shifted` serves every fixed-offset loop: a plane is padded once per pass,
with its edge values (which is exactly clamp-to-border indexing) or with a
constant, and each tap is a slice view of the padded plane. `bilinear_sample`
serves the motion-vector reprojections, whose offsets differ per pixel: it
turns each enclosing texel's clamped (row, column) into one flat row-major
index and fetches every plane with `gather`, an `np.take` over the plane's
pixels, which costs a fraction of 2-D fancy indexing `plane[yc, xc]` and
returns the same values. `dot3` is the one dot product of 3-vectors, for
normals and directions, and `take3` compacts 3-vectors to flat indices one
component plane at a time, for the renderer's and the env map's ray lists.
"""

from __future__ import annotations

import numpy as np


def as_planes(data) -> np.ndarray:
    """float64 (H, W, C) view of an (H, W) or (H, W, C) image."""
    arr = np.asarray(data, dtype=np.float64)
    return arr[:, :, None] if arr.ndim == 2 else arr


def dot3(a, b):
    """Dot product over the last axis of length 3, broadcasting the rest.

    Adds the three products left to right, as `np.sum(a * b, axis=-1)` does,
    and like it yields +0.0 for a sum of -0.0 terms, so the two agree bit for
    bit (dtypes too, under NumPy 2's promotion rules); it skips the generic
    reduction, which is several times slower.
    """
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    out += 0.0
    return out


def channel_major(arr) -> np.ndarray:
    """float64 copy of (H, W, C) `arr`, same shape, laid out one channel plane
    after another, so elementwise work on one channel reads contiguous rows."""
    return np.moveaxis(np.moveaxis(arr, -1, 0).astype(np.float64, order="C"), 0, -1)


def take3(v, flat) -> np.ndarray:
    """The 3-vectors of (..., 3) `v` at row-major indices `flat` over its
    leading axes, shape flat.shape + (3,), gathered one component plane at a
    time and laid out channel-major."""
    return np.moveaxis(np.stack([np.take(v[..., k], flat) for k in range(3)]), 0, -1)


def shifted(plane: np.ndarray, reach: int, fill=None):
    """Pad `plane` by `reach` pixels and return tap(dy, dx) -> (H, W, ...) view.

    The view at pixel (y, x) reads plane[y + dy, x + dx], clamped to the border
    (or `fill` outside it when given); |dy|, |dx| <= reach. Trailing channels
    are padded as one plane each (the layout of `channel_major`), which keeps
    broadcasting a weight over them fast.
    """
    h, w = plane.shape[:2]
    planes = np.moveaxis(plane, (0, 1), (-2, -1))
    widths = ((0, 0),) * (plane.ndim - 2) + ((reach, reach),) * 2
    if fill is None:
        padded = np.pad(planes, widths, mode="edge")
    else:
        padded = np.pad(planes, widths, mode="constant", constant_values=fill)
    padded = np.moveaxis(padded, (-2, -1), (0, 1))
    return lambda dy, dx: padded[reach + dy:reach + dy + h, reach + dx:reach + dx + w]


def inside(shape, reach: int):
    """tap(dy, dx) -> bool (H, W): whether pixel + (dy, dx) lies in the image."""
    return shifted(np.ones(shape, dtype=bool), reach, fill=False)


def gather(plane: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """plane[flat // W, flat % W] for row-major pixel indices `flat`: the
    pixels of (H, W) or (H, W, ...) `plane` at those indices, shaped
    flat.shape + plane.shape[2:]."""
    h, w = plane.shape[:2]
    return np.take(plane.reshape((h * w,) + plane.shape[2:]), flat, axis=0)


def bilinear_sample(planes, motion: np.ndarray, accept=None):
    """Bilinearly sample each plane at pixel + motion; returns (sums, wsum).

    Each of the four enclosing texels has its bilinear weight, or 0 where it
    lies outside the image or `accept(flat)` is false, where `flat` holds the
    texels' clamped row-major indices, to read planes with `gather`. `sums`
    holds each plane's weighted sum, unnormalized; `wsum` the weight total.
    """
    h, w = motion.shape[:2]
    px = np.arange(w)[None, :] + motion[:, :, 0].astype(np.float64)
    py = np.arange(h)[:, None] + motion[:, :, 1].astype(np.float64)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    sums = [np.zeros(p.shape) for p in planes]
    wsum = np.zeros((h, w))
    for dy in (0, 1):
        for dx in (0, 1):
            xt = x0 + dx
            yt = y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            ok = (xt >= 0) & (xt < w) & (yt >= 0) & (yt < h)
            flat = np.clip(yt, 0, h - 1) * w + np.clip(xt, 0, w - 1)
            if accept is not None:
                ok = ok & accept(flat)
            tw = weight * ok
            wsum += tw
            for s, p in zip(sums, planes):
                s += (tw[..., None] if p.ndim == 3 else tw) * gather(p, flat)
    return sums, wsum
