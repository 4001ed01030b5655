"""Neighborhood access shared by the temporal, spatial and composition passes.

`shifted` serves every fixed-offset loop: a plane is padded once per pass,
with its edge values (which is exactly clamp-to-border indexing) or with a
constant, and each tap is a slice view of the padded plane. `clamped` is the
one clamp-to-border rule for pixels read by index: it turns a (row, column)
into one flat row-major index and says whether it lies in the image, and
`gather`, an `np.take` over a plane's pixels, reads the plane there at a
fraction of the cost of 2-D fancy indexing `plane[yc, xc]`, with the same
values. `window` hands a masked window loop its taps as (inside, values), in
one of two forms with the same values: over every pixel, as views of planes
padded once by `shifted`, or at given pixels alone, `gather`ed at the
`clamped` neighbours. `bilinear_sample` is the one reprojection footprint,
of the temporal filter and of the TAA, whose offsets differ per pixel: it
reads each enclosing texel at its `clamped` index with `gather`. It returns
each plane's mean over the accepted texels and where that mean is valid (a
weight total above 1e-8), 0 elsewhere. `bounding_box` crops a pass to the
pixels it keeps. `dot3` is the one dot product of 3-vectors, for normals and
directions, and `length` and `normalize` are built on it, for the scene's
camera and the renderer's rays alike. `take3` compacts 3-vectors to flat
indices one component plane at a time, and `put3` scatters them back, for
the renderer's and the env map's ray lists.
"""

from __future__ import annotations

import numpy as np


def as_planes(data) -> np.ndarray:
    """float64 (H, W, C) view of an (H, W) or (H, W, C) image."""
    arr = np.asarray(data, dtype=np.float64)
    return arr[:, :, None] if arr.ndim == 2 else arr


def dot3(a, b, out=None, scratch=None):
    """Dot product over the last axis of length 3, broadcasting the rest.

    Adds the three products left to right, as `np.sum(a * b, axis=-1)` does,
    and like it yields +0.0 for a sum of -0.0 terms, so the two agree bit for
    bit (dtypes too, under NumPy 2's promotion rules); it skips the generic
    reduction, which is several times slower. `out`, when given, is an array
    of the result's shape that receives the sum and is returned; the first
    product is written straight into it. `scratch`, another such array,
    receives the second and third products, so a loop that reuses both
    buffers allocates nothing per call.
    """
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    out += np.multiply(a[..., 1], b[..., 1], out=scratch)
    out += np.multiply(a[..., 2], b[..., 2], out=scratch)
    out += 0.0
    return out


def length(v: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, bit for bit `np.linalg.norm(v,
    axis=-1)` (the square root of the left-to-right sum of squares)."""
    return np.sqrt(dot3(v, v))


def normalize(v: np.ndarray) -> np.ndarray:
    return v / np.maximum(length(v)[..., None], 1e-12)


def channel_major(arr) -> np.ndarray:
    """float64 copy of (H, W, C) `arr`, same shape, laid out one channel plane
    after another, so elementwise work on one channel reads contiguous rows."""
    return np.moveaxis(np.moveaxis(arr, -1, 0).astype(np.float64, order="C"), 0, -1)


def take3(v, flat) -> np.ndarray:
    """The 3-vectors of (..., 3) `v` at row-major indices `flat` over its
    leading axes, shape flat.shape + (3,), gathered one component plane at a
    time and laid out channel-major."""
    return np.moveaxis(np.stack([np.take(v[..., k], flat) for k in range(3)]), 0, -1)


def put3(dst, flat, src) -> None:
    """dst[flat] = src for 3-vectors, the twin of `take3`, written one
    component plane at a time. `dst` is flat (n, 3) or channel-major (see
    `channel_major`): on a C-order (H, W, 3) array `dst[..., k].reshape(-1)`
    is a copy, and the write would be lost."""
    for k in range(3):
        dst[..., k].reshape(-1)[flat] = src[..., k]


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


def gather(plane: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """plane[flat // W, flat % W] for row-major pixel indices `flat`: the
    pixels of (H, W) or (H, W, ...) `plane` at those indices, shaped
    flat.shape + plane.shape[2:]."""
    h, w = plane.shape[:2]
    return np.take(plane.reshape((h * w,) + plane.shape[2:]), flat, axis=0)


def clamped(shape, ys, xs):
    """(flat, inside) of the pixels at rows `ys` and columns `xs`, arrays of
    one shape, of an image of (H, W) `shape`: each pixel's row-major index
    with its row and column clamped to the border, and whether it lies in
    the image."""
    h, w = shape[:2]
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    return np.clip(ys, 0, h - 1) * w + np.clip(xs, 0, w - 1), inside


def window(planes, reach: int, at=None):
    """tap(dy, dx) -> (inside, values) over a window of `planes`, each (H, W)
    or (H, W, ...): whether pixel + (dy, dx) lies in the image, and each
    plane read there clamped to the border; |dy|, |dx| <= reach.

    With no `at`, a tap covers every pixel: `inside` is (H, W) and each value
    a view of the plane padded once (`shifted`). With `at`, row-major pixel
    indices, a tap covers those pixels alone, each plane read with `gather`
    at the `clamped` neighbours, so `inside` has the shape of `at`. Both
    forms read the same values.
    """
    h, w = planes[0].shape[:2]
    if at is None:
        inside = shifted(np.ones((h, w), dtype=bool), reach, fill=False)
        taps = [shifted(plane, reach) for plane in planes]
        return lambda dy, dx: (inside(dy, dx), [tap(dy, dx) for tap in taps])
    y, x = np.divmod(at, w)

    def tap(dy, dx):
        flat, inside = clamped((h, w), y + dy, x + dx)
        return inside, [gather(plane, flat) for plane in planes]

    return tap


def bilinear_sample(planes, motion: np.ndarray, accept=None):
    """Bilinearly sample each plane at pixel + motion; returns (means, valid).

    Each of the four enclosing texels has its bilinear weight, or 0 where it
    lies outside the image or `accept(flat)` is false, where `flat` holds the
    texels' `clamped` row-major indices, to read planes with `gather`. `valid`
    marks the pixels whose weight total exceeds 1e-8; there each mean is the
    plane's weighted sum over that total, elsewhere it is 0. Any finite
    motion is taken: a position outside [-1, W] x [-1, H] reads as the
    nearest point of that range, where no texel inside the image has a
    nonzero weight either.
    """
    h, w = motion.shape[:2]
    px = np.arange(w)[None, :] + motion[:, :, 0].astype(np.float64)
    py = np.arange(h)[:, None] + motion[:, :, 1].astype(np.float64)
    # clipped, any finite position floors to an int64
    np.clip(px, -1.0, w, out=px)
    np.clip(py, -1.0, h, out=py)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    sums = [np.zeros(p.shape) for p in planes]
    wsum = np.zeros((h, w))
    for dy in (0, 1):
        for dx in (0, 1):
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            flat, ok = clamped((h, w), y0 + dy, x0 + dx)
            if accept is not None:
                ok = ok & accept(flat)
            tw = weight * ok
            wsum += tw
            for s, p in zip(sums, planes):
                s += (tw[..., None] if p.ndim == 3 else tw) * gather(p, flat)
    valid = wsum > 1e-8
    norm = np.where(valid, wsum, 1.0)
    means = [np.where(valid[..., None], s / norm[..., None], 0.0) if s.ndim == 3
             else np.where(valid, s / norm, 0.0) for s in sums]
    return means, valid


def bounding_box(mask: np.ndarray, margin: int = 0):
    """(rows, columns) slices of the pixels where (H, W) `mask` is true,
    grown by `margin` and clamped to the image; None when none is."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    h, w = mask.shape
    return (slice(max(rows[0] - margin, 0), min(rows[-1] + margin + 1, h)),
            slice(max(cols[0] - margin, 0), min(cols[-1] + margin + 1, w)))
