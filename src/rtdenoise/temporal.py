"""Temporal stage: backwards reprojection, accumulation and history rectification.

Per frame the stage (1) samples each channel's previous accumulated history
through the motion vectors with a per-tap geometry consistency test,
(2) optionally rectifies the history color against the statistics of the
current noisy neighborhood, (3) blends it with the current sample, and
(4) estimates per-pixel luminance variance, falling back to spatial moments
while the history is too short to trust. On the first frame there is
nothing to reproject: (1) and (2) are skipped, (3) gets no tap, and every
history starts at its sample, by the restart rule of a disoccluded pixel.
`temporal_frame` runs the channels of a frame together, on one
`TemporalHistory`: per-channel dicts of (H, W) or (H, W, C) planes and the
one history length they share. The work that
depends only on the G-buffer, (1)'s consistency tests, (3)'s blend weights
and new history length, and (4)'s short-history mask and window tests, is
done once for all channels; (2) runs per channel. `temporal_step` is its
one-channel case, which the pipeline does not call; it stays only because
`perfbench/spans.py` binds the name, whose probe records nothing while the
pipeline does not call it.

The spatial moments are computed only where they are kept, and not at all
once every foreground history is long, by one masked window loop
(`_spatial_variance`) that reads its 7x7 taps from one of two
`stencil.window` readers, each tap's one consistency mask serving every
channel's luminance, and allocates nothing per tap. Where the short-history
foreground fills at least a quarter of its bounding box
(`stencil.bounding_box`, grown by the window radius), the window covers
that box through planes padded once, and the loop runs over its row bands;
sparser masks, such as the disocclusions of a moving camera, gather the same
taps at the kept pixels alone, which per pixel costs several times as much.
Both readers clamp to the border alike, so both give the same bits.
The 3x3 box that bounds rectification has no mask (`_unmasked_box_moments`):
its loop adds zero-padded values and their squares into channel-major
accumulators and allocates nothing per tap, and its in-bounds count is a row
count times a column count. The reprojection uses the shared bilinear sampler of
`stencil`, which hands each enclosing texel's consistency test the texels'
flat row-major indices, where the test reads the depth, normal and object
id with `stencil.gather`; the sampler also renormalizes the passing texels'
weights, and the reprojection adds only the foreground mask and the
rounding of the history length.

Rectification runs on the reprojected color *before* the blend, and its
bounding box comes from the current frame's noisy channel; history length is
deliberately not reset when the box modifies a color, so the technique's
known failure mode (dropping low-probability paths) is reproduced rather
than patched.
"""

from __future__ import annotations

import numpy as np

from .frames import DenoiseConfig, GBufferFrame, TemporalHistory
from .stencil import (BAND, as_planes, bilinear_sample, bounding_box, channel_major, dot3,
                      gather, shifted, window)
from .tonemap import luma


def _consistency_center(curr_depth, curr_normal, curr_oid):
    """The current pixel's side of the geometry consistency test, prepared
    once for the many texels tested against it: (depth, the relative depth
    test's denominator, normal, object id), depth and normal in float64."""
    depth = np.asarray(curr_depth, dtype=np.float64)
    return (depth, np.maximum(np.abs(depth), 1e-8), np.asarray(curr_normal, dtype=np.float64),
            np.asarray(curr_oid))


def _consistent(prev_depth, prev_normal, prev_oid, center, cfg: DenoiseConfig, scratch=None):
    """Geometry agreement between previous-frame texels and the current
    pixels of a prepared `_consistency_center`, as scalars or broadcastable
    arrays: true iff the object ids match, the relative depth differs by
    less than `cfg.depth_consistency` and the normals' dot product exceeds
    `cfg.normal_consistency`. `scratch`, when given, is two bool and two
    float64 arrays of the result's shape; the result is written into the
    first, and the call allocates nothing."""
    depth, scale, normal, oid = center
    out, test, tmp, prod = scratch or (None,) * 4
    ok = np.equal(prev_oid, oid, out=out)
    with np.errstate(invalid="ignore"):  # the background's inf - inf
        rel = np.divide(np.abs(np.subtract(prev_depth, depth, out=tmp), out=tmp), scale, out=tmp)
        ok = np.logical_and(ok, np.less(rel, cfg.depth_consistency, out=test), out=out)
    ndot = dot3(np.asarray(prev_normal), normal, out=tmp, scratch=prod)
    return np.logical_and(ok, np.greater(ndot, cfg.normal_consistency, out=test), out=out)


_PLANES = ("color", "moment1", "moment2")  # a history's per-channel planes


def reproject(history: TemporalHistory, prev_gbuf: GBufferFrame, curr_gbuf: GBufferFrame,
              cfg: DenoiseConfig) -> dict:
    """Bilinearly sample the previous frame's history through the motion vectors.

    One sampling pass with one consistency test per texel serves every
    channel of the history. Each of the four enclosing texels is tested
    against the current pixel, and none is taken for a background pixel;
    the sampler renormalizes the bilinear weights of the passing texels.
    Returns arrays valid and history_len, and dicts color, moment1 and
    moment2 keyed like the history's channels.
    """
    center = _consistency_center(curr_gbuf.depth, curr_gbuf.normal, curr_gbuf.object_id)
    fg = curr_gbuf.foreground
    keys = list(history.color)

    def accept(flat):
        return _consistent(gather(prev_gbuf.depth, flat), gather(prev_gbuf.normal, flat),
                           gather(prev_gbuf.object_id, flat), center, cfg) & fg

    (*means, hist), valid = bilinear_sample(
        [getattr(history, name)[key] for key in keys for name in _PLANES]
        + [history.history_len], curr_gbuf.motion, accept=accept)
    hist_len = np.where(valid, np.maximum(1, np.floor(hist + 1e-9)), 0).astype(np.int32)
    return {"valid": valid, "history_len": hist_len,
            **{name: dict(zip(keys, means[i::len(_PLANES)])) for i, name in enumerate(_PLANES)}}


def _unmasked_box_moments(values, radius: int):
    """Mean and variance of (H, W, C) `values` over the in-bounds (2r+1)^2
    box of each pixel, each (H, W, C) in C order.

    A tap allocates nothing: it adds zero-padded values and their squares,
    computed once per call, into channel-major accumulators, and the
    in-bounds count is a row count times a column count. An out-of-bounds
    tap adds +0, where a masked window loop over `stencil.window`'s padded
    form adds 0 times the edge value, which is a signed zero; a sum that
    starts at +0 never becomes -0, so with an always-true mask the two agree
    bit for bit on finite values.

    It stays apart from the masked loop for speed alone. Routed through a
    masked loop over `stencil.window`'s padded form, `rectify_history` gave
    the same bits but took, min of 30 calls on a 2-vCPU Intel Xeon: 2.3 ms
    instead of 1.0-1.4 on a 128x128 one-plane box, 23.5-29.0 instead of
    15.7-22.5 on a 256x256 three-plane box, and 7.0-9.1 instead of 3.9-5.6
    on a 256x256 one-plane box even with preallocated scratch.
    """
    h, w = values.shape[:2]
    rows, cols = (np.minimum(np.arange(n), radius) + np.minimum(np.arange(n)[::-1], radius)
                  + 1.0 for n in (h, w))
    value_at = shifted(values, radius, fill=0.0)
    square_at = shifted(values * values, radius, fill=0.0)
    sum1, sum2 = channel_major(np.zeros(values.shape)), channel_major(np.zeros(values.shape))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            sum1 += value_at(dy, dx)
            sum2 += square_at(dy, dx)
    return _moments((rows[:, None] * cols)[..., None], sum1, sum2)


def _moments(count, sum1, sum2, out=None):
    """(mean, variance) from a count, a sum and a sum of squares, broadcast
    together; both C order, whatever the sums' layout, or written into
    `out`, a (mean, variance) pair of the sums' shape. `sum1` serves as
    scratch."""
    mean, var = out or (np.empty(sum1.shape), np.empty(sum2.shape))
    np.divide(sum1, count, out=mean)
    np.divide(sum2, count, out=var)
    var -= np.multiply(mean, mean, out=sum1)
    return mean, np.maximum(0.0, var, out=var)


def rectify_history(tap_color: np.ndarray, curr_channel: np.ndarray, gamma: float,
                    mode: str):
    """Constrain history colors to the current 3x3 statistical bounding box.

    clamp: componentwise projection into [mu - gamma*sigma, mu + gamma*sigma].
    clip: move along the segment from mu towards the color until it enters
    the box, preserving the deviation direction.

    Returns (rectified, mu, sigma); mu/sigma are exposed so callers can assert
    the containment property.
    """
    tap = as_planes(tap_color)
    mu, var = _unmasked_box_moments(as_planes(curr_channel), 1)
    sigma = np.sqrt(var)
    half = gamma * sigma
    if mode == "clamp":
        rect = np.clip(tap, mu - half, mu + half)
    elif mode == "clip":
        dev = tap - mu
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.abs(dev) > 0.0, np.abs(dev) / half, 0.0)
        # a zero-extent box along a deviating axis collapses onto the mean
        scale = 1.0 / np.maximum(ratio.max(axis=2), 1.0)
        rect = mu + scale[..., None] * dev
    else:
        raise ValueError(f"unknown rectification mode {mode!r}")
    return rect, mu, sigma


def rectify_moments(m1: np.ndarray, m2: np.ndarray, rect_luma: np.ndarray):
    """Pull stored moments halfway toward the rectified color's luminance.

    Keeps moment2 >= moment1^2 whenever the inputs satisfied it.
    """
    new_m1 = 0.5 * (m1 + rect_luma)
    new_m2 = 0.5 * (m2 + rect_luma * rect_luma)
    return new_m1, new_m2


def accumulate(curr: dict, curr_luma: dict, tap: dict | None,
               cfg: DenoiseConfig) -> TemporalHistory:
    """Exponential blend of each channel's current sample into the reprojected
    history.

    `curr` maps a key to a channel, (H, W) or (H, W, C), and `curr_luma` to
    its (H, W) luminance; `tap` is a `reproject` result with the same keys,
    or None on the first frame. The blend weights and the new history length
    follow the shared length, so they are computed once for every channel.
    While the history is short the blend degenerates to a plain running mean
    (a = max(alpha, 1/(N+1)), with `cfg.alpha` for the color and
    `cfg.moments_alpha` for the moments); invalid taps restart the history
    at length 1, and it never grows past `cfg.history_cap`. With no tap
    every pixel restarts: each history starts at its sample, as float64
    planes, with the luminance and its square as moments and length 1.
    """
    if tap is None:
        return TemporalHistory(
            color={key: as_planes(value).copy() for key, value in curr.items()},
            moment1={key: lum.copy() for key, lum in curr_luma.items()},
            moment2={key: lum**2 for key, lum in curr_luma.items()},
            history_len=np.ones(next(iter(curr_luma.values())).shape, dtype=np.int32))
    valid = tap["valid"]
    n = tap["history_len"].astype(np.float64)
    a = np.maximum(cfg.alpha, 1.0 / (n + 1.0))[..., None]
    am = np.maximum(cfg.moments_alpha, 1.0 / (n + 1.0))
    color, m1, m2 = {}, {}, {}
    for key, value in curr.items():
        c, lum = as_planes(value), curr_luma[key]
        tc, t1, t2 = tap["color"][key], tap["moment1"][key], tap["moment2"][key]
        color[key] = np.where(valid[..., None], tc + a * (c - tc), c)
        m1[key] = np.where(valid, t1 + am * (lum - t1), lum)
        m2[key] = np.where(valid, t2 + am * (lum**2 - t2), lum**2)
    length = np.where(valid, np.minimum(tap["history_len"] + 1, cfg.history_cap), 1)
    return TemporalHistory(color=color, moment1=m1, moment2=m2,
                           history_len=length.astype(np.int32))


_SPATIAL_RADIUS = 3  # of the spatial variance's 7x7 window


def estimate_variance(history: TemporalHistory, curr_luma: dict, curr_gbuf: GBufferFrame,
                      min_history: int, cfg: DenoiseConfig) -> dict:
    """Per-pixel luminance variance of each channel of a frame: `curr_luma`
    maps a key of the history's channels to its (H, W) luminance, and the
    result maps it to its (H, W) variance.

    Temporal (moment2 - moment1^2) once at least `min_history` frames have
    been integrated; otherwise spatial moments of the current luminance over
    the 7x7 neighborhood restricted to in-bounds, geometry-consistent pixels.
    The channels share the short-history mask and the window's consistency
    tests. The spatial moments are computed only where they are kept, over
    one of two `stencil.window` forms with the same bits. The padded form,
    run in row bands (`_spatial_variance`), covers the bounding box of
    the short-history foreground, grown by the window radius and clamped to
    the image, so each kept pixel sees its whole neighborhood and the true
    image border. Where the kept pixels fill less than a quarter of that box, the
    gathered form reads the window at the kept pixels alone; per pixel it
    costs several times the padded form, so a dense mask keeps the box.
    Background pixels get 0, which is what their +inf depth gives them,
    since it fails every consistency test.
    """
    short = history.history_len < min_history
    keep = short & curr_gbuf.foreground
    variance = {key: np.where(short, 0.0, np.maximum(
        0.0, history.moment2[key] - history.moment1[key]**2)) for key in curr_luma}
    box = bounding_box(keep, _SPATIAL_RADIUS)
    if box is None:
        return variance
    rows, cols = box
    lumas = list(curr_luma.values())
    if 4 * np.count_nonzero(keep) < (rows.stop - rows.start) * (cols.stop - cols.start):
        # the full C-order planes, which `gather` reads without a copy
        kept = np.flatnonzero(keep)
        tap = window([curr_gbuf.depth, curr_gbuf.normal, curr_gbuf.object_id, *lumas],
                     _SPATIAL_RADIUS, at=kept)
        for var, spatial in zip(variance.values(), _spatial_variance(tap, kept.shape, cfg)):
            np.put(var, kept, spatial)
    else:
        tap = window([curr_gbuf.depth[box].astype(np.float64),
                      channel_major(curr_gbuf.normal[box]), curr_gbuf.object_id[box],
                      *(lum[box] for lum in lumas)], _SPATIAL_RADIUS)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        for var, spatial in zip(variance.values(), _spatial_variance(tap, shape, cfg)):
            var[box] = np.where(keep[box], spatial, var[box])
    return variance


def _spatial_variance(tap, shape, cfg: DenoiseConfig):
    """Each luminance's variance over the window of `tap`, a `stencil.window`
    over (depth, normal, object id, *luminances) that covers pixels of
    `shape`: (H, W) for the padded form, (n,) for the gathered one. A tap
    counts where it lies in the image and passes the consistency test
    against the window's center; one test per tap serves every luminance,
    and the count is clamped at 1. Returns a list of variances, one per
    luminance, each of `shape`.

    The padded form runs over row bands of at most `BAND` pixels, each band
    taking every tap in turn, so that a tap's test and sums stay in cache;
    the gathered form, whose taps gather at every pixel, runs as one band.
    The band scratch is allocated once per call, so a tap allocates nothing
    but the gathered form's gathers."""
    _inside, (depth, normal, oid, *lumas) = tap(0, 0)
    center = _consistency_center(depth, normal, oid)
    variances = [np.empty(shape) for _lum in lumas]
    rows = max(1, min(shape[0], BAND // shape[1])) if len(shape) == 2 else shape[0]
    band_shape = (rows,) + tuple(shape[1:])
    bools = [np.empty(band_shape, dtype=bool) for _ in range(2)]
    floats = [np.empty(band_shape) for _ in range(3 + 2 * len(lumas))]
    for r0 in range(0, shape[0], rows):
        band = slice(r0, min(r0 + rows, shape[0]))
        hb = band.stop - r0
        ok, test, tmp, prod, count, *sums = (b[:hb] for b in bools + floats)
        center_b = tuple(c[band] for c in center)
        for buf in (count, *sums):
            buf.fill(0.0)
        for dy in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
            for dx in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
                inside, (t_depth, t_normal, t_oid, *t_lumas) = tap(dy, dx)
                _consistent(t_depth[band], t_normal[band], t_oid[band], center_b, cfg,
                            (ok, test, tmp, prod))
                ok &= inside[band]
                count += ok
                for lum, s1, s2 in zip(t_lumas, sums[::2], sums[1::2]):
                    lum = lum[band]
                    okv = np.multiply(ok, lum, out=tmp)
                    s1 += okv
                    s2 += np.multiply(okv, lum, out=okv)
        np.maximum(count, 1.0, out=count)
        for var, s1, s2 in zip(variances, sums[::2], sums[1::2]):
            _moments(count, s1, s2, out=(tmp, var[band]))
    return variances


def temporal_frame(curr_data: dict, curr_gbuf: GBufferFrame, prev: TemporalHistory | None,
                   prev_gbuf: GBufferFrame | None, cfg: DenoiseConfig):
    """One full temporal update of a frame.

    `curr_data` maps a key to a channel, (H, W) or (H, W, C); `prev` is the
    previous frame's history with the same keys, or None on the first frame,
    where nothing is reprojected or rectified and `accumulate` gets no tap.
    The work that follows the G-buffer alone runs once for all channels: one
    `reproject` with one consistency test per texel, one set of blend weights
    and one new history length in `accumulate`, and one `estimate_variance`
    with one short-history mask and one set of window tests. Rectification,
    which bounds one channel's planes jointly, runs per channel. Returns
    (history, variances), the variances a dict of (H, W) planes keyed like
    `curr_data`.
    """
    tap = None if prev is None or prev_gbuf is None else reproject(prev, prev_gbuf, curr_gbuf, cfg)
    if tap is not None and cfg.rectify_mode != "off" and np.any(tap["valid"]):
        # accumulate reads a tap only where it is valid, so the rest need no mask
        for key, data in curr_data.items():
            rect, _mu, _sigma = rectify_history(tap["color"][key], data, cfg.clamp_gamma,
                                                cfg.rectify_mode)
            tap["color"][key] = rect
            tap["moment1"][key], tap["moment2"][key] = rectify_moments(
                tap["moment1"][key], tap["moment2"][key], luma(rect))
    lumas = {key: luma(data) for key, data in curr_data.items()}
    history = accumulate(curr_data, lumas, tap, cfg)
    return history, estimate_variance(history, lumas, curr_gbuf,
                                      cfg.spatial_variance_min_history, cfg)


def temporal_step(curr_data: np.ndarray, curr_gbuf: GBufferFrame,
                  prev: TemporalHistory | None, prev_gbuf: GBufferFrame | None,
                  cfg: DenoiseConfig):
    """One full temporal update of one channel: `temporal_frame` of a frame
    whose one channel is keyed 0; returns (history, variance). The pipeline
    calls `temporal_frame`; this stays only because `perfbench/spans.py`
    binds the name, whose probe records nothing while the pipeline does not
    call it."""
    history, variance = temporal_frame({0: curr_data}, curr_gbuf, prev, prev_gbuf, cfg)
    return history, variance[0]
