"""Temporal stage: backwards reprojection, accumulation and history rectification.

Per frame the stage (1) samples each channel's previous accumulated history
through the motion vectors with a per-tap geometry consistency test,
(2) optionally rectifies the history color against the statistics of the
current noisy neighborhood, (3) blends it with the current sample, and
(4) estimates per-pixel luminance variance, falling back to spatial moments
while the history is too short to trust. `temporal_frame` runs the channels
of a frame together, on one `TemporalHistory`: per-channel dicts of (H, W)
or (H, W, C) planes and the one history length they share. The work that
depends only on the G-buffer, (1)'s consistency tests, (3)'s blend weights
and new history length, and (4)'s short-history mask and window tests, is
done once for all channels; (2) runs per channel. `temporal_step` is its
one-channel case, which the pipeline does not call; it stays only because
`perfbench/spans.py` binds the name, whose probe records nothing while the
pipeline does not call it. The spatial moments are computed only where they
are kept, and not at all once every foreground history is long. Where the
short-history foreground fills at least a quarter of its bounding box
(`stencil.bounding_box`, grown by the window radius), they come from the box
form: the 7x7 geometry-restricted window over that box, one masked box loop
(`_box_moments`) that reads its taps as slices of edge-padded planes, with a
zero-padded mask counting in-bounds taps and one mask per tap serving every
channel's luminance. Sparser masks, such as the disocclusions of a moving
camera, take the gathered form: the same taps, in the same order and with
the same consistency tests, read at the kept pixels' flat indices. Both
forms give the same bits; the rule follows the mask, since per pixel the
gathered form costs several times the box form. The 3x3 box that bounds
rectification has no mask (`_unmasked_box_moments`): its loop adds
zero-padded values and their squares into channel-major accumulators and
allocates nothing per tap, and its in-bounds count is a row count times a
column count. The reprojection uses the shared bilinear sampler of
`stencil`, which hands each enclosing texel's consistency test the texels'
flat row-major indices; the test (`_consistent_at`) reads the depth, normal
and object id at them with `stencil.gather`, one `np.take` per plane
instead of 2-D fancy indexing, and so does the gathered spatial variance.
The sampler also renormalizes the passing texels' weights; the reprojection
adds only the foreground mask and the rounding of the history length.

Rectification runs on the reprojected color *before* the blend, and its
bounding box comes from the current frame's noisy channel; history length is
deliberately not reset when the box modifies a color, so the technique's
known failure mode (dropping low-probability paths) is reproduced rather
than patched.
"""

from __future__ import annotations

import numpy as np

from .frames import DenoiseConfig, GBufferFrame, TemporalHistory
from .stencil import (as_planes, bilinear_sample, bounding_box, channel_major, dot3, gather,
                      inside, shifted)
from .tonemap import luma


def _consistency_center(curr_depth, curr_normal, curr_oid):
    """The current pixel's side of the geometry consistency test, prepared
    once for the many texels tested against it: (depth, the relative depth
    test's denominator, normal, object id), depth and normal in float64."""
    depth = np.asarray(curr_depth, dtype=np.float64)
    return (depth, np.maximum(np.abs(depth), 1e-8), np.asarray(curr_normal, dtype=np.float64),
            np.asarray(curr_oid))


def _consistent(prev_depth, prev_normal, prev_oid, center, depth_threshold,
                normal_threshold):
    """Geometry agreement between previous-frame texels and the current
    pixels of a prepared `_consistency_center`, as scalars or broadcastable
    arrays: true iff the object ids match, the relative depth differs by
    less than `depth_threshold` and the normals' dot product exceeds
    `normal_threshold`."""
    depth, scale, normal, oid = center
    id_ok = np.asarray(prev_oid) == oid
    with np.errstate(invalid="ignore"):
        rel = np.abs(np.asarray(prev_depth, dtype=np.float64) - depth) / scale
        depth_ok = rel < depth_threshold
    ndot = dot3(np.asarray(prev_normal, dtype=np.float64), normal)
    return id_ok & depth_ok & (ndot > normal_threshold)


def _consistent_at(gbuf: GBufferFrame, flat, center, cfg: DenoiseConfig):
    """`_consistent` of `gbuf`'s texels at the row-major pixel indices `flat`,
    each plane read with `stencil.gather`."""
    return _consistent(gather(gbuf.depth, flat), gather(gbuf.normal, flat),
                       gather(gbuf.object_id, flat), center, cfg.depth_consistency,
                       cfg.normal_consistency)


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
    planes = (history.color, history.moment1, history.moment2)
    (*means, hist), valid = bilinear_sample(
        [plane[key] for key in keys for plane in planes] + [history.history_len],
        curr_gbuf.motion, accept=lambda flat: _consistent_at(prev_gbuf, flat, center, cfg) & fg)
    hist_len = np.where(valid, np.maximum(1, np.floor(hist + 1e-9)), 0).astype(np.int32)
    return {"valid": valid, "history_len": hist_len,
            **{name: dict(zip(keys, means[i::3]))
               for i, name in enumerate(("color", "moment1", "moment2"))}}


def _box_moments(planes, radius: int, accept):
    """Masked mean and variance over the in-bounds (2r+1)^2 box of each pixel.

    `planes` is a list of (H, W) arrays, each summed in its own accumulators.
    A tap counts where it lies inside the image and `accept(dy, dx)` (bool
    (H, W)) holds, one mask for every array; the count is clamped at 1.
    Returns one (mean, variance) per array, each (H, W).
    """
    h, w = planes[0].shape
    vals_at = [shifted(values, radius) for values in planes]
    inb_at = inside((h, w), radius)
    s0 = np.zeros((h, w))
    s1 = [np.zeros((h, w)) for _values in planes]
    s2 = [np.zeros((h, w)) for _values in planes]
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            ok = inb_at(dy, dx) & accept(dy, dx)
            s0 += ok
            for tap, t1, t2 in zip(vals_at, s1, s2):
                vals = tap(dy, dx)
                okv = ok * vals
                t1 += okv
                t2 += okv * vals
    s0 = np.maximum(s0, 1.0)
    return [_moments(s0, t1, t2) for t1, t2 in zip(s1, s2)]


def _unmasked_box_moments(values, radius: int):
    """Mean and variance of (H, W, C) `values` over the in-bounds (2r+1)^2
    box of each pixel, each (H, W, C) in C order.

    A tap allocates nothing: it adds zero-padded values and their squares,
    computed once per call, into channel-major accumulators, and the
    in-bounds count is a row count times a column count. An out-of-bounds
    tap adds +0, where `_box_moments` adds 0 times the edge value, which is
    a signed zero; a sum that starts at +0 never becomes -0, so with an
    always-true mask the two agree bit for bit on finite values.
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


def _moments(count, sum1, sum2):
    """(mean, variance) from a count, a sum and a sum of squares, broadcast
    together; both C order, whatever the sums' layout. `sum1` serves as
    scratch."""
    mean = np.divide(sum1, count, out=np.empty(sum1.shape))
    var = np.divide(sum2, count, out=np.empty(sum2.shape))
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


def accumulate(curr: dict, curr_luma: dict, tap: dict, alpha: float, moments_alpha: float,
               cap: int = DenoiseConfig.history_cap) -> TemporalHistory:
    """Exponential blend of each channel's current sample into the reprojected
    history.

    `curr` maps a key to a channel, (H, W) or (H, W, C), and `curr_luma` to
    its (H, W) luminance; `tap` is a `reproject` result with the same keys.
    The blend weights and the new history length follow the shared length,
    so they are computed once for every channel. While the history is short
    the blend degenerates to a plain running mean (a = max(alpha, 1/(N+1)));
    invalid taps restart the history at length 1.
    """
    valid = tap["valid"]
    n = tap["history_len"].astype(np.float64)
    a = np.maximum(alpha, 1.0 / (n + 1.0))[..., None]
    am = np.maximum(moments_alpha, 1.0 / (n + 1.0))
    color, m1, m2 = {}, {}, {}
    for key, value in curr.items():
        c, lum = as_planes(value), curr_luma[key]
        tc, t1, t2 = tap["color"][key], tap["moment1"][key], tap["moment2"][key]
        color[key] = np.where(valid[..., None], tc + a * (c - tc), c)
        m1[key] = np.where(valid, t1 + am * (lum - t1), lum)
        m2[key] = np.where(valid, t2 + am * (lum**2 - t2), lum**2)
    length = np.where(valid, np.minimum(tap["history_len"] + 1, cap), 1).astype(np.int32)
    return TemporalHistory(color=color, moment1=m1, moment2=m2, history_len=length)


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
    tests. The spatial moments are computed only where they are kept, in one
    of two forms with the same bits. The box form (`_spatial_variance`)
    filters the bounding box of the short-history foreground, grown by the
    window radius and clamped to the image, so each kept pixel sees its whole
    neighborhood and the true image border. Where the kept pixels fill less
    than a quarter of that box, the gathered form (`_gathered_variance`)
    reads the window at the kept pixels alone; per pixel it costs several
    times the box form, so a dense mask keeps the box. Background pixels get
    0, which is what their +inf depth gives them, since it fails every
    consistency test.
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
        kept = np.flatnonzero(keep)
        at = np.divmod(kept, keep.shape[1])
        for var, spatial in zip(variance.values(),
                                _gathered_variance(lumas, curr_gbuf, kept, cfg)):
            var[at] = spatial
    else:
        for var, spatial in zip(variance.values(), _spatial_variance(
                [lum[box] for lum in lumas], curr_gbuf.depth[box], curr_gbuf.normal[box],
                curr_gbuf.object_id[box], cfg)):
            var[box] = np.where(keep[box], spatial, var[box])
    return variance


def _spatial_variance(lumas, depth, normal, oid, cfg: DenoiseConfig):
    """Each (H, W) luminance's variance over each pixel's 7x7 window of
    in-bounds pixels that pass the consistency test against it; one test per
    tap serves every luminance. Returns a list of (H, W) variances."""
    depth = depth.astype(np.float64)
    normal = channel_major(normal)
    depth_at, normal_at, oid_at = (shifted(p, _SPATIAL_RADIUS) for p in (depth, normal, oid))
    center = _consistency_center(depth, normal, oid)

    def consistent(dy, dx):
        return _consistent(depth_at(dy, dx), normal_at(dy, dx), oid_at(dy, dx), center,
                           cfg.depth_consistency, cfg.normal_consistency)

    return [var for _mean, var in _box_moments(lumas, _SPATIAL_RADIUS, accept=consistent)]


def _gathered_variance(lumas, gbuf: GBufferFrame, kept, cfg: DenoiseConfig):
    """`_spatial_variance` of each (H, W) luminance at the row-major pixel
    indices `kept` alone, a list of (len(kept),) variances: each tap of the
    window, in the same order, gathers the planes at the kept pixels'
    neighbours clamped to the image, and counts where the neighbour lies
    inside it and passes the same consistency test."""
    h, w = gbuf.depth.shape
    center = _consistency_center(gather(gbuf.depth, kept), gather(gbuf.normal, kept),
                                 gather(gbuf.object_id, kept))
    y, x = np.divmod(kept, w)
    s0 = np.zeros(kept.shape)
    s1 = [np.zeros(kept.shape) for _lum in lumas]
    s2 = [np.zeros(kept.shape) for _lum in lumas]
    for dy in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
        ty = y + dy
        row_ok = (ty >= 0) & (ty < h)
        row = np.clip(ty, 0, h - 1) * w
        for dx in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
            tx = x + dx
            flat = row + np.clip(tx, 0, w - 1)
            ok = row_ok & (tx >= 0) & (tx < w) & _consistent_at(gbuf, flat, center, cfg)
            s0 += ok
            for lum, t1, t2 in zip(lumas, s1, s2):
                vals = gather(lum, flat)
                okv = ok * vals
                t1 += okv
                t2 += okv * vals
    count = np.maximum(s0, 1.0)
    return [_moments(count, t1, t2)[1] for t1, t2 in zip(s1, s2)]


def temporal_frame(curr_data: dict, curr_gbuf: GBufferFrame, prev: TemporalHistory | None,
                   prev_gbuf: GBufferFrame | None, cfg: DenoiseConfig):
    """One full temporal update of a frame.

    `curr_data` maps a key to a channel, (H, W) or (H, W, C); `prev` is the
    previous frame's history with the same keys, or None on the first frame.
    The work that follows the G-buffer alone runs once for all channels: one
    `reproject` with one consistency test per texel, one set of blend weights
    and one new history length in `accumulate`, and one `estimate_variance`
    with one short-history mask and one set of window tests. Rectification,
    which bounds one channel's planes jointly, runs per channel. Returns
    (history, variances), the variances a dict of (H, W) planes keyed like
    `curr_data`.
    """
    if prev is None or prev_gbuf is None:
        zero = np.zeros(curr_gbuf.depth.shape)
        tap = {"valid": zero.astype(bool), "history_len": zero.astype(np.int32),
               "color": {key: np.zeros(as_planes(data).shape) for key, data in curr_data.items()},
               "moment1": dict.fromkeys(curr_data, zero),
               "moment2": dict.fromkeys(curr_data, zero)}
    else:
        tap = reproject(prev, prev_gbuf, curr_gbuf, cfg)
    if cfg.rectify_mode != "off" and np.any(tap["valid"]):
        # accumulate reads a tap only where it is valid, so the rest need no mask
        for key, data in curr_data.items():
            rect, _mu, _sigma = rectify_history(tap["color"][key], data, cfg.clamp_gamma,
                                                cfg.rectify_mode)
            tap["color"][key] = rect
            tap["moment1"][key], tap["moment2"][key] = rectify_moments(
                tap["moment1"][key], tap["moment2"][key], luma(rect))
    lumas = {key: luma(data) for key, data in curr_data.items()}
    history = accumulate(curr_data, lumas, tap, cfg.alpha, cfg.moments_alpha, cap=cfg.history_cap)
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
