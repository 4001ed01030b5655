"""Temporal stage: backwards reprojection, accumulation and history rectification.

Per frame the stage (1) samples each channel's previous accumulated history
through the motion vectors with a per-tap geometry consistency test,
(2) optionally rectifies the history color against the statistics of the
current noisy neighborhood, (3) blends it with the current sample, and
(4) estimates per-pixel luminance variance, falling back to spatial moments
while the history is too short to trust. `temporal_frame` runs the channels
of a frame together: the work that depends only on the G-buffer, (1)'s
consistency tests and (4)'s short-history mask and window tests, is done
once for all of them, so `reproject` takes a list of histories and
`estimate_variance` the channels stacked along a last axis; (2) and (3) run
per channel. `temporal_step` is its one-channel case, which the pipeline
does not call; it stays as a named entry point for perfbench's per-layer
probes. The spatial moments are computed only where they are kept, and
not at all once every foreground history is long. Where the short-history
foreground fills at least a quarter of its bounding box
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
flat row-major indices; the test reads the previous depth, normal and
object id at them with `stencil.gather`, one `np.take` per plane instead
of 2-D fancy indexing. The sampler also renormalizes the passing texels'
weights; the reprojection adds only the foreground mask and the rounding of
the history length.

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


def consistency_test(prev_depth, prev_normal, prev_oid, curr_depth, curr_normal,
                     curr_oid):
    """Geometry agreement between a previous-frame texel and a current pixel.

    Accepts scalars or broadcastable arrays; true iff the object ids match,
    relative depth differs by less than the default `depth_consistency` and
    the normals agree beyond the default `normal_consistency` of
    `DenoiseConfig`.
    """
    return _consistent(prev_depth, prev_normal, prev_oid,
                       _consistency_center(curr_depth, curr_normal, curr_oid),
                       DenoiseConfig.depth_consistency, DenoiseConfig.normal_consistency)


def _consistency_center(curr_depth, curr_normal, curr_oid):
    """The current pixel's side of `consistency_test`, prepared once for the
    many texels tested against it: (depth, the relative depth test's
    denominator, normal, object id), depth and normal in float64."""
    depth = np.asarray(curr_depth, dtype=np.float64)
    return (depth, np.maximum(np.abs(depth), 1e-8), np.asarray(curr_normal, dtype=np.float64),
            np.asarray(curr_oid))


def _consistent(prev_depth, prev_normal, prev_oid, center, depth_threshold,
                normal_threshold):
    """`consistency_test` against a prepared `_consistency_center`."""
    depth, scale, normal, oid = center
    id_ok = np.asarray(prev_oid) == oid
    with np.errstate(invalid="ignore"):
        rel = np.abs(np.asarray(prev_depth, dtype=np.float64) - depth) / scale
        depth_ok = rel < depth_threshold
    ndot = dot3(np.asarray(prev_normal, dtype=np.float64), normal)
    return id_ok & depth_ok & (ndot > normal_threshold)


def reproject(histories, prev_gbuf: GBufferFrame, curr_gbuf: GBufferFrame,
              cfg: DenoiseConfig) -> dict:
    """Bilinearly sample the previous histories through the motion vectors.

    `histories` is a list of `TemporalHistory` that share the history
    length, such as the channels of one frame: one sampling pass with one
    consistency test per texel serves them all. Each of the four enclosing
    texels is tested against the current pixel, and none is taken for a
    background pixel; the sampler renormalizes the bilinear weights of the
    passing texels. Returns arrays valid and history_len, and lists color,
    moment1 and moment2 with one array per history.
    """
    center = _consistency_center(curr_gbuf.depth, curr_gbuf.normal, curr_gbuf.object_id)
    fg = curr_gbuf.foreground

    def consistent(flat):
        return _consistent(
            gather(prev_gbuf.depth, flat), gather(prev_gbuf.normal, flat),
            gather(prev_gbuf.object_id, flat), center,
            cfg.depth_consistency, cfg.normal_consistency) & fg

    (*means, hist), valid = bilinear_sample(
        [a for h in histories for a in (h.color, h.moment1, h.moment2)]
        + [histories[0].history_len], curr_gbuf.motion, accept=consistent)
    hist_len = np.where(valid, np.maximum(1, np.floor(hist + 1e-9)), 0).astype(np.int32)
    return {"valid": valid, "color": means[0::3], "moment1": means[1::3],
            "moment2": means[2::3], "history_len": hist_len}


def _box_moments(planes, radius: int, accept):
    """Masked mean and variance over the in-bounds (2r+1)^2 box of each pixel.

    `planes` is a list of (H, W, C) arrays, each summed in its own
    accumulators. A tap counts where it lies inside the image and
    `accept(dy, dx)` (bool (H, W)) holds, one mask for every array; the
    count is clamped at 1. Returns one (mean, variance) per array, each
    (H, W, C) in C order.
    """
    h, w = planes[0].shape[:2]
    vals_at = [shifted(values, radius) for values in planes]
    inb_at = inside((h, w), radius)
    s0 = np.zeros((h, w))
    s1 = [np.zeros(values.shape) for values in planes]
    s2 = [np.zeros(values.shape) for values in planes]
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            ok = inb_at(dy, dx) & accept(dy, dx)
            s0 += ok
            for tap, t1, t2 in zip(vals_at, s1, s2):
                vals = tap(dy, dx)
                okv = ok[..., None] * vals
                t1 += okv
                t2 += okv * vals
    s0 = np.maximum(s0, 1.0)[..., None]
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


def accumulate(curr_value: np.ndarray, curr_luma: np.ndarray, tap: dict,
               alpha: float, moments_alpha: float,
               cap: int = DenoiseConfig.history_cap) -> TemporalHistory:
    """Exponential blend of the current sample into the reprojected history.

    While the history is short the blend degenerates to a plain running mean
    (a = max(alpha, 1/(N+1))); invalid taps restart the history at length 1.
    """
    curr = as_planes(curr_value)
    valid = tap["valid"]
    n = tap["history_len"].astype(np.float64)
    a = np.maximum(alpha, 1.0 / (n + 1.0))
    am = np.maximum(moments_alpha, 1.0 / (n + 1.0))

    color = np.where(valid[..., None],
                     tap["color"] + a[..., None] * (curr - tap["color"]),
                     curr)
    m1 = np.where(valid, tap["moment1"] + am * (curr_luma - tap["moment1"]), curr_luma)
    m2 = np.where(valid, tap["moment2"] + am * (curr_luma**2 - tap["moment2"]), curr_luma**2)
    length = np.where(valid, np.minimum(tap["history_len"] + 1, cap), 1).astype(np.int32)
    return TemporalHistory(color=color, moment1=m1, moment2=m2, history_len=length)


_SPATIAL_RADIUS = 3  # of the spatial variance's 7x7 window


def estimate_variance(history: TemporalHistory, curr_luma: np.ndarray,
                      curr_gbuf: GBufferFrame, min_history: int,
                      cfg: DenoiseConfig) -> np.ndarray:
    """Per-pixel luminance variance of K channels that share the history
    length (see `temporal_frame`): `curr_luma` and the history's moments are
    stacked (H, W, K), and so is the result.

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
    temporal = np.maximum(0.0, history.moment2 - history.moment1**2)
    short = history.history_len < min_history
    keep = short & curr_gbuf.foreground
    variance = np.where(short[..., None], 0.0, temporal)
    box = bounding_box(keep, _SPATIAL_RADIUS)
    if box is None:
        return variance
    rows, cols = box
    if 4 * np.count_nonzero(keep) < (rows.stop - rows.start) * (cols.stop - cols.start):
        kept = np.flatnonzero(keep)
        variance[np.divmod(kept, keep.shape[1])] = _gathered_variance(curr_luma, curr_gbuf,
                                                                      kept, cfg)
    else:
        spatial = _spatial_variance([curr_luma[box][..., k:k + 1]
                                     for k in range(curr_luma.shape[2])],
                                    curr_gbuf.depth[box], curr_gbuf.normal[box],
                                    curr_gbuf.object_id[box], cfg)
        for k, var in enumerate(spatial):
            variance[(*box, k)] = np.where(keep[box], var, variance[(*box, k)])
    return variance


def _spatial_variance(lumas, depth, normal, oid, cfg: DenoiseConfig):
    """Each (H, W, 1) luminance's variance over each pixel's 7x7 window of
    in-bounds pixels that pass the consistency test against it; one test per
    tap serves every luminance. Returns a list of (H, W) variances."""
    depth = depth.astype(np.float64)
    normal = channel_major(normal)
    depth_at, normal_at, oid_at = (shifted(p, _SPATIAL_RADIUS) for p in (depth, normal, oid))
    center = _consistency_center(depth, normal, oid)

    def consistent(dy, dx):
        return _consistent(depth_at(dy, dx), normal_at(dy, dx), oid_at(dy, dx), center,
                           cfg.depth_consistency, cfg.normal_consistency)

    return [var[:, :, 0] for _mean, var in _box_moments(lumas, _SPATIAL_RADIUS,
                                                        accept=consistent)]


def _gathered_variance(luma, gbuf: GBufferFrame, kept, cfg: DenoiseConfig):
    """`_spatial_variance` of the (H, W, K) luminance at the row-major pixel
    indices `kept` alone, (len(kept), K): each tap of the window, in the same
    order, reads the planes, flattened once, at the kept pixels' neighbours
    clamped to the image, and counts where the neighbour lies inside it and
    passes the same consistency test."""
    h, w = gbuf.depth.shape
    depth = gbuf.depth.astype(np.float64).reshape(-1)
    normal = np.moveaxis(gbuf.normal, -1, 0).astype(np.float64).reshape(3, -1)
    oid = gbuf.object_id.reshape(-1)
    lumas = np.moveaxis(luma, -1, 0).reshape(luma.shape[2], -1)
    center = _consistency_center(depth[kept], normal[:, kept].T, oid[kept])
    y, x = np.divmod(kept, w)
    s0 = np.zeros(kept.shape)
    s1 = np.zeros((lumas.shape[0], kept.size))
    s2 = np.zeros(s1.shape)
    for dy in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
        ty = y + dy
        row_ok = (ty >= 0) & (ty < h)
        row = np.clip(ty, 0, h - 1) * w
        for dx in range(-_SPATIAL_RADIUS, _SPATIAL_RADIUS + 1):
            tx = x + dx
            flat = row + np.clip(tx, 0, w - 1)
            ok = row_ok & (tx >= 0) & (tx < w) & _consistent(
                depth[flat], normal[:, flat].T, oid[flat], center,
                cfg.depth_consistency, cfg.normal_consistency)
            s0 += ok
            vals = lumas[:, flat]
            okv = ok * vals
            s1 += okv
            s2 += okv * vals
    _mean, var = _moments(np.maximum(s0, 1.0), s1, s2)
    return var.T


def _stacked(arrays) -> np.ndarray:
    """(H, W) or (H, W, C) arrays as one (H, W, sum of C) array, laid out
    one plane after another (see `stencil.channel_major`)."""
    return np.moveaxis(np.concatenate([np.moveaxis(as_planes(a), -1, 0) for a in arrays]), 0, -1)


def temporal_frame(curr_data: dict, curr_gbuf: GBufferFrame, prev: dict | None,
                   prev_gbuf: GBufferFrame | None, cfg: DenoiseConfig):
    """One full temporal update of each channel of a frame.

    `curr_data` maps a key to a channel, (H, W) or (H, W, C); `prev` maps the
    same keys to the previous histories, or is None on the first frame. The
    work that follows the G-buffer alone runs once for all channels: one
    `reproject` of their histories, whose lengths are equal, with one
    consistency test per texel, and one `estimate_variance` of their stacked
    histories and luminances, with one short-history mask and one set of
    window tests. Rectification, which bounds one channel's planes jointly,
    and accumulation run per channel. Returns (histories, variances), dicts
    keyed like `curr_data`.
    """
    currs = {key: as_planes(data) for key, data in curr_data.items()}
    if prev is None or prev_gbuf is None:
        zero = np.zeros(curr_gbuf.depth.shape)
        joint = {"valid": zero.astype(bool), "color": [np.zeros_like(c) for c in currs.values()],
                 "moment1": [zero] * len(currs), "moment2": [zero] * len(currs),
                 "history_len": zero.astype(np.int32)}
    else:
        joint = reproject([prev[key] for key in currs], prev_gbuf, curr_gbuf, cfg)
    rectify = cfg.rectify_mode != "off" and np.any(joint["valid"])

    histories, lumas = {}, []
    for (key, curr), color, m1, m2 in zip(currs.items(), joint["color"], joint["moment1"],
                                          joint["moment2"]):
        tap = {**joint, "color": color, "moment1": m1, "moment2": m2}
        if rectify:
            # accumulate reads a tap only where it is valid, so the rest need no mask
            rect, _mu, _sigma = rectify_history(color, curr, cfg.clamp_gamma, cfg.rectify_mode)
            rm1, rm2 = rectify_moments(m1, m2, luma(rect))
            tap.update(color=rect, moment1=rm1, moment2=rm2)
        lumas.append(luma(curr_data[key]))
        histories[key] = accumulate(curr, lumas[-1], tap, cfg.alpha, cfg.moments_alpha,
                                    cap=cfg.history_cap)

    hists = list(histories.values())
    stacked = TemporalHistory(color=_stacked(h.color for h in hists),
                              moment1=_stacked(h.moment1 for h in hists),
                              moment2=_stacked(h.moment2 for h in hists),
                              history_len=hists[0].history_len)
    variance = estimate_variance(stacked, _stacked(lumas), curr_gbuf,
                                 cfg.spatial_variance_min_history, cfg)
    return histories, {key: variance[..., k] for k, key in enumerate(histories)}


def temporal_step(curr_data: np.ndarray, curr_gbuf: GBufferFrame,
                  prev: TemporalHistory | None, prev_gbuf: GBufferFrame | None,
                  cfg: DenoiseConfig):
    """One full temporal update for a channel, `temporal_frame` of that one
    channel; returns (history, variance). The pipeline calls
    `temporal_frame`; this stays for perfbench's per-layer probes."""
    histories, variances = temporal_frame({0: curr_data}, curr_gbuf,
                                          None if prev is None else {0: prev}, prev_gbuf, cfg)
    return histories[0], variances[0]
