"""Temporal stage: backwards reprojection, accumulation and history rectification.

Per frame and per channel the stage (1) samples the previous accumulated
history through the motion vectors with a per-tap geometry consistency test,
(2) optionally rectifies the history color against the statistics of the
current noisy neighborhood, (3) blends it with the current sample, and
(4) estimates per-pixel luminance variance, falling back to spatial moments
while the history is too short to trust. The spatial moments are computed
only where they are kept: over the short-history foreground's bounding box
(`stencil.bounding_box`), and not at all once every foreground history is
long. Both neighborhood moments, the 3x3 box that bounds rectification and the 7x7
geometry-restricted window of the spatial variance, come from one masked
box loop (`_box_moments`) that reads its taps as slices of edge-padded
planes, with a zero-padded mask counting in-bounds taps. The reprojection
uses the shared bilinear sampler of `stencil`, which hands each enclosing
texel's consistency test the texels' flat row-major indices; the test reads
the previous depth, normal and object id at them with `stencil.gather`, one
`np.take` per plane instead of 2-D fancy indexing. The sampler also
renormalizes the passing texels' weights; the reprojection adds only the
foreground mask and the rounding of the history length.

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
                     curr_oid, depth_threshold=DenoiseConfig.depth_consistency,
                     normal_threshold=DenoiseConfig.normal_consistency):
    """Geometry agreement between a previous-frame texel and a current pixel.

    Accepts scalars or broadcastable arrays; true iff the object ids match,
    relative depth differs by less than `depth_threshold` and the normals
    agree beyond `normal_threshold`.
    """
    id_ok = np.asarray(prev_oid) == np.asarray(curr_oid)
    with np.errstate(invalid="ignore"):
        rel = np.abs(np.asarray(prev_depth, dtype=np.float64) - curr_depth) \
            / np.maximum(np.abs(np.asarray(curr_depth, dtype=np.float64)), 1e-8)
        depth_ok = rel < depth_threshold
    ndot = dot3(np.asarray(prev_normal, dtype=np.float64),
                np.asarray(curr_normal, dtype=np.float64))
    return id_ok & depth_ok & (ndot > normal_threshold)


def reproject(prev: TemporalHistory, prev_gbuf: GBufferFrame, curr_gbuf: GBufferFrame,
              cfg: DenoiseConfig) -> dict:
    """Bilinearly sample the previous history through the motion vectors.

    Each of the four enclosing texels is consistency-tested against the
    current pixel, and none is taken for a background pixel; the sampler
    renormalizes the bilinear weights of the passing texels. Returns arrays:
    valid, color, moment1, moment2, history_len.
    """
    curr_depth = curr_gbuf.depth.astype(np.float64)
    curr_normal = curr_gbuf.normal.astype(np.float64)
    curr_oid = curr_gbuf.object_id
    fg = curr_gbuf.foreground

    def consistent(flat):
        return consistency_test(
            gather(prev_gbuf.depth, flat), gather(prev_gbuf.normal, flat),
            gather(prev_gbuf.object_id, flat), curr_depth, curr_normal, curr_oid,
            cfg.depth_consistency, cfg.normal_consistency) & fg

    (color, m1, m2, hist), valid = bilinear_sample(
        (prev.color, prev.moment1, prev.moment2, prev.history_len),
        curr_gbuf.motion, accept=consistent)
    hist_len = np.where(valid, np.maximum(1, np.floor(hist + 1e-9)), 0).astype(np.int32)
    return {"valid": valid, "color": color, "moment1": m1, "moment2": m2,
            "history_len": hist_len}


def _box_moments(values: np.ndarray, radius: int, accept=None):
    """Masked mean and variance over the in-bounds (2r+1)^2 box of each pixel.

    `values` is (H, W, C). A tap counts where it lies inside the image and,
    when given, `accept(dy, dx)` (bool (H, W)) holds; the count is clamped at
    1. Returns (mean, variance), each (H, W, C).
    """
    h, w, c = values.shape
    vals_at = shifted(values, radius)
    inb_at = inside((h, w), radius)
    s0 = np.zeros((h, w))
    s1 = np.zeros((h, w, c))
    s2 = np.zeros((h, w, c))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            ok = inb_at(dy, dx)
            if accept is not None:
                ok = ok & accept(dy, dx)
            vals = vals_at(dy, dx)
            s0 += ok
            s1 += ok[..., None] * vals
            s2 += ok[..., None] * vals * vals
    s0 = np.maximum(s0, 1.0)[..., None]
    mean = s1 / s0
    return mean, np.maximum(0.0, s2 / s0 - mean * mean)


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
    mu, var = _box_moments(as_planes(curr_channel), 1)
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
    """Per-pixel luminance variance.

    Temporal (moment2 - moment1^2) once at least `min_history` frames have
    been integrated; otherwise spatial moments of the current luminance over
    the 7x7 neighborhood restricted to in-bounds, geometry-consistent pixels.
    The spatial moments are computed only where they are kept: over the
    bounding box of the short-history foreground, grown by the window radius
    and clamped to the image, so each kept pixel sees its whole neighborhood
    and the true image border. Background pixels get 0, which is what their
    +inf depth gives them, since it fails every consistency test.
    """
    temporal = np.maximum(0.0, history.moment2 - history.moment1**2)
    short = history.history_len < min_history
    keep = short & curr_gbuf.foreground
    variance = np.where(short, 0.0, temporal)
    box = bounding_box(keep, _SPATIAL_RADIUS)
    if box is not None:
        spatial = _spatial_variance(curr_luma[box], curr_gbuf.depth[box],
                                    curr_gbuf.normal[box], curr_gbuf.object_id[box], cfg)
        variance[box] = np.where(keep[box], spatial, variance[box])
    return variance


def _spatial_variance(curr_luma, depth, normal, oid, cfg: DenoiseConfig):
    """Luminance variance over each pixel's 7x7 window of in-bounds pixels
    that pass the consistency test against it."""
    depth_at, normal_at, oid_at = (shifted(p, _SPATIAL_RADIUS) for p in (depth, normal, oid))
    depth = depth.astype(np.float64)
    normal = channel_major(normal)

    def consistent(dy, dx):
        return consistency_test(depth_at(dy, dx), normal_at(dy, dx), oid_at(dy, dx),
                                depth, normal, oid, cfg.depth_consistency,
                                cfg.normal_consistency)

    _mean, var = _box_moments(as_planes(curr_luma), _SPATIAL_RADIUS, accept=consistent)
    return var[:, :, 0]


def temporal_step(curr_data: np.ndarray, curr_gbuf: GBufferFrame,
                  prev: TemporalHistory | None, prev_gbuf: GBufferFrame | None,
                  cfg: DenoiseConfig):
    """One full temporal update for a channel; returns (history, variance)."""
    curr = as_planes(curr_data)
    curr_l = luma(curr_data)
    h, w, c = curr.shape

    if prev is None or prev_gbuf is None:
        tap = {"valid": np.zeros((h, w), dtype=bool), "color": np.zeros((h, w, c)),
               "moment1": np.zeros((h, w)), "moment2": np.zeros((h, w)),
               "history_len": np.zeros((h, w), dtype=np.int32)}
    else:
        tap = reproject(prev, prev_gbuf, curr_gbuf, cfg)

    if cfg.rectify_mode != "off" and np.any(tap["valid"]):
        # accumulate reads a tap only where it is valid, so the rest need no mask
        rect, _mu, _sigma = rectify_history(tap["color"], curr, cfg.clamp_gamma,
                                            cfg.rectify_mode)
        rm1, rm2 = rectify_moments(tap["moment1"], tap["moment2"], luma(rect))
        tap = {**tap, "color": rect, "moment1": rm1, "moment2": rm2}

    history = accumulate(curr, curr_l, tap, cfg.alpha, cfg.moments_alpha,
                         cap=cfg.history_cap)
    variance = estimate_variance(history, curr_l, curr_gbuf,
                                 cfg.spatial_variance_min_history, cfg)
    return history, variance
