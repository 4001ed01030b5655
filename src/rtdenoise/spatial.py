"""Variance-guided edge-avoiding a-trous wavelet filtering.

One iteration convolves with the separable B3-spline kernel
(1/16, 1/4, 3/8, 1/4, 1/16) whose taps spread apart by 2^level pixels,
modulated by edge-stopping weights on depth, normal and luminance; the
luminance weight is scaled by the estimated noise deviation so flat noisy
regions blur aggressively while converged regions keep their detail.

Two execution forms are provided: the dense 5x5 stencil (25 taps per pixel)
and the separable 5+5 split (10 taps) where the horizontal pass updates the
color only and the variance is updated once, in the vertical pass. The two
are equivalent where the edge weights are uniform and intentionally diverge
across edges, which shows up as slightly stronger blur.

Both forms read their taps as slices of planes padded once per pass with
edge values (`stencil.shifted`), which is clamp-to-border indexing. A
per-pixel level map runs one uniform pass per level in use and keeps each
pixel's result at its own level; a pixel's result depends only on its own
step, so this is exact.

The start level can shift up by one where material features predict heavy
noise (roughness over 0.2, shadow angles over 6 degrees), keeping the
iteration count fixed; with noise-free secondary shading the iteration count
itself adapts to roughness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import ChannelKind, DenoiseConfig, GBufferFrame
from .stencil import as_planes, shifted
from .tonemap import luma

KERNEL_1D = np.array([1.0 / 16, 1.0 / 4, 3.0 / 8, 1.0 / 4, 1.0 / 16])
_OFFSETS = (-2, -1, 0, 1, 2)


@dataclass
class EdgeParams:
    sigma_z: float = 1.0
    sigma_n: float = 128.0
    sigma_l: float = 4.0
    epsilon: float = 1e-8

    @classmethod
    def from_config(cls, cfg: DenoiseConfig) -> "EdgeParams":
        return cls(sigma_z=cfg.sigma_z, sigma_n=cfg.sigma_n, sigma_l=cfg.sigma_l)


def edge_weight(center: dict, tap: dict, center_variance: float,
                params: EdgeParams, distance: float = 1.0) -> float:
    """Scalar reference form of the edge-stopping weight; taps of the
    background get weight 0. `distance` is the tap offset length in pixels."""
    if tap["object_id"] == 0:
        return 0.0
    w_z = np.exp(-abs(center["depth"] - tap["depth"])
                 / (params.sigma_z * abs(center["depth"]) * distance + params.epsilon))
    ndot = float(np.dot(center["normal"], tap["normal"]))
    w_n = max(0.0, ndot) ** params.sigma_n
    w_l = np.exp(-abs(center["luma"] - tap["luma"])
                 / (params.sigma_l * np.sqrt(max(center_variance, 0.0)) + params.epsilon))
    return float(w_z * w_n * w_l)


def check_level(top, height: int, width: int) -> None:
    """Reject a-trous level `top` when its taps spread over half the image."""
    if 2 ** int(top) >= min(height, width) / 2:
        raise ValueError(f"a-trous level {top} too large for {width}x{height}")


def _tap_weights(z_c, n_c, l_c, denom_l, z_t, n_t, l_t, fg_t, dist, params):
    with np.errstate(invalid="ignore"):
        w_z = np.exp(-np.abs(z_c - z_t) / (params.sigma_z * np.abs(z_c) * dist
                                           + params.epsilon))
    ndot = np.maximum(0.0, np.sum(n_c * n_t, axis=-1))
    w_n = ndot ** params.sigma_n
    w_l = np.exp(-np.abs(l_c - l_t) / denom_l)
    w = w_z * w_n * w_l * fg_t
    return np.where(np.isfinite(w), w, 0.0)


# unit tap offsets (dy, dx, kernel weight, distance); pixel offsets scale by the step
_DENSE = [(j, i, KERNEL_1D[i + 2] * KERNEL_1D[j + 2], np.hypot(i, j))
          for j in _OFFSETS for i in _OFFSETS]
_COLUMN = [(k, 0, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]
_ROW = [(0, k, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]


def _filter(data, var, gbuf: GBufferFrame, level, offsets, axis, params,
            with_variance):
    """Edge-stopped weighted mean of `data` over `offsets` at each pixel's level.

    Every plane a tap reads is padded once (along `axis` alone when set); one
    uniform pass runs per level some pixel uses, and each pixel keeps the
    result at its own level. Returns (mean,) or (mean, variance of the mean).
    """
    h, w, c = data.shape
    level = np.asarray(level, dtype=np.int64)
    used = np.unique(level)
    reach = 2 * 2 ** int(used[-1])
    z_c = gbuf.depth.astype(np.float64)
    n_c = gbuf.normal.astype(np.float64)
    l_c = luma(data)
    denom_l = params.sigma_l * np.sqrt(np.maximum(var, 0.0)) + params.epsilon
    taps = [shifted(p, reach, axis)
            for p in (gbuf.depth, gbuf.normal, l_c, gbuf.foreground, data)]
    var_at = shifted(var, reach, axis) if with_variance else None

    def run(step):
        acc = np.zeros((h, w, c))
        acc_w = np.zeros((h, w))
        acc_w2v = np.zeros((h, w))
        for j, i, k, dist in offsets:
            z_t, n_t, l_t, fg_t, d_t = (t(j * step, i * step) for t in taps)
            if i == j == 0:
                ew = 1.0
            else:
                ew = _tap_weights(z_c, n_c, l_c, denom_l, z_t, n_t, l_t, fg_t,
                                  step * dist, params)
            wgt = k * ew
            acc += wgt[..., None] * d_t if np.ndim(wgt) else wgt * d_t
            acc_w += wgt
            if with_variance:
                acc_w2v += wgt * wgt * var_at(j * step, i * step)
        out = acc / acc_w[..., None]
        return (out, acc_w2v / (acc_w * acc_w)) if with_variance else (out,)

    result = run(2 ** int(used[0]))
    for lv in used[1:]:
        mask = level == lv
        result = tuple(np.where(mask if r.ndim == 2 else mask[..., None], new, r)
                       for new, r in zip(run(2 ** int(lv)), result))
    return result


def _finish(channel, data, var, gbuf, out, out_var, stats, taps_per_pixel):
    """Keep background pixels unfiltered, count taps, restore the input shape."""
    fg = gbuf.foreground
    out = np.where(fg[..., None], out, data)
    out_var = np.where(fg, out_var, var)
    if stats is not None:
        stats["taps"] = stats.get("taps", 0) + fg.size * taps_per_pixel
        stats["taps_per_pixel"] = taps_per_pixel
    return (out[:, :, 0] if np.ndim(channel) == 2 else out), out_var


def atrous_dense(channel, variance, gbuf: GBufferFrame, level, params: EdgeParams,
                 stats: dict | None = None):
    """One dense 5x5 iteration; `level` may be a scalar or a per-pixel array.

    Returns (channel', variance') where variance' carries the variance of the
    weighted mean. Taps are clamped to the image border; the center tap always
    participates with edge weight 1, so the output stays a convex combination.
    """
    data, var = as_planes(channel), np.asarray(variance, dtype=np.float64)
    check_level(np.max(level), *var.shape)
    out, out_var = _filter(data, var, gbuf, level, _DENSE, None, params, True)
    return _finish(channel, data, var, gbuf, out, out_var, stats, 25)


def atrous_separable(channel, variance, gbuf: GBufferFrame, level, params: EdgeParams,
                     stats: dict | None = None):
    """One separable 5+5 iteration: horizontal color-only, then vertical.

    The variance buffer passes through the horizontal stage untouched and is
    updated only by the vertical pass, which is what makes the separable form
    blur slightly more than the dense one across edges. With per-pixel levels
    the vertical pass reads horizontal results computed at each neighbor's
    own level.
    """
    data, var = as_planes(channel), np.asarray(variance, dtype=np.float64)
    check_level(np.max(level), *var.shape)
    horiz, = _filter(data, var, gbuf, level, _ROW, 1, params, False)
    out, out_var = _filter(horiz, var, gbuf, level, _COLUMN, 0, params, True)
    return _finish(channel, data, var, gbuf, out, out_var, stats, 10)


def select_start_level(kind: ChannelKind, feature, cfg: DenoiseConfig):
    """Starting a-trous level: 1 where the material feature predicts heavy
    noise (specular roughness > 0.2, shadow angle > 6.0 degrees), else 0."""
    feature = np.asarray(feature, dtype=np.float64)
    if not cfg.adaptive_start:
        return np.zeros_like(feature, dtype=np.int64)
    if kind is ChannelKind.INDIRECT_SPECULAR:
        lvl = feature > cfg.roughness_start_threshold
    else:
        lvl = feature > cfg.shadow_angle_start_threshold
    return lvl.astype(np.int64)


def select_iteration_count(roughness, ibl_adaptive: bool, default_iterations: int):
    """Iteration count per roughness when secondary shading is noise-free:
    0 at roughness 0, at most 1 up to 0.05, otherwise `default_iterations`."""
    r = np.asarray(roughness, dtype=np.float64)
    if not ibl_adaptive:
        return np.full_like(r, default_iterations, dtype=np.int64)
    return np.where(r <= 0.0, 0, np.where(r <= 0.05, min(1, default_iterations),
                                          default_iterations)).astype(np.int64)


def denoise_channel(channel, variance, gbuf: GBufferFrame, cfg: DenoiseConfig,
                    kind: ChannelKind, shadow_angle=None):
    """Run the configured a-trous iterations for one channel.

    Iteration i filters at level start+i; the output of iteration 0 becomes
    the color fed back into the temporal history (unless feedback is off).
    The SHADOW kind needs the per-pixel `shadow_angle` map. Returns
    (final_channel, feedback_channel, iteration_records), channels (H, W, C)
    even for an (H, W) input.
    """
    data = as_planes(channel)
    records = []

    if kind is ChannelKind.INDIRECT_SPECULAR:
        feature = gbuf.roughness.astype(np.float64)
        counts = select_iteration_count(feature, cfg.ibl_adaptive_iterations,
                                        cfg.iterations)
    else:
        if shadow_angle is None:
            raise ValueError("denoise_channel(kind=SHADOW) needs shadow_angle")
        feature = np.asarray(shadow_angle, dtype=np.float64)
        counts = np.full(gbuf.depth.shape, cfg.iterations, dtype=np.int64)
    start = select_start_level(kind, feature, cfg)

    max_count = int(counts.max()) if counts.size else 0
    out = data.copy()
    var = np.asarray(variance, dtype=np.float64).copy()
    feedback = data.copy()
    params = EdgeParams.from_config(cfg)
    filt = atrous_separable if cfg.separable else atrous_dense

    if max_count > 0:
        check_level(np.max(start) + max_count - 1, *gbuf.depth.shape)

    for i in range(max_count):
        level = start + i
        stats = {}
        filtered, fvar = filt(out, var, gbuf, level, params, stats=stats)
        active = counts > i
        out = np.where(active[..., None], filtered, out)
        var = np.where(active, fvar, var)
        records.append({"iteration": i, "level_min": int(level.min()),
                        "level_max": int(level.max()),
                        "step_min": int(2 ** level.min()),
                        "step_max": int(2 ** level.max()),
                        "taps": stats.get("taps", 0),
                        "taps_per_pixel": stats.get("taps_per_pixel", 0)})
        if i == 0 and cfg.feedback == "first_iteration":
            feedback = out.copy()

    return out, feedback, records
