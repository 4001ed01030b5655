"""Variance-guided edge-avoiding a-trous wavelet filtering.

One iteration convolves with the separable B3-spline kernel
(1/16, 1/4, 3/8, 1/4, 1/16) whose taps spread apart by 2^level pixels,
modulated by edge-stopping weights on depth, normal and luminance; the
luminance weight is scaled by the estimated noise deviation so flat noisy
regions blur aggressively while converged regions keep their detail.

Two execution forms are provided, each one list of unit tap tables run in
order by one driver: the dense 5x5 stencil is one 25-tap pass, and the
separable split is a 5-tap horizontal pass and then a 5-tap vertical one.
Each pass filters the previous pass's result, and only the last updates the
variance. The two forms are equivalent where the edge weights are uniform and
intentionally diverge across edges, which shows up as slightly stronger blur.

The driver sets up an iteration's G-buffer side once for all its passes: the
foreground's bounding box, the level map cropped to it, the center depth and
normals, the luminance stop's denominator and the depth, normal and
foreground planes padded with edge values (`stencil.shifted`), which is
clamp-to-border indexing. Each pass adds only its own luminance and data
taps, and computes each tap's edge weight into scratch planes allocated once
per iteration. A per-pixel level map runs one uniform pass per level in use
and keeps each pixel's result at its own level; a pixel's result depends only
on its own step, so this is exact. Only the foreground's bounding box is
filtered. That is exact too: every pixel outside the box is background, whose
result is replaced by its input anyway, and a background tap has weight 0, so
the vertical pass of the separable form never sees that a background
neighbour's horizontal result is its input.

The start level can shift up by one where material features predict heavy
noise (roughness over 0.2, shadow angles over 6 degrees), keeping the
iteration count fixed; with noise-free secondary shading the iteration count
itself adapts to roughness.
"""

from __future__ import annotations

import numpy as np

from .frames import ChannelKind, DenoiseConfig, GBufferFrame
from .stencil import as_planes, channel_major, dot3, shifted
from .tonemap import luma

KERNEL_1D = np.array([1.0 / 16, 1.0 / 4, 3.0 / 8, 1.0 / 4, 1.0 / 16])
_OFFSETS = (-2, -1, 0, 1, 2)
_EPSILON = 1e-8  # keeps the depth and luminance stops finite at zero spread


def edge_weight(center: dict, tap: dict, center_variance: float,
                cfg: DenoiseConfig, distance: float = 1.0) -> float:
    """Scalar reference form of the edge-stopping weight; taps of the
    background get weight 0. `distance` is the tap offset length in pixels."""
    if tap["object_id"] == 0:
        return 0.0
    w_z = np.exp(-abs(center["depth"] - tap["depth"])
                 / (cfg.sigma_z * abs(center["depth"]) * distance + _EPSILON))
    ndot = float(np.dot(center["normal"], tap["normal"]))
    w_n = max(0.0, ndot) ** cfg.sigma_n
    w_l = np.exp(-abs(center["luma"] - tap["luma"])
                 / (cfg.sigma_l * np.sqrt(max(center_variance, 0.0)) + _EPSILON))
    return float(w_z * w_n * w_l)


def check_level(top, height: int, width: int) -> None:
    """Reject a-trous level `top` when its taps spread over half the image."""
    if 2 ** int(top) >= min(height, width) / 2:
        raise ValueError(f"a-trous level {top} too large for {width}x{height}")


def _tap_weights(center, tap, dist, cfg, out, tmp):
    """`edge_weight` over the filtered box for one tap, written into `out` with
    `tmp` as scratch. `center` is (depth, sigma_z * |depth|, normal, luma,
    luminance stop's denominator); `tap` is (depth, normal, luma, foreground)."""
    z_c, sz_c, n_c, l_c, denom_l = center
    z_t, n_t, l_t, fg_t = tap
    with np.errstate(invalid="ignore"):
        np.subtract(z_c, z_t, out=out)
        np.abs(out, out=out)
        np.negative(out, out=out)
        np.multiply(sz_c, dist, out=tmp)
        tmp += _EPSILON
        out /= tmp
        np.exp(out, out=out)
    ndot = np.maximum(0.0, dot3(n_c, n_t), out=tmp)
    # 0 and 1 are their own powers for sigma_n > 0; most taps share a plane
    # or face away, so only the rest pay for the pow
    rest = (ndot != 0.0) & (ndot != 1.0)
    ndot[rest] **= cfg.sigma_n
    out *= ndot
    np.subtract(l_c, l_t, out=tmp)
    np.abs(tmp, out=tmp)
    np.negative(tmp, out=tmp)
    tmp /= denom_l
    np.exp(tmp, out=tmp)
    out *= tmp
    out *= fg_t
    np.copyto(out, 0.0, where=~np.isfinite(out))
    return out


# unit tap offsets (dy, dx, kernel weight, distance); pixel offsets scale by the step
_DENSE = [(j, i, KERNEL_1D[i + 2] * KERNEL_1D[j + 2], np.hypot(i, j))
          for j in _OFFSETS for i in _OFFSETS]
_COLUMN = [(k, 0, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]
_ROW = [(0, k, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]


def _atrous(channel, variance, gbuf: GBufferFrame, level, cfg: DenoiseConfig, passes,
            stats):
    """One a-trous iteration at each pixel's level, run as `passes`, a list of
    unit tap tables, over one G-buffer setup (see the module docstring).

    Each pass filters the previous pass's result; the last also returns the
    variance of the weighted mean. Each tap is a full padded plane sliced to
    the foreground's box, so a kept pixel still sees its true neighbours and
    the image border. Counts the nominal taps, the sum of the pass lengths
    per pixel, into `stats` and restores the input's shape.
    """
    data, var = as_planes(channel), np.asarray(variance, dtype=np.float64)
    check_level(np.max(level), *var.shape)
    fg = gbuf.foreground
    rows = np.flatnonzero(fg.any(axis=1))
    if not rows.size:
        out, out_var = data.copy(), var.copy()
    else:
        cols = np.flatnonzero(fg.any(axis=0))
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        level = np.asarray(level, dtype=np.int64)
        level = level[box] if level.ndim else level
        used = np.unique(level)
        reach = 2 * 2 ** int(used[-1])
        z_c = gbuf.depth[box].astype(np.float64)
        (h, w), c = z_c.shape, data.shape[2]
        geometry = (z_c, cfg.sigma_z * np.abs(z_c), channel_major(gbuf.normal[box]))
        denom_l = cfg.sigma_l * np.sqrt(np.maximum(var[box], 0.0)) + _EPSILON
        depth_at, normal_at, fg_at = (shifted(p, reach) for p in (gbuf.depth, gbuf.normal, fg))
        wgt, tmp = np.empty((h, w)), np.empty((h, w))

        def run(offsets, step, center, taps, var_at):
            acc = np.zeros((c, h, w))  # one plane per channel, as `shifted` pads them
            acc_w = np.zeros((h, w))
            acc_w2v = np.zeros((h, w))
            for j, i, k, dist in offsets:
                *tap, d_t = (t(j * step, i * step)[box] for t in taps)
                if i == j == 0:  # the center tap's edge weight is 1
                    wgt.fill(1.0)
                else:
                    _tap_weights(center, tap, step * dist, cfg, wgt, tmp)
                np.multiply(wgt, k, out=wgt)
                for acc_ch, d_ch in zip(acc, np.moveaxis(d_t, -1, 0)):
                    acc_ch += np.multiply(wgt, d_ch, out=tmp)
                acc_w += wgt
                if var_at is not None:
                    np.multiply(wgt, wgt, out=tmp)
                    acc_w2v += np.multiply(tmp, var_at(j * step, i * step)[box], out=tmp)
            mean = np.divide(np.moveaxis(acc, 0, -1), acc_w[..., None])
            return (mean,) if var_at is None else (mean, acc_w2v / (acc_w * acc_w))

        out = data
        for n, offsets in enumerate(passes):
            # luma of the whole plane, before cropping: `@` may take another
            # BLAS path, so other rounding, on a non-contiguous view
            l_all = luma(out)
            center = (*geometry, l_all[box], denom_l)
            taps = (depth_at, normal_at, shifted(l_all, reach), fg_at, shifted(out, reach))
            var_at = shifted(var, reach) if n == len(passes) - 1 else None
            result = run(offsets, 2 ** int(used[0]), center, taps, var_at)
            for lv in used[1:]:
                mask = level == lv
                new = run(offsets, 2 ** int(lv), center, taps, var_at)
                result = tuple(np.where(mask if r.ndim == 2 else mask[..., None], nr, r)
                               for nr, r in zip(new, result))
            # the first pass copies its input only now, so no run holds an
            # extra frame; later passes read their input through padded copies
            # and write in place. C order: `luma`'s `@` may round differently
            if out is data:
                out = data.copy()
            out[box] = result[0]
        out_var = var.copy()
        out_var[box] = result[1]
        # background pixels keep their inputs
        np.copyto(out, data, where=~fg[..., None])
        np.copyto(out_var, var, where=~fg)
    if stats is not None:
        taps_per_pixel = sum(map(len, passes))
        stats["taps"] = stats.get("taps", 0) + fg.size * taps_per_pixel
        stats["taps_per_pixel"] = taps_per_pixel
    return (out[:, :, 0] if np.ndim(channel) == 2 else out), out_var


def atrous_dense(channel, variance, gbuf: GBufferFrame, level, cfg: DenoiseConfig,
                 stats: dict | None = None):
    """One dense 5x5 iteration; `level` may be a scalar or a per-pixel array.

    Returns (channel', variance') where variance' carries the variance of the
    weighted mean. Taps are clamped to the image border; the center tap always
    participates with edge weight 1, so the output stays a convex combination.
    """
    return _atrous(channel, variance, gbuf, level, cfg, (_DENSE,), stats)


def atrous_separable(channel, variance, gbuf: GBufferFrame, level, cfg: DenoiseConfig,
                     stats: dict | None = None):
    """One separable 5+5 iteration: horizontal color-only, then vertical.

    The variance buffer passes through the horizontal stage untouched and is
    updated only by the vertical pass, which is what makes the separable form
    blur slightly more than the dense one across edges. With per-pixel levels
    the vertical pass reads horizontal results computed at each neighbor's
    own level.
    """
    return _atrous(channel, variance, gbuf, level, cfg, (_ROW, _COLUMN), stats)


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
    The SHADOW kind needs the light's `shadow_angle` in degrees, one scalar
    for the frame or a per-pixel map. Returns
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
    filt = atrous_separable if cfg.separable else atrous_dense

    if max_count > 0:
        check_level(np.max(start) + max_count - 1, *gbuf.depth.shape)

    for i in range(max_count):
        level = start + i
        stats = {}
        filtered, fvar = filt(out, var, gbuf, level, cfg, stats=stats)
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
