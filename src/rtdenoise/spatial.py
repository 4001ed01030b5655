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

The driver filters a list of signals in one shared tap loop. As in SVGF,
every signal shares the depth and normal stops and only the luminance stop
is its own, so a frame's shadow and specular channels run through one
iteration together (`denoise_frame`), and `atrous_dense`/`atrous_separable`
take lists of channels, variances and levels. The driver sets up an iteration's
G-buffer side once for all its signals and passes: the checks of the
foreground's geometry, its bounding box (`stencil.bounding_box`), the center
depth and normals and the depth and normal planes padded with edge values
(`stencil.shifted`), which is clamp-to-border indexing. Those planes hold
+inf depth and zero normals on the background, so a background tap's weight
is exp(-inf) = 0 by construction; background centers filter at depth 0, so
their results stay finite. Each signal adds its cropped level map, the
luminance stop's denominator and, per pass, its luminance and data taps.

A per-pixel level map runs one uniform pass per level in use and keeps each
pixel's result at its own level; a pixel's result depends only on its own
step, so this is exact. Each level runs over the signals that use it, and
for each tap computes the G-buffer weight w_z * w_n once, then each signal's
(w_z * w_n) * w_l and sums. That is one signal's product in its own order,
so a joint iteration gives each signal the bits it gets alone. The tap loop
runs over row bands of at most `_BAND` pixels, with band-sized scratch
planes, allocated once per iteration, that stay in a core's L2 cache. A pass
writes its results straight into the box of each signal's output. Only the
foreground's bounding box is filtered. That is exact too: every pixel
outside the box is background, whose result is replaced by its input
anyway, and its taps weigh 0, so the separable form's vertical pass never
uses its result. The driver rejects a foreground pixel whose depth is not
positive and finite or whose normal is not finite, since its weights would
turn the frame NaN.

Every a-trous call runs through a `FrameState`. `denoise_frame` builds one
per frame, which checks the geometry and crops the box once, and passes it
to every call of the frame; a call given none builds its own, as one lone
iteration whose every variance its caller reads. The state knows the
schedule of level passes from its first call's levels. A tap's G-buffer
weight depends only on its pixel offset: every pass of the state has the
same center planes and the same edge-clamped tap planes, and the distance
of unit offset (j, i) at step s, s * hypot(j, i), equals bit for bit that
of (j/2, i/2) at step 2s, since the steps are powers of two and scaling by
two is exact. So a level's taps at even unit offsets, the corners and edge
midpoints of its outer ring, are the next level's inner ring. The state
stores them as box planes keyed by pixel offset when a later pass reads
them, and drops each after its last read. Four uniform dense iterations
then evaluate 24 + 3 * 16 weights per box pixel instead of 96, separable
ones 8 + 3 * 4 instead of 32. The state also tells each call which channels
run their last iteration: no later call reads their variance, so the call
neither pads nor accumulates it and returns None in its place.

The start level can shift up by one where material features predict heavy
noise (roughness over 0.2, shadow angles over 6 degrees), keeping the
iteration count fixed; with noise-free secondary shading the iteration count
itself adapts to roughness.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .frames import ChannelKind, DenoiseConfig, GBufferFrame
from .stencil import as_planes, bounding_box, channel_major, dot3, shifted
from .tonemap import luma

KERNEL_1D = np.array([1.0 / 16, 1.0 / 4, 3.0 / 8, 1.0 / 4, 1.0 / 16])
_OFFSETS = (-2, -1, 0, 1, 2)
_EPSILON = 1e-8  # keeps the depth and luminance stops finite at zero spread
_BAND = 32768  # pixels per row band of the tap loop: 256 KB per scratch plane


def check_level(top, height: int, width: int) -> None:
    """Reject a-trous level `top` when its taps spread over half the image."""
    if 2 ** int(top) >= min(height, width) / 2:
        raise ValueError(f"a-trous level {top} too large for {width}x{height}")


def _geometry_weight(center, tap, dist, cfg, out, tmp):
    """The G-buffer half of the edge weight, w_z * w_n, for one tap, written
    into `out` with `tmp` as scratch. `center` is (depth, sigma_z * |depth|,
    normal); `tap` is (depth, normal), with +inf depth on the background,
    whose weight is thus 0 by construction."""
    z_c, sz_c, n_c = center
    z_t, n_t = tap
    np.subtract(z_c, z_t, out=out)
    np.abs(out, out=out)
    # the negated denominator: x / -y == -(x / y) exactly
    np.multiply(sz_c, -dist, out=tmp)
    tmp -= _EPSILON
    out /= tmp
    np.exp(out, out=out)
    ndot = np.maximum(0.0, dot3(n_c, n_t, out=tmp), out=tmp)
    # 0 and 1 are their own powers for sigma_n > 0; most taps share a plane
    # or face away, so only the rest pay for the pow
    np.power(ndot, cfg.sigma_n, out=ndot, where=(ndot != 0.0) & (ndot != 1.0))
    out *= ndot
    return out


def _check_geometry(gbuf: GBufferFrame, fg) -> None:
    """Reject the first foreground pixel whose depth is not positive and
    finite or whose normal is not finite: its edge weights would spread NaN."""
    depth_ok = (gbuf.depth > 0) & (gbuf.depth < np.inf)
    finite = np.isfinite(gbuf.normal)  # combined per component: `all(axis=2)` is slow
    bad = fg & ~(depth_ok & finite[..., 0] & finite[..., 1] & finite[..., 2])
    if bad.any():
        y, x = np.argwhere(bad)[0]
        what = "normal not finite" if depth_ok[y, x] else "depth not positive and finite"
        raise ValueError(f"G-buffer {what} at foreground pixel ({x}, {y})")


# unit tap offsets (dy, dx, kernel weight, distance); pixel offsets scale by the step
_DENSE = [(j, i, KERNEL_1D[i + 2] * KERNEL_1D[j + 2], np.hypot(i, j))
          for j in _OFFSETS for i in _OFFSETS]
_COLUMN = [(k, 0, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]
_ROW = [(0, k, KERNEL_1D[k + 2], abs(k)) for k in _OFFSETS]


class _Member(NamedTuple):
    """One signal's side of a level pass: its negated luminance denominator
    over the box, its padded luminance, data and, on a pass that updates the
    variance, variance (tap(dy, dx) -> view), the box views of its outputs
    that the pass writes, and the pixels at the pass's level (None for
    all)."""
    neg_denom: np.ndarray
    luma_at: object
    data_at: object
    var_at: object
    mean: np.ndarray
    var: np.ndarray | None
    mask: np.ndarray | None = None


def _pass_member(out, out_var, var, neg_denom, box, reach, with_var) -> _Member:
    """One signal's side of a pass over its current `out`, which updates
    `out_var` from `var` if `with_var`. The pass writes `out` in place, so
    it reads only padded copies. For a one-plane signal the luminance is the
    data, so both read one padded plane."""
    data_at = shifted(out, reach)
    if out.shape[2] == 1:
        def luma_at(dy, dx):
            return data_at(dy, dx)[..., 0]
    else:
        # luma of the whole plane, before cropping: `@` may take another
        # BLAS path, so other rounding, on a non-contiguous view
        luma_at = shifted(luma(out), reach)
    return _Member(neg_denom, luma_at, data_at, shifted(var, reach) if with_var else None,
                   out[box], out_var[box] if with_var else None)


def _level_pass(offsets, step, box, geometry, gtaps, members, scratch, cfg, read, write):
    """One pass at one step over the box for `members`, the signals that use
    this level, in row bands (see the module docstring).

    `geometry` is the center's (depth, sigma_z * |depth|, normal) and `gtaps`
    the padded (depth, normal) planes. `scratch` holds three band-sized
    planes and, per member, band-sized accumulators of data, weight and
    squared weight times variance. Each member's mean, and its variance where
    it has a `var` view, are written into its box views where its mask holds.
    `read` and `write` map pixel offsets to box planes of w_z * w_n from a
    frame state's store: a tap in `read` takes its weight from there, and a
    tap in `write` computes its weight into it.
    """
    h = geometry[0].shape[0]
    (g, wgt, tmp), slots = scratch
    rows = g.shape[0]
    accs = [(acc[:m.mean.shape[2]], acc_w, acc_w2v)
            for m, (acc, acc_w, acc_w2v) in zip(members, slots)]
    for r0 in range(0, h, rows):
        band = slice(r0, min(r0 + rows, h))
        hb = band.stop - r0
        g_b, wgt_b, tmp_b = g[:hb], wgt[:hb], tmp[:hb]
        center = tuple(c[band] for c in geometry)
        for bufs in accs:
            for buf in bufs:
                buf.fill(0.0)
        for j, i, k, dist in offsets:
            dy, dx = j * step, i * step
            if (i, j) != (0, 0):  # the center tap's edge weight is 1
                if (dy, dx) in read:
                    gw = read[dy, dx][band]
                else:
                    gw = write[dy, dx][band] if (dy, dx) in write else g_b
                    tap = tuple(t(dy, dx)[box][band] for t in gtaps)
                    _geometry_weight(center, tap, step * dist, cfg, gw, tmp_b)
            for m, (acc, acc_w, acc_w2v) in zip(members, accs):
                if (i, j) == (0, 0):
                    wgt_b.fill(k)
                else:
                    np.subtract(m.luma_at(0, 0)[box][band], m.luma_at(dy, dx)[box][band],
                                out=wgt_b)
                    np.abs(wgt_b, out=wgt_b)
                    wgt_b /= m.neg_denom[band]
                    np.exp(wgt_b, out=wgt_b)
                    wgt_b *= gw  # (w_z * w_n) * w_l: IEEE products commute
                    wgt_b *= k
                d_t = m.data_at(dy, dx)[box][band]
                for acc_ch, d_ch in zip(acc, d_t.transpose(2, 0, 1)):
                    acc_ch[:hb] += np.multiply(wgt_b, d_ch, out=tmp_b)
                acc_w[:hb] += wgt_b
                if m.var_at is not None:
                    np.multiply(wgt_b, wgt_b, out=tmp_b)
                    acc_w2v[:hb] += np.multiply(tmp_b, m.var_at(dy, dx)[box][band], out=tmp_b)
        # the weighted means, one plane at a time through scratch, so that
        # no band-sized temporary is allocated
        for m, (acc, acc_w, acc_w2v) in zip(members, accs):
            acc_w_b = acc_w[:hb]
            quotients = [(m.mean[band][..., c], acc_ch[:hb], acc_w_b)
                         for c, acc_ch in enumerate(acc)]
            if m.var is not None:
                quotients.append((m.var[band], acc_w2v[:hb],
                                  np.multiply(acc_w_b, acc_w_b, out=g_b)))
            for dst, num, den in quotients:
                if m.mask is None:
                    np.divide(num, den, out=dst)
                else:
                    np.copyto(dst, np.divide(num, den, out=tmp_b), where=m.mask[band])


class FrameState:
    """What the a-trous calls of one frame share (see the module docstring).

    Built from the frame's G-buffer, it crops the foreground to its box and
    checks its geometry at once, and keeps a store of G-buffer weights keyed
    by pixel offset. `counts` is the iteration count of each channel that
    runs at all, in the order of the calls' lists: `denoise_frame` builds
    one state per frame with them and passes it to every call. A call made
    without a state builds its own with no counts, as a lone call whose
    caller reads every variance it returns. The state lays out the whole
    schedule of level passes on the first call, so it tells each pass which
    stored weights are still read later and which of its own outer ring to
    store, and each call which channels' variances a later call reads.
    """

    def __init__(self, gbuf: GBufferFrame, counts=None):
        self.fg = gbuf.foreground
        _check_geometry(gbuf, self.fg)
        self.box = bounding_box(self.fg)
        self.counts = counts  # iterations per channel, or None for a lone call
        self.weights = {}  # pixel offset (dy, dx) -> box plane of w_z * w_n
        self._calls = 0
        self._passes = None  # per level pass of the frame: (its taps, later taps, step)

    def variance_read(self, channels: int) -> list:
        """Per channel of the next call, of `channels`, whether its variance
        is read: by a later call, or by a lone call's caller."""
        if self.counts is None:
            return [True] * channels
        i, self._calls = self._calls, self._calls + 1
        return [count - 1 > i for count in self.counts if count > i]

    def plan(self, used, passes) -> None:
        """Lay out the frame's level passes from the first call's levels in
        use per channel; iteration i runs them shifted up by i, and a lone
        call is one iteration."""
        if self._passes is not None:
            return
        counts = [1] * len(used) if self.counts is None else self.counts
        steps = []
        for n in range(max(counts)):
            union = np.unique(np.concatenate([u + n for u, c in zip(used, counts) if c > n]))
            steps.extend((offsets, 2 ** int(lv)) for offsets in passes for lv in union)
        taps = [{(j * s, i * s) for j, i, _k, _d in offsets if (j, i) != (0, 0)}
                for offsets, s in steps]
        later = [set()]
        for t in reversed(taps[1:]):
            later.append(later[-1] | t)
        self._passes = iter(zip(taps, reversed(later), (s for _o, s in steps)))

    def next_pass(self, shape):
        """The weights the next level pass reads from the store and the new
        planes of `shape` it writes into it, as {pixel offset: plane} each.
        Drops what no pass from this one on reads, then adds the pass's
        outer ring, its taps at even multiples of the step, where a later
        pass reads it and the store lacks it."""
        taps, later, step = next(self._passes)
        for t in [t for t in self.weights if t not in taps and t not in later]:
            del self.weights[t]
        read = {t: self.weights[t] for t in taps if t in self.weights}
        write = {(dy, dx): np.empty(shape) for dy, dx in taps & later
                 if dy % (2 * step) == 0 and dx % (2 * step) == 0 and (dy, dx) not in read}
        self.weights.update(write)
        return read, write


def _atrous(channels, variances, gbuf: GBufferFrame, levels, cfg: DenoiseConfig, passes,
            stats, state):
    """One a-trous iteration of each channel, at each pixel's level, run as
    `passes`, a list of unit tap tables, over one G-buffer setup (see the
    module docstring).

    Each pass filters the previous pass's result; the last also returns the
    variance of the weighted mean, or None for a channel whose variance the
    frame `state` says no later call reads. Each tap is a full padded plane
    sliced to the foreground's box, so a kept pixel still sees its true
    neighbours and the image border. Counts the nominal taps, the sum of the
    pass lengths per pixel and channel, into `stats`. Returns one
    (channel', variance') pair per channel, the channel (H, W, C).
    """
    datas = [as_planes(channel) for channel in channels]
    variances = [np.asarray(variance, dtype=np.float64) for variance in variances]
    for level, var in zip(levels, variances, strict=True):
        check_level(np.max(level), *var.shape)
    state = state or FrameState(gbuf)
    fg, box = state.fg, state.box
    var_read = state.variance_read(len(datas))
    outs = [(data.copy(), var.copy() if read else None)
            for data, var, read in zip(datas, variances, var_read, strict=True)]
    if box is not None:
        levels = [np.asarray(level, dtype=np.int64) for level in levels]
        levels = [level[box] if level.ndim else level for level in levels]
        # the levels in use; a uniform map, the common case, needs two
        # reductions instead of a sort
        used = [np.unique(level) if level.min() != level.max() else level.reshape(-1)[:1]
                for level in levels]
        state.plan(used, passes)
        # each channel pads its planes as far as its own top level reaches
        reaches = [2 * 2 ** int(u[-1]) for u in used]
        gtaps = (shifted(np.where(fg, gbuf.depth, np.inf), max(reaches)),
                 shifted(np.where(fg[..., None], gbuf.normal, 0.0), max(reaches)))
        z_c = np.where(fg[box], gbuf.depth[box], 0.0).astype(np.float64)
        geometry = (z_c, cfg.sigma_z * np.abs(z_c), channel_major(gtaps[1](0, 0)[box]))
        neg_denoms = [-(cfg.sigma_l * np.sqrt(np.maximum(var[box], 0.0)) + _EPSILON)
                      for var in variances]
        # band-sized scratch, allocated once for every pass and level, with
        # accumulators for as many channels as share a level
        union = np.unique(np.concatenate(used))
        h, w = z_c.shape
        rows = min(h, max(1, _BAND // w))
        planes = max(data.shape[2] for data in datas)
        scratch = (tuple(np.empty((rows, w)) for _ in range(3)),
                   [(np.empty((planes, rows, w)), np.empty((rows, w)), np.empty((rows, w)))
                    for _ in range(max(sum(lv in u for u in used) for lv in union))])
        for n, offsets in enumerate(passes):
            last = n == len(passes) - 1
            # a channel's padded planes live from its first level in the pass
            # to its last, so channels on disjoint levels never hold both sets
            members = [None] * len(datas)
            for lv in union:
                at = []
                for s, (u, level) in enumerate(zip(used, levels)):
                    if lv in u:
                        if members[s] is None:
                            (out, out_var), var = outs[s], variances[s]
                            members[s] = _pass_member(out, out_var, var, neg_denoms[s], box,
                                                      reaches[s], last and var_read[s])
                        at.append(members[s] if len(u) == 1
                                  else members[s]._replace(mask=level == lv))
                        if lv == u[-1]:
                            members[s] = None
                read, write = state.next_pass(z_c.shape)
                _level_pass(offsets, 2 ** int(lv), box, geometry, gtaps, at, scratch, cfg,
                            read, write)
        # background pixels keep their inputs; outside the box no pass wrote
        bg = ~fg[box]
        if bg.any():
            for (out, out_var), data, var in zip(outs, datas, variances):
                np.copyto(out[box], data[box], where=bg[..., None])
                if out_var is not None:
                    np.copyto(out_var[box], var[box], where=bg)
    if stats is not None:
        taps_per_pixel = sum(map(len, passes))
        stats["taps"] = stats.get("taps", 0) + fg.size * taps_per_pixel * len(datas)
        stats["taps_per_pixel"] = taps_per_pixel
    return outs


def atrous_dense(channels, variances, gbuf: GBufferFrame, levels, cfg: DenoiseConfig,
                 stats: dict | None = None, *, state: FrameState | None = None):
    """One dense 5x5 iteration of each of equal-length lists of channels,
    variances and levels, filtered jointly over one G-buffer setup; a level
    is a scalar or a per-pixel array.

    Returns a list of (channel', variance') pairs, channel' (H, W, C) and
    variance' the variance of the weighted mean. Taps are clamped to the
    image border; the center tap always participates with edge weight 1, so
    each output stays a convex combination. `state` is the frame's
    `FrameState`, shared by its iterations' calls: a call reads the G-buffer
    weights an earlier level stored, instead of computing them again, and a
    channel whose variance no later call reads gets None for it. Without
    one the call builds its own and returns every variance.
    """
    return _atrous(channels, variances, gbuf, levels, cfg, (_DENSE,), stats, state)


def atrous_separable(channels, variances, gbuf: GBufferFrame, levels, cfg: DenoiseConfig,
                     stats: dict | None = None, *, state: FrameState | None = None):
    """One separable 5+5 iteration of each channel, as `atrous_dense` takes
    and returns them: horizontal color-only, then vertical.

    The variance buffer passes through the horizontal stage untouched and is
    updated only by the vertical pass, which is what makes the separable form
    blur slightly more than the dense one across edges. With per-pixel levels
    the vertical pass reads horizontal results computed at each neighbor's
    own level. Each pass reuses the weights of its offsets at twice the
    previous level's step, as the dense form does.
    """
    return _atrous(channels, variances, gbuf, levels, cfg, (_ROW, _COLUMN), stats, state)


def _feature(values) -> np.ndarray:
    """A material feature as an array that the selectors compare in its own
    float precision, so that a float32 roughness stored as 0.2 is still 0.2;
    other values compare as float64."""
    f = np.asarray(values)
    return f if f.dtype.kind == "f" else f.astype(np.float64)


def select_start_level(kind: ChannelKind, feature, cfg: DenoiseConfig):
    """Starting a-trous level: 1 where the material feature predicts heavy
    noise (specular roughness > 0.2, shadow angle > 6.0 degrees), else 0.
    The feature compares in its own precision (see `_feature`)."""
    f = _feature(feature)
    if not cfg.adaptive_start:
        return np.zeros_like(f, dtype=np.int64)
    if kind is ChannelKind.INDIRECT_SPECULAR:
        threshold = cfg.roughness_start_threshold
    else:
        threshold = cfg.shadow_angle_start_threshold
    return (f > f.dtype.type(threshold)).astype(np.int64)


def select_iteration_count(roughness, ibl_adaptive: bool, default_iterations: int):
    """Iteration count per roughness when secondary shading is noise-free:
    0 at roughness 0, at most 1 up to 0.05, otherwise `default_iterations`.
    The roughness compares in its own precision (see `_feature`)."""
    r = _feature(roughness)
    if not ibl_adaptive:
        return np.full_like(r, default_iterations, dtype=np.int64)
    return np.where(r <= 0.0, 0, np.where(r <= r.dtype.type(0.05), min(1, default_iterations),
                                          default_iterations)).astype(np.int64)


def denoise_frame(signals: dict, gbuf: GBufferFrame, cfg: DenoiseConfig,
                  shadow_angle=None) -> dict:
    """Run the configured a-trous iterations for each channel of one frame.

    `signals` maps a `ChannelKind` to its (channel, variance). Iteration i
    filters a channel at level start+i, and filters every channel that has
    an iteration i in one joint call of `atrous_dense` or `atrous_separable`,
    so they share its G-buffer setup and edge weights. The calls share one
    `FrameState`, so each level reads the weights of the previous level's
    outer ring instead of computing them again. The output of
    iteration 0 becomes the color fed back into the temporal history (unless
    feedback is off). The SHADOW kind needs the light's `shadow_angle` in
    degrees, one scalar for the frame or a per-pixel map. Returns, per kind,
    (final_channel, feedback_channel, iteration_records), channels (H, W, C)
    even for an (H, W) input.
    """
    plans = {}
    for kind, (channel, variance) in signals.items():
        if kind is ChannelKind.INDIRECT_SPECULAR:
            feature = gbuf.roughness
            counts = select_iteration_count(feature, cfg.ibl_adaptive_iterations,
                                            cfg.iterations)
        else:
            if shadow_angle is None:
                raise ValueError("the SHADOW kind needs shadow_angle")
            feature = shadow_angle
            counts = np.full(gbuf.depth.shape, cfg.iterations, dtype=np.int64)
        start = select_start_level(kind, feature, cfg)
        max_count = int(counts.max()) if counts.size else 0
        if max_count > 0:
            check_level(np.max(start) + max_count - 1, *gbuf.depth.shape)
        # the filters never write their inputs, so a plan starts from the
        # caller's arrays, which `_outputs` copies if no iteration replaced them
        data = as_planes(channel)
        plans[kind] = {"start": start, "counts": counts, "max_count": max_count,
                       "data": data, "out": data, "feedback": None, "records": [],
                       "var": np.asarray(variance, dtype=np.float64)}

    filt = atrous_separable if cfg.separable else atrous_dense
    counts = [p["max_count"] for p in plans.values() if p["max_count"] > 0]
    state = FrameState(gbuf, counts) if counts else None
    for i in range(max(counts, default=0)):
        running = [p for p in plans.values() if p["max_count"] > i]
        stats = {}
        results = filt([p["out"] for p in running], [p["var"] for p in running], gbuf,
                       [p["start"] + i for p in running], cfg, stats=stats, state=state)
        for p, (filtered, fvar) in zip(running, results):
            level = p["start"] + i
            # pixels past their iteration count keep their values; a channel's
            # last iteration returns no variance
            done = p["counts"] <= i
            if done.any():
                np.copyto(filtered, p["out"], where=done[..., None])
                if fvar is not None:
                    np.copyto(fvar, p["var"], where=done)
            p["out"], p["var"] = filtered, fvar
            p["records"].append({"iteration": i, "level_min": int(level.min()),
                                 "level_max": int(level.max()),
                                 "step_min": int(2 ** level.min()),
                                 "step_max": int(2 ** level.max()),
                                 "taps": gbuf.depth.size * stats["taps_per_pixel"],
                                 "taps_per_pixel": stats["taps_per_pixel"]})
            if i == 0 and cfg.feedback == "first_iteration":
                p["feedback"] = p["out"]  # later iterations replace, not write, it

    return {kind: _outputs(p["data"], p["out"], p["feedback"], p["records"])
            for kind, p in plans.items()}


def _outputs(data, out, feedback, records):
    """(final, feedback, records), each channel its own array, none of them
    the caller's input; the input is the feedback when none was taken."""
    feedback = data if feedback is None else feedback
    out = out.copy() if out is data else out
    return out, feedback.copy() if feedback is data or feedback is out else feedback, records


def denoise_channel(channel, variance, gbuf: GBufferFrame, cfg: DenoiseConfig,
                    kind: ChannelKind, shadow_angle=None):
    """Run the configured a-trous iterations for one channel: `denoise_frame`
    of that channel alone, returning its (final_channel, feedback_channel,
    iteration_records). The pipeline calls `denoise_frame`; this stays only
    because `perfbench/spans.py` binds the name, whose probe records nothing
    while the pipeline does not call it."""
    return denoise_frame({kind: (channel, variance)}, gbuf, cfg, shadow_angle)[kind]
