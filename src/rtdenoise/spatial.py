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
take lists of channels, variances and levels. The G-buffer side is set up
in two places. Once per frame, the `FrameState` (below) checks the
foreground's geometry and finds its bounding box (`stencil.bounding_box`).
Once per call, that is per iteration, the driver builds what all its
signals and passes share: the center depth and normals, the depth and
normal planes padded with edge values (`stencil.shifted`), which is
clamp-to-border indexing, and the band-sized scratch. The padded planes hold
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
planes, allocated once per iteration, that stay in a core's L2 cache; it
allocates nothing band-sized per tap. A pass writes its results straight
into the box of each signal's output. Only the foreground's bounding box
is filtered. That is exact too: every pixel outside the box is background,
whose result is replaced by its input anyway, and its taps weigh 0, so the
separable form's vertical pass never uses its result. The frame state
rejects a foreground pixel whose depth is not positive and finite or whose
normal is not finite, since its weights would turn the frame NaN.

Within a pass every pixel is independent of every other, which is why SVGF
runs a pass as one GPU dispatch. Where the box holds at least
`_SPLIT_PIXELS` pixels and the process may run on two CPUs, each level pass
therefore runs the box's rows as two contiguous halves; otherwise as one.
One code path runs either: the top half on the calling thread, and each half
after it on a worker thread started for that pass and joined before it
returns, each half in its own row bands with its own scratch. numpy's
loops release the GIL, so the halves overlap. The outputs are the serial
pass's bit for bit, by construction. Each half writes only its own rows of
the outputs and of the stored weights. Every read is of padded copies made
before the pass, or of stored weights written by an earlier pass, which was
joined before this one began; so the separable form's vertical pass reads
the horizontal results only after both halves have made them. And each
pixel sums its taps in the same order on any thread. Below that size, or
on one CPU, the same code runs the box as one half and starts no thread.

Every a-trous call runs through a `FrameState`, built whole from each
channel's start level and iteration count and the form's passes.
`denoise_frame` builds one per frame from `select_schedule`'s plans and
passes it to every call of the frame; a call given none builds its own, as
one lone iteration whose every variance its caller reads. The state checks
the top levels and the geometry and crops the box once, and lays out the
frame's calls, each channel's levels in use and the schedule of level passes
before the first call. A tap's G-buffer weight depends only on its pixel
offset: every pass of the state has the same center planes and the same
edge-clamped tap planes, and the distance of unit offset (j, i) at step s,
s * hypot(j, i), equals bit for bit that of (j/2, i/2) at step 2s, since the
steps are powers of two and scaling by two is exact. So a level's taps at
even unit offsets, the corners and edge midpoints of its outer ring, are the
next level's inner ring. The state stores them as box planes keyed by pixel
offset when a later pass reads them, and drops each after its last read.
Four uniform dense iterations then evaluate 24 + 3 * 16 weights per box
pixel instead of 96, separable ones 8 + 3 * 4 instead of 32. The state also
tells each call which channels run their last iteration: no later call reads
their variance, so the call neither pads nor accumulates it and returns None
in its place.

`select_schedule` plans each channel per pixel: the start level shifts up by
one where material features predict heavy noise (roughness over 0.2, shadow
angles over 6 degrees), keeping the iteration count fixed; with noise-free
secondary shading the iteration count itself adapts to roughness.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from .frames import ChannelKind, DenoiseConfig, GBufferFrame
from .stencil import as_planes, bounding_box, channel_major, dot3, shifted
from .tonemap import luma

KERNEL_1D = np.array([1.0 / 16, 1.0 / 4, 3.0 / 8, 1.0 / 4, 1.0 / 16])
_OFFSETS = (-2, -1, 0, 1, 2)
_EPSILON = 1e-8  # keeps the depth and luminance stops finite at zero spread
_BAND = 32768  # pixels per row band of the tap loop: 256 KB per scratch plane
# Box pixels from which a level pass runs as two row halves on two CPUs. Split
# time over serial time of `denoise_frame` on cubes-distance/camera, median of
# 9 alternations, 2 CPUs (x86-64, numpy 2.4, one BLAS thread), by box pixels:
# `svgf` 12.8k 1.58, 20k 1.18, 24k 1.06, 29k 0.97, 34k 0.81, 39k 0.76 and
# 51k 0.70; the separable full stack 12.8k 1.63, 29k 1.06, 34k 0.94 and 51k
# 0.85. Below ~30k the thread start and the GIL hand-offs cost more than the
# second CPU gains.
_SPLIT_PIXELS = 32768


def check_level(top, height: int, width: int) -> None:
    """Reject a-trous level `top` when its taps spread over half the image."""
    if 2 ** int(top) >= min(height, width) / 2:
        raise ValueError(f"a-trous level {top} too large for {width}x{height}")


def _geometry_weight(center, tap, dist, cfg, out, scratch):
    """The G-buffer half of the edge weight, w_z * w_n, for one tap, written
    into `out`. `center` is (depth, sigma_z * |depth|, normal); `tap` is
    (depth, normal), with +inf depth on the background, whose weight is thus
    0 by construction. `scratch` is two float planes and then two bool
    planes of `out`'s shape, the bool ones free to share the second float
    plane's bytes, so the call allocates nothing."""
    z_c, sz_c, n_c = center
    z_t, n_t = tap
    tmp, prod, keep, other = scratch
    np.subtract(z_c, z_t, out=out)
    np.abs(out, out=out)
    # the negated denominator: x / -y == -(x / y) exactly
    np.multiply(sz_c, -dist, out=tmp)
    tmp -= _EPSILON
    out /= tmp
    np.exp(out, out=out)
    ndot = np.maximum(0.0, dot3(n_c, n_t, out=tmp, scratch=prod), out=tmp)
    # 0 and 1 are their own powers for sigma_n > 0; most taps share a plane
    # or face away, so only the rest pay for the pow
    np.not_equal(ndot, 0.0, out=keep)
    keep &= np.not_equal(ndot, 1.0, out=other)
    np.power(ndot, cfg.sigma_n, out=ndot, where=keep)
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
    it reads only padded copies."""
    # luma of the whole plane, before cropping: `@` may take another BLAS
    # path, so other rounding, on a non-contiguous view
    return _Member(neg_denom, shifted(luma(out), reach), shifted(out, reach),
                   shifted(var, reach) if with_var else None,
                   out[box], out_var[box] if with_var else None)


def _level_pass(offsets, step, box, geometry, gtaps, members, halves, cfg, read, write):
    """One pass at one step over the box for `members`, the signals that use
    this level, as one or two row halves (see the module docstring).

    `geometry` is the center's (depth, sigma_z * |depth|, normal) and `gtaps`
    the padded (depth, normal) planes. `halves` holds one or two (rows,
    scratch) pairs, contiguous row ranges that cover the box, each with its
    own band scratch (see `_rows`). Each member's mean, and its variance where
    it has a `var` view, are written into its box views where its mask holds.
    `read` and `write` map pixel offsets to box planes of w_z * w_n from a
    frame state's store: a tap in `read` takes its weight from there, and a
    tap in `write` computes its weight into it.

    The pass runs the top half on the calling thread and starts a worker
    thread for each half after it, none for one half. A worker runs under the
    caller's floating-point error settings (`np.geterr` and `np.geterrcall`,
    read on the calling thread, since a new thread starts with numpy's
    default error state), so that a caller's `np.errstate` holds in every
    half; the pass joins each worker before it returns, re-raising what it
    raised. The halves' results are the serial pass's bits: each half writes
    only its own rows of the members' box views and of the `write` planes;
    every read is of padded copies made before the pass or of planes an
    earlier, joined pass wrote; and each pixel sums its taps in the same
    order on any thread. A worker calls no function that
    `perfbench/spans.py` probes, whose tracer keeps one stack of open spans
    for all threads.
    """
    def run(rows, scratch):
        _rows(rows, offsets, step, box, geometry, gtaps, members, scratch, cfg, read, write)

    top, *bottom = halves
    errors, call = np.geterr(), np.geterrcall()
    raised = []

    def run_worker(half):
        try:
            with np.errstate(call=call, **errors):
                run(*half)
        except BaseException as e:  # re-raised on the calling thread
            raised.append(e)

    workers = [threading.Thread(target=run_worker, args=(half,)) for half in bottom]
    for worker in workers:
        worker.start()
    try:
        run(*top)
    finally:
        for worker in workers:
            worker.join()
    if raised:
        raise raised[0]


def _rows(rows, offsets, step, box, geometry, gtaps, members, scratch, cfg, read, write):
    """The box rows `rows` of a `_level_pass`, in row bands. `scratch` holds
    three band-sized planes and, per member, band-sized accumulators of data,
    weight and squared weight times variance, so that the tap loop allocates
    nothing band-sized."""
    (g, wgt, tmp), slots = scratch
    band_rows, w = g.shape
    accs = [(acc[:m.mean.shape[2]], acc_w, acc_w2v)
            for m, (acc, acc_w, acc_w2v) in zip(members, slots)]
    for r0 in range(rows.start, rows.stop, band_rows):
        band = slice(r0, min(r0 + band_rows, rows.stop))
        hb = band.stop - r0
        g_b, wgt_b, tmp_b = g[:hb], wgt[:hb], tmp[:hb]
        # the G-buffer weight's two bool planes are bytes of the weight plane,
        # which no one reads between the normal dot and the luminance stop;
        # two bool planes of their own raised peak RSS by ~0.5 MB at 128²
        masks = wgt_b.view(bool)
        weight_scratch = (tmp_b, wgt_b, masks[:, :w], masks[:, w:2 * w])
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
                    _geometry_weight(center, tap, step * dist, cfg, gw, weight_scratch)
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


def _scratch(rows, w, planes, slots):
    """One half's band scratch for `_rows`, `rows` by `w`: three planes, and
    `slots` accumulator triples of `planes` data planes."""
    return (tuple(np.empty((rows, w)) for _ in range(3)),
            [(np.empty((planes, rows, w)), np.empty((rows, w)), np.empty((rows, w)))
             for _ in range(slots)])


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


class _Call(NamedTuple):
    """One a-trous call of a frame: the indices of the channels it filters,
    each one's sorted levels in use over the box and whether its variance is
    read after the call, and the union of those levels."""
    running: list
    used: list
    var_read: list
    union: np.ndarray


class FrameState:
    """What the a-trous calls of one frame share (see the module docstring).

    Built whole from the frame's G-buffer, each channel's start level and
    iteration count (a scalar or a per-pixel map each) and the form's
    `passes`, it checks each channel's top level and the foreground's
    geometry, crops the foreground to its box, and lays out the frame's
    calls and level passes at once. Call i filters each channel that runs
    more than i iterations anywhere, at its start level + i; its variance
    is read after the call if the channel runs another. `counts=None` marks
    a lone call: one iteration, and its caller reads every variance.
    `denoise_frame` builds one state per frame and passes it to every call,
    and a call made without a state builds its own. The state tells each
    call its `_Call` (`pending`), and each pass which stored weights are
    still read later and which of its own outer ring to store. The store
    keeps G-buffer weights keyed by pixel offset.
    """

    def __init__(self, gbuf: GBufferFrame, starts, counts, passes):
        runs = ([1] * len(starts) if counts is None
                else [int(np.max(count, initial=0)) for count in counts])
        self.fg = gbuf.foreground
        self.box = bounding_box(self.fg)
        used = []  # per channel, its sorted start levels over the box
        for start, n in zip(starts, runs, strict=True):
            start = np.asarray(start, dtype=np.int64)
            if n > 0:
                check_level(start.max() + n - 1, *gbuf.depth.shape)
            if start.ndim and self.box is not None:
                start = start[self.box]
            # a uniform map, the common case, needs two reductions instead of a sort
            used.append(np.unique(start) if start.min() != start.max() else start.reshape(-1)[:1])
        self.calls, steps = [], []
        for i in range(max(runs, default=0)):
            running = [s for s, n in enumerate(runs) if n > i]
            at = [used[s] + i for s in running]
            union = np.unique(np.concatenate(at))
            self.calls.append(_Call(running, at, [counts is None or runs[s] - 1 > i
                                                  for s in running], union))
            steps.extend((offsets, 2 ** int(lv)) for offsets in passes for lv in union)
        if self.calls:
            _check_geometry(gbuf, self.fg)
        self.pending = iter(self.calls)
        taps = [{(j * s, i * s) for j, i, _k, _d in offsets if (j, i) != (0, 0)}
                for offsets, s in steps]
        later = [set()]
        for t in reversed(taps[1:]):
            later.append(later[-1] | t)
        self._passes = iter(zip(taps, reversed(later), (s for _o, s in steps)))
        self.weights = {}  # pixel offset (dy, dx) -> box plane of w_z * w_n

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

    The call's levels in use and which variances are read come from the
    frame `state`'s next call; a call given none builds a lone one from
    `levels`. Each pass filters the previous pass's result; the last also
    returns the variance of the weighted mean, or None for a channel whose
    variance no later call reads. Each tap is a full padded plane
    sliced to the foreground's box, so a kept pixel still sees its true
    neighbours and the image border. Counts the nominal taps, the sum of the
    pass lengths per pixel and channel, into `stats`. Returns one
    (channel', variance') pair per channel, the channel (H, W, C).
    """
    datas = [as_planes(channel) for channel in channels]
    variances = [np.asarray(variance, dtype=np.float64) for variance in variances]
    state = state or FrameState(gbuf, levels, None, passes)
    fg, box = state.fg, state.box
    _running, used, var_read, union = next(state.pending)
    outs = [(data.copy(), var.copy() if read else None)
            for data, var, read in zip(datas, variances, var_read, strict=True)]
    if box is not None:
        levels = [np.asarray(level, dtype=np.int64) for level in levels]
        levels = [level[box] if level.ndim else level for level in levels]
        # each channel pads its planes as far as its own top level reaches
        reaches = [2 * 2 ** int(u[-1]) for u in used]
        gtaps = (shifted(np.where(fg, gbuf.depth, np.inf), max(reaches)),
                 shifted(np.where(fg[..., None], gbuf.normal, 0.0), max(reaches)))
        z_c = np.where(fg[box], gbuf.depth[box], 0.0).astype(np.float64)
        geometry = (z_c, cfg.sigma_z * np.abs(z_c), channel_major(gtaps[1](0, 0)[box]))
        neg_denoms = [-(cfg.sigma_l * np.sqrt(np.maximum(var[box], 0.0)) + _EPSILON)
                      for var in variances]
        # the box's rows as one half, or two where the split pays, each with
        # band-sized scratch allocated once for every pass and level, and
        # accumulators for as many channels as share a level
        h, w = z_c.shape
        cuts = [0, (h + 1) // 2, h] if h * w >= _SPLIT_PIXELS and _cpus() > 1 else [0, h]
        planes = max(data.shape[2] for data in datas)
        slots = max(sum(lv in u for u in used) for lv in union)
        halves = [(slice(a, b), _scratch(max(1, min(b - a, _BAND // w)), w, planes, slots))
                  for a, b in zip(cuts, cuts[1:])]
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
                _level_pass(offsets, 2 ** int(lv), box, geometry, gtaps, at, halves, cfg,
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


def select_schedule(kind: ChannelKind, feature, cfg: DenoiseConfig):
    """A channel's a-trous plan from its material feature, the specular
    roughness or the shadow angle in degrees: (start level, iteration
    count), each per pixel for a feature map and 0-d for a scalar.

    Under `cfg.adaptive_start` the start is 1 where the feature predicts
    heavy noise (roughness over `roughness_start_threshold`, angle over
    `shadow_angle_start_threshold`), else 0. The count is `cfg.iterations`,
    except for the specular when secondary shading is noise-free
    (`cfg.ibl_adaptive_iterations`): then 0 at roughness 0 and at most 1 up
    to 0.05. A float feature compares in its own precision, so that a
    float32 roughness stored as 0.2 is still 0.2; others compare as float64.
    """
    f = np.asarray(feature)
    f = f if f.dtype.kind == "f" else f.astype(np.float64)
    specular = kind is ChannelKind.INDIRECT_SPECULAR
    threshold = cfg.roughness_start_threshold if specular else cfg.shadow_angle_start_threshold
    start = ((f > f.dtype.type(threshold)) & cfg.adaptive_start).astype(np.int64)
    count = np.asarray(cfg.iterations, dtype=np.int64)
    if specular and cfg.ibl_adaptive_iterations:
        count = np.where(f <= 0.0, 0, np.where(f <= f.dtype.type(0.05), min(1, cfg.iterations),
                                               count)).astype(np.int64)
    return start, count


def denoise_frame(signals: dict, gbuf: GBufferFrame, cfg: DenoiseConfig,
                  shadow_angle=None) -> dict:
    """Run the configured a-trous iterations for each channel of one frame.

    `signals` maps a `ChannelKind` to its (channel, variance). Each channel's
    start level and iteration count come from `select_schedule`, and the
    frame's `FrameState` is built whole from them. Iteration i filters a
    channel at level start+i, and filters every channel that has an
    iteration i in one joint call of `atrous_dense` or `atrous_separable`,
    so they share its G-buffer setup and edge weights; a pixel past its own
    count keeps its value. Through the shared state each level reads the
    weights of the previous level's outer ring instead of computing them
    again. The output of iteration 0 becomes the color fed back into the
    temporal history (unless feedback is off). The SHADOW kind needs the
    light's `shadow_angle` in degrees, one scalar for the frame or a
    per-pixel map. Returns, per kind, (final_channel, feedback_channel,
    iteration_records), channels (H, W, C) even for an (H, W) input.
    """
    if ChannelKind.SHADOW in signals and shadow_angle is None:
        raise ValueError("the SHADOW kind needs shadow_angle")
    plans = [select_schedule(kind, gbuf.roughness if kind is ChannelKind.INDIRECT_SPECULAR
                             else shadow_angle, cfg) for kind in signals]
    starts = [start for start, _count in plans]
    counts = [count for _start, count in plans]
    # the filters never write their inputs, so the outputs start as the
    # caller's arrays, which `_outputs` copies if no iteration replaced them
    datas = [as_planes(channel) for channel, _variance in signals.values()]
    variances = [np.asarray(variance, dtype=np.float64) for _channel, variance in signals.values()]
    outs, feedbacks, records = list(datas), [None] * len(datas), [[] for _ in datas]

    filt, passes = ((atrous_separable, (_ROW, _COLUMN)) if cfg.separable
                    else (atrous_dense, (_DENSE,)))
    state = FrameState(gbuf, starts, counts, passes)
    for i, call in enumerate(state.calls):
        stats = {}
        results = filt([outs[s] for s in call.running], [variances[s] for s in call.running],
                       gbuf, [starts[s] + i for s in call.running], cfg, stats=stats,
                       state=state)
        for s, (filtered, fvar) in zip(call.running, results):
            # pixels past their iteration count keep their values; a channel's
            # last iteration returns no variance
            done = counts[s] <= i
            if done.any():
                np.copyto(filtered, outs[s], where=done[..., None])
                if fvar is not None:
                    np.copyto(fvar, variances[s], where=done)
            outs[s], variances[s] = filtered, fvar
            low, high = int(starts[s].min()) + i, int(starts[s].max()) + i
            records[s].append({"iteration": i, "level_min": low, "level_max": high,
                               "step_min": 2 ** low, "step_max": 2 ** high,
                               "taps": gbuf.depth.size * stats["taps_per_pixel"],
                               "taps_per_pixel": stats["taps_per_pixel"]})
            if i == 0 and cfg.feedback == "first_iteration":
                feedbacks[s] = filtered  # later iterations replace, not write, it

    return {kind: _outputs(*outputs)
            for kind, outputs in zip(signals, zip(datas, outs, feedbacks, records))}


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
