import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtdenoise import spatial
from rtdenoise.frames import ChannelKind, DenoiseConfig, GBufferFrame
from rtdenoise.pipeline import PRESETS, preset_config
from rtdenoise.render import render_frame
from rtdenoise.scenes import preset_scene, scene_from_dict
from rtdenoise.spatial import (KERNEL_1D, atrous_dense, atrous_separable, denoise_channel,
                               select_schedule)
from rtdenoise.stencil import bounding_box, shifted

SHADOW, SPECULAR = ChannelKind


def edge_weight(center: dict, tap: dict, center_variance: float,
                cfg: DenoiseConfig, distance: float = 1.0) -> float:
    """Scalar reference form of the edge-stopping weight; taps of the
    background get weight 0. `distance` is the tap offset length in pixels."""
    if tap["object_id"] == 0:
        return 0.0
    w_z = np.exp(-abs(center["depth"] - tap["depth"])
                 / (cfg.sigma_z * abs(center["depth"]) * distance + spatial._EPSILON))
    ndot = float(np.dot(center["normal"], tap["normal"]))
    w_n = max(0.0, ndot) ** cfg.sigma_n
    w_l = np.exp(-abs(center["luma"] - tap["luma"])
                 / (cfg.sigma_l * np.sqrt(max(center_variance, 0.0)) + spatial._EPSILON))
    return float(w_z * w_n * w_l)


def _flat_gbuf(h=16, w=16, depth=5.0):
    normal = np.zeros((h, w, 3), dtype=np.float32)
    normal[:, :, 1] = 1.0
    return GBufferFrame(
        depth=np.full((h, w), depth, dtype=np.float32),
        normal=normal,
        motion=np.zeros((h, w, 2), dtype=np.float32),
        object_id=np.ones((h, w), dtype=np.int32),
        albedo=np.full((h, w, 3), 0.5, dtype=np.float32),
        roughness=np.full((h, w), 0.3, dtype=np.float32),
        emissive=np.zeros((h, w, 3), dtype=np.float32),
    )


def dense_oracle(channel, variance, gbuf, level, cfg):
    """Independent direct bilateral convolution with the same contract,
    written as explicit per-pixel loops over the 25 dilated taps. `level`
    is a scalar or a per-pixel level map."""
    h, w = gbuf.depth.shape
    data = np.asarray(channel, dtype=np.float64).reshape(h, w, -1)
    var = np.asarray(variance, dtype=np.float64)
    levels = np.broadcast_to(level, (h, w))
    out = data.copy()
    out_var = var.copy()
    lum_w = np.array([0.2126, 0.7152, 0.0722])

    def lum(v):
        return float(v @ lum_w) if v.shape[0] == 3 else float(v[0])

    for y in range(h):
        for x in range(w):
            if gbuf.object_id[y, x] == 0:
                continue
            step = 2 ** int(levels[y, x])
            center = {"depth": float(gbuf.depth[y, x]),
                      "normal": gbuf.normal[y, x].astype(np.float64),
                      "luma": lum(data[y, x]),
                      "object_id": int(gbuf.object_id[y, x])}
            sw = 0.0
            sc = np.zeros(data.shape[2])
            sv = 0.0
            for j in (-2, -1, 0, 1, 2):
                for i in (-2, -1, 0, 1, 2):
                    yt = min(max(y + j * step, 0), h - 1)
                    xt = min(max(x + i * step, 0), w - 1)
                    k2 = KERNEL_1D[i + 2] * KERNEL_1D[j + 2]
                    if i == 0 and j == 0:
                        ew = 1.0
                    else:
                        tap = {"depth": float(gbuf.depth[yt, xt]),
                               "normal": gbuf.normal[yt, xt].astype(np.float64),
                               "luma": lum(data[yt, xt]),
                               "object_id": int(gbuf.object_id[yt, xt])}
                        ew = edge_weight(center, tap, float(var[y, x]), cfg,
                                         distance=step * float(np.hypot(i, j)))
                    wgt = k2 * ew
                    sw += wgt
                    sc += wgt * data[yt, xt]
                    sv += wgt * wgt * var[yt, xt]
            out[y, x] = sc / sw
            out_var[y, x] = sv / (sw * sw)
    return (out[:, :, 0] if np.asarray(channel).ndim == 2 else out), out_var


def separable_oracle(channel, variance, gbuf, level_map, cfg):
    """Per-pixel loops of the separable contract: a color-only horizontal
    pass, then a vertical pass over the horizontal results that updates the
    variance. Each pixel filters at its own step, so the vertical pass reads
    horizontal results that its neighbors computed at their own steps. As in
    `dense_oracle`, background pixels keep their input: a background tap has
    weight 0, so the vertical pass never uses their horizontal result."""
    h, w = gbuf.depth.shape
    data = np.asarray(channel, dtype=np.float64).reshape(h, w, -1)
    var = np.asarray(variance, dtype=np.float64)
    lum_w = np.array([0.2126, 0.7152, 0.0722])

    def attrs(img, y, x):
        v = img[y, x]
        return {"depth": float(gbuf.depth[y, x]),
                "normal": gbuf.normal[y, x].astype(np.float64),
                "luma": float(v @ lum_w) if v.shape[0] == 3 else float(v[0]),
                "object_id": int(gbuf.object_id[y, x])}

    def one_pass(img, vertical):
        out = img.copy()
        out_var = var.copy()
        for y in range(h):
            for x in range(w):
                if gbuf.object_id[y, x] == 0:
                    continue
                step = 2 ** int(level_map[y, x])
                center = attrs(img, y, x)
                sw, sc, sv = 0.0, np.zeros(img.shape[2]), 0.0
                for k in (-2, -1, 0, 1, 2):
                    yt = min(max(y + k * step, 0), h - 1) if vertical else y
                    xt = x if vertical else min(max(x + k * step, 0), w - 1)
                    ew = 1.0 if k == 0 else edge_weight(
                        center, attrs(img, yt, xt), float(var[y, x]), cfg,
                        distance=step * abs(k))
                    wgt = KERNEL_1D[k + 2] * ew
                    sw += wgt
                    sc += wgt * img[yt, xt]
                    sv += wgt * wgt * var[yt, xt]
                out[y, x] = sc / sw
                out_var[y, x] = sv / (sw * sw)
        return out, out_var

    horiz, _ = one_pass(data, vertical=False)
    out, out_var = one_pass(horiz, vertical=True)
    return (out[:, :, 0] if np.asarray(channel).ndim == 2 else out), out_var


def _alone(filt, channel, variance, gbuf, level, cfg, stats=None):
    """One channel's iteration through the joint form of `filt`
    (`atrous_dense` or `atrous_separable`): lists of one, its one pair, and
    the channel in its input's shape."""
    [(out, out_var)] = filt([channel], [variance], gbuf, [level], cfg, stats=stats)
    return out.reshape(np.shape(channel)), out_var


def _every_weight(monkeypatch):
    """Make every level pass compute all its G-buffer weights: the state
    still lays out its passes, but hands none a stored weight or a plane to
    store."""
    next_pass = spatial.FrameState.next_pass

    def computing(self, shape):
        next_pass(self, shape)
        return {}, {}

    monkeypatch.setattr(spatial.FrameState, "next_pass", computing)


def _random_gbuf(rs, h, w):
    gbuf = _flat_gbuf(h, w)
    gbuf.depth[:] = 4.0 + rs.random((h, w)).astype(np.float32)
    n = rs.normal(size=(h, w, 3)) + np.array([0.0, 3.0, 0.0])
    gbuf.normal[:] = (n / np.linalg.norm(n, axis=2, keepdims=True)).astype(np.float32)
    gbuf.object_id[rs.random((h, w)) < 0.07] = 0
    return gbuf


# ---------------------------------------------------------------------------
# edge weights

def test_edge_weight_identical_is_one():
    attrs = {"depth": 4.0, "normal": np.array([0.0, 1.0, 0.0]), "luma": 0.3,
             "object_id": 1}
    assert edge_weight(attrs, dict(attrs), 0.5, DenoiseConfig()) == pytest.approx(1.0)


def test_edge_weight_opposite_normals_zero():
    c = {"depth": 4.0, "normal": np.array([0.0, 1.0, 0.0]), "luma": 0.3, "object_id": 1}
    t = dict(c, normal=np.array([0.0, -1.0, 0.0]))
    assert edge_weight(c, t, 0.5, DenoiseConfig()) == 0.0


def test_edge_weight_zero_variance_blocks_luminance():
    c = {"depth": 4.0, "normal": np.array([0.0, 1.0, 0.0]), "luma": 0.0, "object_id": 1}
    t = dict(c, luma=1.0)
    assert edge_weight(c, t, 0.0, DenoiseConfig()) == pytest.approx(0.0, abs=1e-300)


def test_edge_weight_background_tap_zero():
    c = {"depth": 4.0, "normal": np.array([0.0, 1.0, 0.0]), "luma": 0.3, "object_id": 1}
    t = dict(c, object_id=0)
    assert edge_weight(c, t, 0.5, DenoiseConfig()) == 0.0


# ---------------------------------------------------------------------------
# dense pass

def test_constant_channel_unchanged_variance_scaled():
    gbuf = _flat_gbuf()
    channel = np.full((16, 16), 0.7)
    variance = np.full((16, 16), 0.2)
    out, out_var = _alone(atrous_dense, channel, variance, gbuf, 0, DenoiseConfig())
    assert np.allclose(out, 0.7, atol=1e-12)
    factor = float(np.sum(KERNEL_1D**2)) ** 2  # 2D kernel energy
    assert np.allclose(out_var, 0.2 * factor, atol=1e-9)


def test_impulse_preserved_at_zero_variance():
    gbuf = _flat_gbuf()
    channel = np.zeros((16, 16))
    channel[8, 8] = 5.0
    out, _v = _alone(atrous_dense, channel, np.zeros((16, 16)), gbuf, 0, DenoiseConfig())
    assert out[8, 8] == pytest.approx(5.0, rel=1e-9)
    assert np.abs(out - channel).max() < 1e-9


def test_dense_matches_oracle_level0_and_1():
    rs = np.random.default_rng(0)
    h = w = 24
    gbuf = _random_gbuf(rs, h, w)
    channel = rs.random((h, w, 3)) * 2.0
    variance = rs.random((h, w)) * 0.3
    cfg = DenoiseConfig()
    mixed = (rs.random((h, w)) < 0.5).astype(np.int64)  # per-pixel levels 0 and 1
    for level in (0, 1, mixed):
        got, got_var = _alone(atrous_dense, channel, variance, gbuf, level, cfg)
        want, want_var = dense_oracle(channel, variance, gbuf, level, cfg)
        assert np.abs(got - want).max() <= 1e-6
        assert np.abs(got_var - want_var).max() <= 1e-6


def test_output_is_convex_combination():
    rs = np.random.default_rng(1)
    gbuf = _flat_gbuf()
    channel = rs.random((16, 16))
    out, _v = _alone(atrous_dense, channel, np.full((16, 16), 0.5), gbuf, 1,
                     DenoiseConfig())
    assert out.max() <= channel.max() + 1e-12
    assert out.min() >= channel.min() - 1e-12


def test_level_overflow_rejected():
    gbuf = _flat_gbuf(8, 8)
    with pytest.raises(ValueError, match="level"):
        _alone(atrous_dense, np.zeros((8, 8)), np.zeros((8, 8)), gbuf, 2, DenoiseConfig())


# ---------------------------------------------------------------------------
# separable pass

def test_separable_constant_unchanged():
    gbuf = _flat_gbuf()
    out, _v = _alone(atrous_separable, np.full((16, 16), 0.4), np.full((16, 16), 0.1),
                     gbuf, 0, DenoiseConfig())
    assert np.allclose(out, 0.4, atol=1e-12)


def test_separable_equals_dense_with_uniform_weights():
    rs = np.random.default_rng(2)
    gbuf = _flat_gbuf()
    channel = rs.random((16, 16, 3))
    variance = rs.random((16, 16)) * 0.2
    cfg = DenoiseConfig(sigma_l=1e12)  # luminance stop effectively disabled
    for level in (0, 1):
        d, _ = _alone(atrous_dense, channel, variance, gbuf, level, cfg)
        s, _ = _alone(atrous_separable, channel, variance, gbuf, level, cfg)
        assert np.abs(d - s).max() <= 1e-5


def test_separable_diverges_across_luminance_edge():
    # an axis-aligned edge factorizes, so use a diagonal one: the bilateral
    # weights no longer split into horizontal x vertical factors
    gbuf = _flat_gbuf()
    ys, xs = np.mgrid[0:16, 0:16]
    channel = (xs + ys >= 16).astype(np.float64)
    variance = np.full((16, 16), 0.25)
    cfg = DenoiseConfig()
    d, _ = _alone(atrous_dense, channel, variance, gbuf, 0, cfg)
    s, _ = _alone(atrous_separable, channel, variance, gbuf, 0, cfg)
    assert np.abs(d - s).max() > 1e-4


def test_separable_mixed_levels_match_oracle():
    rs = np.random.default_rng(9)
    h = w = 16
    gbuf = _random_gbuf(rs, h, w)
    channel = rs.random((h, w, 3)) * 2.0
    variance = rs.random((h, w)) * 0.3
    cfg = DenoiseConfig()
    levels = (rs.random((h, w)) < 0.5).astype(np.int64)
    got, got_var = _alone(atrous_separable, channel, variance, gbuf, levels, cfg)
    want, want_var = separable_oracle(channel, variance, gbuf, levels, cfg)
    assert np.abs(got - want).max() <= 1e-9
    assert np.abs(got_var - want_var).max() <= 1e-9
    # picking each pixel's level only after both passes is a different filter
    both = [_alone(atrous_separable, channel, variance, gbuf, lv, cfg)[0] for lv in (0, 1)]
    per_pass = np.where(levels[..., None] == 1, both[1], both[0])
    assert np.abs(per_pass - want).max() > 1e-6


def _boxed_gbuf(rs, h, w):
    """Random geometry whose foreground box lies strictly inside the frame: a
    background band on the top rows, a background column on the right and
    holes inside, with +inf depth and zero normals as the renderer gives."""
    gbuf = _random_gbuf(rs, h, w)  # ~7% background holes
    bg = gbuf.object_id == 0
    bg[:3] = True
    bg[:, -2:] = True
    gbuf.object_id[bg] = 0
    gbuf.depth[bg] = np.inf
    gbuf.normal[bg] = 0.0
    return gbuf


@pytest.mark.parametrize("filt,oracle", [(atrous_dense, dense_oracle),
                                         (atrous_separable, separable_oracle)])
@pytest.mark.parametrize("level", [0, 1, "mixed"])
def test_foreground_box_matches_oracle_and_keeps_background(filt, oracle, level):
    rs = np.random.default_rng(13)
    h = w = 16
    gbuf = _boxed_gbuf(rs, h, w)
    bg = ~gbuf.foreground
    assert bg[:3].all() and bg[:, -2:].all() and bg[3:, :-2].any()
    channel = rs.random((h, w, 3)) * 2.0
    variance = rs.random((h, w)) * 0.3
    cfg = DenoiseConfig()
    level = rs.integers(0, 3, (h, w)) if level == "mixed" else level
    got, got_var = _alone(filt, channel, variance, gbuf, level, cfg)
    want, want_var = oracle(channel, variance, gbuf, np.broadcast_to(level, (h, w)), cfg)
    assert np.abs(got - want).max() <= 1e-9
    assert np.abs(got_var - want_var).max() <= 1e-9
    assert got[bg].tobytes() == channel[bg].tobytes()
    assert got_var[bg].tobytes() == variance[bg].tobytes()


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 3)])
def test_all_background_frame_returns_inputs(filt, shape):
    gbuf = _flat_gbuf(8, 8)
    gbuf.object_id[:] = 0
    gbuf.depth[:] = np.inf
    gbuf.normal[:] = 0.0
    rs = np.random.default_rng(14)
    channel, variance = rs.random(shape), rs.random((8, 8))
    before = channel.copy(), variance.copy()
    stats = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (0, rs.integers(0, 2, (8, 8))):
            out, out_var = _alone(filt, channel, variance, gbuf, level, DenoiseConfig(),
                                  stats=stats)
            assert out.shape == shape
            assert out.tobytes() == channel.tobytes()
            assert out_var.tobytes() == variance.tobytes()
    assert channel.tobytes() == before[0].tobytes()
    assert variance.tobytes() == before[1].tobytes()
    assert stats["taps"] == 2 * 8 * 8 * stats["taps_per_pixel"]  # nominal count


def test_tap_counts():
    gbuf = _flat_gbuf()
    channel = np.zeros((16, 16))
    variance = np.zeros((16, 16))
    stats = {}
    _alone(atrous_dense, channel, variance, gbuf, 0, DenoiseConfig(), stats=stats)
    assert stats["taps"] == 16 * 16 * 25
    stats = {}
    _alone(atrous_separable, channel, variance, gbuf, 0, DenoiseConfig(), stats=stats)
    assert stats["taps"] == 16 * 16 * 10


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
def test_gbuffer_planes_padded_once_per_iteration(filt, monkeypatch):
    # the G-buffer setup is shared by the passes of one iteration
    gbuf = _flat_gbuf()
    pads = []

    def counting(plane, *args, **kwargs):
        pads.append(plane)
        return shifted(plane, *args, **kwargs)

    monkeypatch.setattr(spatial, "shifted", counting)
    _alone(filt, np.full((16, 16), 0.3), np.full((16, 16), 0.1), gbuf, 0, DenoiseConfig())
    # the padded depth plane may be a masked copy: find it by dtype and value
    assert sum(p.dtype == gbuf.depth.dtype and np.array_equal(p, gbuf.depth)
               for p in pads) == 1


def _recording_pads(monkeypatch):
    """Record each `spatial.shifted` call as (a-trous call index, plane,
    whether it wrote into a given buffer)."""
    pads, calls = [], []
    atrous = spatial._atrous

    def counting_call(*args, **kwargs):
        calls.append(None)
        return atrous(*args, **kwargs)

    def counting(plane, *args, **kwargs):
        pads.append((len(calls) - 1, plane, kwargs.get("into") is not None))
        return shifted(plane, *args, **kwargs)

    monkeypatch.setattr(spatial, "_atrous", counting_call)
    monkeypatch.setattr(spatial, "shifted", counting)
    return pads, calls


def _two_channel_frame(rs, h=24, w=24):
    gbuf = _boxed_gbuf(rs, h, w)
    return gbuf, {SHADOW: (rs.random((h, w)), rs.random((h, w))),
                  SPECULAR: (rs.random((h, w, 3)), rs.random((h, w)))}


@pytest.mark.parametrize("separable", [False, True])
@pytest.mark.parametrize("iterations", [1, 4])
def test_gbuffer_planes_padded_once_per_frame(separable, iterations, monkeypatch):
    # the G-buffer setup is the frame's, shared by every iteration's call
    gbuf, signals = _two_channel_frame(np.random.default_rng(25), 36, 36)
    pads, calls = _recording_pads(monkeypatch)
    spatial.denoise_frame(signals, gbuf, DenoiseConfig(iterations=iterations,
                                                       separable=separable), shadow_angle=2.0)
    assert len(calls) == iterations
    masked_depth = np.where(gbuf.foreground, gbuf.depth, np.inf)
    assert sum(p.dtype == gbuf.depth.dtype and np.array_equal(p, masked_depth)
               for _call, p, _into in pads) == 1


@pytest.mark.parametrize("separable", [False, True])
def test_frame_pads_into_its_own_buffers_after_its_first_call(separable, monkeypatch):
    # the frame's first call builds its working set; every later pad is
    # written into a buffer the frame state already holds
    gbuf, signals = _two_channel_frame(np.random.default_rng(26), 36, 36)
    pads, calls = _recording_pads(monkeypatch)
    spatial.denoise_frame(signals, gbuf, DenoiseConfig(iterations=4, separable=separable),
                          shadow_angle=2.0)
    assert len(calls) == 4
    assert [call for call, _p, into in pads if not into] != []
    assert [call for call, _p, into in pads if not into and call > 0] == []
    assert {call for call, _p, _into in pads} == {0, 1, 2, 3}


@pytest.mark.parametrize("separable", [False, True])
@pytest.mark.parametrize("iterations", [1, 4])
def test_frame_outputs_share_no_memory(separable, iterations):
    # the frame state's buffers are reused pass after pass: no final or
    # feedback may be one of them, an input or another frame's output
    rs = np.random.default_rng(27)
    gbuf, signals = _two_channel_frame(rs)
    _gbuf, next_signals = _two_channel_frame(rs)
    cfg = DenoiseConfig(iterations=iterations, separable=separable)
    outputs = []
    for frame in (signals, next_signals):
        result = spatial.denoise_frame(frame, gbuf, cfg, shadow_angle=2.0)
        outputs += [a for final, feedback, _records in result.values() for a in (final, feedback)]
    inputs = [a for frame in (signals, next_signals) for pair in frame.values() for a in pair]
    assert len(outputs) == 8
    for i, a in enumerate(outputs):
        for b in outputs[i + 1:] + inputs:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
def test_only_depth_and_normals_padded_from_the_gbuffer(filt, monkeypatch):
    # the background is encoded in those two planes, so no foreground plane is
    # padded; the channel's own planes are float64, the G-buffer's float32
    pads = []

    def counting(plane, *args, **kwargs):
        pads.append(plane)
        return shifted(plane, *args, **kwargs)

    monkeypatch.setattr(spatial, "shifted", counting)
    _alone(filt, np.full((16, 16), 0.3), np.full((16, 16), 0.1), _flat_gbuf(), 0,
           DenoiseConfig())
    assert sorted(p.shape for p in pads if p.dtype != np.float64) == [(16, 16), (16, 16, 3)]


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
@pytest.mark.parametrize("level", [0, 1, 2, "mixed"])
def test_nan_background_geometry_filters_like_renderer_background(filt, level):
    # a direct caller's NaN depth and normals on the background count as the
    # renderer's +inf depth and zero normals there, bit for bit
    rs = np.random.default_rng(15)
    h = w = 16
    gbuf = _boxed_gbuf(rs, h, w)
    bg = ~gbuf.foreground
    near_fg = bg & (np.roll(~bg, 1, axis=0) | np.roll(~bg, -1, axis=1))
    assert near_fg.any()
    nan_gbuf = dataclasses.replace(gbuf, depth=gbuf.depth.copy(), normal=gbuf.normal.copy())
    nan_gbuf.depth[bg] = np.nan
    nan_gbuf.normal[bg] = np.nan
    channel = rs.random((h, w, 3)) * 2.0
    variance = rs.random((h, w)) * 0.3
    level = rs.integers(0, 3, (h, w)) if level == "mixed" else level
    want = _alone(filt, channel, variance, gbuf, level, DenoiseConfig())
    got = _alone(filt, channel, variance, nan_gbuf, level, DenoiseConfig())
    assert np.isfinite(want[0]).all() and np.isfinite(want[1]).all()
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("field,value,want", [("depth", np.inf, "positive and finite"),
                                              ("depth", np.nan, "positive and finite"),
                                              ("depth", 0.0, "positive and finite"),
                                              ("normal", np.nan, "finite")])
def test_driver_rejects_bad_foreground_geometry(field, value, want):
    # one such pixel used to make every output of the frame non-finite
    scene = scene_from_dict(preset_scene("shadow-objects", width=24, height=24))
    gbuf, _shadow, specular = render_frame(scene, 0, spp=1, seed=0)
    y, x = np.argwhere(gbuf.foreground)[0]
    getattr(gbuf, field)[y, x] = value
    with pytest.raises(ValueError, match=rf"^G-buffer {field} not {want} at foreground "
                                         rf"pixel \({x}, {y}\)$"):
        denoise_channel(specular.data, np.zeros((24, 24)), gbuf, DenoiseConfig(),
                        ChannelKind.INDIRECT_SPECULAR)


def test_driver_names_the_first_bad_foreground_pixel():
    scene = scene_from_dict(preset_scene("shadow-objects", width=24, height=24))
    gbuf, _shadow, specular = render_frame(scene, 0, spp=1, seed=0)
    (y0, x0), (y1, x1) = np.argwhere(gbuf.foreground)[[0, -1]]
    gbuf.normal[y0, x0, 2] = np.inf
    gbuf.depth[y1, x1] = -1.0
    with pytest.raises(ValueError, match=rf"^G-buffer normal not finite at foreground "
                                         rf"pixel \({x0}, {y0}\)$"):
        _alone(atrous_dense, specular.data, np.zeros((24, 24)), gbuf, 0, DenoiseConfig())


@pytest.mark.parametrize("preset", list(PRESETS))
def test_no_floating_point_fault_on_rendered_gbuffers(preset):
    # the renderer's background (+inf depth, zero normals) needs no suppressed
    # invalid, divide or overflow arithmetic in any preset's filters
    scene = scene_from_dict(preset_scene("cubes-distance", width=32, height=32))
    gbuf, shadow, specular = render_frame(scene, 0, spp=1, seed=4)
    bg = ~gbuf.foreground
    assert bg.any() and np.isposinf(gbuf.depth[bg]).all() and not gbuf.normal[bg].any()
    cfg = preset_config(preset, base=DenoiseConfig(iterations=3))
    rs = np.random.default_rng(16)
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        for kind, channel in ((ChannelKind.SHADOW, shadow.data),
                              (ChannelKind.INDIRECT_SPECULAR, specular.data)):
            out, _fb, _recs = denoise_channel(channel, rs.random((32, 32)), gbuf, cfg, kind,
                                              shadow_angle=scene.shadow_angle_deg)
            assert np.isfinite(out).all()


def test_weights_finite_at_largest_sigma_z_and_depth():
    # the largest valid sigma_z times the largest float32 depth and the
    # longest tap distance stays finite, so no weight overflows
    rs = np.random.default_rng(17)
    gbuf = _boxed_gbuf(rs, 32, 32)
    fg = gbuf.foreground
    gbuf.depth[fg & (rs.random((32, 32)) < 0.5)] = np.finfo(np.float32).max
    cfg = DenoiseConfig(sigma_z=1e3)
    channel, variance = rs.random((32, 32, 3)), rs.random((32, 32))
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        for filt in (atrous_dense, atrous_separable):
            out, out_var = _alone(filt, channel, variance, gbuf, 3, cfg)
            assert np.isfinite(out).all() and np.isfinite(out_var).all()


def test_separable_variance_updated_once():
    # with uniform weights one separable iteration scales variance by the 1D
    # kernel energy (single vertical update), not its square
    gbuf = _flat_gbuf()
    variance = np.full((16, 16), 0.2)
    _, out_var = _alone(atrous_separable, np.full((16, 16), 0.7), variance, gbuf, 0,
                        DenoiseConfig())
    factor_1d = float(np.sum(KERNEL_1D**2))
    assert np.allclose(out_var, 0.2 * factor_1d, atol=1e-9)


# ---------------------------------------------------------------------------
# adaptive selections

# float32(0.2) is 0.2000000030: a stored roughness of 0.2 is still 0.2, as a
# feature compares in its own precision
@pytest.mark.parametrize("rough,expect", [(0.1, 0), (0.2, 0), (0.2 + 1e-9, 1),
                                          (0.3, 1), (1.0, 1), (np.float32(0.2), 0),
                                          (np.float32(0.2000001), 1),
                                          (np.float64(np.float32(0.2)), 1)])
def test_start_level_specular_threshold(rough, expect):
    cfg = DenoiseConfig(adaptive_start=True)
    assert select_schedule(ChannelKind.INDIRECT_SPECULAR, rough, cfg)[0] == expect


@pytest.mark.parametrize("angle,expect", [(5.0, 0), (6.0, 0), (6.0 + 1e-9, 1),
                                          (7.0, 1), (10.0, 1), (np.float32(6.0), 0),
                                          (np.nextafter(np.float32(6.0), np.float32(7.0)), 1)])
def test_start_level_shadow_threshold(angle, expect):
    cfg = DenoiseConfig(adaptive_start=True)
    assert select_schedule(ChannelKind.SHADOW, angle, cfg)[0] == expect


def test_start_level_disabled():
    cfg = DenoiseConfig(adaptive_start=False)
    assert select_schedule(ChannelKind.INDIRECT_SPECULAR, 0.9, cfg)[0] == 0
    assert select_schedule(ChannelKind.SHADOW, 45.0, cfg)[0] == 0


def _iteration_config(ibl_adaptive, iterations):
    return DenoiseConfig(ibl_adaptive_iterations=ibl_adaptive, iterations=iterations)


@pytest.mark.parametrize("rough,expect", [(0.0, 0), (0.03, 1), (0.05, 1),
                                          (0.06, 4), (1.0, 4)])
def test_iteration_count_adaptive(rough, expect):
    assert select_schedule(SPECULAR, rough, _iteration_config(True, 4))[1] == expect


def test_iteration_count_adaptive_keeps_configured_count():
    rough = np.array([0.0, 0.03, 0.5])
    assert select_schedule(SPECULAR, rough, _iteration_config(True, 2))[1].tolist() == [0, 1, 2]
    assert select_schedule(SPECULAR, rough, _iteration_config(True, 0))[1].tolist() == [0, 0, 0]


def test_iteration_count_compares_in_the_roughness_precision():
    # float32(0.05) is 0.0500000007: a stored roughness of 0.05 is still 0.05
    assert select_schedule(SPECULAR, np.float32(0.05), _iteration_config(True, 3))[1] == 1
    rough = np.array([0.0, 0.05, 0.0500001], dtype=np.float32)
    assert select_schedule(SPECULAR, rough, _iteration_config(True, 3))[1].tolist() == [0, 1, 3]
    cfg = _iteration_config(True, 3)
    assert select_schedule(SPECULAR, np.float64(np.float32(0.05)), cfg)[1] == 3


def test_iteration_count_fixed_by_default():
    assert select_schedule(SPECULAR, 0.0, _iteration_config(False, 4))[1] == 4
    assert select_schedule(SPECULAR, 0.7, _iteration_config(False, 2))[1] == 2


# ---------------------------------------------------------------------------
# driver

def test_driver_count_zero_identity():
    gbuf = _flat_gbuf()
    cfg = DenoiseConfig(iterations=0)
    channel = np.random.default_rng(3).random((16, 16, 1))
    out, feedback, recs = denoise_channel(channel, np.zeros((16, 16)), gbuf, cfg,
                                          ChannelKind.SHADOW,
                                          shadow_angle=np.zeros((16, 16)))
    assert np.array_equal(out, channel)
    assert np.array_equal(feedback, channel)
    assert recs == []


def test_driver_shadow_needs_angle():
    with pytest.raises(ValueError, match="shadow_angle"):
        denoise_channel(np.zeros((16, 16, 1)), np.zeros((16, 16)), _flat_gbuf(),
                        DenoiseConfig(), ChannelKind.SHADOW)


def test_driver_plane_input_returns_planes():
    # an (H, W) channel is filtered as (H, W, 1), not broadcast against W
    gbuf = _flat_gbuf()
    channel = np.random.default_rng(9).random((16, 16))
    args = (np.full((16, 16), 0.1), gbuf, DenoiseConfig(iterations=2),
            ChannelKind.SHADOW)
    out, feedback, _recs = denoise_channel(channel, *args,
                                           shadow_angle=np.zeros((16, 16)))
    want, want_fb, _recs = denoise_channel(channel[:, :, None], *args,
                                           shadow_angle=np.zeros((16, 16)))
    assert out.shape == feedback.shape == (16, 16, 1)
    assert np.array_equal(out, want) and np.array_equal(feedback, want_fb)


def test_driver_levels_in_order():
    gbuf = _flat_gbuf(64, 64)
    cfg = DenoiseConfig(iterations=4)
    channel = np.random.default_rng(4).random((64, 64, 1))
    _out, _fb, recs = denoise_channel(channel, np.full((64, 64), 0.1), gbuf, cfg,
                                      ChannelKind.SHADOW, shadow_angle=np.zeros((64, 64)))
    assert [r["level_min"] for r in recs] == [0, 1, 2, 3]
    assert [r["step_min"] for r in recs] == [1, 2, 4, 8]


@pytest.mark.parametrize("roughness,steps", [(0.5, [2, 4, 8, 16]), (0.2, [1, 2, 4, 8])])
def test_driver_adaptive_start_shifts_all_levels(roughness, steps):
    # above the 0.2 threshold everywhere, or at it in the G-buffer's float32
    gbuf = _flat_gbuf(64, 64)
    gbuf.roughness[:] = roughness
    cfg = DenoiseConfig(iterations=4, adaptive_start=True)
    channel = np.random.default_rng(5).random((64, 64, 3))
    _out, _fb, recs = denoise_channel(channel, np.full((64, 64), 0.1), gbuf, cfg,
                                      ChannelKind.INDIRECT_SPECULAR)
    assert [r["step_min"] for r in recs] == steps
    assert [r["step_max"] for r in recs] == steps


def test_driver_start1_iteration0_matches_level1_footprint():
    # a start-1 first iteration must equal a plain level-1 pass (step 2)
    rs = np.random.default_rng(6)
    gbuf = _flat_gbuf(32, 32)
    gbuf.roughness[:] = 0.9
    channel = rs.random((32, 32, 3))
    variance = rs.random((32, 32)) * 0.2
    cfg = DenoiseConfig(iterations=1, adaptive_start=True)
    out, _fb, _recs = denoise_channel(channel, variance, gbuf, cfg,
                                      ChannelKind.INDIRECT_SPECULAR)
    want, _v = _alone(atrous_dense, channel, variance, gbuf, 1, cfg)
    assert np.allclose(out, want)


def test_driver_per_pixel_iteration_counts():
    gbuf = _flat_gbuf(64, 64)
    gbuf.roughness[:, :21] = 0.0    # no smoothing
    gbuf.roughness[:, 21:42] = 0.03  # one iteration
    gbuf.roughness[:, 42:] = 0.5    # full four
    cfg = DenoiseConfig(iterations=4, ibl_adaptive_iterations=True)
    rs = np.random.default_rng(7)
    channel = rs.random((64, 64, 3))
    variance = np.full((64, 64), 0.3)
    out, _fb, _recs = denoise_channel(channel, variance, gbuf, cfg,
                                      ChannelKind.INDIRECT_SPECULAR)
    assert np.array_equal(out[:, :10], channel[:, :10])  # frozen at input
    assert not np.allclose(out[:, 30], channel[:, 30])


def test_driver_monotone_total_variation_on_flat_geometry():
    gbuf = _flat_gbuf(64, 64)
    rs = np.random.default_rng(8)
    channel = rs.random((64, 64, 1))
    variance = np.full((64, 64), 1.0)
    cfg = DenoiseConfig(iterations=4, sigma_l=1e6)
    out = channel
    var = variance
    tvs = []
    for level in range(4):
        out, var = _alone(atrous_dense, out, var, gbuf, level, cfg)
        tv = np.abs(np.diff(out[:, :, 0], axis=0)).sum() \
            + np.abs(np.diff(out[:, :, 0], axis=1)).sum()
        tvs.append(tv)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tvs, tvs[1:]))


# ---------------------------------------------------------------------------
# joint driver: both channels of a frame in one tap loop

@pytest.mark.parametrize("separable", [False, True])
@pytest.mark.parametrize("roughness", [0.1, 0.0])
def test_joint_driver_gives_each_channel_its_bits_alone(separable, roughness):
    # the shadow at 8 degrees starts at level 1 everywhere, the specular at 0
    # or 1 per pixel; at roughness 0 the iteration counts differ per pixel too,
    # 1 on the table, whose roughness is clamped to 0.05
    scene = scene_from_dict(preset_scene("breakfast-lite", width=32, height=32,
                                         roughness=roughness, shadow_angle=8.0,
                                         movement="camera"))
    gbuf, shadow, specular = render_frame(scene, 0, spp=1, seed=5)
    cfg = DenoiseConfig(iterations=3, adaptive_start=True, ibl_adaptive_iterations=True,
                        separable=separable)
    assert select_schedule(SHADOW, scene.shadow_angle_deg, cfg)[0] == 1
    assert set(np.unique(select_schedule(SPECULAR, gbuf.roughness, cfg)[0][gbuf.foreground])) \
        == {0, 1}
    counts = select_schedule(SPECULAR, gbuf.roughness, cfg)[1]
    assert set(np.unique(counts)) == ({3} if roughness else {0, 1, 3})
    rs = np.random.default_rng(18)
    signals = {SHADOW: (shadow.data, rs.random((32, 32))),
               SPECULAR: (specular.data, rs.random((32, 32)))}
    joint = spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=scene.shadow_angle_deg)
    assert list(joint) == [SHADOW, SPECULAR]
    for kind, (channel, variance) in signals.items():
        want = denoise_channel(channel, variance, gbuf, cfg, kind,
                               shadow_angle=scene.shadow_angle_deg)
        out, feedback, records = joint[kind]
        assert out.tobytes() == want[0].tobytes()
        assert feedback.tobytes() == want[1].tobytes()
        assert records == want[2] and len(records) == cfg.iterations


@pytest.mark.parametrize("filt,levels,per_pixel", [
    (atrous_dense, (0, 0), 24),
    (atrous_separable, (0, 0), 2 * 4),
    # level 1's inner ring is level 0's outer ring, read from the call's own
    # state: 8 of its 24 taps dense, 1 of its 2 per side and pass separable
    (atrous_dense, (0, 1), 24 + 16),
    (atrous_separable, (0, 1), 2 * (4 + 2)),
    (atrous_dense, "mixed", 24 + 16),
    (atrous_separable, "mixed", 2 * (4 + 2)),
])
def test_joint_iteration_weighs_the_gbuffer_once_per_level(filt, levels, per_pixel,
                                                           monkeypatch):
    # the depth and normal stops are the channels' common factor: one
    # evaluation per (pass, offset) and pixel, however many channels use it
    rs = np.random.default_rng(19)
    gbuf = _random_gbuf(rs, 16, 16)
    if levels == "mixed":
        mixed = rs.integers(0, 2, (16, 16))
        levels = (mixed, mixed)
    evaluated = []
    weigh = spatial._geometry_weight

    def counting(center, tap, dist, cfg, out, scratch):
        evaluated.append(out.size)
        return weigh(center, tap, dist, cfg, out, scratch)

    monkeypatch.setattr(spatial, "_geometry_weight", counting)
    channels = [rs.random((16, 16)), rs.random((16, 16, 3))]
    variances = [rs.random((16, 16)), rs.random((16, 16))]
    joint = filt(channels, variances, gbuf, list(levels), DenoiseConfig())
    assert sum(evaluated) == per_pixel * 16 * 16  # the box is the whole frame here
    monkeypatch.setattr(spatial, "_geometry_weight", weigh)
    _every_weight(monkeypatch)
    for got, channel, variance, level in zip(joint, channels, variances, levels):
        want = _alone(filt, channel, variance, gbuf, level, DenoiseConfig())
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        if filt is atrous_dense and np.ndim(level) == 2:
            # a dense pixel's result depends only on its own level, so the
            # one-level calls, merged per pixel, give the mixed call's bits
            at = [_alone(filt, channel, variance, gbuf, lv, DenoiseConfig()) for lv in (0, 1)]
            for part, at0, at1 in zip(got, *at):
                pick = level.reshape(level.shape + (1,) * (at0.ndim - 2)) == 1
                assert part.tobytes() == np.where(pick, at1, at0).tobytes()


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
def test_joint_iteration_rejects_lists_of_unequal_length(filt):
    gbuf = _flat_gbuf()
    plane = np.zeros((16, 16))
    with pytest.raises(ValueError):
        filt([plane, plane], [plane], gbuf, [0, 0], DenoiseConfig())
    with pytest.raises(ValueError):
        filt([plane, plane], [plane, plane], gbuf, [0], DenoiseConfig())


def test_row_bands_give_the_same_bits(monkeypatch):
    # a band is a cache block of the tap loop, not a change of arithmetic
    rs = np.random.default_rng(20)
    gbuf = _boxed_gbuf(rs, 24, 24)
    channel, variance = rs.random((24, 24, 3)), rs.random((24, 24))
    level = rs.integers(0, 3, (24, 24))
    for filt in (atrous_dense, atrous_separable):
        want = _alone(filt, channel, variance, gbuf, level, DenoiseConfig())
        for band in (1, 30, 100):  # one row, partial last bands, several rows
            monkeypatch.setattr(spatial, "BAND", band)
            got = _alone(filt, channel, variance, gbuf, level, DenoiseConfig())
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# frame state: what one frame's a-trous calls share

def _lone_calls(monkeypatch):
    """Route denoise_frame's calls through the filters as lone calls, each
    without the frame's state, that compute every weight."""
    _every_weight(monkeypatch)
    for name in ("atrous_dense", "atrous_separable"):
        real = getattr(spatial, name)

        def alone(*args, _real=real, state=None, **kwargs):
            return _real(*args, **kwargs)

        monkeypatch.setattr(spatial, name, alone)


def _force_split(monkeypatch) -> list:
    """Make every level pass run as two row halves, as on two CPUs, whatever
    the box's size and this machine's CPUs; returns the list that each worker
    thread started is appended to."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(spatial, "_SPLIT_PIXELS", 0)
    monkeypatch.setattr(spatial.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(spatial.threading, "Thread", Recorded)
    return started


def _serial(monkeypatch) -> None:
    """Make every level pass run as one half."""
    monkeypatch.setattr(spatial, "_SPLIT_PIXELS", np.inf)


def _breakfast_frame(roughness, size=32):
    scene = scene_from_dict(preset_scene("breakfast-lite", width=size, height=size,
                                         roughness=roughness, shadow_angle=8.0,
                                         movement="camera"))
    gbuf, shadow, specular = render_frame(scene, 0, spp=1, seed=5)
    rs = np.random.default_rng(21)
    signals = {SHADOW: (shadow.data, rs.random((size, size))),
               SPECULAR: (specular.data, rs.random((size, size)))}
    return scene, gbuf, signals


_CASES = {
    # one level per iteration for both channels
    "uniform": (0.1, DenoiseConfig(iterations=4)),
    # the shadow starts at level 1, the specular at 0 or 1 per pixel
    "mixed": (0.1, DenoiseConfig(iterations=3, adaptive_start=True)),
    # iteration counts 0, 1 and 3 per pixel: the specular stops after one
    "counts": (0.0, DenoiseConfig(iterations=3, adaptive_start=True,
                                  ibl_adaptive_iterations=True)),
}


def _frame_against_lone_calls(separable, case, band, split, monkeypatch):
    """Check that `denoise_frame` on a `_CASES` frame, through its frame
    state and with row bands of `band` pixels, and as two row halves if
    `split`, gives the bits of serial lone calls that compute every weight."""
    roughness, cfg = _CASES[case]
    cfg = dataclasses.replace(cfg, separable=separable)
    scene, gbuf, signals = _breakfast_frame(roughness)
    if case == "counts":
        counts = select_schedule(SPECULAR, gbuf.roughness, cfg)[1]
        assert set(np.unique(counts)) == {0, 1, 3}
    if band is not None:
        monkeypatch.setattr(spatial, "BAND", band)
    started = _force_split(monkeypatch) if split else []
    got = spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=scene.shadow_angle_deg)
    assert bool(started) == split and not any(worker.is_alive() for worker in started)
    _serial(monkeypatch)
    _lone_calls(monkeypatch)
    want = spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=scene.shadow_angle_deg)
    for kind in ChannelKind:
        (out, feedback, records), (w_out, w_feedback, w_records) = got[kind], want[kind]
        assert out.tobytes() == w_out.tobytes()
        assert feedback.tobytes() == w_feedback.tobytes()
        assert records == w_records


@pytest.mark.parametrize("separable", [False, True])
@pytest.mark.parametrize("case", list(_CASES))
@pytest.mark.parametrize("band", [None, 1, 30, 100])
def test_frame_state_gives_the_bits_of_lone_calls(separable, case, band, monkeypatch):
    # stored weights, the skipped last variance and the one geometry check
    # change no bit of any output, whatever the row bands: the reference
    # computes every weight, mixed levels' reused inner rings too
    _frame_against_lone_calls(separable, case, band, False, monkeypatch)


@pytest.mark.parametrize("separable", [False, True])
@pytest.mark.parametrize("case", list(_CASES))
@pytest.mark.parametrize("band", [None, 1, 30])
def test_split_gives_the_bits_of_lone_calls(separable, case, band, monkeypatch):
    # nor does the split into row halves: each half writes only its own rows
    # and reads only what the pass's start fixed
    _frame_against_lone_calls(separable, case, band, True, monkeypatch)


_ROUGHNESS = (0.0, 0.03, 0.1, 0.3)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), roughness=st.sets(st.sampled_from(_ROUGHNESS), min_size=1),
       angle=st.sampled_from([2.0, 8.0, "per pixel"]), iterations=st.integers(0, 3),
       separable=st.booleans(), split=st.booleans())
# roughness 0 everywhere: the specular runs no iteration while the shadow runs
@example(seed=0, roughness={0.0}, angle=8.0, iterations=2, separable=False, split=True)
def test_frame_state_gives_the_bits_of_lone_calls_for_any_schedule(seed, roughness, angle,
                                                                   iterations, separable, split):
    # per-pixel start levels and iteration counts, per channel, as
    # `select_schedule` plans them. A start of 1 and 3 iterations reach
    # level 3, which `check_level` rejects at 16x16 but not at 24x24. With
    # `split`, the frame's passes run as two row halves; the lone calls never
    # split.
    rs = np.random.default_rng(seed)
    gbuf = _boxed_gbuf(rs, 24, 24)
    gbuf.roughness[:] = rs.choice(sorted(roughness), (24, 24))
    if angle == "per pixel":
        angle = rs.choice([2.0, 8.0], (24, 24))
    signals = {SHADOW: (rs.random((24, 24)), rs.random((24, 24))),
               SPECULAR: (rs.random((24, 24, 3)), rs.random((24, 24)))}
    cfg = DenoiseConfig(iterations=iterations, separable=separable, adaptive_start=True,
                        ibl_adaptive_iterations=True)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if split:
            _force_split(monkeypatch)
        got = spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=angle)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _serial(monkeypatch)
        _lone_calls(monkeypatch)
        want = spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=angle)
    for kind in ChannelKind:
        (out, feedback, records), (w_out, w_feedback, w_records) = got[kind], want[kind]
        assert out.tobytes() == w_out.tobytes()
        assert feedback.tobytes() == w_feedback.tobytes()
        assert records == w_records


def test_outer_ring_distances_are_the_next_levels_inner_ring():
    # the stored weights are exact: a tap at even unit offsets has, bit for
    # bit, the distance of the halved offset at twice the step
    for table in (spatial._DENSE, spatial._ROW, spatial._COLUMN):
        by_offset = {(j, i): dist for j, i, _k, dist in table}
        for (j, i), dist in by_offset.items():
            if j % 2 == 0 and i % 2 == 0:
                for level in range(12):
                    step = 2 ** level
                    assert step * dist == (2 * step) * by_offset[j // 2, i // 2]


@pytest.mark.parametrize("separable,mixed,per_pixel,planes", [
    (False, False, 24 + 3 * 16, 8 + 8),
    (True, False, 8 + 3 * 4, 2 + 2 + 2),
    # levels {i, i + 1} in iteration i: level i + 1 reads level i's outer ring
    # in the same call, and in the next call also its own outer ring again
    (False, True, (24 + 16) + 2 * (8 + 16), 8 + 8),
    (True, True, 2 * (4 + 2) + 2 * 2 * 2, 2 * (2 + 2)),
])
def test_frame_state_weighs_each_offset_once_per_frame(separable, mixed, per_pixel, planes,
                                                       monkeypatch):
    # level L's taps at even multiples of its step are level L+1's inner
    # ring: of 4 uniform iterations, only the first computes all its taps.
    # The store holds only outer rings that a later pass reads
    rs = np.random.default_rng(22)
    gbuf = _boxed_gbuf(rs, 36, 34)
    rows, cols = bounding_box(gbuf.foreground)
    evaluated = []
    weigh = spatial._geometry_weight

    def counting(center, tap, dist, cfg, out, scratch):
        evaluated.append(out.size)
        return weigh(center, tap, dist, cfg, out, scratch)

    stored = []
    next_pass = spatial.FrameState.next_pass

    def recording(state, shape):
        read_write = next_pass(state, shape)
        stored.append(len(state.weights))
        return read_write

    monkeypatch.setattr(spatial, "_geometry_weight", counting)
    monkeypatch.setattr(spatial.FrameState, "next_pass", recording)
    signals = {SHADOW: (rs.random((36, 34)), rs.random((36, 34))),
               SPECULAR: (rs.random((36, 34, 3)), rs.random((36, 34)))}
    if mixed:
        # the shadow starts at level 1, the specular at 0 or 1 per pixel
        gbuf.roughness[:] = np.where(rs.random((36, 34)) < 0.5, 0.1, 0.3)
        cfg = DenoiseConfig(iterations=3, separable=separable, adaptive_start=True)
        spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=8.0)
    else:
        cfg = DenoiseConfig(iterations=4, separable=separable)
        spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=2.0)
    box_pixels = (rows.stop - rows.start) * (cols.stop - cols.start)
    assert sum(evaluated) == per_pixel * box_pixels
    assert max(stored) == planes


def test_frame_state_checks_the_geometry_once_per_frame(monkeypatch):
    checks = []
    check = spatial._check_geometry

    def counting(gbuf, fg):
        checks.append(gbuf)
        return check(gbuf, fg)

    monkeypatch.setattr(spatial, "_check_geometry", counting)
    scene, gbuf, signals = _breakfast_frame(0.1)
    spatial.denoise_frame(signals, gbuf, DenoiseConfig(iterations=3),
                          shadow_angle=scene.shadow_angle_deg)
    assert checks == [gbuf]
    # a lone call checks it once too, however many levels it runs
    checks.clear()
    (shadow, variance), (specular, _var) = signals[SHADOW], signals[SPECULAR]
    for filt in (atrous_dense, atrous_separable):
        filt([shadow, specular], [variance, variance], gbuf, [0, 1], DenoiseConfig())
    assert checks == [gbuf, gbuf]
    # and a frame without an iteration builds no state
    checks.clear()
    spatial.denoise_frame(signals, gbuf, DenoiseConfig(iterations=0),
                          shadow_angle=scene.shadow_angle_deg)
    assert checks == []


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
def test_lone_call_returns_every_channels_variance(filt):
    # a lone call's caller reads every variance it returns: each is the one
    # a frame's state gives when a later iteration reads it
    rs = np.random.default_rng(24)
    gbuf = _boxed_gbuf(rs, 24, 24)
    channels = [rs.random((24, 24)), rs.random((24, 24, 3))]
    variances = [rs.random((24, 24)), rs.random((24, 24))]
    levels = [0, rs.integers(0, 2, (24, 24))]
    passes = (spatial._DENSE,) if filt is atrous_dense else (spatial._ROW, spatial._COLUMN)
    lone = filt(channels, variances, gbuf, levels, DenoiseConfig())
    framed = filt(channels, variances, gbuf, levels, DenoiseConfig(),
                  state=spatial.FrameState(gbuf, levels, [2, 2], passes))
    assert len(lone) == len(framed) == 2
    for (out, var), (f_out, f_var) in zip(lone, framed):
        assert var is not None and var.shape == (24, 24)
        assert out.tobytes() == f_out.tobytes() and var.tobytes() == f_var.tobytes()
    # where no later iteration reads them, a frame's call returns none
    last = filt(channels, variances, gbuf, levels, DenoiseConfig(),
                state=spatial.FrameState(gbuf, levels, [1, 1], passes))
    assert [var is None for _out, var in last] == [True, True]


@pytest.mark.parametrize("separable", [False, True])
def test_last_iteration_reads_no_variance(separable, monkeypatch):
    # no later iteration reads a channel's variance after its last one, so
    # that call pads, accumulates and returns none
    rs = np.random.default_rng(23)
    gbuf = _boxed_gbuf(rs, 32, 32)
    gbuf.roughness[:] = 0.03  # one specular iteration everywhere, three of the shadow
    signals = {SHADOW: (rs.random((32, 32)), rs.random((32, 32))),
               SPECULAR: (rs.random((32, 32, 3)), rs.random((32, 32)))}
    cfg = DenoiseConfig(iterations=3, separable=separable, ibl_adaptive_iterations=True)
    name = "atrous_separable" if separable else "atrous_dense"
    filt, level_pass = getattr(spatial, name), spatial._level_pass
    calls = []

    def recording_filter(*args, **kwargs):
        calls.append({"var_taps": [], "results": None})
        calls[-1]["results"] = filt(*args, **kwargs)
        return calls[-1]["results"]

    def recording_pass(offsets, step, box, geometry, gtaps, members, *args):
        calls[-1]["var_taps"].extend(m.var_at is not None for m in members)
        return level_pass(offsets, step, box, geometry, gtaps, members, *args)

    monkeypatch.setattr(spatial, name, recording_filter)
    monkeypatch.setattr(spatial, "_level_pass", recording_pass)
    spatial.denoise_frame(signals, gbuf, cfg, shadow_angle=2.0)
    assert [len(c["results"]) for c in calls] == [2, 1, 1]
    assert [[var is None for _out, var in c["results"]] for c in calls] \
        == [[False, True], [False], [True]]
    assert any(calls[0]["var_taps"]) and any(calls[1]["var_taps"])
    assert not any(calls[2]["var_taps"])


# ---------------------------------------------------------------------------
# two row halves on two threads

@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
@pytest.mark.parametrize("rows", [1, 2, 7, 23])
def test_split_gives_the_serial_bits_for_any_box_height(filt, rows, monkeypatch):
    # odd heights give halves of unequal size; a one-row box leaves the
    # bottom half empty
    rs = np.random.default_rng(25)
    gbuf = _boxed_gbuf(rs, 26, 24)
    cut = gbuf.object_id.copy()
    cut[3 + rows:] = 0
    gbuf = dataclasses.replace(gbuf, object_id=cut, depth=np.where(cut == 0, np.inf, gbuf.depth),
                               normal=np.where(cut[..., None] == 0, 0.0, gbuf.normal))
    box_rows, _cols = bounding_box(gbuf.foreground)
    assert box_rows.stop - box_rows.start == rows
    channels = [rs.random((26, 24)), rs.random((26, 24, 3))]
    variances = [rs.random((26, 24)), rs.random((26, 24))]
    levels = [1, rs.integers(0, 3, (26, 24))]
    _serial(monkeypatch)
    want = filt(channels, variances, gbuf, levels, DenoiseConfig())
    started = _force_split(monkeypatch)
    got = filt(channels, variances, gbuf, levels, DenoiseConfig())
    assert started
    for (out, var), (w_out, w_var) in zip(got, want, strict=True):
        assert out.tobytes() == w_out.tobytes() and var.tobytes() == w_var.tobytes()


def test_split_gives_the_serial_bits_under_frequent_thread_switches(monkeypatch):
    # a switch every microsecond interleaves the halves' numpy calls as
    # finely as the interpreter allows; a write to the other half's rows, or
    # a read of them before the pass joined, would show as a changed bit
    rs = np.random.default_rng(28)
    gbuf = _boxed_gbuf(rs, 40, 32)
    channels = [rs.random((40, 32)), rs.random((40, 32, 3))]
    variances = [rs.random((40, 32)), rs.random((40, 32))]
    levels = [rs.integers(0, 3, (40, 32)), 1]
    _serial(monkeypatch)
    monkeypatch.setattr(spatial, "BAND", 64)  # two rows per band
    for filt in (atrous_dense, atrous_separable):
        want = filt(channels, variances, gbuf, levels, DenoiseConfig())
        with pytest.MonkeyPatch.context() as split:
            started = _force_split(split)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = filt(channels, variances, gbuf, levels, DenoiseConfig())
            finally:
                sys.setswitchinterval(interval)
        assert started
        for (out, var), (w_out, w_var) in zip(got, want, strict=True):
            assert out.tobytes() == w_out.tobytes() and var.tobytes() == w_var.tobytes()


def test_split_reraises_the_bottom_halfs_exception_and_leaves_no_thread(monkeypatch):
    started = _force_split(monkeypatch)
    caller, before = threading.current_thread(), threading.active_count()
    weigh = spatial._geometry_weight

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("bottom half")
        return weigh(*args)

    monkeypatch.setattr(spatial, "_geometry_weight", failing)
    rs = np.random.default_rng(26)
    gbuf = _boxed_gbuf(rs, 24, 24)
    with pytest.raises(RuntimeError, match="bottom half"):
        _alone(atrous_dense, rs.random((24, 24)), rs.random((24, 24)), gbuf, 0,
               DenoiseConfig())
    assert len(started) == 1 and threading.active_count() == before


@pytest.mark.parametrize("filt", [atrous_dense, atrous_separable])
def test_split_raises_a_fault_of_the_bottom_rows_under_the_callers_errstate(filt, monkeypatch):
    # luminance differences of +-1.7e308 overflow in the last rows alone,
    # which the top half's taps never reach: only the worker thread meets
    # the fault, and it runs under the caller's error state
    gbuf = _flat_gbuf(32, 16)
    channel = np.full((32, 16), 0.5)
    channel[28:, 0::2], channel[28:, 1::2] = 1.7e308, -1.7e308
    variance = np.full((32, 16), 0.1)
    started = _force_split(monkeypatch)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _alone(filt, channel, variance, gbuf, 0, DenoiseConfig())
    assert started
    with np.errstate(all="ignore"):  # neither raises nor warns
        _alone(filt, channel, variance, gbuf, 0, DenoiseConfig())
    faults = []
    with np.errstate(all="call", call=lambda kind, flag: faults.append(kind)):
        _alone(filt, channel, variance, gbuf, 0, DenoiseConfig())
    assert "overflow" in faults
    channel[28:] = 0.5  # the same call without the fault is clean
    with np.errstate(all="raise"):
        _alone(filt, channel, variance, gbuf, 0, DenoiseConfig())


def test_one_cpu_starts_no_thread(monkeypatch):
    started = _force_split(monkeypatch)
    monkeypatch.setattr(spatial.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rs = np.random.default_rng(27)
    gbuf = _boxed_gbuf(rs, 24, 24)
    for filt in (atrous_dense, atrous_separable):
        _alone(filt, rs.random((24, 24)), rs.random((24, 24)), gbuf, 0, DenoiseConfig())
    assert started == []
