import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtdenoise import temporal
from rtdenoise.frames import DenoiseConfig, GBufferFrame, TemporalHistory
from rtdenoise.stencil import shifted
from rtdenoise.temporal import (_box_moments, _consistency_center, _consistent,
                                _unmasked_box_moments, accumulate, estimate_variance,
                                rectify_history, rectify_moments, reproject, temporal_step)

CFG = DenoiseConfig()


def _flat_gbuf(h=8, w=8, depth=5.0, oid=1):
    normal = np.zeros((h, w, 3), dtype=np.float32)
    normal[:, :, 1] = 1.0
    return GBufferFrame(
        depth=np.full((h, w), depth, dtype=np.float32),
        normal=normal,
        motion=np.zeros((h, w, 2), dtype=np.float32),
        object_id=np.full((h, w), oid, dtype=np.int32),
        albedo=np.full((h, w, 3), 0.5, dtype=np.float32),
        roughness=np.full((h, w), 0.3, dtype=np.float32),
        emissive=np.zeros((h, w, 3), dtype=np.float32),
    )


def _const_history(h, w, c, value, length=10):
    """The history of a frame with one channel, keyed 0."""
    return TemporalHistory(
        color={0: np.full((h, w, c), value)},
        moment1={0: np.full((h, w), value)},
        moment2={0: np.full((h, w), value * value)},
        history_len=np.full((h, w), length, dtype=np.int32),
    )


def _tap(valid, color, m1, m2, length):
    """A reprojected tap of one channel, keyed 0; the moments and the length
    are constants over `valid`'s shape."""
    shape = np.shape(valid)
    return {"valid": np.asarray(valid), "color": {0: np.asarray(color, dtype=np.float64)},
            "moment1": {0: np.full(shape, m1, dtype=np.float64)},
            "moment2": {0: np.full(shape, m2, dtype=np.float64)},
            "history_len": np.full(shape, length, dtype=np.int32)}


def _accumulate_one(value, tap):
    """`accumulate` of one (H, W, 1) channel whose luminance is its one plane."""
    return accumulate({0: value}, {0: value[:, :, 0]}, tap, 0.2, 0.2)


def _consistency_test(prev_depth, prev_normal, prev_oid, curr_depth, curr_normal, curr_oid):
    """The geometry consistency test of a previous-frame texel against a
    current pixel, scalars or broadcastable arrays, at `DenoiseConfig`'s
    default thresholds."""
    return _consistent(prev_depth, prev_normal, prev_oid,
                       _consistency_center(curr_depth, curr_normal, curr_oid),
                       DenoiseConfig.depth_consistency, DenoiseConfig.normal_consistency)


def _variance_one(hist, luma, gbuf, min_history, cfg):
    """The variance of the one channel of `hist`, from its (H, W) luminance."""
    return estimate_variance(hist, {0: luma}, gbuf, min_history, cfg)[0]


# ---------------------------------------------------------------------------
# consistency

def test_consistency_identical_true():
    n = np.array([0.0, 1.0, 0.0])
    assert _consistency_test(5.0, n, 1, 5.0, n, 1)


def test_consistency_id_mismatch():
    n = np.array([0.0, 1.0, 0.0])
    assert not _consistency_test(5.0, n, 3, 5.0, n, 5)


def test_consistency_depth_threshold():
    n = np.array([0.0, 1.0, 0.0])
    assert not _consistency_test(10.0, n, 1, 11.5, n, 1)  # 15% relative, over 10%
    assert _consistency_test(10.0, n, 1, 10.5, n, 1)


# ---------------------------------------------------------------------------
# reprojection

def test_zero_motion_identity():
    gbuf = _flat_gbuf()
    hist = _const_history(8, 8, 1, 0.6)
    tap = reproject(hist, gbuf, gbuf, CFG)
    assert tap["valid"].all()
    assert np.allclose(tap["color"][0], 0.6)
    assert np.all(tap["history_len"] == 10)


def test_motion_beyond_border_invalid():
    gbuf = _flat_gbuf()
    curr = _flat_gbuf()
    curr.motion[:, :, 0] = -(8 + 3)  # 3 pixels past the left edge everywhere
    hist = _const_history(8, 8, 1, 0.6)
    tap = reproject(hist, gbuf, curr, CFG)
    assert not tap["valid"].any()
    assert np.all(tap["color"][0] == 0.0)
    assert np.all(tap["history_len"] == 0)


def test_half_pixel_motion_over_constant_history():
    gbuf = _flat_gbuf()
    curr = _flat_gbuf()
    curr.motion[:, :, 0] = 0.5
    hist = _const_history(8, 8, 1, 0.6)
    tap = reproject(hist, gbuf, curr, CFG)
    interior = np.zeros((8, 8), dtype=bool)
    interior[:, :-1] = True
    assert tap["valid"][interior].all()
    assert np.allclose(tap["color"][0][interior], 0.6)


def test_occlusion_reset_history_len_one():
    prev = _flat_gbuf(oid=1)
    curr = _flat_gbuf(oid=1)
    curr.object_id[3, 3] = 2  # a different object now covers this pixel
    hist = _const_history(8, 8, 1, 0.6, length=40)
    tap = reproject(hist, prev, curr, CFG)
    out = _accumulate_one(np.full((8, 8, 1), 0.9), tap)
    assert out.history_len[3, 3] == 1
    assert out.color[0][3, 3, 0] == pytest.approx(0.9)
    assert out.history_len[0, 0] == 41


# ---------------------------------------------------------------------------
# accumulation

def test_accumulate_invalid_tap():
    tap = _tap(np.zeros((2, 2), dtype=bool), np.zeros((2, 2, 1)), 0.0, 0.0, 0)
    out = _accumulate_one(np.full((2, 2, 1), 0.7), tap)
    assert np.allclose(out.color[0], 0.7)
    assert np.allclose(out.moment1[0], 0.7)
    assert np.allclose(out.moment2[0], 0.49)
    assert np.all(out.history_len == 1)


def test_accumulate_fixed_point():
    tap = _tap(np.ones((2, 2), dtype=bool), np.full((2, 2, 1), 0.4), 0.4, 0.16, 7)
    out = _accumulate_one(np.full((2, 2, 1), 0.4), tap)
    assert np.allclose(out.color[0], 0.4)
    assert np.all(out.history_len == 8)


def test_accumulate_lerp_arithmetic():
    tap = _tap(np.ones((1, 1), dtype=bool), np.zeros((1, 1, 1)), 0.0, 0.0, 100)
    out = _accumulate_one(np.ones((1, 1, 1)), tap)
    assert out.color[0][0, 0, 0] == pytest.approx(0.2)


def test_accumulate_short_history_uses_running_mean():
    tap = _tap(np.ones((1, 1), dtype=bool), np.full((1, 1, 1), 0.5), 0.5, 0.25, 1)
    out = _accumulate_one(np.ones((1, 1, 1)), tap)
    # N=1: a = max(0.2, 1/2) = 0.5
    assert out.color[0][0, 0, 0] == pytest.approx(0.75)


def test_accumulate_blends_each_channel_with_the_shared_weights():
    # two channels of different widths over one history length: each gets
    # the blend it would get alone, and the frame gets one new length
    valid = np.array([[True, False]])
    tap = {"valid": valid, "history_len": np.array([[1, 5]], dtype=np.int32),
           "color": {"a": np.full((1, 2, 1), 0.5), "b": np.full((1, 2, 3), 2.0)},
           "moment1": {"a": np.full((1, 2), 0.5), "b": np.full((1, 2), 2.0)},
           "moment2": {"a": np.full((1, 2), 0.25), "b": np.full((1, 2), 4.0)}}
    curr = {"a": np.ones((1, 2)), "b": np.zeros((1, 2, 3))}
    out = accumulate(curr, {"a": np.ones((1, 2)), "b": np.zeros((1, 2))}, tap, 0.2, 0.2)
    assert list(out.color) == ["a", "b"]
    assert out.color["a"].shape == (1, 2, 1) and out.color["b"].shape == (1, 2, 3)
    # valid at N=1: a = 1/2; invalid: the current sample, at length 1
    assert np.allclose(out.color["a"][0, :, 0], [0.75, 1.0])
    assert np.allclose(out.color["b"][0], [[1.0] * 3, [0.0] * 3])
    assert np.allclose(out.moment2["b"][0], [2.0, 0.0])
    assert out.history_len.tolist() == [[2, 1]]


def test_history_cap():
    tap = _tap(np.ones((1, 1), dtype=bool), np.full((1, 1, 1), 0.5), 0.5, 0.25, 256)
    out = _accumulate_one(np.full((1, 1, 1), 0.5), tap)
    assert out.history_len[0, 0] == 256


# ---------------------------------------------------------------------------
# variance

def test_variance_constant_history_zero():
    hist = _const_history(8, 8, 1, 0.6, length=10)
    var = _variance_one(hist, np.full((8, 8), 0.6), _flat_gbuf(), 4, CFG)
    assert np.allclose(var, 0.0)


def test_variance_moment_arithmetic():
    hist = _const_history(4, 4, 1, 0.0, length=10)
    hist.moment1[0][:] = 0.5
    hist.moment2[0][:] = 0.3
    var = _variance_one(hist, np.zeros((4, 4)), _flat_gbuf(4, 4), 4, CFG)
    assert np.allclose(var, 0.05)


def test_variance_spatial_fallback_checkerboard():
    h = w = 16
    gbuf = _flat_gbuf(h, w)
    ys, xs = np.mgrid[0:h, 0:w]
    luma = ((xs + ys) % 2).astype(np.float64)
    hist = _const_history(h, w, 1, 0.0, length=1)  # below min_history -> spatial
    var = _variance_one(hist, luma, gbuf, 4, CFG)

    # independent oracle: direct moments over the 7x7 in-bounds window
    y0, x0 = 8, 8
    vals = [luma[y0 + dy, x0 + dx]
            for dy in range(-3, 4) for dx in range(-3, 4)]
    m1 = sum(vals) / len(vals)
    m2 = sum(v * v for v in vals) / len(vals)
    oracle = max(0.0, m2 - m1 * m1)
    assert var[y0, x0] == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(600.0 / 2401.0)


def test_variance_spatial_fallback_across_object_boundary():
    # two objects, a depth step inside the first and a turned patch of
    # normals inside the second, so many taps fail the consistency test
    h = w = 12
    gbuf = _flat_gbuf(h, w)
    gbuf.object_id[:, 6:] = 2
    gbuf.depth[8:, :6] = 8.0
    gbuf.normal[:3, 6:] = (0.0, 0.0, 1.0)
    luma = np.random.default_rng(11).random((h, w))
    hist = _const_history(h, w, 1, 0.0, length=1)  # below min_history -> spatial
    var = _variance_one(hist, luma, gbuf, 4, CFG)

    # per-pixel loop oracle over the 7x7 window, counting consistent taps only
    depth = gbuf.depth.astype(np.float64)
    normal = gbuf.normal.astype(np.float64)
    rejected = 0
    for y in range(h):
        for x in range(w):
            vals = []
            for ty in range(max(0, y - 3), min(h, y + 4)):
                for tx in range(max(0, x - 3), min(w, x + 4)):
                    if (gbuf.object_id[ty, tx] == gbuf.object_id[y, x]
                            and abs(depth[ty, tx] - depth[y, x]) / depth[y, x]
                            < CFG.depth_consistency
                            and normal[ty, tx] @ normal[y, x] > CFG.normal_consistency):
                        vals.append(luma[ty, tx])
                    else:
                        rejected += 1
            m1 = sum(vals) / len(vals)
            m2 = sum(v * v for v in vals) / len(vals)
            assert var[y, x] == pytest.approx(max(0.0, m2 - m1 * m1), abs=1e-12)
    assert rejected > 0


def _full_frame_spatial_variance(luma, gbuf):
    """The 7x7 spatial variance of every pixel of the frame, with no box."""
    depth = gbuf.depth.astype(np.float64)
    normal = gbuf.normal.astype(np.float64)
    at = [shifted(p, 3) for p in (gbuf.depth, gbuf.normal, gbuf.object_id)]
    [(_mean, var)] = _box_moments([luma], 3, accept=lambda dy, dx: _consistency_test(
        *(t(dy, dx) for t in at), depth, normal, gbuf.object_id))
    return var


def _mixed_frame(h=20, w=24):
    """Two objects with a depth step and turned normals, over +inf background."""
    gbuf = _flat_gbuf(h, w)
    gbuf.object_id[:, w // 2:] = 2
    gbuf.depth[h // 2:, :w // 2] = 8.0
    gbuf.normal[:4, w // 2:] = (0.0, 0.0, 1.0)
    gbuf.object_id[:, :3] = 0
    gbuf.object_id[-2:, :] = 0
    gbuf.depth[gbuf.object_id == 0] = np.inf
    gbuf.normal[gbuf.object_id == 0] = 0.0
    return gbuf


@pytest.mark.parametrize("short_at", [
    [(slice(5, 9), slice(8, 15))],        # inside, straddling both objects
    [(0, 23), (slice(0, 2), slice(20, 24))],  # touching the top and right borders
    [(slice(17, 20), slice(0, 24))],      # along the bottom, background included
    [(3, 5), (12, 20)],                   # two lone pixels far apart
    [],                                   # none short
])
def test_variance_spatial_only_where_kept_matches_full_frame(short_at):
    h, w = 20, 24
    gbuf = _mixed_frame(h, w)
    rs = np.random.default_rng(3)
    luma = rs.random((h, w))
    hist = _const_history(h, w, 1, 0.0, length=10)
    hist.moment1[0][:] = rs.random((h, w))
    hist.moment2[0][:] = hist.moment1[0] ** 2 + rs.random((h, w))
    for at in short_at:
        hist.history_len[at] = 2
    var = _variance_one(hist, luma, gbuf, 4, CFG)

    short = hist.history_len < 4
    fg = gbuf.object_id != 0
    full = _full_frame_spatial_variance(luma, gbuf)
    temporal = np.maximum(0.0, hist.moment2[0] - hist.moment1[0] ** 2)
    assert np.array_equal(var[short & fg], full[short & fg])
    assert np.array_equal(var[~short], temporal[~short])
    assert np.all(var[short & ~fg] == 0.0)
    assert np.all(full[~fg] == 0.0)  # what the full frame gives the background


def test_variance_skips_spatial_when_only_background_is_short(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("spatial moments computed with no short foreground")

    monkeypatch.setattr("rtdenoise.temporal._box_moments", fail)
    hist = _const_history(8, 8, 1, 0.6, length=10)
    hist.history_len[2, 2] = 1
    gbuf = _flat_gbuf()
    gbuf.object_id[2, 2] = 0  # the one short pixel is background
    gbuf.depth[2, 2] = np.inf
    var = _variance_one(hist, np.full((8, 8), 0.6), gbuf, 4, CFG)
    assert var[2, 2] == 0.0


def _scattered_frame(h=18, w=23):
    """Two objects with a depth step, turned normals and a few background
    pixels inside, so that windows straddle consistency failures; and a
    scattered short-history mask of about one pixel in eight that touches
    all four image borders and the corners."""
    rs = np.random.default_rng(21)
    gbuf = _flat_gbuf(h, w)
    gbuf.object_id[:, w // 2:] = 2
    gbuf.depth[h // 2:] = 9.0
    gbuf.depth[:, :4] *= 1.0 + 0.2 * rs.random((h, 4)).astype(np.float32)
    gbuf.normal[:5, w // 3:] = (0.0, 0.0, 1.0)
    bg = rs.random((h, w)) < 0.05
    gbuf.object_id[bg] = 0
    gbuf.depth[bg] = np.inf
    gbuf.normal[bg] = 0.0
    short = rs.random((h, w)) < 0.12
    short[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    short[0, 7] = short[-1, 11] = short[5, 0] = short[9, -1] = True
    return gbuf, short


def test_gathered_spatial_variance_equals_box_form_bit_for_bit():
    gbuf, short = _scattered_frame()
    fg = gbuf.object_id != 0
    keep = short & fg
    for edge in (keep[0], keep[-1], keep[:, 0], keep[:, -1]):
        assert edge.any()
    rs = np.random.default_rng(22)
    lumas = [rs.random(gbuf.depth.shape), 40.0 * rs.random(gbuf.depth.shape)]
    kept = np.flatnonzero(keep)
    got = temporal._gathered_variance(lumas, gbuf, kept, CFG)
    want = temporal._spatial_variance(lumas, gbuf.depth, gbuf.normal, gbuf.object_id, CFG)
    assert len(got) == len(want) == 2
    for k in range(2):
        assert got[k].shape == (kept.size,)
        assert got[k].tobytes() == want[k].reshape(-1)[kept].tobytes()
    # some windows lose taps inside the image: a right neighbour fails the test
    y, x = np.divmod(kept, gbuf.depth.shape[1])
    right = np.minimum(x + 1, gbuf.depth.shape[1] - 1)
    assert not _consistency_test(gbuf.depth[y, right], gbuf.normal[y, right],
                                gbuf.object_id[y, right], gbuf.depth[y, x], gbuf.normal[y, x],
                                gbuf.object_id[y, x]).all()


@pytest.mark.parametrize("holes,form", [(0, "box"), (1, "gathered")])
def test_variance_form_follows_the_quarter_of_the_box_rule(holes, form, monkeypatch):
    # a 6x6 short block grows by the window radius to a 12x12 box: 36 kept
    # pixels fill a quarter of it, which keeps the box form; one pixel fewer,
    # with the same box, gathers
    h = w = 24
    hist = _const_history(h, w, 1, 0.0, length=10)
    hist.history_len[8:14, 8:14] = 1
    hist.history_len[10, 10:10 + holes] = 10
    ran = []
    for name in ("_spatial_variance", "_gathered_variance"):
        def record(*args, _name=name, _fn=getattr(temporal, name)):
            ran.append(_name)
            return _fn(*args)
        monkeypatch.setattr(temporal, name, record)
    gbuf = _mixed_frame(h, w)
    luma = np.random.default_rng(23).random((h, w))
    var = _variance_one(hist, luma, gbuf, 4, CFG)
    assert ran == ["_spatial_variance" if form == "box" else "_gathered_variance"]
    keep = (hist.history_len < 4) & (gbuf.object_id != 0)
    assert var[keep].tobytes() == _full_frame_spatial_variance(luma, gbuf)[keep].tobytes()


def test_variance_never_negative():
    rs = np.random.default_rng(0)
    hist = _const_history(8, 8, 1, 0.0, length=10)
    hist.moment1[0][:] = rs.random((8, 8))
    hist.moment2[0][:] = rs.random((8, 8))  # deliberately inconsistent moments
    var = _variance_one(hist, rs.random((8, 8)), _flat_gbuf(), 4, CFG)
    assert np.all(var >= 0.0)


# ---------------------------------------------------------------------------
# rectification

@pytest.mark.parametrize("shape,radius", [((9, 11, 3), 1), ((9, 11, 3), 3), ((9, 11, 1), 1),
                                          ((9, 11, 1), 3), ((2, 5, 3), 3), ((2, 5, 1), 3)])
def test_unmasked_box_moments_equal_masked_form_bit_for_bit(shape, radius):
    # the unmasked form adds zero-padded values where the masked form adds 0
    # times the edge value; signed zeros and negative values included
    rs = np.random.default_rng(24)
    values = [rs.normal(size=shape), np.round(rs.normal(size=shape))]
    values[1][values[1] == 0.0] = -0.0
    assert values[0].flags.c_contiguous and np.signbit(values[1][values[1] == 0.0]).all()
    everywhere = np.ones(shape[:2], dtype=bool)
    got = [_unmasked_box_moments(v, radius) for v in values]
    want = _box_moments([v[..., c] for v in values for c in range(shape[2])], radius,
                        accept=lambda dy, dx: everywhere)
    for (mean, var), (want_mean, want_var) in zip(
            [(m[..., c], v[..., c]) for m, v in got for c in range(shape[2])], want, strict=True):
        assert mean.shape == var.shape == shape[:2]
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()


def test_rectify_inside_box_unchanged():
    rs = np.random.default_rng(1)
    curr = rs.random((5, 5, 3))
    mu, sigma = np.mean(curr), np.std(curr)
    tap = np.broadcast_to(curr.mean(axis=(0, 1)), (5, 5, 3)).copy()
    for mode in ("clamp", "clip"):
        rect, mu_img, sig_img = rectify_history(tap, curr, 10.0, mode)
        assert np.allclose(rect, tap)


def test_rectify_constant_neighborhood_collapses():
    curr = np.full((5, 5, 3), 0.3)
    tap = np.full((5, 5, 3), 0.9)
    for mode in ("clamp", "clip"):
        rect, _m, _s = rectify_history(tap, curr, 1.0, mode)
        assert np.allclose(rect, 0.3)


def test_rectify_rejects_an_unknown_mode():
    curr = np.full((5, 5, 3), 0.3)
    with pytest.raises(ValueError, match="^unknown rectification mode 'box'$"):
        rectify_history(curr, curr, 1.0, "box")


def _clip_oracle(mu, sigma, gamma, tap):
    """Brute-force segment/box intersection: walk t down from 1 until
    mu + t*(tap-mu) fits inside [mu - gamma*sigma, mu + gamma*sigma]."""
    dev = tap - mu
    for t in np.linspace(1.0, 0.0, 200001):
        if np.all(np.abs(t * dev) <= gamma * sigma + 1e-12):
            return mu + t * dev
    return mu


def test_rectify_axis_deviation_against_oracle():
    # center neighborhood with mean 0 and stddev 1 per channel
    x = 3.0 / np.sqrt(8.0)
    pattern = np.array([x, -x, x, -x, 0.0, x, -x, x, -x]).reshape(3, 3)
    curr = np.stack([pattern] * 3, axis=-1)
    tap = np.zeros((3, 3, 3))
    tap[1, 1] = (2.0, 0.0, 0.0)
    rect_clamp, mu, sigma = rectify_history(tap, curr, 1.0, "clamp")
    rect_clip, _m, _s = rectify_history(tap, curr, 1.0, "clip")
    assert np.allclose(mu[1, 1], 0.0, atol=1e-12)
    assert np.allclose(sigma[1, 1], 1.0, atol=1e-12)
    assert np.allclose(rect_clamp[1, 1], (1.0, 0.0, 0.0))
    oracle = _clip_oracle(mu[1, 1], sigma[1, 1], 1.0, tap[1, 1])
    assert np.allclose(rect_clip[1, 1], oracle, atol=1e-4)
    assert np.allclose(rect_clip[1, 1], (1.0, 0.0, 0.0), atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1), st.floats(0.25, 4.0))
def test_rectified_always_inside_box(seed, gamma):
    rs = np.random.default_rng(seed)
    curr = rs.gamma(1.0, 1.0, size=(6, 6, 3))
    tap = rs.gamma(1.0, 2.0, size=(6, 6, 3))
    for mode in ("clamp", "clip"):
        rect, mu, sigma = rectify_history(tap, curr, gamma, mode)
        assert np.all(np.abs(rect - mu) <= gamma * sigma + 1e-6)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1))
def test_clip_preserves_deviation_direction(seed):
    rs = np.random.default_rng(seed)
    curr = rs.random((6, 6, 3))
    tap = rs.random((6, 6, 3)) * 3.0
    rect, mu, _sigma = rectify_history(tap, curr, 1.0, "clip")
    dev_in = tap - mu
    dev_out = rect - mu
    # dev_out = t * dev_in with t in [0, 1]
    num = np.sum(dev_out * dev_in, axis=-1)
    den = np.maximum(np.sum(dev_in * dev_in, axis=-1), 1e-12)
    t = num / den
    assert np.all(t >= -1e-9) and np.all(t <= 1.0 + 1e-9)
    cross = dev_out - t[..., None] * dev_in
    assert np.max(np.abs(cross)) < 1e-9


def test_rectify_moments_keeps_moment_inequality():
    rs = np.random.default_rng(2)
    m1 = rs.random((8, 8))
    m2 = m1 * m1 + rs.random((8, 8))  # valid moments
    rl = rs.random((8, 8)) * 2.0
    n1, n2 = rectify_moments(m1, m2, rl)
    assert np.all(n2 >= n1 * n1 - 1e-12)


# ---------------------------------------------------------------------------
# full step

def test_temporal_step_first_frame():
    gbuf = _flat_gbuf()
    data = np.random.default_rng(3).random((8, 8))
    hist, var = temporal_step(data, gbuf, None, None, CFG)
    assert np.all(hist.history_len == 1)
    assert np.allclose(hist.color[0][:, :, 0], data)
    assert np.all(var >= 0.0)


def test_temporal_step_static_sequence_grows_history():
    gbuf = _flat_gbuf()
    rs = np.random.default_rng(4)
    hist = None
    prev_gbuf = None
    for _f in range(5):
        hist, _var = temporal_step(rs.random((8, 8)), gbuf, hist, prev_gbuf, CFG)
        prev_gbuf = gbuf
    assert np.all(hist.history_len == 5)
    assert np.all(hist.moment2[0] >= hist.moment1[0]**2 - 1e-5)
