import numpy as np
import pytest

from rtdenoise.compose import composite, shade_direct, taa
from rtdenoise.frames import GBufferFrame
from rtdenoise.temporal import rectify_history


def _gbuf(h=8, w=8, oid=1):
    normal = np.zeros((h, w, 3), dtype=np.float32)
    normal[:, :, 1] = 1.0
    return GBufferFrame(
        depth=np.full((h, w), 2.0, dtype=np.float32),
        normal=normal,
        motion=np.zeros((h, w, 2), dtype=np.float32),
        object_id=np.full((h, w), oid, dtype=np.int32),
        albedo=np.full((h, w, 3), 0.6, dtype=np.float32),
        roughness=np.full((h, w), 0.4, dtype=np.float32),
        emissive=np.zeros((h, w, 3), dtype=np.float32),
    )


def test_shade_direct_perpendicular_is_black():
    g = _gbuf()
    positions = np.zeros((8, 8, 3))
    # light in the plane of the surface: dot(n, l) = 0
    out = shade_direct(g, positions, [5.0, 0.0, 0.0], [10.0, 10.0, 10.0])
    assert np.allclose(out, 0.0)


def test_shade_direct_zero_albedo():
    g = _gbuf()
    g.albedo[:] = 0.0
    out = shade_direct(g, np.zeros((8, 8, 3)), [0.0, 3.0, 0.0], [10.0, 10.0, 10.0])
    assert np.allclose(out, 0.0)


def test_shade_direct_formula_readoff():
    g = _gbuf()
    g.albedo[:] = np.pi
    out = shade_direct(g, np.zeros((8, 8, 3)), [0.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    assert np.allclose(out, 1.0)


def test_composite_blend_cases():
    g = _gbuf()
    g.emissive[:] = 0.05
    direct = np.full((8, 8, 3), 0.4)
    spec = np.full((8, 8, 3), 0.2)
    sky = np.full((8, 8, 3), 9.0)
    full = composite(direct, np.ones((8, 8)), np.zeros((8, 8, 3)), g, sky)
    assert np.allclose(full, 0.05 + 0.4)
    dark = composite(direct, np.zeros((8, 8)), spec, g, sky)
    assert np.allclose(dark, 0.05 + 0.2)


def test_composite_background_is_sky():
    g = _gbuf(oid=0)
    g.depth[:] = np.inf
    sky = np.random.default_rng(0).random((8, 8, 3))
    out = composite(np.zeros((8, 8, 3)), np.ones((8, 8)), np.zeros((8, 8, 3)), g, sky)
    assert np.array_equal(out, sky)


def test_composite_linear_in_each_input():
    g = _gbuf()
    rs = np.random.default_rng(1)
    direct = rs.random((8, 8, 3))
    sky = rs.random((8, 8, 3))
    s1, s2 = rs.random((8, 8)), rs.random((8, 8))
    c1, c2 = rs.random((8, 8, 3)), rs.random((8, 8, 3))
    lhs = composite(direct, s1 + s2, c1 + c2, g, sky)
    rhs = (composite(direct, s1, c1, g, sky) + composite(direct, s2, c2, g, sky)
           - composite(direct, np.zeros((8, 8)), np.zeros((8, 8, 3)), g, sky))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_taa_first_frame_passthrough():
    g = _gbuf()
    curr = np.random.default_rng(2).random((8, 8, 3))
    assert np.array_equal(taa(curr, None, g), curr)


def test_taa_static_constant_fixed_point():
    g = _gbuf()
    img = np.full((8, 8, 3), 0.37)
    out = img
    for _ in range(5):
        out = taa(img, out, g)
        assert np.allclose(out, 0.37, atol=1e-12)


def _taa_oracle(hist, curr):
    """The TAA of a reprojected history `hist`: clamped to the current 3x3
    box at one standard deviation, then moved 0.1 toward `curr`. Also
    returns where the clamp kept the history's component as it was."""
    rect, _mu, _sigma = rectify_history(hist, curr, 1.0, "clamp")
    return rect + 0.1 * (curr - rect), rect == hist


def test_taa_half_pixel_motion_blends_neighbors():
    # every pixel samples halfway to its right neighbor in the previous
    # output; in the last column that neighbor lies outside and is dropped
    g = _gbuf()
    g.motion[:, :, 0] = 0.5
    rs = np.random.default_rng(3)
    prev = rs.random((8, 8, 3))
    curr = rs.random((8, 8, 3))
    out = taa(curr, prev, g)
    hist = prev.copy()
    hist[:, :-1] = 0.5 * (prev[:, :-1] + prev[:, 1:])
    want, kept = _taa_oracle(hist, curr)
    assert np.allclose(out, want, atol=1e-12)
    # the reprojected values themselves reach the output, in the last column too
    assert kept.mean() > 0.5 and kept[:, -1].any() and kept[:, :-1].any()
    assert not kept.all()


def test_taa_motion_past_border_passes_current_through():
    g = _gbuf()
    g.motion[:, :, 0] = -3.0
    rs = np.random.default_rng(4)
    prev = rs.random((8, 8, 3))
    curr = rs.random((8, 8, 3))
    out = taa(curr, prev, g)
    # columns 0-2 come from outside the previous frame: no history there
    assert np.array_equal(out[:, :3], curr[:, :3])
    hist = np.zeros_like(prev)
    hist[:, 3:] = prev[:, :-3]
    want, kept = _taa_oracle(hist, curr)
    assert np.allclose(out[:, 3:], want[:, 3:], atol=1e-12)
    assert kept[:, 3:].mean() > 0.5 and not kept[:, 3:].all()
    g.motion[:, :, 1] = 100.0  # every pixel leaves the image
    assert np.array_equal(taa(curr, prev, g), curr)


def test_taa_damps_alternating_noise():
    # one pixel alternates c +/- d on a constant background; the steady-state
    # output amplitude must fall below d, matching a direct recurrence oracle
    h = w = 9
    g = _gbuf(h, w)
    c, d = 0.5, 0.4
    gamma, blend = 1.0, 0.1

    def frame(t):
        img = np.full((h, w, 3), c)
        img[4, 4] = c + (d if t % 2 == 0 else -d)
        return img

    out = None
    series = []
    for t in range(60):
        out = taa(frame(t), out, g)
        series.append(out[4, 4, 0])

    # independent scalar oracle of the same recurrence at that pixel
    prev = None
    oracle = []
    for t in range(60):
        x = c + (d if t % 2 == 0 else -d)
        vals = np.array([c] * 8 + [x])
        mu, sigma = vals.mean(), vals.std()
        if prev is None:
            prev = x
        else:
            rect = np.clip(prev, mu - gamma * sigma, mu + gamma * sigma)
            prev = rect + blend * (x - rect)
        oracle.append(prev)

    assert np.allclose(series, oracle, atol=1e-12)
    tail = np.array(series[-10:])
    amplitude = (tail.max() - tail.min()) / 2
    assert amplitude < d
