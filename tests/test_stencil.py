import math

import numpy as np
import pytest

from rtdenoise.stencil import (bilinear_sample, bounding_box, channel_major, clamped, dot3,
                               gather, put3, shifted, take3, window)


def _reference_dot(a, b):
    return np.sum(a * b, axis=-1)


@pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float32, np.float32),
                                    (np.float32, np.float64), (np.float64, np.float32)])
@pytest.mark.parametrize("shapes", [((6, 5, 3), (6, 5, 3)), ((3,), (6, 5, 3)),
                                    ((6, 5, 3), (3,)), ((6, 1, 3), (1, 5, 3)),
                                    ((7, 3), (7, 3)), ((3,), (3,))])
def test_dot3_matches_sum_of_products_bit_for_bit(dtypes, shapes):
    rs = np.random.default_rng(4)
    a = (rs.standard_normal(shapes[0]) * 1e3).astype(dtypes[0])
    b = rs.standard_normal(shapes[1]).astype(dtypes[1])
    got, want = dot3(a, b), _reference_dot(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_dot3_on_channel_major_and_sliced_views():
    rs = np.random.default_rng(5)
    a = channel_major(rs.standard_normal((9, 8, 3)))
    b = np.pad(rs.standard_normal((9, 8, 3)).astype(np.float32), ((2, 2), (2, 2), (0, 0)))
    b = b[1:10, 3:11]
    assert dot3(a, b).tobytes() == _reference_dot(a, b).tobytes()
    # into a view of a stale buffer, as a loop over row bands passes it
    buf = np.full((12, 8), np.nan)[2:11]
    assert dot3(a, b, out=buf) is buf and buf.tobytes() == _reference_dot(a, b).tobytes()
    # and with the second and third products through a stale scratch view too
    buf[:], scratch = np.nan, np.full((12, 8), np.nan)[1:10]
    assert dot3(a, b, out=buf, scratch=scratch) is buf
    assert buf.tobytes() == _reference_dot(a, b).tobytes()


def test_dot3_nonfinite_and_signed_zeros_as_sum():
    a = np.array([[np.inf, 0.0, 1.0], [np.nan, 1.0, 0.0], [-1.0, -2.0, 3.0],
                  [-1.0, 0.0, -0.0]])
    b = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, -0.0],
                  [0.0, -5.0, 2.0]])
    with np.errstate(invalid="ignore"):
        got, want = dot3(a, b), _reference_dot(a, b)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(want[2:]).tolist() == [False, False]  # -0.0 terms sum to +0.0


def test_channel_major_keeps_values_and_lays_channels_out_as_planes():
    x = np.arange(24, dtype=np.float32).reshape(2, 4, 3)
    y = channel_major(x)
    assert y.shape == x.shape and y.dtype == np.float64
    assert np.array_equal(y, x)
    assert y[..., 1].flags.c_contiguous


def test_shifted_multichannel_taps_clamp_to_border():
    plane = np.random.default_rng(6).random((5, 7, 3))
    tap = shifted(plane, 2)
    ys, xs = np.mgrid[0:5, 0:7]
    for dy in (-2, 0, 1):
        for dx in (-1, 0, 2):
            want = plane[np.clip(ys + dy, 0, 4), np.clip(xs + dx, 0, 6)]
            assert np.array_equal(tap(dy, dx), want)


def test_clamped_matches_loop_oracle():
    rs = np.random.default_rng(13)
    h, w = 5, 7
    ys, xs = rs.integers(-4, h + 4, (6, 9)), rs.integers(-4, w + 4, (6, 9))
    flat, inside = clamped((h, w, 3), ys, xs)
    assert flat.shape == inside.shape == ys.shape
    for (i, j), y in np.ndenumerate(ys):
        x = xs[i, j]
        assert flat[i, j] == min(max(y, 0), h - 1) * w + min(max(x, 0), w - 1)
        assert inside[i, j] == (0 <= y < h and 0 <= x < w)
    assert inside.any() and not inside.all()


def _edge_pixels(h, w):
    """Row-major indices of every border pixel, the corners among them,
    and of a few inside, in no particular order."""
    edge = np.zeros((h, w), dtype=bool)
    edge[[0, -1]] = edge[:, [0, -1]] = True
    edge[h // 2, w // 2] = True
    return np.random.default_rng(14).permutation(np.flatnonzero(edge))


@pytest.mark.parametrize("reach", [1, 3])
@pytest.mark.parametrize("channels", [None, 3])
@pytest.mark.parametrize("size", [(6, 9), (2, 5)])
def test_window_at_pixels_equals_padded_form_bit_for_bit(size, channels, reach):
    rs = np.random.default_rng(15)
    h, w = size
    shape = size if channels is None else size + (channels,)
    planes = [rs.standard_normal(shape), rs.standard_normal(size).astype(np.float32),
              rs.integers(0, 4, size).astype(np.int32)]
    at = _edge_pixels(h, w)
    padded, gathered = window(planes, reach), window(planes, reach, at=at)
    ys, xs = np.divmod(at, w)
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            want_inside, want = padded(dy, dx)
            got_inside, got = gathered(dy, dx)
            assert want_inside.shape == size and got_inside.shape == at.shape
            assert got_inside.tobytes() == want_inside[ys, xs].tobytes()
            assert len(got) == len(want) == len(planes)
            for g, p in zip(got, want):
                assert g.dtype == p.dtype and g.tobytes() == p[ys, xs].tobytes()
    # the window reaches past every border of the image
    assert not padded(-reach, -reach)[0][0, 0] and not padded(reach, reach)[0][-1, -1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32, bool])
@pytest.mark.parametrize("channels", [None, 1, 3])
def test_gather_equals_fancy_indexing(dtype, channels):
    rs = np.random.default_rng(7)
    h, w = 6, 9
    shape = (h, w) if channels is None else (h, w, channels)
    plane = (rs.standard_normal(shape) * 50).astype(dtype)
    yc, xc = rs.integers(0, h, (5, 4)), rs.integers(0, w, (5, 4))
    got, want = gather(plane, yc * w + xc), plane[yc, xc]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_gather_on_channel_major_plane():
    rs = np.random.default_rng(8)
    plane = channel_major(rs.standard_normal((7, 5, 3)))
    yc, xc = rs.integers(0, 7, (7, 5)), rs.integers(0, 5, (7, 5))
    assert gather(plane, yc * 5 + xc).tobytes() == plane[yc, xc].tobytes()


def _bilinear_oracle(planes, motion, accept_texel=None):
    """Per-pixel loops over the four enclosing texels; a texel counts where it
    lies inside the image and `accept_texel(y, x, yt, xt)` holds."""
    h, w = motion.shape[:2]
    sums = [np.zeros(p.shape) for p in planes]
    wsum = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            px, py = x + float(motion[y, x, 0]), y + float(motion[y, x, 1])
            x0, y0 = math.floor(px), math.floor(py)
            fx, fy = px - x0, py - y0
            for dy in (0, 1):
                for dx in (0, 1):
                    xt, yt = x0 + dx, y0 + dy
                    if not (0 <= xt < w and 0 <= yt < h):
                        continue
                    if accept_texel is not None and not accept_texel(y, x, yt, xt):
                        continue
                    wgt = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
                    wsum[y, x] += wgt
                    for s, p in zip(sums, planes):
                        s[y, x] += wgt * p[yt, xt]
    return sums, wsum


@pytest.mark.parametrize("with_accept", [False, True])
def test_bilinear_sample_matches_loop_oracle(with_accept):
    rs = np.random.default_rng(11)
    h, w = 9, 11
    # fractional offsets up to 4 pixels: taps land past every border
    motion = rs.uniform(-4.0, 4.0, (h, w, 2)).astype(np.float32)
    planes = (rs.standard_normal((h, w, 3)), rs.standard_normal((h, w)),
              rs.integers(0, 9, (h, w)).astype(np.int32))
    ids = rs.integers(0, 3, (h, w))
    accept = (lambda flat: gather(ids, flat) == ids) if with_accept else None
    oracle_accept = (lambda y, x, yt, xt: ids[yt, xt] == ids[y, x]) if with_accept else None
    means, valid = bilinear_sample(planes, motion, accept=accept)
    want_sums, wsum = _bilinear_oracle(planes, motion, oracle_accept)
    assert np.array_equal(valid, wsum > 1e-8)
    for got, want in zip(means, want_sums):
        total = wsum if want.ndim == 2 else wsum[..., None]
        want = np.where(total > 1e-8, want / np.where(total > 1e-8, total, 1.0), 0.0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # some pixels lose every texel past a border or to `accept`, others some
    assert (wsum == 0.0).any() and ((wsum > 0.0) & (wsum < 1.0 - 1e-9)).any()


def test_bounding_box_grows_by_margin_and_clamps():
    mask = np.zeros((10, 12), dtype=bool)
    assert bounding_box(mask) is None
    mask[3, 4] = mask[5, 10] = True
    assert bounding_box(mask) == (slice(3, 6), slice(4, 11))
    # the margin grows the box, clamped to the image on each side
    assert bounding_box(mask, 2) == (slice(1, 8), slice(2, 12))
    assert bounding_box(mask, 4) == (slice(0, 10), slice(0, 12))


@pytest.mark.parametrize("layout", ["flat", "channel-major"])
def test_put3_scatters_what_take3_gathers(layout):
    rs = np.random.default_rng(12)
    src = rs.standard_normal((5, 3))
    flat = np.array([7, 0, 11, 3, 8])
    want = np.zeros((12, 3))
    want[flat] = src
    if layout == "flat":
        dst = np.zeros((12, 3))
    else:
        dst = channel_major(np.zeros((3, 4, 3)))
        want = want.reshape(3, 4, 3)
    put3(dst, flat, src)
    assert np.array_equal(dst, want)
    assert np.array_equal(take3(dst, flat), src)
