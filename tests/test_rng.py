import numpy as np
import pytest

from rtdenoise import rng


def test_deterministic_and_order_independent():
    xs, ys = np.meshgrid(np.arange(16), np.arange(16))
    a = rng.pixel_uniform(7, 3, xs, ys, 0, 0)
    b = rng.pixel_uniform(7, 3, xs, ys, 0, 0)
    assert np.array_equal(a, b)
    # scrambled evaluation order gives the same per-pixel values
    flat = rng.pixel_uniform(7, 3, xs.ravel()[::-1], ys.ravel()[::-1], 0, 0)
    assert np.array_equal(flat[::-1].reshape(16, 16), a)


def test_distinct_keys_decorrelate():
    xs, ys = np.meshgrid(np.arange(32), np.arange(32))
    a = rng.pixel_uniform(1, 0, xs, ys, 0, 0)
    b = rng.pixel_uniform(2, 0, xs, ys, 0, 0)
    c = rng.pixel_uniform(1, 1, xs, ys, 0, 0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.1


def test_uniform_range_and_mean():
    xs, ys = np.meshgrid(np.arange(64), np.arange(64))
    u = rng.pixel_uniform(5, 0, xs, ys, 0, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12.0) < 0.005


@pytest.mark.parametrize("xs,ys", [
    tuple(np.meshgrid(np.arange(9), np.arange(5))),
    (np.arange(7)[None, :], np.arange(4)[:, None]),  # broadcast, as render_frame passes them
    (3, 8),
])
def test_sample_uniform_continues_pixel_key(xs, ys):
    key = rng.pixel_key(11, 6, xs, ys)
    for sample in (0, 1, 17, 1023):
        for dim in range(4):
            want = np.asarray(rng.uniform(11, 6, xs, ys, sample, dim))
            for got in (rng.sample_uniform(key, sample, dim),
                        rng.pixel_uniform(11, 6, xs, ys, sample, dim)):
                got = np.asarray(got)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_subset_of_pixel_keys_draws_the_full_grid_stream():
    # the renderer samples only its foreground pixels, flat: any subset of the
    # grid, in any order, must draw the numbers the full grid draws there
    h, w = 9, 13
    grid = rng.pixel_key(5, 2, np.arange(w)[None, :], np.arange(h)[:, None])
    pix = np.random.default_rng(1).permutation(h * w)[:40]
    key = rng.pixel_key(5, 2, pix % w, pix // w)
    assert key.tobytes() == np.take(grid, pix).tobytes()
    for sample, dim in [(0, 0), (3, 1), (17, 2), (1023, 3)]:
        want = np.take(rng.sample_uniform(grid, sample, dim), pix)
        for k in (key, np.take(grid, pix)):
            assert rng.sample_uniform(k, sample, dim).tobytes() == want.tobytes()
