import numpy as np
import pytest

from rtdenoise.stencil import channel_major, dot3, shifted


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


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_shifted_multichannel_taps_clamp_to_border(axis):
    plane = np.random.default_rng(6).random((5, 7, 3))
    tap = shifted(plane, 2, axis)
    ys, xs = np.mgrid[0:5, 0:7]
    for dy in (-2, 0, 1) if axis != 1 else (0,):
        for dx in (-1, 0, 2) if axis != 0 else (0,):
            want = plane[np.clip(ys + dy, 0, 4), np.clip(xs + dx, 0, 6)]
            assert np.array_equal(tap(dy, dx), want)
