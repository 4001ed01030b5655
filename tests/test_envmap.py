import re
import tracemalloc

import numpy as np
import pytest

from rtdenoise import envmap
from rtdenoise.envmap import (latlong_directions, latlong_solid_angles,
                              lobe_exponent, prefilter_env, sample_latlong)
from rtdenoise.stencil import channel_major, take3


def test_solid_angles_cover_sphere():
    omega = latlong_solid_angles(32, 16)
    assert omega.sum() == pytest.approx(4 * np.pi, rel=1e-2)


def test_directions_unit():
    d = latlong_directions(16, 8)
    assert np.allclose(np.linalg.norm(d, axis=-1), 1.0)


def test_constant_map_invariant_under_prefilter():
    env = np.full((8, 16, 3), 1.7)
    pre = prefilter_env(env, 4)
    for level in pre.levels:
        assert np.allclose(level, 1.7, atol=1e-12)


def test_level_zero_is_source():
    rs = np.random.default_rng(0)
    env = rs.random((8, 16, 3))
    pre = prefilter_env(env, 1)
    assert np.array_equal(pre.levels[0], env)
    assert pre.num_levels == 1


def test_prefilter_needs_a_level():
    with pytest.raises(ValueError, match="^levels must be >= 1$"):
        prefilter_env(np.full((8, 16, 3), 1.0), 0)


@pytest.mark.parametrize("rows", [1, 7, 64, 799])
@pytest.mark.parametrize("roughness", [0.25, 1.0])
def test_blocked_convolution_equals_one_block(monkeypatch, rows, roughness):
    # a 40x20 map is 800 texels: 7, 64 and 799 rows leave a short last block
    rs = np.random.default_rng(4)
    env = rs.random((20, 40, 3)) * 3.0
    exponent = lobe_exponent(roughness)
    monkeypatch.setattr(envmap, "_BLOCK", 800 * 800)
    one_block = envmap._convolve_cosine_power(env, exponent)
    monkeypatch.setattr(envmap, "_BLOCK", rows * 800)
    blocked = envmap._convolve_cosine_power(env, exponent)
    assert blocked.tobytes() == one_block.tobytes()


def test_prefilter_memory_is_not_quadratic_in_the_texels():
    # the unblocked sum took 160 MB here: N x N weights and N x N x 3 products
    env = np.random.default_rng(5).random((32, 64, 3))
    tracemalloc.start()
    try:
        prefilter_env(env, 5)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def env_total_energy(env: np.ndarray) -> np.ndarray:
    """Solid-angle weighted energy integral, for the conservation check."""
    h, w = env.shape[:2]
    omega = latlong_solid_angles(w, h)
    return (env * omega[:, :, None]).sum(axis=(0, 1))


def test_energy_conservation_within_2_percent():
    rs = np.random.default_rng(1)
    env = 0.3 + rs.random((16, 32, 3))
    pre = prefilter_env(env, 5)
    e0 = env_total_energy(pre.levels[0])
    for level in pre.levels[1:]:
        e = env_total_energy(level)
        assert np.all(np.abs(e - e0) / e0 < 0.02)


def _cosine_quadrature_oracle(env, direction, n_theta=600, n_phi=1200):
    """Brute-force cosine-weighted integral of the env map around `direction`,
    normalized, on a dense spherical grid independent of the texel layout.
    The map is read piecewise-constant per texel (nearest), matching how the
    prefilter treats texels as solid-angle-weighted point masses."""
    h, w = env.shape[:2]
    theta = (np.arange(n_theta) + 0.5) / n_theta * np.pi
    phi = (np.arange(n_phi) + 0.5) / n_phi * 2 * np.pi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack([np.sin(tt) * np.cos(pp), np.cos(tt), np.sin(tt) * np.sin(pp)],
                    axis=-1)
    domega = (np.pi / n_theta) * (2 * np.pi / n_phi) * np.sin(tt)
    cos = np.clip(dirs @ np.asarray(direction), 0.0, None)
    iy = np.minimum((tt / np.pi * h).astype(int), h - 1)
    ix = np.minimum((pp / (2 * np.pi) * w).astype(int), w - 1)
    vals = env[iy, ix]
    wgt = cos * domega
    return (vals * wgt[..., None]).sum(axis=(0, 1)) / wgt.sum()


def test_pure_cosine_level_matches_quadrature():
    # single bright texel; the top roughness level is a pure cosine lobe
    env = np.zeros((16, 32, 3))
    env[4, 10] = (40.0, 20.0, 10.0)
    pre = prefilter_env(env, 3)
    top = pre.levels[-1]  # r=1 -> exponent max(1, 0) = 1
    dirs = latlong_directions(32, 16)
    bright = dirs[4, 10]
    # four directions that see the lobe well clear of its terminator
    probes = [(4, 10), (3, 9), (6, 12), (5, 7)]
    for iy, ix in probes:
        assert dirs[iy, ix] @ bright > 0.3
        oracle = _cosine_quadrature_oracle(env, dirs[iy, ix])
        got = top[iy, ix]
        scale = max(oracle.max(), 1e-9)
        assert np.all(np.abs(got - oracle) / scale < 0.05), (got, oracle)


def test_sample_interpolates_levels():
    rs = np.random.default_rng(3)
    env = rs.random((8, 16, 3)) * 2.0
    pre = prefilter_env(env, 5)
    d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    lo = pre.sample(d, np.array([0.0, 0.0]))
    hi = pre.sample(d, np.array([1.0, 1.0]))
    assert np.allclose(lo, sample_latlong(pre.levels[0], d))
    assert np.allclose(hi, sample_latlong(pre.levels[-1], d))
    mid = pre.sample(d, np.array([0.125, 0.125]))  # halfway level 0 and 1
    expect = 0.5 * (sample_latlong(pre.levels[0], d) + sample_latlong(pre.levels[1], d))
    assert np.allclose(mid, expect)


def test_lobe_exponent_values():
    # a mirror up to 1e-6, then max(1, 2/r^2 - 2); scalars give the same values
    r = np.array([0.0, 1e-7, 1e-6, 2e-6, 0.5, 1.0])
    want = [np.inf, np.inf, np.inf, 2.0 / 2e-6**2 - 2.0, 6.0, 1.0]
    assert lobe_exponent(r).tolist() == want
    assert [float(lobe_exponent(v)) for v in r] == want


def _sample_latlong_fancy(env, dirs):
    # the lookup as written with 2-D fancy indexing on the (H, W, 3) map
    h, w = env.shape[:2]
    d = np.asarray(dirs, dtype=np.float64)
    theta = np.arccos(np.clip(d[..., 1], -1.0, 1.0))
    phi = np.arctan2(d[..., 2], d[..., 0]) % (2.0 * np.pi)
    fu = phi / (2.0 * np.pi) * w - 0.5
    fv = theta / np.pi * h - 0.5
    u0 = np.floor(fu).astype(np.int64)
    v0 = np.floor(fv).astype(np.int64)
    tu = fu - u0
    tv = fv - v0
    u1 = (u0 + 1) % w
    u0 = u0 % w
    v1 = np.clip(v0 + 1, 0, h - 1)
    v0 = np.clip(v0, 0, h - 1)
    a = env[v0, u0] * (1 - tu)[..., None] + env[v0, u1] * tu[..., None]
    b = env[v1, u0] * (1 - tu)[..., None] + env[v1, u1] * tu[..., None]
    return a * (1 - tv)[..., None] + b * tv[..., None]


def _lookup_dirs():
    rs = np.random.default_rng(5)
    w = 16
    # azimuths inside the last texel column and at 0, where u0 = w - 1 wraps
    # to u1 = 0; directions at and near both poles, where v0 or v1 clamps;
    # signed zeros; then random directions
    phis = 2.0 * np.pi * np.array([(w - 0.5) / w, (w - 0.25) / w, 1.0 - 1e-12, 0.0])
    special = [np.array([np.cos(p), 0.3, np.sin(p)]) for p in phis] + [
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1e-3, 1.0, 0.0], [-0.0, -1.0, -0.0],
        [0.5, 0.0, -0.0], [-1.0, -0.0, 0.0], [-1.0, 0.0, -0.0]]
    d = np.concatenate([np.array(special), rs.normal(size=(53, 3))])
    return (d / np.linalg.norm(d, axis=-1, keepdims=True)).reshape(8, 8, 3)


@pytest.mark.parametrize("planar", [False, True])
def test_sample_latlong_matches_fancy_indexing(planar):
    env = np.random.default_rng(6).random((8, 16, 3))
    d = _lookup_dirs()
    if planar:
        d = channel_major(d)
    got = sample_latlong(env, d)
    want = _sample_latlong_fancy(env, d)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the output's layout follows the directions'
    assert (got[..., 0].flags.c_contiguous if planar else got.flags.c_contiguous)
    # the wrap and the pole clamps are exercised
    fu = (np.arctan2(d[..., 2], d[..., 0]) % (2.0 * np.pi)) / (2.0 * np.pi) * 16 - 0.5
    fv = np.arccos(np.clip(d[..., 1], -1.0, 1.0)) / np.pi * 8 - 0.5
    assert np.any(np.floor(fu) == 15) and np.any(np.floor(fu) == -1)
    assert np.any(fv < 0.0) and np.any(fv >= 7.0)


def _sample_all_levels(pre, dirs, roughness):
    # every level looked up at every direction, then the two levels picked
    n = pre.num_levels
    level_f = np.clip(np.asarray(roughness, dtype=np.float64), 0.0, 1.0) * (n - 1)
    l0 = np.floor(level_f).astype(np.int64)
    l1 = np.minimum(l0 + 1, n - 1)
    t = level_f - l0
    per_level = np.stack([sample_latlong(lv, dirs) for lv in pre.levels])
    lo = np.take_along_axis(per_level, l0[None, ..., None], axis=0)[0]
    hi = np.take_along_axis(per_level, l1[None, ..., None], axis=0)[0]
    return lo * (1 - t)[..., None] + hi * t[..., None]


@pytest.mark.parametrize("planar", [False, True])
def test_prefiltered_sample_matches_all_levels(planar):
    env = 0.2 + np.random.default_rng(7).random((8, 16, 3))
    pre = prefilter_env(env, 5)
    d = _lookup_dirs()
    if planar:
        d = channel_major(d)
    # on the grid, between levels, past both ends (clamped) and a roughness
    # band that reads only levels 1 and 2, as one material would
    rough = np.random.default_rng(8).uniform(-0.2, 1.2, (8, 8))
    rough[0, :6] = [0.0, 0.25, 0.5, 0.75, 1.0, 0.3]
    for r in (rough, np.full((8, 8), 0.3)):
        got = pre.sample(d, r)
        want = _sample_all_levels(pre, d, r)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _sample_lo_hi(pre, dirs, roughness):
    # the lookup as written before it became one weighted sum: the two levels
    # gathered into separate arrays, the top level copied into the upper one
    n = pre.num_levels
    d = np.asarray(dirs, dtype=np.float64)
    level_f = np.clip(np.asarray(roughness, dtype=np.float64), 0.0, 1.0) * (n - 1)
    l0 = np.floor(level_f).astype(np.int64)
    t = (level_f - l0).reshape(-1)
    lo = np.empty((3, t.size))
    hi = np.empty((3, t.size))
    for k, level in enumerate(pre.levels):
        at0, at1 = np.flatnonzero(l0 == k), np.flatnonzero(l0 == k - 1)
        if at0.size or at1.size:
            values = sample_latlong(level, take3(d, np.concatenate([at0, at1])))
            for c in range(3):
                lo[c, at0] = values[:at0.size, c]
                hi[c, at1] = values[at0.size:, c]
    top = np.flatnonzero(l0 == n - 1)
    hi[:, top] = lo[:, top]
    out = np.empty_like(d)
    for c in range(3):
        out[..., c] = (lo[c] * (1 - t) + hi[c] * t).reshape(d.shape[:-1])
    return out


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("levels", [1, 2, 5])
def test_prefiltered_sample_equals_the_two_level_formula(planar, levels):
    env = np.random.default_rng(9).random((16, 32, 3)) * 4.0
    pre = prefilter_env(env, levels)
    d = _lookup_dirs()
    if planar:
        d = channel_major(d)
    grid = [k / (levels - 1) for k in range(levels)] if levels > 1 else []
    # exactly on the grid, where t is 0, its ends among them; the top level,
    # whose t is 0 too; and values between the levels and past both ends
    uniform = [np.full((8, 8), r) for r in (0.0, *grid, 1.0, 0.3)]
    mixed = np.random.default_rng(10).uniform(-0.2, 1.2, (8, 8))
    mixed.reshape(-1)[:len(grid) + 2] = [0.0, *grid, 1.0]
    for r in (*uniform, mixed):
        got = pre.sample(d, r)
        want = _sample_lo_hi(pre, d, r)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert (got[..., 0].flags.c_contiguous if planar else got.flags.c_contiguous)


def test_prefiltered_sample_of_no_direction():
    pre = prefilter_env(np.random.default_rng(11).random((8, 16, 3)), 3)
    for d in (np.zeros((0, 3)), channel_major(np.zeros((0, 1, 3)))):
        got = pre.sample(d, np.zeros(d.shape[:-1]))
        assert got.shape == d.shape and got.dtype == np.float64


@pytest.mark.parametrize("levels", [1, 5])
def test_prefilter_rejects_a_map_over_the_texel_cap(monkeypatch, levels):
    # 256x64 is 16384 texels; at 5 levels 128x64 already took 13 s, 16x per
    # doubling of the side, so a larger map is turned away before any work
    def convolve(*args):
        raise AssertionError("convolved a map over the cap")

    monkeypatch.setattr(envmap, "_convolve_cosine_power", convolve)
    with pytest.raises(ValueError, match="^" + re.escape(
            "env map 256x64 has 16384 texels, more than the 8192 (128x64) a prefiltered "
            "map may have; downsample the map") + "$"):
        prefilter_env(np.ones((64, 256, 3)), levels)


def test_prefilter_takes_a_map_at_the_texel_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(envmap, "_convolve_cosine_power",
                        lambda env, exponent: calls.append(env.shape) or env)
    assert envmap._PREFILTER_TEXELS == 128 * 64
    pre = prefilter_env(np.ones((64, 128, 3)), 3)
    assert pre.num_levels == 3 and calls == [(64, 128, 3)] * 2
