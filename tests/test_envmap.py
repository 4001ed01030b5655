import numpy as np
import pytest

from rtdenoise.envmap import (env_total_energy, latlong_directions, latlong_solid_angles,
                              lobe_exponent, prefilter_env, sample_latlong)


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
