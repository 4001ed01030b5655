"""Latitude-longitude environment maps and their roughness-prefiltered mips.

Level k of a prefiltered map is the spherical convolution of the source
against a normalized cosine-power lobe with exponent e_k = max(1, 2/r_k^2 - 2)
where r_k = k / (levels - 1); level 0 is the source itself. The convolution
is a direct sum over source texels weighted by solid angle, which keeps it
exact, order-independent and BLAS-free. So it takes O(N^2) time per level
for N texels, and is meant for low-resolution maps: it runs in blocks of
output texels, so its memory stays O(N) beyond the map's own, and
`prefilter_env` rejects a map of more than `_PREFILTER_TEXELS` = 2^13 texels
(128x64, whose 5 levels took 13 s on a 2-vCPU Xeon guest, about 16x the
time of a map of half its width and height); a larger map is to be
downsampled first.

Lookups (`sample_latlong`, `PrefilteredEnvMap.sample`) gather each map
channel with `stencil.gather` at flat row-major texel indices and weight it
as one plane. A prefiltered lookup is one weighted sum over the levels,
each level looked up only at the directions whose roughness lies next to
it. Their output has the layout of the directions: channel-major
directions from the renderer give channel-major radiance, C-order ones
(`render.render_sky`) C-order radiance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stencil import gather, take3


def latlong_directions(width: int, height: int) -> np.ndarray:
    """Unit direction of every texel center, shape (H, W, 3); +Y is up."""
    v = (np.arange(height) + 0.5) / height
    u = (np.arange(width) + 0.5) / width
    theta = np.pi * v[:, None]
    phi = 2.0 * np.pi * u[None, :]
    sin_t = np.sin(theta)
    return np.stack([sin_t * np.cos(phi),
                     np.cos(theta) * np.ones_like(phi),
                     sin_t * np.sin(phi)], axis=-1)


def latlong_solid_angles(width: int, height: int) -> np.ndarray:
    """Solid angle of each texel, shape (H, W); sums to ~4*pi."""
    v = (np.arange(height) + 0.5) / height
    sin_t = np.sin(np.pi * v)
    return np.broadcast_to((2.0 * np.pi / width) * (np.pi / height) * sin_t[:, None],
                           (height, width)).copy()


def sample_latlong(env: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Bilinear lookup of directions in a lat-long map; wraps in azimuth,
    clamps at the poles. The result has the layout of `dirs`."""
    h, w = env.shape[:2]
    d = np.asarray(dirs, dtype=np.float64)
    y = np.clip(d[..., 1], -1.0, 1.0)
    theta = np.arccos(y)
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
    i00, i01 = v0 * w + u0, v0 * w + u1
    i10, i11 = v1 * w + u0, v1 * w + u1
    su, sv = 1 - tu, 1 - tv
    out = np.empty_like(d)
    for c in range(3):
        plane = env[..., c]
        a = gather(plane, i00) * su + gather(plane, i01) * tu
        b = gather(plane, i10) * su + gather(plane, i11) * tu
        out[..., c] = a * sv + b * tv
    return out


_BLOCK = 1 << 18  # about this many weights per block of output texels


def _convolve_cosine_power(env: np.ndarray, exponent: float) -> np.ndarray:
    """Convolve `env` with the normalized lobe, about `_BLOCK` / N of its N
    output texels at a time, so a block's temporaries take O(`_BLOCK`). Each
    output texel sums over all N source texels in the same order whatever
    the block, so the result does not depend on the block size."""
    h, w = env.shape[:2]
    dirs = latlong_directions(w, h).reshape(-1, 3)
    omega = latlong_solid_angles(w, h).reshape(-1)
    flat = env.reshape(-1, 3)
    rows = max(1, _BLOCK // len(dirs))
    out = np.empty_like(flat)
    for start in range(0, len(dirs), rows):
        block = dirs[start:start + rows]
        # cos matrix by explicit outer products: deterministic, no BLAS reductions
        cos = (np.multiply.outer(block[:, 0], dirs[:, 0])
               + np.multiply.outer(block[:, 1], dirs[:, 1])
               + np.multiply.outer(block[:, 2], dirs[:, 2]))
        wgt = np.clip(cos, 0.0, None) ** exponent * omega[None, :]
        out[start:start + rows] = ((wgt[:, :, None] * flat[None, :, :]).sum(axis=1)
                                   / wgt.sum(axis=1)[:, None])
    return out.reshape(h, w, 3)


_MIRROR_ROUGHNESS = 1e-6


def lobe_exponent(roughness):
    """Cosine-power exponent max(1, 2/r^2 - 2) per roughness value r; inf,
    a perfect mirror, where r <= _MIRROR_ROUGHNESS."""
    r = np.maximum(roughness, _MIRROR_ROUGHNESS)
    return np.where(roughness > _MIRROR_ROUGHNESS, np.maximum(1.0, 2.0 / r**2 - 2.0), np.inf)


@dataclass
class PrefilteredEnvMap:
    """Mip stack over a fixed roughness grid r_k = k / (levels - 1)."""

    levels: list  # list[np.ndarray], level 0 == source

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def sample(self, dirs: np.ndarray, roughness) -> np.ndarray:
        """Lookup with linear interpolation across the roughness grid; one
        roughness per direction, at level l0 + t with 0 <= t < 1.

        The result is one weighted sum over the levels, in order: each level
        adds (1 - t) times its value at the directions whose level l0 it is,
        and t times its value at those whose level l0 + 1 it is, so a level
        is looked up only at the directions that read it. The sum starts at
        +0 and radiance is >= 0, so it is level l0's value times (1 - t) plus
        level l0 + 1's times t, bit for bit. At the top level, which has no
        level above it, and at the grid's roughness values t is 0."""
        n = self.num_levels
        d = np.asarray(dirs, dtype=np.float64)
        level_f = np.clip(np.asarray(roughness, dtype=np.float64), 0.0, 1.0) * (n - 1)
        l0 = np.floor(level_f).astype(np.int64)
        t = (level_f - l0).reshape(-1)
        total = np.zeros((3, t.size))  # one row per channel over the flat directions
        for k, level in enumerate(self.levels):
            at0, at1 = np.flatnonzero(l0 == k), np.flatnonzero(l0 == k - 1)
            at, weight = np.concatenate([at0, at1]), np.concatenate([1 - t[at0], t[at1]])
            values = sample_latlong(level, take3(d, at))
            for c in range(3):
                total[c, at] += values[:, c] * weight
        out = np.empty_like(d)
        for c in range(3):
            out[..., c] = total[c].reshape(d.shape[:-1])
        return out


_PREFILTER_TEXELS = 1 << 13  # the most texels a prefiltered map may have: 128x64


def prefilter_env(env: np.ndarray, levels: int) -> PrefilteredEnvMap:
    """Build the prefiltered stack; level 0 is the source map unchanged. A map
    of more than `_PREFILTER_TEXELS` texels is rejected before any
    convolution."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    env = np.asarray(env, dtype=np.float64)
    h, w = env.shape[:2]
    if h * w > _PREFILTER_TEXELS:
        raise ValueError(f"env map {w}x{h} has {h * w} texels, more than the {_PREFILTER_TEXELS} "
                         "(128x64) a prefiltered map may have; downsample the map")
    stack = [env.copy()]
    for k in range(1, levels):
        r_k = k / (levels - 1)
        stack.append(_convolve_cosine_power(env, lobe_exponent(r_k)))
    return PrefilteredEnvMap(levels=stack)

