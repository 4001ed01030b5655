"""Composition: deferred direct lighting, channel blending, sky fill, TAA."""

from __future__ import annotations

import numpy as np

from .frames import GBufferFrame
from .stencil import bilinear_sample, dot3
from .temporal import rectify_history


def shade_direct(gbuf: GBufferFrame, positions: np.ndarray, light_center,
                 intensity) -> np.ndarray:
    """Analytic unshadowed direct term: albedo/pi * I * cos+ / dist^2.

    `positions` are the world-space primary hit points (reconstructed from the
    depth channel); background pixels come out black.
    """
    fg = gbuf.foreground
    to_l = np.asarray(light_center, dtype=np.float64) - positions
    dist2 = dot3(to_l, to_l)
    ldir = to_l / np.sqrt(np.maximum(dist2, 1e-12))[..., None]
    cos = np.maximum(0.0, dot3(gbuf.normal.astype(np.float64), ldir))
    out = (gbuf.albedo.astype(np.float64) / np.pi
           * np.asarray(intensity, dtype=np.float64)
           * (cos / np.maximum(dist2, 1e-12))[..., None])
    return np.where(fg[..., None], out, 0.0)


def composite(direct: np.ndarray, shadow_denoised: np.ndarray,
              specular_denoised: np.ndarray, gbuf: GBufferFrame,
              sky: np.ndarray) -> np.ndarray:
    """Blend: emissive + direct*shadow + specular on geometry, sky elsewhere."""
    fg = gbuf.foreground
    shade = np.asarray(shadow_denoised, dtype=np.float64)
    out = (gbuf.emissive.astype(np.float64)
           + direct * shade[..., None]
           + np.asarray(specular_denoised, dtype=np.float64))
    return np.where(fg[..., None], out, sky)


def taa(curr: np.ndarray, prev_taa: np.ndarray | None, gbuf: GBufferFrame) -> np.ndarray:
    """Simplified temporal antialiasing.

    The previous TAA output is reprojected through the motion vectors,
    rectified by variance color clamping against the current 3x3 RGB
    neighborhood at one standard deviation, then blended with weight 0.1
    toward the current frame.
    First frame (or invalid reprojection) passes the current frame through.
    No subpixel jitter is applied: the synthesizer already integrates over
    the pixel footprint through its sample stream.
    """
    curr = np.asarray(curr, dtype=np.float64)
    if prev_taa is None:
        return curr.copy()
    (hist,), valid = bilinear_sample((np.asarray(prev_taa, dtype=np.float64),), gbuf.motion)
    rect, _mu, _sigma = rectify_history(hist, curr, 1.0, "clamp")
    out = rect + 0.1 * (curr - rect)
    return np.where(valid[..., None], out, curr)
