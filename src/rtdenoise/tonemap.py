"""Reinhard range compression for the indirect specular channel.

The forward map is applied to the raw 1spp samples before denoising; the
inverse used by the pipeline is the approximate weighted form (not the
algebraic inverse), which trades ground-truth accuracy for firefly
suppression. The exact inverse is kept for measuring that bias.
"""

from __future__ import annotations

import numpy as np

# Rec.709 luminance weights
_LUMA_W = np.array([0.2126, 0.7152, 0.0722])


def luma(img) -> np.ndarray:
    """Rec.709 luminance of RGB values, (H, W) for an (H, W, 3) image.

    Scalar (shadow-style) channels, (H, W) or (H, W, 1), pass through as (H, W).
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 1:
        return arr[:, :, 0]
    return arr @ _LUMA_W


def reinhard_forward(c, luma_multiplier: float) -> np.ndarray:
    """c / (1 + luma(c) * multiplier), componentwise over the shared scalar."""
    arr = np.asarray(c, dtype=np.float64)
    return arr / (1.0 + luma(arr)[..., None] * luma_multiplier)


def reinhard_inverse_paper(c, weight: float) -> np.ndarray:
    """Approximate inverse: c * (1 + luma(c)) * weight.

    Deliberately not the algebraic inverse of the forward map; the residual
    bias is part of the technique being reproduced.
    """
    arr = np.asarray(c, dtype=np.float64)
    return arr * (1.0 + luma(arr)[..., None]) * weight


def reinhard_inverse_exact(c, luma_multiplier: float) -> np.ndarray:
    """Exact inverse of reinhard_forward; domain luma(c)*multiplier < 1."""
    arr = np.asarray(c, dtype=np.float64)
    denom = 1.0 - luma(arr) * luma_multiplier
    if np.any(denom <= 0):
        raise ValueError("input outside the invertible range: luma * multiplier >= 1")
    return arr / denom[..., None]


def exposure_curve(x) -> np.ndarray:
    """x / (1 + x), the fixed exposure used before SSIM comparisons."""
    arr = np.asarray(x, dtype=np.float64)
    return arr / (1.0 + arr)
