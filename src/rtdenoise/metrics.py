"""Quality measurement (SSIM, MSE) and report writing.

SSIM runs on tone-mapped luminance (x/(1+x), clipped to [0,1]) with uniform
8x8 sliding windows and population moments; HDR SSIM is otherwise ill-defined
and every comparison in this artifact uses the identical mapping, so the
orderings are meaningful.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .tonemap import exposure_curve, luma

SSIM_WINDOW = 8
_C1 = 0.01**2
_C2 = 0.03**2


def _to_graded_luma(img: np.ndarray) -> np.ndarray:
    return np.clip(exposure_curve(np.maximum(luma(img), 0.0)), 0.0, 1.0)


def _window_sums(x: np.ndarray, k: int) -> np.ndarray:
    s = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    s[1:, 1:] = x.cumsum(axis=0).cumsum(axis=1)
    return s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]


def ssim(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Mean local SSIM over all 8x8 windows; 1.0 iff the images agree."""
    a = _to_graded_luma(img_a)
    b = _to_graded_luma(img_b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    n = SSIM_WINDOW * SSIM_WINDOW
    mu_a = _window_sums(a, SSIM_WINDOW) / n
    mu_b = _window_sums(b, SSIM_WINDOW) / n
    var_a = _window_sums(a * a, SSIM_WINDOW) / n - mu_a * mu_a
    var_b = _window_sums(b * b, SSIM_WINDOW) / n - mu_b * mu_b
    cov = _window_sums(a * b, SSIM_WINDOW) / n - mu_a * mu_b
    num = (2 * mu_a * mu_b + _C1) * (2 * cov + _C2)
    den = (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    return float(np.mean(num / den))


def mse(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Mean squared componentwise difference."""
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def write_report(records: list, path) -> None:
    """Emit measurement records as a CSV table to a `.csv` path, else as JSON."""
    path = str(path)
    if path.endswith(".csv"):
        keys = sorted({k for r in records for k in r})
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=keys)
            writer.writeheader()
            writer.writerows(records)
    else:
        with open(path, "w") as f:
            json.dump(records, f, indent=2, sort_keys=True)
