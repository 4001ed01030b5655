"""Counter-based random numbers.

Every random quantity in the renderer is a pure function of an integer key
tuple (seed, frame, pixel x/y, sample index, dimension), so rendering is
deterministic and order-independent: any pixel ordering or worker layout
produces bit-identical images.
"""

from __future__ import annotations

import numpy as np

_INIT = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)

_INV_2_53 = 1.0 / float(1 << 53)

KEY_LIMIT = 1 << 63  # keys are folded as int64s: each lies in [-KEY_LIMIT, KEY_LIMIT)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; uint64 in, well-scrambled uint64 out."""
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def _fold(h, keys):
    with np.errstate(over="ignore"):
        for k in keys:
            k64 = np.asarray(k).astype(np.int64).view(np.uint64)
            h = _mix((h + _INIT) ^ k64)
    return h


def hash_keys(*keys) -> np.ndarray:
    """Fold integer keys (scalars or broadcastable arrays) into uint64 hashes.

    Each key is absorbed through a mix round, so the result is sensitive to
    both key values and their order. uint64 wrap-around is intended.
    """
    return _fold(_INIT, keys)


def _unit(bits: np.ndarray) -> np.ndarray:
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform(*keys) -> np.ndarray:
    """Uniform floats in [0, 1), one per broadcast element of the keys."""
    return _unit(hash_keys(*keys))


def pixel_key(seed: int, frame: int, xs, ys) -> np.ndarray:
    """Hash of the per-pixel key prefix (seed, frame, x, y); see `sample_uniform`."""
    return hash_keys(seed, frame, xs, ys)


def sample_uniform(key, sample: int, dim: int) -> np.ndarray:
    """`pixel_uniform` continued from a `pixel_key`, so a renderer hashes the
    pixel prefix once per frame instead of once per sample and dimension.
    Keys are absorbed in order, so this equals `uniform(*prefix, sample, dim)`.
    """
    return _unit(_fold(key, (sample, dim)))


def pixel_uniform(seed: int, frame: int, xs, ys, sample: int, dim: int) -> np.ndarray:
    """Per-pixel uniform stream: `pixel_key` composed with `sample_uniform`,
    which the renderer calls separately; this is the tests' reference form.

    `xs`/`ys` are pixel coordinate arrays; `sample` is the sample index within
    the pixel and `dim` the dimension within the sample (0: first light
    uniform, 1: second, 2/3: lobe uniforms, ...).
    """
    return sample_uniform(pixel_key(seed, frame, xs, ys), sample, dim)
