"""Host speed, sampled with a fixed kernel between and inside timed steps.

The benchmark shares a few cores of a host with other guests. Their load
makes every kind of code (pure Python, numpy on cache-sized arrays, numpy on
arrays far larger than the caches) run up to a third slower for stretches of
seconds to minutes, so raw wall times of the same code drift from run to run
by more than any useful bound. That drift moves a fixed kernel run right next
to the program by the same share. So each timed step runs between two
samples of the kernel, and a step that spans several frames also samples at
the start of every frame (`pacing`); the step's time is scaled by the ratio of the kernel's
nominal time to its mean time per unit over those samples:

    scaled = wall * UNIT_S / (seconds in the step's samples / units run in them)

`scaled` reads as the step's seconds on a host where one unit of the kernel
takes UNIT_S, the median on the 2-vCPU Xeon guest the benchmark was tuned on.
A program change that makes a step slower or faster moves `scaled` by the
same share, since the kernel does not depend on the program. Time spent in
samples taken inside a step is not charged to the step.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

UNIT_S = 1.4e-3    # nominal seconds of one unit of the kernel
INSIDE_UNITS = 24  # units per sample inside a step, about 35 ms
AROUND_UNITS = 80  # units per sample before and after a step, about 110 ms

_RNG = np.random.default_rng(12345)
_X = _RNG.random((128, 128))
_ORDER = _RNG.permutation(128 * 128)


def _unit() -> float:
    # Half numpy, half interpreter, as the program is. The numpy half does
    # edge-stopped blends at growing strides plus a gather, the kind of work
    # the denoiser and the renderer do, on a working set that fits in L2.
    # Against the denoiser's per-frame times, the blend alone tracked the
    # 128x128 workload best and the loop alone the 256x256 one; the two
    # together tracked both nearly as well.
    x = _X
    for step in (1, 2, 4, 8):
        w = np.exp(-np.abs(x - np.roll(x, step, 0)))
        x = ((x * w + np.roll(x, step, 1)) / (1.0 + w)).ravel()[_ORDER].reshape(x.shape)
    acc = 0
    for i in range(6000):
        acc += i * i
    return float(x[0, 0]) + acc


class HostSpeed:
    """Scales step times by host speed; see the module docstring."""

    def __init__(self):
        self._inside: list | None = None  # samples of the step under way

    @staticmethod
    def _sample(units: int) -> tuple[float, int]:
        """(seconds spent, units run) of one sample."""
        t0 = time.perf_counter()
        for _ in range(units):
            _unit()
        return time.perf_counter() - t0, units

    @contextlib.contextmanager
    def pacing(self, owner, attr: str):
        """For the block, sample inside the step under way at every call of
        `owner.attr`, a function the step calls once per frame."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def paced(*args, **kwargs):
            if self._inside is not None:
                self._inside.append(self._sample(INSIDE_UNITS))
            return original(*args, **kwargs)

        setattr(owner, attr, paced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def timed(self, fn, *args, **kwargs):
        """Run `fn` between two samples; returns (result, wall s, scaled s)."""
        before = self._sample(AROUND_UNITS)
        self._inside = []
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
        finally:
            inside, self._inside = self._inside, None
        after = self._sample(AROUND_UNITS)
        wall -= sum(spent for spent, _ in inside)
        samples = (before, *inside, after)
        per_unit = sum(spent for spent, _ in samples) / sum(units for _, units in samples)
        return result, wall, wall * UNIT_S / per_unit
