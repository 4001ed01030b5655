"""Per-layer spans and counters, recorded from outside the program.

While installed, a `Tracer` rebinds each layer's public function at the
module attribute where its caller looks it up (for example
`rtdenoise.temporal.reproject`, which `temporal_step` resolves through the
module globals) to a wrapper that records a span: name, frame, channel,
start, end and the index of the enclosing span. `compose` imports
`rectify_history` from `temporal` into its own namespace, so that binding is
wrapped separately, under the name `compose.rectify_history`.

Some wrappers also derive exact counts from the call's arguments and return
value. That work runs after the wrapped call has returned and is recorded as
a `trace.count` span, so it is charged to no layer's self time.

`FrameSequence.gbuffer(f)` is the first call `run_pipeline` makes for frame
f, so its wrapper only marks the current frame and records no span.

Spans stay in memory until `take()` hands them over.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rtdenoise import compose, frames, pipeline, render, spatial, store, temporal, tonemap


@dataclass(frozen=True)
class Span:
    name: str
    frame: int | None
    channel: str | None
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same take()


def _nonfinite(*arrays) -> int:
    return int(sum(np.count_nonzero(~np.isfinite(a)) for a in arrays))


# Counters. Each receives the tracer's count dict, the call's bound arguments,
# its return value and the scratch dict of the enclosing span.

def _count_reproject(counts, a, result, parent):
    fg = a["curr_gbuf"].object_id != 0
    valid = result["valid"]
    parent["valid"] = valid
    counts["reproject.valid"] += np.count_nonzero(valid & fg)
    counts["reproject.foreground"] += np.count_nonzero(fg)


def _count_rectify(counts, a, result, parent):
    # temporal_step rectifies only where reprojection was valid
    valid = parent["valid"]
    tap = np.asarray(a["tap_color"])
    rect = result[0].reshape(tap.shape)
    changed = (rect != tap).reshape(valid.shape + (-1,)).any(axis=2)
    counts["rectify.changed"] += np.count_nonzero(changed & valid)
    counts["rectify.valid"] += np.count_nonzero(valid)


def _count_variance(counts, a, result, parent):
    fg = a["curr_gbuf"].object_id != 0
    short = a["history"].history_len < a["min_history"]
    counts["variance.spatial"] += np.count_nonzero(short & fg)
    counts["variance.foreground"] += np.count_nonzero(fg)


def _count_temporal_in(counts, a, result, parent):
    counts["temporal.nonfinite_in"] += _nonfinite(a["curr_data"])


def _count_taps(counts, a, result, parent):
    counts["atrous.taps"] += a["stats"]["taps"]


def _count_denoise_out(counts, a, result, parent):
    counts["spatial.nonfinite_out"] += _nonfinite(result[0], result[1])


def _count_taa_out(counts, a, result, parent):
    counts["compose.nonfinite_out"] += _nonfinite(result)


def _count_saved(counts, a, result, parent):
    root = Path(a["path"])
    counts["store.bytes"] += sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    counts["store.frames"] += len(a["seq"].frames)


def _temporal_channel(a):
    return "shadow" if np.ndim(a["curr_data"]) == 2 else "specular"


@dataclass(frozen=True)
class Probe:
    owner: object          # module whose attribute is rebound
    attr: str
    name: str              # span name
    count: object = None   # counter, see above
    channel: object = None  # bound arguments -> channel name; None inherits
    frame_arg: str | None = None  # argument naming the frame, if any


PROBES = (
    Probe(pipeline, "run_pipeline", "pipeline.run_pipeline"),
    Probe(pipeline, "synthesize_sequence", "pipeline.synthesize_sequence"),
    Probe(pipeline, "reconstruct_positions", "pipeline.reconstruct_positions",
          frame_arg="frame_index"),
    Probe(tonemap, "reinhard_forward", "tonemap.reinhard_forward",
          channel=lambda a: "specular"),
    Probe(tonemap, "reinhard_inverse_paper", "tonemap.reinhard_inverse_paper",
          channel=lambda a: "specular"),
    Probe(temporal, "temporal_step", "temporal.temporal_step", _count_temporal_in,
          channel=_temporal_channel),
    Probe(temporal, "reproject", "temporal.reproject", _count_reproject),
    Probe(temporal, "rectify_history", "temporal.rectify_history", _count_rectify),
    Probe(temporal, "accumulate", "temporal.accumulate"),
    Probe(temporal, "estimate_variance", "temporal.estimate_variance", _count_variance),
    Probe(spatial, "denoise_channel", "spatial.denoise_channel", _count_denoise_out,
          channel=lambda a: a["kind"].value),
    Probe(spatial, "atrous_dense", "spatial.atrous_dense", _count_taps),
    Probe(spatial, "atrous_separable", "spatial.atrous_separable", _count_taps),
    Probe(compose, "shade_direct", "compose.shade_direct"),
    Probe(compose, "composite", "compose.composite"),
    Probe(compose, "taa", "compose.taa", _count_taa_out),
    Probe(compose, "rectify_history", "compose.rectify_history"),
    Probe(render, "render_frame", "render.render_frame", frame_arg="frame_index"),
    Probe(render, "trace_nearest", "render.trace_nearest", frame_arg="frame"),
    Probe(render, "occluded", "render.occluded", frame_arg="frame"),
    Probe(render, "render_sky", "render.render_sky", frame_arg="frame_index"),
    Probe(store, "save_sequence", "store.save_sequence", _count_saved),
    Probe(store, "load_sequence", "store.load_sequence"),
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.frame: int | None = None
        self._open: list = []  # (span index, channel, scratch dict) per open span

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def _wrap(self, probe: Probe, fn):
        sig = inspect.signature(fn)
        needs_args = probe.count or probe.channel or probe.frame_arg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if needs_args else None
            outer_frame = self.frame
            if probe.frame_arg:
                self.frame = int(bound[probe.frame_arg])
            parent, parent_channel, parent_scratch = (
                self._open[-1] if self._open else (None, None, {}))
            channel = probe.channel(bound) if probe.channel else parent_channel
            index = len(self.spans)
            self.spans.append(None)
            self._open.append((index, channel, {}))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(probe.name, self.frame, channel, start, end, parent)
                if probe.frame_arg:
                    self.frame = outer_frame
            if probe.count:
                probe.count(self.counts, bound, result, parent_scratch)
                self.spans.append(Span("trace.count", self.frame, channel, end,
                                       time.perf_counter(), parent))
            return result
        return wrapper

    def _wrap_frame_marker(self, fn):
        @functools.wraps(fn)
        def gbuffer(seq, index):
            self.frame = index
            return fn(seq, index)
        return gbuffer

    @contextlib.contextmanager
    def installed(self):
        """Rebind every probe for the duration of the block, then restore it."""
        saved = []
        try:
            for probe in PROBES:
                original = getattr(probe.owner, probe.attr)
                saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self._wrap(probe, original))
            original = frames.FrameSequence.gbuffer
            saved.append((frames.FrameSequence, "gbuffer", original))
            frames.FrameSequence.gbuffer = self._wrap_frame_marker(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_totals(spans: list) -> dict:
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    totals = {}
    for s, c in zip(spans, child):
        calls, incl, self_ = totals.get(s.name, (0, 0.0, 0.0))
        dur = s.end - s.start
        totals[s.name] = (calls + 1, incl + dur, self_ + dur - c)
    return totals
