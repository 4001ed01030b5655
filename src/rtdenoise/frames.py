"""Per-frame data model shared by the synthesizer, the pipeline and the tools.

A frame is a set of named images; a sequence is an ordered list of frames
plus a JSON manifest. `CHANNELS` is the one table of channel names and their
in-memory arities (1 for (H, W), n for (H, W, n)): the G-buffer, whose names
are `GBufferFrame`'s fields, the noisy 1spp signals and their references,
the pipeline's outputs and the `debug_*` intermediates it dumps on request.
Per-scene values, such as the light's shadow angle, live in the manifest's
scene descriptor. All buffers are immutable value data once built: every
pass reads its inputs and writes fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .stencil import dot3

FORMAT_VERSION = 2
# the largest object id: channels are stored as float32, which holds every
# integer up to 2^24 exactly, but not 2^24 + 1
MAX_OBJECT_ID = 2**24


class ChannelKind(Enum):
    SHADOW = "shadow"
    INDIRECT_SPECULAR = "specular"


def _arity(n: int):
    return field(metadata={"arity": n})


@dataclass
class GBufferFrame:
    """Per-pixel geometric attributes from the primary visibility pass.

    depth is linear view-space distance (+inf where no geometry was hit),
    normals are unit world-space vectors, motion is the pixel offset from the
    current pixel center to its position in the previous frame. Each field is
    a frame channel of the same name.
    """

    depth: np.ndarray = _arity(1)      # float32
    normal: np.ndarray = _arity(3)     # float32
    motion: np.ndarray = _arity(2)     # float32
    object_id: np.ndarray = _arity(1)  # int32, 0 = background
    albedo: np.ndarray = _arity(3)     # float32
    roughness: np.ndarray = _arity(1)  # float32
    emissive: np.ndarray = _arity(3)   # float32

    @property
    def foreground(self) -> np.ndarray:
        return self.object_id != 0


# name -> in-memory arity (store._to_disk pads motion)
CHANNELS = {
    **{f.name: f.metadata["arity"] for f in fields(GBufferFrame)},
    "shadow_1spp": 1,
    "specular_1spp": 3,
    "shadow_ref": 1,
    "specular_ref": 3,
    "reference": 3,
    # pipeline outputs
    "shadow_denoised": 1,
    "specular_denoised": 3,
    "composite": 3,
    "composite_noisy": 3,
    # pipeline intermediates (run_pipeline(dump_intermediates=True))
    "debug_accum_shadow": 1,
    "debug_accum_specular": 3,
    "debug_variance_shadow": 1,
    "debug_variance_specular": 1,
    "debug_history_len_shadow": 1,
    "debug_composite_pre_taa": 3,
}


@dataclass
class NoisyChannel:
    """A 1spp HDR signal to denoise: scalar visibility or RGB specular."""

    kind: ChannelKind
    data: np.ndarray  # (H, W) for SHADOW, (H, W, 3) for INDIRECT_SPECULAR


@dataclass
class TemporalHistory:
    """The temporal state of a frame: each channel's accumulated color and
    luminance moments, in dicts keyed like the frame's channels, and the
    integrated-frame count they all share. One reprojection through the
    G-buffer serves every channel, so the count follows the geometry alone."""

    color: dict              # key -> (H, W, C)
    moment1: dict            # key -> (H, W)
    moment2: dict            # key -> (H, W)
    history_len: np.ndarray  # (H, W) int32


def _ranged(default, lo, hi=math.inf, open_lo=False, open_hi=False):
    """A numeric config field valid from `lo` to `hi`; open ends are excluded."""
    return field(default=default,
                 metadata={"range": (lo, hi, open_lo, open_hi or hi == math.inf)})


def _choice(default, *others):
    """A string config field valid as `default` or one of `others`."""
    return field(default=default, metadata={"choices": (default, *others)})


@dataclass(frozen=True)
class DenoiseConfig:
    """Every tunable of the denoising pipeline.

    Defaults follow common SVGF practice where the technique itself leaves
    them open; the two adaptive-start thresholds and the Reinhard symbols are
    the documented values of the corresponding techniques. Each field takes
    values of its default's type (a float field also takes an int). Each
    string field declares its choices (`_choice`), and each numeric field its
    valid range (`_ranged`), which excludes values that would silently switch
    a stage off (such as a consistency test no reprojection can pass). A
    config is checked when it is built and cannot be changed afterwards, so
    every instance is valid.
    """

    alpha: float = _ranged(0.2, 0.0, 1.0, open_lo=True)
    moments_alpha: float = _ranged(0.2, 0.0, 1.0, open_lo=True)
    clamp_gamma: float = _ranged(1.0, 0.0, open_lo=True)
    rectify_mode: str = _choice("off", "clamp", "clip")
    # at 1e3 the depth stop is already ~1 between neighbours; the bound keeps
    # sigma_z * |depth| * tap distance finite, so every edge weight is too
    sigma_z: float = _ranged(1.0, 0.0, 1e3, open_lo=True)
    sigma_n: float = _ranged(128.0, 0.0, open_lo=True)
    sigma_l: float = _ranged(4.0, 0.0, open_lo=True)
    iterations: int = _ranged(4, 0, 8)
    adaptive_start: bool = False
    roughness_start_threshold: float = _ranged(0.2, 0.0, 1.0)
    shadow_angle_start_threshold: float = _ranged(6.0, 0.0)
    separable: bool = False
    reinhard: bool = False
    luma_multiplier: float = _ranged(1.0, 0.0)
    reinhard_weight: float = _ranged(1.0, 0.0)
    ibl_adaptive_iterations: bool = False
    spatial_variance_min_history: int = _ranged(4, 1)
    feedback: str = _choice("first_iteration", "none")
    depth_consistency: float = _ranged(0.1, 0.0, open_lo=True)
    normal_consistency: float = _ranged(0.9, -1.0, 1.0, open_hi=True)
    history_cap: int = _ranged(256, 1)

    def __post_init__(self):
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            # a value of its default's type; bool is an int but counts as no number
            want = type(f.default)
            if (not isinstance(v, (int, float) if want is float else want)
                    or (isinstance(v, bool) and want is not bool)):
                problems.append(f"{f.name} {v!r} is not a {want.__name__}")
                continue
            choices, bounds = f.metadata.get("choices"), f.metadata.get("range")
            if choices and v not in choices:
                problems.append(f"{f.name} {v!r} not one of {'/'.join(choices)}")
            elif bounds:
                lo, hi, open_lo, open_hi = bounds
                if not ((lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi)):
                    problems.append(f"{f.name} {v!r} outside {'(' if open_lo else '['}{lo}, "
                                    f"{hi}{')' if open_hi else ']'}")
        if problems:
            raise ValueError("invalid DenoiseConfig: " + "; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DenoiseConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a DenoiseConfig must be a JSON object, got {type(d).__name__}")
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        unknown = set(d) - set(known)
        if unknown:
            raise ValueError(f"unknown DenoiseConfig keys: {sorted(unknown)}")
        return cls(**known)


@dataclass
class FrameSequence:
    """An on-disk animation: manifest plus per-frame named channel images."""

    manifest: dict
    frames: list = field(default_factory=list)  # list[dict[str, np.ndarray]]

    @property
    def width(self) -> int:
        return int(self.manifest["width"])

    @property
    def height(self) -> int:
        return int(self.manifest["height"])

    @property
    def channels(self) -> list:
        return list(self.manifest["channels"])

    def gbuffer(self, index: int) -> GBufferFrame:
        frame = self.frames[index]
        return GBufferFrame(**{f.name: frame[f.name] for f in fields(GBufferFrame)})


class _Bound(NamedTuple):
    """A value rule: each value of `channel` that the rule binds lies in
    [`lo`, `hi`], an open end excluding its value. It `binds` "every" value,
    every value on "geometry", the "finite" values or the "numbers" (all but
    NaN), so a NaN breaks the first two kinds; a value it leaves unbound is
    another rule's to report. `what` names a bad value in the message."""

    channel: str
    what: str
    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False
    binds: str = "numbers"


def _within(b: _Bound, lo, hi):
    """Whether `lo` clears `b`'s lower end and `hi` its upper end: given two
    planes, per pixel; given a plane's least and greatest value, for all of
    it. A NaN clears neither."""
    return ((lo > b.lo if b.open_lo else lo >= b.lo)
            & (hi < b.hi if b.open_hi else hi <= b.hi))


def _extremes(a: np.ndarray, where=True):
    """`a`'s least and greatest value at `where`: both are NaN if one there
    is (min and max propagate it), and over no value the dtype's ends as
    (greatest, least), which clear every bound. None for a dtype that is no
    float, integer or bool."""
    kind = a.dtype.kind
    if kind == "f":
        top, bottom = np.inf, -np.inf
    elif kind in "iu":
        top, bottom = np.iinfo(a.dtype).max, np.iinfo(a.dtype).min
    elif kind == "b":
        top, bottom = True, False
    else:
        return None
    return a.min(where=where, initial=top), a.max(where=where, initial=bottom)


# which of a plane's values a bound binds, given the plane and the geometry
_BINDS = {"every": lambda a, fg: True, "geometry": lambda a, fg: fg,
          "finite": lambda a, fg: np.isfinite(a), "numbers": lambda a, fg: ~np.isnan(a)}


def _bad_pixels(b: _Bound, a: np.ndarray, fg, ends) -> np.ndarray | None:
    """The (H, W) mask of pixels where `a` breaks `b`, or None where `ends`,
    the `_extremes` of the values `b` binds or of more, show that none does:
    only a failed reduction pays for the per-pixel mask."""
    if ends is not None and _within(b, *ends):
        return None
    bad = _BINDS[b.binds](a, fg) & ~_within(b, a, a)
    return bad.reshape(a.shape[0], a.shape[1], -1).any(axis=2)


def _first_bad_pixel(bad: np.ndarray) -> tuple:
    """(x, y) of the first True pixel in row-major order, or None."""
    if bad is None or not bad.any():
        return None
    y, x = np.unravel_index(np.argmax(bad), bad.shape)
    return int(x), int(y)


# a unit normal, |n| within 1e-4 of 1, is |n|^2 in [(1 - 1e-4)^2, (1 + 1e-4)^2]
# = [1 - 1.9999e-4, 1 + 2.0001e-4]. Summed in float32, the three squares are
# within gamma_3 * |n|^2 of the exact |n|^2 (gamma_3 = 3u / (1 - 3u) ~ 1.8e-7
# for u = 2^-24; less in float64), and rounding 1 -+ 1.9e-4 to float32 moves
# it by at most 6e-8. So a squared length within 1.9e-4 of 1, this bound, is
# a unit normal by the float64 rule; one outside is left to that rule.
_UNIT_SQUARED = _Bound("normal", "not unit length", 1 - 1.9e-4, 1 + 1.9e-4, binds="geometry")

# every channel's value rule, in the order its messages come
_BOUNDS = (
    _Bound("depth", "not positive and finite on geometry", 0, math.inf, True, True, "geometry"),
    _Bound("object_id", "negative", 0, math.inf),
    _Bound("object_id", f"above {MAX_OBJECT_ID}", -math.inf, MAX_OBJECT_ID),
    _Bound("roughness", "outside [0, 1]", 0, 1),
    _Bound("shadow_1spp", "outside [0, 1]", 0, 1, binds="finite"),
    _Bound("specular_1spp", "negative", 0, math.inf, binds="finite"),
)


def validate_frame(frame: dict, width: int, height: int) -> list:
    """Collect every violated frame invariant; an empty list means valid.

    Never raises: a violation is reported as one message naming the channel
    and, for a bad value, an example pixel: the first in row-major order.
    Value rules apply only to channels of the right shape. Each value rule
    is a bound on its channel (`_Bound`), decided from the plane's min and
    max (over the geometry for a rule on it); only a bound that fails, or a
    plane those cannot decide, builds the per-pixel mask that names the
    pixel. NaN propagates through both reductions, so it always takes the
    mask. A normal is first held to its squared length in its own float
    type (`_UNIT_SQUARED`), and only on failure to the float64 rule.
    """
    violations = []
    shaped, ends = {}, {}
    for name, arr in frame.items():
        arity = CHANNELS.get(name)
        if arity is None:  # a channel outside the table: any arity, the frame's size
            got, want = arr.shape[:2], (height, width)
        else:
            got, want = arr.shape, (height, width) if arity == 1 else (height, width, arity)
        if got != want:
            violations.append(f"channel '{name}' has shape {arr.shape}, expected {want}")
            continue
        shaped[name], ends[name] = arr, _extremes(arr)
        # every value is finite, but +inf marks a background depth
        finite = _Bound(name, "non-finite", -math.inf, math.inf, True, name != "depth", "every")
        bad = _first_bad_pixel(_bad_pixels(finite, arr, fg=None, ends=ends[name]))
        if bad:
            violations.append(f"non-finite value in channel '{name}' at pixel {bad}")

    oid = shaped.get("object_id")
    fg = np.zeros((height, width), dtype=bool)  # without ids, no pixel is geometry
    if oid is not None:
        if not np.issubdtype(oid.dtype, np.integer):
            violations.append(f"channel 'object_id' has dtype {oid.dtype}, "
                              "expected an integer type")
        fg = oid != 0

    normal = shaped.get("normal")
    if normal is not None:
        n = normal.astype(np.promote_types(normal.dtype, np.float32), copy=False)
        squared = _extremes(dot3(n, n), fg)
        if squared is None or not _within(_UNIT_SQUARED, *squared):
            n = normal.astype(np.float64)
            norms = np.sqrt(dot3(n, n))
            bad = _first_bad_pixel(fg & (np.abs(norms - 1.0) > 1e-4))
            if bad:
                x, y = bad
                violations.append(f"channel 'normal' not unit length at pixel {bad}: "
                                  f"|n| = {norms[y, x]:.6f}")

    for b in _BOUNDS:
        arr = shaped.get(b.channel)
        if arr is None:
            continue
        on = _extremes(arr, fg) if b.binds == "geometry" else ends[b.channel]
        bad = _first_bad_pixel(_bad_pixels(b, arr, fg, on))
        if bad:
            violations.append(f"channel '{b.channel}' {b.what} at pixel {bad}")

    return violations
