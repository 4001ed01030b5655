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

import numpy as np

from .stencil import dot3

FORMAT_VERSION = 2


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
    spp: int = 1


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


@dataclass(frozen=True)
class DenoiseConfig:
    """Every tunable of the denoising pipeline.

    Defaults follow common SVGF practice where the technique itself leaves
    them open; the two adaptive-start thresholds and the Reinhard symbols are
    the documented values of the corresponding techniques. Each field takes
    values of its default's type (a float field also takes an int). Each
    numeric field declares its valid range, which excludes values that would
    silently switch a stage off (such as a consistency test no reprojection
    can pass). A config is checked when it is built and cannot be changed
    afterwards, so every instance is valid.
    """

    alpha: float = _ranged(0.2, 0.0, 1.0, open_lo=True)
    moments_alpha: float = _ranged(0.2, 0.0, 1.0, open_lo=True)
    clamp_gamma: float = _ranged(1.0, 0.0, open_lo=True)
    rectify_mode: str = "off"  # off | clamp | clip
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
    feedback: str = "first_iteration"  # first_iteration | none
    depth_consistency: float = _ranged(0.1, 0.0, open_lo=True)
    normal_consistency: float = _ranged(0.9, -1.0, 1.0, open_hi=True)
    history_cap: int = _ranged(256, 1)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            # a value of its default's type; bool is an int but counts as no number
            want = type(f.default)
            if (not isinstance(v, (int, float) if want is float else want)
                    or (isinstance(v, bool) and want is not bool)):
                problems.append(f"{f.name} {v!r} is not a {want.__name__}")
                continue
            if "range" not in f.metadata:
                continue
            lo, hi, open_lo, open_hi = f.metadata["range"]
            if not ((lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi)):
                problems.append(f"{f.name} {v!r} outside {'(' if open_lo else '['}{lo}, "
                                f"{hi}{')' if open_hi else ']'}")
        if self.rectify_mode not in ("off", "clamp", "clip"):
            problems.append(f"rectify_mode {self.rectify_mode!r} not one of off/clamp/clip")
        if self.feedback not in ("first_iteration", "none"):
            problems.append(f"feedback {self.feedback!r} not one of first_iteration/none")
        if problems:
            raise ValueError("invalid DenoiseConfig: " + "; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DenoiseConfig":
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


def _first_bad_pixel(mask: np.ndarray) -> tuple:
    ys, xs = np.nonzero(mask)
    return int(xs[0]), int(ys[0])


def validate_frame(frame: dict, width: int, height: int) -> list:
    """Collect every violated frame invariant; an empty list means valid.

    Never raises: a violation is reported as one message naming the channel
    and, for a bad value, an example pixel. Value rules apply only to
    channels of the right shape.
    """
    violations = []
    shaped = {}
    for name, arr in frame.items():
        arity = CHANNELS.get(name)
        if arity is None:  # a channel outside the table: any arity, the frame's size
            got, want = arr.shape[:2], (height, width)
        else:
            got, want = arr.shape, (height, width) if arity == 1 else (height, width, arity)
        if got != want:
            violations.append(f"channel '{name}' has shape {arr.shape}, expected {want}")
            continue
        shaped[name] = arr
        bad = ~np.isfinite(arr)
        if name == "depth":
            bad = bad & ~np.isposinf(arr)  # +inf marks background misses
        if np.any(bad):
            x, y = _first_bad_pixel(bad.reshape(height, width, -1).any(axis=2))
            violations.append(f"non-finite value in channel '{name}' at pixel ({x}, {y})")

    oid = shaped.get("object_id")
    fg = np.zeros((height, width), dtype=bool)  # without ids, no pixel is geometry
    if oid is not None:
        if not np.issubdtype(oid.dtype, np.integer):
            violations.append(f"channel 'object_id' has dtype {oid.dtype}, "
                              "expected an integer type")
        fg = oid != 0

    normal = shaped.get("normal")
    if normal is not None:
        n = normal.astype(np.float64)
        norms = np.sqrt(dot3(n, n))
        bad = fg & (np.abs(norms - 1.0) > 1e-4)
        if np.any(bad):
            x, y = _first_bad_pixel(bad)
            violations.append(
                f"channel 'normal' not unit length at pixel ({x}, {y}): |n| = {norms[y, x]:.6f}")

    # channel, what its bad values are, and its bad pixels
    ranges = (("depth", "not positive and finite on geometry",
               lambda a: fg & ~((a > 0) & (a < np.inf))),
              ("roughness", "outside [0, 1]", lambda a: (a < 0) | (a > 1)),
              ("shadow_1spp", "outside [0, 1]", lambda a: np.isfinite(a) & ((a < 0) | (a > 1))),
              ("specular_1spp", "negative", lambda a: (np.isfinite(a) & (a < 0)).any(axis=2)))
    for name, what, bad_at in ranges:
        arr = shaped.get(name)
        if arr is None:
            continue
        bad = bad_at(arr)
        if np.any(bad):
            x, y = _first_bad_pixel(bad)
            violations.append(f"channel '{name}' {what} at pixel ({x}, {y})")

    return violations
