"""Scene descriptors: analytic geometry, a spherical area light, env maps.

Scenes are plain JSON documents. Any vec3-valued field that animates
(camera position/look-at, light center, per-object offsets) accepts either a
constant `[x, y, z]` or `{"keyframes": [[frame, [x, y, z]], ...]}` with
linear interpolation, clamped outside the keyframed range. The env map is
a `gradient` sky, a `constant` or a `file`: a PFM lat-long map, a 1-channel
one repeated to RGB, whose relative `path` resolves against the working
directory, not the scene file's. A field that is missing, of the wrong type
or out of range raises a `ValueError` naming its path, such as
`objects[0].id` or `env.width`. Object ids are unique and at most
`frames.MAX_OBJECT_ID`. One reader, `_build_env`, reads every env map
field by its path, a field not given taking its kind's default
(`_ENV_DEFAULTS`, the one place each default is stated). A built map may
have at most 2^20 texels, checked once, after its fields and before it is
allocated, and every env map must be at least 8x4 texels of finite,
non-negative radiance.

`Scene.camera_at(frame)` owns the frame range: at or past the document's
optional `frame_count` it raises `frame {f} beyond scene animation length
{n}`, and elsewhere it returns the camera at that frame or raises where the
view has no basis. Whatever renders, shades or projects a frame asks it for
the camera, so each such caller gets both checks. A scene is built only if
its camera has a basis at every keyframe, including one past `frame_count`.

Four presets mirror the usual test structure for this kind of denoiser:
`cubes-distance` (roughness-graded reflectors), `shadow-objects` (floating
occluders over a ground plane), `pillars` and `breakfast-lite`. Each preset
is a document at rest plus three offsets, and one rule applies a movement:
`camera` pans the camera linearly over frames 0-63 (`pillars` has no camera
path), `lights-objects` moves the light and the preset's one moving object
linearly over the same frames, and `light-teleport` jumps the light by its
offset between `teleport_frame - 1` and `teleport_frame`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .envmap import latlong_directions
from .frames import MAX_OBJECT_ID
from .pfm import read_pfm
from .stencil import normalize


def _vec3(value, path: str, nonnegative: bool = False) -> np.ndarray:
    """`value` as a float64 3-vector; raises naming the field `path` unless it
    has 3 finite components, each >= 0 if `nonnegative`."""
    try:
        v = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        v = np.full(3, np.nan)
    if v.shape != (3,) or not np.isfinite(v).all() or (nonnegative and (v < 0).any()):
        raise ValueError(f"{path} {value!r} is not 3 finite"
                         f"{' non-negative' if nonnegative else ''} numbers")
    return v


def _number(value, path: str, valid, want: str) -> float:
    """`value` as a float; raises naming the field `path` unless it is a number
    and `valid` holds for it. A bool or a string counts as no number, nor does
    an int too large for a float, and NaN fails every comparison, so a range
    test rejects it too."""
    try:
        v = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not valid(v):
        raise ValueError(f"{path} {value!r} {want}")
    return v


def integer(value) -> bool:
    """Whether `value` is an int; a bool counts as no number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_int(value) -> bool:
    """Whether `value` is an int above 0; a bool counts as no number."""
    return integer(value) and value > 0


def _field(doc, key: str, path: str, valid, want: str):
    """`doc[key]`, the field `path` of a scene document, or None where `doc`
    has no such field; raises naming `path` unless `valid` holds for it."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not valid(value):
        raise ValueError(f"{path} {value!r} {want}")
    return value


# (valid, want) of a `_field` that is an object, a non-empty list, a positive
# integer (an object id, an env map's size) or a path, and of a `_number` that
# is finite and not negative
_DICT = (lambda v: isinstance(v, dict), "is not an object")
_LIST = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0, "is not a non-empty list")
_POSITIVE = (positive_int, "is not a positive integer")
_PATH = (lambda v: isinstance(v, str), "is not a path")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "is not finite and >= 0")


def _object_id(doc, path: str, seen: set) -> int:
    """The `id` of an object or ground document, the field `path`: a positive
    integer of at most `MAX_OBJECT_ID`, the G-buffer's bound, and none of the
    ids in `seen`, to which it is added."""
    oid = int(_field(doc, "id", path, *_POSITIVE))
    if oid > MAX_OBJECT_ID:
        raise ValueError(f"{path} {oid!r} is above {MAX_OBJECT_ID}, the largest id a "
                         "frame stores exactly")
    if oid in seen:
        raise ValueError("object ids must be unique")
    seen.add(oid)
    return oid


def _keyframe(entry, path: str):
    """A keyframe `[frame, vec3]` as (int frame, vec3); raises naming `path`
    unless the entry is such a pair and its frame a finite integral number."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ValueError(f"{path} {entry!r} is not a [frame, [x, y, z]] pair")
    frame, value = entry
    return int(_number(frame, f"{path} frame", lambda f: math.isfinite(f) and f == int(f),
                       "is not an integer")), _vec3(value, path)


def _kf_parse(value, path: str):
    """Normalize a constant or keyframed vec3 into [(frame, vec3), ...]."""
    if isinstance(value, dict):
        kfs = [_keyframe(entry, f"{path}.keyframes[{i}]")
               for i, entry in enumerate(_field(value, "keyframes", f"{path}.keyframes", *_LIST))]
        return sorted(kfs, key=lambda kv: kv[0])
    return [(0, _vec3(value, path))]


def _kf_eval(keyframes, frame: float) -> np.ndarray:
    if frame <= keyframes[0][0]:
        return keyframes[0][1]
    if frame >= keyframes[-1][0]:
        return keyframes[-1][1]
    for (f0, v0), (f1, v1) in zip(keyframes, keyframes[1:]):
        # a frame at a repeated keyframe ends the segment before it, so f1 > f0
        if f0 <= frame <= f1:
            t = (frame - f0) / (f1 - f0)
            return v0 + t * (v1 - v0)
    return keyframes[-1][1]


@dataclass
class Material:
    albedo: np.ndarray
    roughness: float
    emissive: np.ndarray


@dataclass
class SceneObject:
    kind: str  # plane | sphere | box
    oid: int
    material: Material
    height: float = 0.0           # plane: y = height, normal +y
    center: np.ndarray = None     # sphere
    radius: float = 0.0           # sphere
    lo: np.ndarray = None         # box
    hi: np.ndarray = None         # box
    motion: list = field(default_factory=lambda: [(0, np.zeros(3))])

    def offset_at(self, frame: float) -> np.ndarray:
        return _kf_eval(self.motion, frame)


@dataclass
class AreaLight:
    center_kf: list
    intensity: np.ndarray
    radius: float

    def center_at(self, frame: float) -> np.ndarray:
        return _kf_eval(self.center_kf, frame)


@dataclass
class Scene:
    width: int
    height: int
    camera_pos: list      # keyframes
    camera_look: list     # keyframes
    camera_up: np.ndarray
    vfov_deg: float
    objects: list         # SceneObject; the document's ground, a plane, first
    light: AreaLight
    shadow_angle_deg: float
    env: np.ndarray       # (He, We, 3) lat-long radiance
    frame_count: int = None
    raw: dict = None

    def camera_at(self, frame: float):
        """The camera's basis at `frame` (`_basis`); raises at or past the
        scene's `frame_count`, a frame of no animation."""
        if self.frame_count is not None and frame >= self.frame_count:
            raise ValueError(f"frame {frame} beyond scene animation length {self.frame_count}")
        return self._basis(frame)

    def _basis(self, frame: float):
        """The camera's basis at `frame`: (position, forward, right, up,
        tan(vfov / 2)), the three directions unit vectors. Raises naming
        `camera.look_at` or `camera.up` and the frame where the view has no
        basis: the look-at point on the position, or `up` along the view."""
        pos = _kf_eval(self.camera_pos, frame)
        view = _kf_eval(self.camera_look, frame) - pos
        up = self.camera_up
        if not view.any():
            raise ValueError(f"camera.look_at equals camera.position at frame {frame}")
        if (np.linalg.norm(np.cross(view, up))
                <= 1e-9 * np.linalg.norm(view) * np.linalg.norm(up)):
            raise ValueError(f"camera.up {up.tolist()} is parallel to the view "
                             f"direction at frame {frame}")
        fwd = normalize(view)
        right = normalize(np.cross(fwd, up))
        return pos, fwd, right, np.cross(right, fwd), math.tan(math.radians(self.vfov_deg) / 2.0)


# ---------------------------------------------------------------------------
# environment maps

_ENV_TEXELS = 1 << 20  # the most texels a built map may have
# the fields of each built kind of map, at their defaults
_ENV_DEFAULTS = {
    "constant": {"width": 16, "height": 8, "value": (0.5, 0.5, 0.5)},
    "gradient": {"width": 32, "height": 16, "scale": 1.0, "sun_cos": 0.985,
                 "sun_intensity": (24.0, 22.0, 18.0), "sun_dir": (0.4, 0.65, -0.3)},
}


def _gradient_sky(width, height, scale, sun_cos, sun_intensity, sun_dir) -> np.ndarray:
    """Zenith-to-horizon gradient with a dark lower hemisphere and a sun blob."""
    dirs = latlong_directions(width, height)
    up = dirs[:, :, 1]
    zenith = np.array([0.25, 0.45, 0.90]) * scale
    horizon = np.array([0.75, 0.80, 0.90]) * scale
    below = np.array([0.16, 0.13, 0.11]) * scale
    t = np.clip(up, 0.0, 1.0)[..., None]
    sky = horizon * (1 - t) + zenith * t
    img = np.where(up[..., None] >= 0.0, sky, below)
    cos = dirs @ (sun_dir / np.linalg.norm(sun_dir))
    return img + (cos[..., None] > sun_cos) * sun_intensity


def _build_env(spec: dict) -> np.ndarray:
    """The map of an `env` document, of any kind: at least 8x4 texels of
    finite, non-negative radiance. Each field is read by its path, a field
    not given takes its kind's default (`_ENV_DEFAULTS`), and a built map's
    size is checked against the cap before it is allocated."""
    kind = spec.get("kind", "gradient")
    if kind == "file":
        env = read_pfm(_field(spec, "path", "env.path", *_PATH)).astype(np.float64)
        if env.ndim == 2:
            env = np.repeat(env[:, :, None], 3, axis=2)
    elif kind not in tuple(_ENV_DEFAULTS):  # a list or a dict as well
        raise ValueError(f"unknown env map kind {kind!r}")
    else:
        doc = {**_ENV_DEFAULTS[kind], **spec}
        width, height = (_field(doc, k, f"env.{k}", *_POSITIVE) for k in ("width", "height"))
        if kind == "constant":  # one radiance for all three channels, or three
            value = doc["value"]
            value = (_vec3(value, "env.value", True) if isinstance(value, (list, tuple))
                     else _number(value, "env.value", *_NONNEGATIVE))
        else:
            scale = _number(doc["scale"], "env.scale", *_NONNEGATIVE)
            sun_cos = _number(doc["sun_cos"], "env.sun_cos", math.isfinite, "is not finite")
            # an inf would be masked to NaN off the sun
            sun_intensity = _vec3(doc["sun_intensity"], "env.sun_intensity", True)
            sun_dir = _vec3(doc["sun_dir"], "env.sun_dir")
            if not sun_dir.any():
                raise ValueError(f"env.sun_dir {doc['sun_dir']!r} is the zero vector")
        if width * height > _ENV_TEXELS:
            raise ValueError(f"env map {width}x{height} has more than {_ENV_TEXELS} texels")
        env = (np.broadcast_to(value, (height, width, 3)).copy() if kind == "constant"
               else _gradient_sky(width, height, scale, sun_cos, sun_intensity, sun_dir))
    if env.shape[0] < 4 or env.shape[1] < 8:
        raise ValueError("env map must be at least 8x4")
    bad = ~((env >= 0) & (env < math.inf)).all(axis=2)  # NaN too
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise ValueError(f"env radiance at texel ({x}, {y}) is not finite and >= 0")
    return env


# ---------------------------------------------------------------------------
# JSON (de)serialization

def _material_from(d: dict, path: str) -> Material:
    return Material(albedo=_vec3(d.get("albedo", [0.5, 0.5, 0.5]), f"{path}.albedo", True),
                    roughness=_number(d.get("roughness", 0.5), f"{path}.roughness",
                                      lambda r: 0.0 <= r <= 1.0, "outside [0, 1]"),
                    emissive=_vec3(d.get("emissive", [0.0, 0.0, 0.0]), f"{path}.emissive",
                                   True))


def scene_from_dict(doc: dict) -> Scene:
    cam = _field(doc, "camera", "camera", *_DICT)
    objects, ids = [], set()
    for i, od in enumerate(_field(doc, "objects", "objects", *_LIST)):
        path = f"objects[{i}]"
        if not isinstance(od, dict):
            raise ValueError(f"{path} {od!r} is not an object")
        obj = SceneObject(kind=_field(od, "type", f"{path}.type", lambda v: v in ("sphere", "box"),
                                      "is not 'sphere' or 'box'"),
                          oid=_object_id(od, f"{path}.id", ids),
                          material=_material_from(od, path),
                          motion=_kf_parse(od.get("motion", [0.0, 0.0, 0.0]), f"{path}.motion"))
        if obj.kind == "sphere":
            obj.center = _vec3(od.get("center"), f"{path}.center")
            obj.radius = _number(od.get("radius"), f"{path}.radius",
                                 lambda r: 0.0 < r < math.inf, "is not finite and > 0")
        else:
            obj.lo = _vec3(od.get("min"), f"{path}.min")
            obj.hi = _vec3(od.get("max"), f"{path}.max")
            if not (obj.lo < obj.hi).all():
                raise ValueError(f"{path}.min {od['min']!r} is not below {path}.max "
                                 f"{od['max']!r} on every axis")
        objects.append(obj)
    if doc.get("ground"):  # the first surface
        g = _field(doc, "ground", "ground", *_DICT)
        height = _number(g.get("height", 0.0), "ground.height", math.isfinite, "is not finite")
        oid = _object_id(g, "ground.id", ids)
        objects.insert(0, SceneObject(kind="plane", oid=oid, material=_material_from(g, "ground"),
                                      height=height))

    ldoc = _field(doc, "light", "light", *_DICT)
    center_kf = _kf_parse(ldoc.get("center"), "light.center")
    reference_point = _vec3(doc.get("reference_point", [0.0, 0.0, 0.0]), "reference_point")
    shadow_angle = doc.get("shadow_angle_deg")
    # the cone the light subtends at the reference receiver, fixed at frame 0
    # so a moving light keeps its size, ties its radius to the shadow angle
    dist = np.linalg.norm(_kf_eval(center_kf, 0) - reference_point)
    if ldoc.get("radius") is not None:
        if shadow_angle is not None:
            raise ValueError("light.radius and shadow_angle_deg both given; the one "
                             "sets the other, so give only one")
        radius = _number(ldoc["radius"], "light.radius", lambda r: 0.0 <= r < math.inf,
                         "must be finite and >= 0")
        shadow_angle = math.degrees(2.0 * math.atan2(radius, dist))
    elif shadow_angle is None:
        raise ValueError("light needs either a radius or a scene shadow_angle_deg")
    else:
        shadow_angle = _number(shadow_angle, "shadow_angle_deg", lambda a: 0.0 <= a < 180.0,
                               "outside [0, 180)")
        radius = dist * math.tan(math.radians(shadow_angle) / 2.0)

    width, height = _field(doc, "resolution", "resolution", lambda r: (
        isinstance(r, (list, tuple)) and len(r) == 2 and all(map(positive_int, r))),
        "is not two positive integers")
    frame_count = _field(doc, "frame_count", "frame_count",
                         lambda v: v is None or positive_int(v), "is not a positive integer")
    scene = Scene(
        width=int(width), height=int(height),
        camera_pos=_kf_parse(cam.get("position"), "camera.position"),
        camera_look=_kf_parse(cam.get("look_at"), "camera.look_at"),
        camera_up=_vec3(cam.get("up", [0.0, 1.0, 0.0]), "camera.up"),
        vfov_deg=_number(cam.get("vfov_deg", 45.0), "camera.vfov_deg",
                         lambda v: 0.0 < v < 180.0, "outside (0, 180)"),
        objects=objects,
        light=AreaLight(center_kf=center_kf,
                        intensity=_vec3(ldoc.get("intensity"), "light.intensity", True),
                        radius=radius),
        shadow_angle_deg=shadow_angle,
        env=_build_env(_field(doc, "env", "env", lambda v: v is None or isinstance(v, dict),
                              "is not an object") or {}),
        frame_count=None if frame_count is None else int(frame_count),
        raw=doc,
    )
    for f in sorted({f for f, _v in scene.camera_pos + scene.camera_look}):
        scene._basis(f)  # a keyframe may lie past the animation
    return scene


def read_json(path, error=ValueError):
    """The JSON document in the file at `path`; raises `error` naming the path,
    with the parser's message, where the file holds no JSON."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # malformed JSON, or bytes that decode to no text
            raise error(f"{path} is not JSON ({e})") from None


def load_scene(path) -> Scene:
    return scene_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# presets

MOVEMENTS = ("static", "camera", "lights-objects", "light-teleport")
_LINEAR_END = 63  # a linear path runs over frames 0-63, then holds


def _path(base, offset, first: int, last: int) -> dict:
    """Keyframes from `base` at frame `first` to `base + offset` at `last`."""
    base = np.asarray(base, dtype=np.float64)
    return {"keyframes": [[first, base.tolist()], [last, (base + offset).tolist()]]}


def _cubes_distance(roughness=0.3):
    # reflectors float above the floor so their penumbrae are wide and
    # visible; the light is bright enough that shadow noise matters in the
    # composite alongside the reflections
    cubes = [{"type": "box", "min": [x - 0.65, 0.8, z - 0.65], "max": [x + 0.65, 2.1, z + 0.65],
              "albedo": list(alb), "roughness": roughness, "id": 2 + i}
             for i, (x, z, alb) in enumerate([(-1.9, 0.3, (0.75, 0.22, 0.18)),
                                              (0.0, -1.4, (0.20, 0.65, 0.25)),
                                              (1.9, -3.1, (0.22, 0.32, 0.80))])]
    doc = {
        "camera": {"position": [0.0, 2.6, 6.8], "look_at": [0, 0.9, -1], "vfov_deg": 42.0},
        "objects": cubes,
        "ground": {"height": 0.0, "albedo": [0.42, 0.42, 0.44], "roughness": roughness,
                   "id": 1},
        "light": {"center": [3.5, 6.5, 4.0], "intensity": [220.0, 214.0, 200.0]},
        "reference_point": [0.0, 0.0, 0.0],
        "env": {"kind": "gradient", "scale": 1.0},
    }
    return doc, (([1.8, 0, 0], [1.8, 0, 0]), (1, [1.4, 0.0, 0.0]), [-6.0, 0.0, 0.0])


def _shadow_objects():
    doc = {
        "camera": {"position": [0, 4.2, 7.5], "look_at": [0.0, 0.8, -0.5], "vfov_deg": 46.0},
        "objects": [
            {"type": "sphere", "center": [-1.3, 1.6, 0.2], "radius": 0.75,
             "albedo": [0.70, 0.55, 0.35], "roughness": 0.8, "id": 2},
            {"type": "box", "min": [0.4, 0.9, -0.3], "max": [1.7, 1.8, 0.8],
             "albedo": [0.35, 0.55, 0.70], "roughness": 0.7, "id": 3},
            {"type": "sphere", "center": [0.1, 2.6, -1.3], "radius": 0.5,
             "albedo": [0.60, 0.60, 0.60], "roughness": 0.6, "id": 4},
        ],
        "ground": {"height": 0.0, "albedo": [0.50, 0.48, 0.45], "roughness": 0.85, "id": 1},
        "light": {"center": [2.8, 7.5, 3.2], "intensity": [75.0, 73.0, 70.0]},
        "reference_point": [0.0, 0.0, 0.0],
        "env": {"kind": "gradient", "scale": 0.8},
    }
    return doc, (([1.5, 0, 0], None), (0, [1.2, 0.0, 0.6]), [-5.6, 0.0, 0.0])


def _pillars():
    doc = {
        "camera": {"position": [0.0, 3.6, 8.5], "look_at": [0.0, 1.0, 0.0], "vfov_deg": 44.0},
        "objects": [{"type": "box", "min": [x - 0.35, 0.0, -0.35], "max": [x + 0.35, 2.6, 0.35],
                     "albedo": [0.55, 0.52, 0.48], "roughness": 0.75, "id": 2 + i}
                    for i, x in enumerate([-2.4, -0.8, 0.8, 2.4])],
        "ground": {"height": 0.0, "albedo": [0.46, 0.46, 0.44], "roughness": 0.9, "id": 1},
        "light": {"center": [6.0, 3.5, 2.0], "intensity": [55.0, 53.0, 50.0]},
        "reference_point": [0.0, 0.0, 0.0],
        "env": {"kind": "gradient", "scale": 0.7},
    }
    return doc, (None, None, [-9.0, 2.0, 0.0])


def _breakfast_lite(roughness=0.3):
    doc = {
        "camera": {"position": [0.2, 2.2, 4.6], "look_at": [0.0, 1.0, -0.6], "vfov_deg": 48.0},
        "objects": [
            {"type": "box", "min": [-4.0, 0.0, -3.2], "max": [4.0, 3.2, -3.0],
             "albedo": [0.70, 0.66, 0.58], "roughness": 0.9, "id": 2},  # back wall
            {"type": "box", "min": [-1.4, 0.0, -1.2], "max": [1.4, 1.0, 0.8],
             "albedo": [0.50, 0.34, 0.22], "roughness": max(roughness, 0.05), "id": 3},  # table
            {"type": "sphere", "center": [-0.5, 1.35, -0.3], "radius": 0.35,
             "albedo": [0.85, 0.85, 0.88], "roughness": roughness, "id": 4},
            {"type": "sphere", "center": [0.6, 1.28, 0.1], "radius": 0.28,
             "albedo": [0.80, 0.40, 0.25], "roughness": 0.5, "id": 5},
        ],
        "ground": {"height": 0.0, "albedo": [0.40, 0.38, 0.36], "roughness": 0.8, "id": 1},
        "light": {"center": [1.8, 4.5, 2.5], "intensity": [34.0, 33.0, 31.0]},
        "reference_point": [0.0, 1.0, 0.0],
        "env": {"kind": "gradient", "scale": 0.6},
    }
    return doc, (([1.0, 0, 0], None), (3, [-0.9, 0.0, 0.4]), [-3.4, 0.0, 0.0])


# name -> builder() -> (document at rest, paths); paths are the camera's
# (position, look-at or None) offsets or None, the (index, offset) of the one
# object that moves or None, and the light's offset. The builders of
# _ROUGHNESS_PRESETS also take the roughness of their graded materials.
_PRESETS = {"cubes-distance": _cubes_distance, "shadow-objects": _shadow_objects,
            "pillars": _pillars, "breakfast-lite": _breakfast_lite}
PRESET_NAMES = tuple(_PRESETS)
_ROUGHNESS_PRESETS = ("cubes-distance", "breakfast-lite")


def preset_scene(name: str, width=96, height=96, roughness=None, shadow_angle=4.0,
                 movement="static", teleport_frame=None) -> dict:
    """Build a preset scene document.

    movement: static | camera | lights-objects | light-teleport; `pillars`
    has no camera path. `roughness` grades the materials of `cubes-distance`
    and `breakfast-lite` (default 0.3); the other presets have fixed
    materials and reject it. `teleport_frame` is the first frame after the
    light's jump, a positive int (default 32); only `light-teleport` takes
    it. The document is checked by `scene_from_dict`, so an option that
    makes it invalid raises here, naming its field.
    """
    unavailable = ValueError(f"movement {movement!r} not available for preset {name!r}; "
                             f"have {', '.join(MOVEMENTS)} (pillars: no camera)")
    if movement not in MOVEMENTS:
        raise unavailable
    if teleport_frame is not None and movement != "light-teleport":
        raise ValueError(f"movement {movement!r} has no teleport and takes no "
                         f"teleport_frame; light-teleport does")
    if teleport_frame is not None and not positive_int(teleport_frame):
        # the light would already stand where it jumps to on frame 0
        raise ValueError(f"teleport_frame {teleport_frame!r} is not a positive integer")
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    graded = {} if roughness is None else {"roughness": roughness}
    if graded and name not in _ROUGHNESS_PRESETS:
        raise ValueError(f"preset {name!r} has fixed materials and takes no roughness; "
                         f"{' and '.join(_ROUGHNESS_PRESETS)} do")
    doc, (camera, moving, light) = _PRESETS[name](**graded)
    doc.update(name=name, resolution=[width, height], shadow_angle_deg=shadow_angle)

    if movement == "camera":
        if camera is None:
            raise unavailable
        position, look_at = camera
        cam = doc["camera"]
        cam["position"] = _path(cam["position"], position, 0, _LINEAR_END)
        if look_at is not None:
            cam["look_at"] = _path(cam["look_at"], look_at, 0, _LINEAR_END)
    elif movement == "lights-objects":
        doc["light"]["center"] = _path(doc["light"]["center"], light, 0, _LINEAR_END)
        if moving is not None:
            index, offset = moving
            doc["objects"][index]["motion"] = _path([0, 0, 0], offset, 0, _LINEAR_END)
    elif movement == "light-teleport":
        teleport_frame = 32 if teleport_frame is None else teleport_frame
        doc["light"]["center"] = _path(doc["light"]["center"], light,
                                       teleport_frame - 1, teleport_frame)
    scene_from_dict(doc)
    return doc
