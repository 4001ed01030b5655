"""Deterministic mini path tracer for spheres, boxes and a ground plane.

Plays the role of the rasterized G-buffer plus the 1spp shadow and indirect
specular ray tracers, and of the high-spp ground-truth renderer. Everything
is vectorized over the pixel grid and all randomness comes from the
counter-based stream in `rng`, so images are bit-identical for fixed
(scene, frame, spp, seed) regardless of scheduling. Both scene queries, the
nearest hit and the occlusion test, walk one list of surfaces (`_surfaces`:
the ground plane, then each sphere and box placed at the frame).
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .envmap import PrefilteredEnvMap, prefilter_env, sample_latlong
from .frames import ChannelKind, GBufferFrame, NoisyChannel
from .scenes import Scene

_EPS = 1e-4
_MIRROR_ROUGHNESS = 1e-6  # below this the lobe is treated as a perfect mirror
_UP = np.array([0.0, 1.0, 0.0])  # the ground's normal
ENV_LEVELS = 5  # roughness levels of the prefiltered env map for IBL secondaries


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(n, 1e-12)


def camera_basis(scene: Scene, frame: float):
    pos, look, up, vfov = scene.camera_at(frame)
    fwd = _normalize(look - pos)
    right = _normalize(np.cross(fwd, up))
    cam_up = np.cross(right, fwd)
    tan_half = math.tan(math.radians(vfov) / 2.0)
    return pos, fwd, right, cam_up, tan_half


def camera_rays(scene: Scene, frame: float):
    """Primary ray origins and unit directions, shape (H, W, 3) each."""
    pos, fwd, right, cam_up, tan_half = camera_basis(scene, frame)
    w, h = scene.width, scene.height
    aspect = w / h
    ndc_x = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    ndc_y = 1.0 - (np.arange(h) + 0.5) / h * 2.0
    dirs = (fwd
            + ndc_x[None, :, None] * (aspect * tan_half) * right
            + ndc_y[:, None, None] * tan_half * cam_up)
    dirs = _normalize(dirs)
    origins = np.broadcast_to(pos, dirs.shape).copy()
    return origins, dirs


def project_to_pixel(points: np.ndarray, scene: Scene, frame: float):
    """Project world points into the frame's image; returns (px, py, in_front)."""
    pos, fwd, right, cam_up, tan_half = camera_basis(scene, frame)
    w, h = scene.width, scene.height
    aspect = w / h
    d = points - pos
    z = d @ fwd
    x = d @ right
    y = d @ cam_up
    safe_z = np.where(z > 1e-9, z, 1.0)
    ndc_x = x / (safe_z * tan_half * aspect)
    ndc_y = y / (safe_z * tan_half)
    px = (ndc_x + 1.0) / 2.0 * w - 0.5
    py = (1.0 - ndc_y) / 2.0 * h - 0.5
    return px, py, z > 1e-9


# ---------------------------------------------------------------------------
# analytic intersections (all vectorized over leading ray dimensions)

def _intersect_sphere(origins, dirs, center, radius):
    oc = origins - center
    b = np.sum(oc * dirs, axis=-1)
    c = np.sum(oc * oc, axis=-1) - radius * radius
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = -b - sq
    t1 = -b + sq
    t = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
    return np.where(disc >= 0.0, t, np.inf)


def _intersect_box(origins, dirs, lo, hi):
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    a = (lo - origins) * inv
    b = (hi - origins) * inv
    tmin = np.nanmax(np.minimum(a, b), axis=-1)
    tmax = np.nanmin(np.maximum(a, b), axis=-1)
    hit = (tmax >= tmin) & (tmax > _EPS)
    t = np.where(tmin > _EPS, tmin, tmax)
    return np.where(hit, t, np.inf)


def _box_normal(points, lo, hi):
    d_lo = np.abs(points - lo)
    d_hi = np.abs(points - hi)
    dist = np.concatenate([d_lo, d_hi], axis=-1)  # (..., 6)
    face = np.argmin(dist, axis=-1)
    normals = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, -1],
                        [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float64)
    return normals[face]


def _intersect_plane(origins, dirs, height):
    dy = dirs[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (height - origins[..., 1]) / dy
    return np.where((np.abs(dy) > 1e-12) & (t > _EPS), t, np.inf)


def _surfaces(origins, dirs, scene: Scene, frame: float):
    """Yield (t, oid, material, normal_fn) for the ground, then each object.

    `t` is the per-ray hit distance (inf on a miss) and `normal_fn(points)`
    the surface normal at hit points; objects are placed at `frame`.
    """
    if scene.ground is not None:
        g = scene.ground
        yield (_intersect_plane(origins, dirs, g.height), g.oid, g.material,
               lambda pts: _UP)
    for obj in scene.objects:
        off = obj.offset_at(frame)
        if obj.kind == "sphere":
            c = obj.center + off
            yield (_intersect_sphere(origins, dirs, c, obj.radius), obj.oid,
                   obj.material, lambda pts, c=c: _normalize(pts - c))
        else:
            lo, hi = obj.lo + off, obj.hi + off
            yield (_intersect_box(origins, dirs, lo, hi), obj.oid, obj.material,
                   lambda pts, lo=lo, hi=hi: _box_normal(pts, lo, hi))


def trace_nearest(origins, dirs, scene: Scene, frame: float):
    """Nearest-hit query returning per-ray t, object id and surface attrs."""
    shape = origins.shape[:-1]
    best_t = np.full(shape, np.inf)
    oid = np.zeros(shape, dtype=np.int32)
    normal = np.zeros(shape + (3,))
    albedo = np.zeros(shape + (3,))
    rough = np.ones(shape)
    emissive = np.zeros(shape + (3,))
    for t, this_oid, mat, normal_fn in _surfaces(origins, dirs, scene, frame):
        closer = t < best_t  # hit distances are > _EPS or inf
        if not np.any(closer):
            continue
        best_t[closer] = t[closer]
        oid[closer] = this_oid
        normal[closer] = normal_fn(origins[closer] + dirs[closer] * t[closer][..., None])
        albedo[closer] = mat.albedo
        rough[closer] = mat.roughness
        emissive[closer] = mat.emissive
    return best_t, oid, normal, albedo, rough, emissive


def occluded(origins, dirs, max_dist, scene: Scene, frame: float):
    """True where any geometry lies between origin and origin + dirs*max_dist."""
    blocked = np.zeros(origins.shape[:-1], dtype=bool)
    for t, _oid, _mat, _normal_fn in _surfaces(origins, dirs, scene, frame):
        blocked |= t < max_dist
    return blocked


# ---------------------------------------------------------------------------
# sampling

def _sphere_point(u1, u2):
    """Uniform point on the unit sphere from two uniforms."""
    z = 1.0 - 2.0 * u1
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * u2
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _onb(axis):
    """Deterministic orthonormal basis around unit vectors (..., 3)."""
    helper = np.where(np.abs(axis[..., 1:2]) < 0.9,
                      np.array([0.0, 1.0, 0.0]),
                      np.array([1.0, 0.0, 0.0]))
    t1 = _normalize(np.cross(axis, helper))
    t2 = np.cross(axis, t1)
    return t1, t2


def _phong_lobe(mirror, exponent, u1, u2):
    """Sample directions around `mirror` with pdf ~ cos^e; e is per-element."""
    with np.errstate(over="ignore"):
        cos_t = u1 ** (1.0 / (exponent + 1.0))
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = 2.0 * np.pi * u2
    t1, t2 = _onb(mirror)
    return (t1 * (sin_t * np.cos(phi))[..., None]
            + t2 * (sin_t * np.sin(phi))[..., None]
            + mirror * cos_t[..., None])


# ---------------------------------------------------------------------------
# frame rendering

def _direct_at(points, normals, albedo, emissive, scene, frame, light_center):
    """Deterministic shading used at secondary hits: emissive + shadowed direct."""
    to_l = light_center - points
    dist = np.linalg.norm(to_l, axis=-1)
    ldir = to_l / np.maximum(dist, 1e-12)[..., None]
    cos = np.maximum(0.0, np.sum(normals * ldir, axis=-1))
    vis = ~occluded(points + normals * _EPS, ldir, dist - 2 * _EPS, scene, frame)
    falloff = scene.light.intensity / np.maximum(dist * dist, 1e-12)[..., None]
    return emissive + albedo / np.pi * falloff * (cos * vis)[..., None]


def render_frame(scene: Scene, frame_index: int, spp: int, seed: int,
                 ibl_secondary: bool = False,
                 prefiltered: PrefilteredEnvMap | None = None,
                 sample_offset: int = 0):
    """Render one frame: G-buffer plus 1spp-style shadow and specular channels.

    The per-pixel RNG stream is keyed by (seed, frame, x, y, sample), so the
    spp-sample estimate equals the mean of single-sample renders with matching
    sample offsets.
    """
    if scene.frame_count is not None and frame_index >= scene.frame_count:
        raise ValueError(f"frame {frame_index} beyond scene animation length "
                         f"{scene.frame_count}")
    if ibl_secondary and prefiltered is None:
        prefiltered = prefilter_env(scene.env, ENV_LEVELS)

    h, w = scene.height, scene.width
    origins, dirs = camera_rays(scene, frame_index)
    t, oid, normal, albedo, rough, emissive = trace_nearest(origins, dirs, scene, frame_index)
    fg = oid != 0

    _pos, fwd, _r, _u, _th = camera_basis(scene, frame_index)
    view_z = t * (dirs @ fwd)
    depth = np.where(fg, view_z, np.inf)
    hit_p = origins + dirs * np.where(fg, t, 0.0)[..., None]

    # analytic motion: move the hit point back by the object's frame-to-frame
    # offset, then project into the previous frame's camera. When neither the
    # camera nor the object moved the answer is analytically zero, so the
    # projection round-trip (and its float noise) is skipped outright.
    motion = np.zeros((h, w, 2))
    cam_static = all(np.array_equal(a, b) for a, b in
                     zip(scene.camera_at(frame_index), scene.camera_at(frame_index - 1)))
    moved = np.zeros((h, w), dtype=bool)
    prev_p = hit_p.copy()
    for obj in scene.objects:
        delta = obj.offset_at(frame_index) - obj.offset_at(frame_index - 1)
        if np.any(delta != 0.0):
            sel = oid == obj.oid
            prev_p[sel] -= delta
            moved |= sel
    needs_projection = fg & (moved | (not cam_static))
    if np.any(needs_projection):
        px, py, in_front = project_to_pixel(prev_p, scene, frame_index - 1)
        xs = np.arange(w)[None, :]
        ys = np.arange(h)[:, None]
        mx = np.where(in_front, px - xs, 1e9)
        my = np.where(in_front, py - ys, 1e9)
        motion[..., 0] = np.where(needs_projection, mx, 0.0)
        motion[..., 1] = np.where(needs_projection, my, 0.0)

    gbuf = GBufferFrame(
        depth=depth.astype(np.float32),
        normal=np.where(fg[..., None], normal, 0.0).astype(np.float32),
        motion=motion.astype(np.float32),
        object_id=oid.astype(np.int32),
        albedo=np.where(fg[..., None], albedo, 0.0).astype(np.float32),
        roughness=np.where(fg, rough, 1.0).astype(np.float32),
        emissive=np.where(fg[..., None], emissive, 0.0).astype(np.float32),
    )

    xs = np.broadcast_to(np.arange(w)[None, :], (h, w))
    ys = np.broadcast_to(np.arange(h)[:, None], (h, w))
    light_c = scene.light.center_at(frame_index)
    radius = scene.light.radius
    shadow_origin = hit_p + normal * _EPS

    visible = np.zeros((h, w))
    for s in range(sample_offset, sample_offset + spp):
        u1 = rng.pixel_uniform(seed, frame_index, xs, ys, s, 0)
        u2 = rng.pixel_uniform(seed, frame_index, xs, ys, s, 1)
        point = light_c + radius * _sphere_point(u1, u2)
        to_l = point - shadow_origin
        dist = np.linalg.norm(to_l, axis=-1)
        ldir = to_l / np.maximum(dist, 1e-12)[..., None]
        blocked = occluded(shadow_origin, ldir, dist - _EPS, scene, frame_index)
        visible += 1.0 - blocked
    shadow = np.where(fg, visible / spp, 1.0)

    mirror = dirs - 2.0 * np.sum(dirs * normal, axis=-1, keepdims=True) * normal
    mirror = np.where(fg[..., None], _normalize(mirror), dirs)
    with np.errstate(divide="ignore"):
        exponent = np.where(rough > _MIRROR_ROUGHNESS,
                            np.maximum(1.0, 2.0 / np.maximum(rough, _MIRROR_ROUGHNESS) ** 2 - 2.0),
                            np.inf)
    is_mirror = ~(exponent < np.inf)

    spec = np.zeros((h, w, 3))
    for s in range(sample_offset, sample_offset + spp):
        u1 = rng.pixel_uniform(seed, frame_index, xs, ys, s, 2)
        u2 = rng.pixel_uniform(seed, frame_index, xs, ys, s, 3)
        lobe = _phong_lobe(mirror, np.where(is_mirror, 1.0, exponent), u1, u2)
        lobe = np.where(is_mirror[..., None], mirror, lobe)
        above = np.sum(lobe * normal, axis=-1) > 0.0

        t2, oid2, n2, alb2, rough2, emis2 = trace_nearest(shadow_origin, lobe, scene, frame_index)
        hit2 = oid2 != 0
        p2 = shadow_origin + lobe * np.where(hit2, t2, 0.0)[..., None]

        radiance = sample_latlong(scene.env, lobe)
        if np.any(hit2):
            lit = _direct_at(p2, n2, alb2, emis2, scene, frame_index, light_c)
            if ibl_secondary:
                refl2 = lobe - 2.0 * np.sum(lobe * n2, axis=-1, keepdims=True) * n2
                lit = lit + alb2 * prefiltered.sample(_normalize(refl2), rough2)
            radiance = np.where(hit2[..., None], lit, radiance)
        spec += radiance * above[..., None]
    specular = np.where(fg[..., None], spec / spp, 0.0)

    return (gbuf,
            NoisyChannel(ChannelKind.SHADOW, shadow.astype(np.float32), spp),
            NoisyChannel(ChannelKind.INDIRECT_SPECULAR, specular.astype(np.float32), spp))


REFERENCE_SPP = 1024  # ground truth: the identical estimator at high spp


def render_sky(scene: Scene, frame_index: int) -> np.ndarray:
    """Environment radiance along every camera ray (the background plate)."""
    _origins, dirs = camera_rays(scene, frame_index)
    return sample_latlong(scene.env, dirs)

