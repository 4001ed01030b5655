"""Deterministic mini path tracer for a ground plane, spheres and boxes.

Plays the role of the rasterized G-buffer plus the 1spp shadow and indirect
specular ray tracers, and of the high-spp ground-truth renderer. Everything
is vectorized over rays and all randomness comes from the counter-based
stream in `rng`, keyed per pixel, so images are bit-identical for fixed
(scene, frame, spp, seed) regardless of scheduling or of which pixels share
an array. Both scene queries, the nearest hit and the occlusion test, walk
one list of surfaces, the scene's objects in order (`_surfaces`: the ground
plane first, where there is one, then each sphere and box placed at the
frame); a query's inverse ray directions are computed once and shared by all
its boxes.

`render_frame` traces the primary rays of the whole pixel grid, which give
the G-buffer (`trace_nearest` owns its background values: +inf distance,
so depth, zero normal, albedo and emissive, and roughness 1), and then
spends rays only where a result is kept:
- one loop runs over the samples on flat arrays of the foreground pixels
  (`pix`, gathered by `stencil.take3`). Each sample draws its four uniforms,
  traces its shadow ray to a point on the light and then its specular
  bounce, and adds to the visibility and the specular sums. Background
  pixels trace no ray and get shadow 1 and specular 0 when the sums are
  scattered back (`stencil.put3`);
- each specular bounce is split by its nearest hit: the shadowed direct light
  (`_direct_at`, with its `occluded` query) and the prefiltered environment
  term run on the bounce rays that hit geometry, the environment lookup
  (`sample_latlong`) on those that miss.

What does not depend on the sample is computed once per frame, before the
loop: the foreground pixels' ray origins (shared by the shadow ray and the
bounce), normals and RNG key prefix (`rng.pixel_key`, continued per sample
by `rng.sample_uniform`), the light's center, and for the specular lobe the
mirror directions, their orthonormal basis and the exponent's power
1 / (e + 1).

Inside `render_frame` every per-ray 3-vector is channel-major: shape
(..., 3), but each component one contiguous plane (`stencil.channel_major`,
`_planar`). Elementwise results take their operands' layout, so a broadcast
such as `v * s[..., None]` runs over whole planes instead of numpy's
innermost loop over three components, and the slab test and the normal
writes go plane by plane. Per element the formulas are unchanged, so the
images are bit for bit those of C-order arrays; the queries accept either
layout. C order is kept where it matters: for the operands of `@` (a
threaded BLAS may round differently on another layout), for `camera_rays`
and `render_sky`, and for every array `render_frame` returns.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .envmap import PrefilteredEnvMap, lobe_exponent, sample_latlong
from .frames import ChannelKind, GBufferFrame, NoisyChannel
from .scenes import Scene, integer, positive_int
from .stencil import channel_major, dot3, length, normalize, put3, take3

_EPS = 1e-4
_UP = np.array([0.0, 1.0, 0.0])  # a plane's normal


def _planar(shape, zeros: bool = False) -> np.ndarray:
    """float64 3-vectors of `shape`, uninitialized or zeroed, laid out
    channel-major like `stencil.channel_major`."""
    return np.moveaxis((np.zeros if zeros else np.empty)((3, *shape)), 0, -1)


def _cross(a, b):
    """np.cross over the last axis by its own formula (a1*b2 - a2*b1, ...),
    so bit for bit equal, but channel-major where np.cross returns C order."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.moveaxis(np.stack([a1 * b2 - a2 * b1,
                                 a2 * b0 - a0 * b2,
                                 a0 * b1 - a1 * b0]), 0, -1)


def camera_rays(scene: Scene, frame: float):
    """Primary ray origins and unit directions, shape (H, W, 3) each, and
    each ray's cosine to the view axis, (H, W): the factor that turns a
    distance along the ray into view-space depth. The cosine is `dirs @ fwd`
    on the C-order directions."""
    pos, fwd, right, cam_up, tan_half = scene.camera_at(frame)
    w, h = scene.width, scene.height
    aspect = w / h
    ndc_x = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    ndc_y = 1.0 - (np.arange(h) + 0.5) / h * 2.0
    dirs = (fwd
            + ndc_x[None, :, None] * (aspect * tan_half) * right
            + ndc_y[:, None, None] * tan_half * cam_up)
    dirs = normalize(dirs)
    origins = np.broadcast_to(pos, dirs.shape).copy()
    return origins, dirs, dirs @ fwd


def project_to_pixel(points: np.ndarray, scene: Scene, frame: float):
    """Project world points into the frame's image; returns (px, py, in_front)."""
    pos, fwd, right, cam_up, tan_half = scene.camera_at(frame)
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
    b = dot3(oc, dirs)
    c = dot3(oc, oc) - radius * radius
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = -b - sq
    t1 = -b + sq
    t = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
    return np.where(disc >= 0.0, t, np.inf)


def _intersect_box(origins, inv_dirs, lo, hi):
    """Slab test on `inv_dirs = 1 / dirs`, one axis at a time, the slabs
    combined in axis order. A slab is NaN where the ray lies in its plane
    (0 * inf), and `fmax`/`fmin` skip it."""
    with np.errstate(invalid="ignore"):
        for k in range(3):
            a = (lo[k] - origins[..., k]) * inv_dirs[..., k]
            b = (hi[k] - origins[..., k]) * inv_dirs[..., k]
            near = np.minimum(a, b)
            far = np.maximum(a, b)
            tmin = near if k == 0 else np.fmax(tmin, near)
            tmax = far if k == 0 else np.fmin(tmax, far)
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
    """Yield (t, oid, material, normal_fn) for each of the scene's surfaces,
    in its order: the ground plane, where there is one, first.

    `t` is the per-ray hit distance (inf on a miss) and `normal_fn(points)`
    the surface normal at hit points; spheres and boxes are placed at `frame`.
    """
    with np.errstate(divide="ignore"):
        inv_dirs = 1.0 / dirs
    for obj in scene.objects:
        off = obj.offset_at(frame)
        if obj.kind == "plane":
            yield (_intersect_plane(origins, dirs, obj.height), obj.oid, obj.material,
                   lambda pts: _UP)
        elif obj.kind == "sphere":
            c = obj.center + off
            yield (_intersect_sphere(origins, dirs, c, obj.radius), obj.oid,
                   obj.material, lambda pts, c=c: normalize(pts - c))
        else:
            lo, hi = obj.lo + off, obj.hi + off
            yield (_intersect_box(origins, inv_dirs, lo, hi), obj.oid, obj.material,
                   lambda pts, lo=lo, hi=hi: _box_normal(pts, lo, hi))


def trace_nearest(origins, dirs, scene: Scene, frame: float):
    """Nearest-hit query returning per-ray t, object id and surface attrs;
    the normal, albedo and emissive vectors are channel-major. A miss keeps
    t = inf, object id 0, zero normal, albedo and emissive, and roughness 1,
    the G-buffer's background values."""
    shape = origins.shape[:-1]
    best_t = np.full(shape, np.inf)
    oid = np.zeros(shape, dtype=np.int32)
    normal = _planar(shape, zeros=True)
    albedo = _planar(shape, zeros=True)
    rough = np.ones(shape)
    emissive = _planar(shape, zeros=True)
    for t, this_oid, mat, normal_fn in _surfaces(origins, dirs, scene, frame):
        closer = t < best_t  # hit distances are > _EPS or inf
        hits = np.flatnonzero(closer)
        if not hits.size:
            continue
        np.copyto(best_t, t, where=closer)
        np.copyto(oid, this_oid, where=closer)
        np.copyto(albedo, mat.albedo, where=closer[..., None])
        np.copyto(rough, mat.roughness, where=closer)
        np.copyto(emissive, mat.emissive, where=closer[..., None])
        # normals at the compacted hit points, written back plane by plane
        points = take3(origins, hits) + take3(dirs, hits) * np.take(t, hits)[:, None]
        put3(normal, hits, np.broadcast_to(normal_fn(points), points.shape))
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
    return np.moveaxis(np.stack([r * np.cos(phi), r * np.sin(phi), z]), 0, -1)


def _onb(axis):
    """Deterministic orthonormal basis around unit vectors (..., 3)."""
    helper = np.where(np.abs(axis[..., 1:2]) < 0.9,
                      np.array([0.0, 1.0, 0.0]),
                      np.array([1.0, 0.0, 0.0]))
    t1 = normalize(_cross(axis, helper))
    t2 = _cross(axis, t1)
    return t1, t2


def _phong_lobe(mirror, onb, power, u1, u2):
    """Sample directions around `mirror` with pdf ~ cos^e; `onb` is
    `_onb(mirror)` and `power` is 1 / (e + 1), both per element."""
    t1, t2 = onb
    with np.errstate(over="ignore"):
        cos_t = u1 ** power
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = 2.0 * np.pi * u2
    return (t1 * (sin_t * np.cos(phi))[..., None]
            + t2 * (sin_t * np.sin(phi))[..., None]
            + mirror * cos_t[..., None])


# ---------------------------------------------------------------------------
# frame rendering

def _direct_at(points, normals, albedo, emissive, scene, frame, light_center):
    """Deterministic shading used at secondary hits: emissive + shadowed direct."""
    to_l = light_center - points
    dist = length(to_l)
    ldir = to_l / np.maximum(dist, 1e-12)[..., None]
    cos = np.maximum(0.0, dot3(normals, ldir))
    vis = ~occluded(points + normals * _EPS, ldir, dist - 2 * _EPS, scene, frame)
    # a (3,) over an (..., 1) operand would come out C-order
    falloff = np.divide(scene.light.intensity, np.maximum(dist * dist, 1e-12)[..., None],
                        out=_planar(dist.shape))
    return emissive + albedo / np.pi * falloff * (cos * vis)[..., None]


def check_counts(seed, **counts) -> None:
    """Raise a ValueError naming the first of `counts` that is no int >= 1, or
    a `seed` that is no int; a bool or a float counts as neither."""
    for name, value in counts.items():
        if not positive_int(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def render_frame(scene: Scene, frame_index: int, spp: int, seed: int,
                 prefiltered: PrefilteredEnvMap | None = None,
                 sample_offset: int = 0):
    """Render one frame: G-buffer plus 1spp-style shadow and specular channels.

    The per-pixel RNG stream is keyed by (seed, frame, x, y, sample), so the
    spp-sample estimate equals the mean of single-sample renders with matching
    sample offsets. A `prefiltered` environment map (`envmap.prefilter_env`)
    turns on image-based lighting of secondary hits: the environment along
    their mirror direction, prefiltered at their roughness and weighted by
    their albedo, adds to their direct light. Without one they get direct
    light only. A count that is no int >= 1, a seed that is no int, an
    index (`frame_index`, `sample_offset`) that is no int >= 0 and a frame
    whose camera has no view basis (`Scene.camera_at`) are rejected before
    any ray is traced.
    """
    check_counts(seed, spp=spp)
    for name, index in (("frame_index", frame_index), ("sample_offset", sample_offset)):
        if not (integer(index) and index >= 0):  # a bool or a float is no index
            raise ValueError(f"{name} must be an integer >= 0, got {index!r}")
    if scene.frame_count is not None and frame_index >= scene.frame_count:
        raise ValueError(f"frame {frame_index} beyond scene animation length "
                         f"{scene.frame_count}")

    h, w = scene.height, scene.width
    origins, dirs, along_fwd = camera_rays(scene, frame_index)
    origins, dirs = channel_major(origins), channel_major(dirs)
    t, oid, normal, albedo, rough, emissive = trace_nearest(origins, dirs, scene, frame_index)
    fg = oid != 0

    depth = t * along_fwd  # +inf on a miss, as every ray points ahead
    hit_p = origins + dirs * np.where(fg, t, 0.0)[..., None]

    # analytic motion: move the hit point back by its object's frame-to-frame
    # offset, then project into the previous frame's camera. A foreground
    # pixel has moved where the camera or its object did; elsewhere the answer
    # is analytically zero, so the projection round trip (and its float noise)
    # is not taken there.
    cam_moved = not all(np.array_equal(a, b) for a, b in
                        zip(scene.camera_at(frame_index), scene.camera_at(frame_index - 1)))
    moved = np.full((h, w), cam_moved)
    prev_p = hit_p.copy(order="C")  # `project_to_pixel` applies `@` to it
    for obj in scene.objects:
        delta = obj.offset_at(frame_index) - obj.offset_at(frame_index - 1)
        if np.any(delta != 0.0):
            sel = oid == obj.oid
            prev_p[sel] -= delta
            moved |= sel
    moved &= fg
    motion = np.zeros((h, w, 2))
    if moved.any():
        px, py, in_front = project_to_pixel(prev_p, scene, frame_index - 1)
        offsets = np.stack([px - np.arange(w), py - np.arange(h)[:, None]], axis=-1)
        offsets[~in_front] = 1e9
        motion = np.where(moved[..., None], offsets, 0.0)

    gbuf = GBufferFrame(
        depth=depth.astype(np.float32),
        normal=normal.astype(np.float32, order="C"),
        motion=motion.astype(np.float32),
        object_id=oid.astype(np.int32),
        albedo=albedo.astype(np.float32, order="C"),
        roughness=rough.astype(np.float32),
        emissive=emissive.astype(np.float32, order="C"),
    )

    # the sample loop runs over the foreground pixels only, flat; `pix` holds
    # their row-major indices and scatters the results back
    pix = np.flatnonzero(fg)
    key = rng.pixel_key(seed, frame_index, pix % w, pix // w)
    light_c = scene.light.center_at(frame_index)
    normal = take3(normal, pix)
    origin = take3(hit_p, pix) + normal * _EPS
    dirs = take3(dirs, pix)
    mirror = normalize(dirs - 2.0 * dot3(dirs, normal)[..., None] * normal)
    exponent = lobe_exponent(np.take(rough, pix))
    is_mirror = ~(exponent < np.inf)
    onb = _onb(mirror)
    power = 1.0 / (np.where(is_mirror, 1.0, exponent) + 1.0)

    visible = np.zeros(pix.size)
    spec = _planar(pix.shape, zeros=True)
    for s in range(sample_offset, sample_offset + spp):
        u0, u1, u2, u3 = (rng.sample_uniform(key, s, d) for d in range(4))
        # the shadow ray, toward a uniform point on the light's sphere
        to_l = light_c + scene.light.radius * _sphere_point(u0, u1) - origin
        dist = length(to_l)
        ldir = to_l / np.maximum(dist, 1e-12)[..., None]
        visible += 1.0 - occluded(origin, ldir, dist - _EPS, scene, frame_index)

        # the bounce, along a sample of the specular lobe
        lobe = np.where(is_mirror[..., None], mirror, _phong_lobe(mirror, onb, power, u2, u3))
        t2, oid2, n2, alb2, rough2, emis2 = trace_nearest(origin, lobe, scene, frame_index)
        hit2 = oid2 != 0
        radiance = _planar(pix.shape)
        miss = np.flatnonzero(~hit2)
        put3(radiance, miss, sample_latlong(scene.env, take3(lobe, miss)))
        hits = np.flatnonzero(hit2)
        lobe2, n2, alb2 = take3(lobe, hits), take3(n2, hits), take3(alb2, hits)
        p2 = take3(origin, hits) + lobe2 * np.take(t2, hits)[..., None]
        lit = _direct_at(p2, n2, alb2, take3(emis2, hits), scene, frame_index, light_c)
        if prefiltered is not None:
            refl2 = lobe2 - 2.0 * dot3(lobe2, n2)[..., None] * n2
            lit = lit + alb2 * prefiltered.sample(normalize(refl2), np.take(rough2, hits))
        put3(radiance, hits, lit)
        spec += radiance * (dot3(lobe, normal) > 0.0)[..., None]
    shadow = np.ones(h * w)
    shadow[pix] = visible / spp
    specular = np.zeros((h * w, 3))
    put3(specular, pix, spec / spp)

    return (gbuf,
            NoisyChannel(ChannelKind.SHADOW, shadow.reshape(h, w).astype(np.float32)),
            NoisyChannel(ChannelKind.INDIRECT_SPECULAR,
                         specular.reshape(h, w, 3).astype(np.float32)))


REFERENCE_SPP = 1024  # ground truth: the identical estimator at high spp


def render_sky(scene: Scene, frame_index: int, dirs=None, where=None) -> np.ndarray:
    """Environment radiance along every camera ray (the background plate),
    or with a mask `where` only along the rays there, 0 elsewhere. `dirs`
    are the frame's directions from `camera_rays`, traced here when not
    given. Each pixel's radiance is the same either way: the masked rays
    keep the C-order layout of the full grid."""
    if dirs is None:
        _origins, dirs, _cos = camera_rays(scene, frame_index)
    if where is None:
        return sample_latlong(scene.env, dirs)
    flat = np.flatnonzero(where)
    sky = np.zeros(dirs.shape)
    sky.reshape(-1, 3)[flat] = sample_latlong(scene.env, dirs.reshape(-1, 3)[flat])
    return sky

