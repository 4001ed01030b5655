import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rtdenoise import render
from rtdenoise.envmap import prefilter_env
from rtdenoise.frames import validate_frame
from rtdenoise.render import (REFERENCE_SPP, camera_basis, camera_rays,
                              occluded, render_frame, render_sky, trace_nearest)
from rtdenoise.scenes import MOVEMENTS, PRESET_NAMES, preset_scene, scene_from_dict
from rtdenoise.stencil import channel_major


def _scene(name="shadow-objects", **kw):
    return scene_from_dict(preset_scene(name, **kw))


def _frame_dict(gbuf, shadow, spec):
    return {"depth": gbuf.depth, "normal": gbuf.normal, "motion": gbuf.motion,
            "object_id": gbuf.object_id, "albedo": gbuf.albedo,
            "roughness": gbuf.roughness, "emissive": gbuf.emissive,
            "shadow_1spp": shadow.data, "specular_1spp": spec.data}


def test_gbuffer_passes_validation():
    scene = _scene(width=24, height=24)
    gbuf, shadow, spec = render_frame(scene, 0, spp=2, seed=1)
    assert validate_frame(_frame_dict(gbuf, shadow, spec), 24, 24) == []


def test_determinism_bitwise():
    scene = _scene("cubes-distance", width=20, height=20)
    a = render_frame(scene, 0, spp=2, seed=9)
    b = render_frame(scene, 0, spp=2, seed=9)
    for x, y in [(a[0].depth, b[0].depth), (a[1].data, b[1].data), (a[2].data, b[2].data)]:
        assert np.array_equal(x, y)


def test_point_light_binary_shadow():
    doc = preset_scene("shadow-objects", width=24, height=24)
    doc["light"]["radius"] = 0.0
    del doc["shadow_angle_deg"]
    scene = scene_from_dict(doc)
    assert scene.light.radius == 0.0
    _g, shadow, _s = render_frame(scene, 0, spp=5, seed=2)
    assert set(np.unique(shadow.data)) <= {0.0, 1.0}


@pytest.mark.parametrize("name,movement", [("cubes-distance", "camrea"),
                                           ("pillars", "camera")])
def test_preset_scene_rejects_unavailable_movement(name, movement):
    with pytest.raises(ValueError, match=f"movement '{movement}'.*'{name}'"):
        preset_scene(name, movement=movement)


def _keyframes(value):
    return [f for f, _v in value["keyframes"]] if isinstance(value, dict) else None


@pytest.mark.parametrize("name,movement", [(n, m) for n in PRESET_NAMES for m in MOVEMENTS
                                           if (n, m) != ("pillars", "camera")])
def test_movement_matrix(name, movement):
    # every preset follows the one movement rule; pillars has no moving object
    doc = preset_scene(name, movement=movement, teleport_frame=5)
    cam = doc["camera"]
    keyed = {part for part, frames in [
        ("camera", _keyframes(cam["position"]) or _keyframes(cam["look_at"])),
        ("light", _keyframes(doc["light"]["center"])),
        ("objects", [_keyframes(o["motion"]) for o in doc["objects"] if "motion" in o])]
        if frames}
    want = {"static": set(), "camera": {"camera"}, "lights-objects": {"light", "objects"},
            "light-teleport": {"light"}}[movement]
    assert keyed == (want - {"objects"} if name == "pillars" else want)
    if movement == "camera":
        assert _keyframes(cam["position"]) == [0, 63]
    elif movement == "lights-objects":
        assert _keyframes(doc["light"]["center"]) == [0, 63]
    elif movement == "light-teleport":
        assert _keyframes(doc["light"]["center"]) == [4, 5]


def _random_rays():
    rs = np.random.default_rng(4)
    origins = rs.uniform((-4.0, 0.05, -4.0), (4.0, 4.0, 4.0), (2000, 3))
    dirs = rs.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return origins, dirs, rs.uniform(0.0, 12.0, 2000)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_occluded_agrees_with_nearest_hit(name):
    # moving objects, so both queries must place them at the same frame
    scene = _scene(name, width=8, height=8, movement="lights-objects")
    origins, dirs, max_dist = _random_rays()
    blocked = occluded(origins, dirs, max_dist, scene, 40)
    assert np.array_equal(blocked, trace_nearest(origins, dirs, scene, 40)[0] < max_dist)
    assert 0 < np.count_nonzero(blocked) < blocked.size


def test_mirror_lobe_seed_independent():
    scene = _scene("cubes-distance", width=20, height=20, roughness=0.0)
    _g1, _s1, spec1 = render_frame(scene, 0, spp=1, seed=1)
    _g2, _s2, spec2 = render_frame(scene, 0, spp=1, seed=999)
    assert np.array_equal(spec1.data, spec2.data)


@pytest.mark.parametrize("spp", [0, -2])
def test_render_frame_rejects_spp_below_one(spp):
    # spp = 0 would divide the sample sums by zero into all-NaN channels
    with pytest.raises(ValueError, match=rf"spp must be >= 1, got {spp}"):
        render_frame(_scene(width=8, height=8), 0, spp, seed=0)


# ---------------------------------------------------------------------------
# the intersection primitives against the formulas they replaced

def _box_t_nan_reductions(origins, dirs, lo, hi):
    # the slab test as written with the generic NaN-skipping reductions
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        a = (lo - origins) * inv
        b = (hi - origins) * inv
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tmin = np.nanmax(np.minimum(a, b), axis=-1)
        tmax = np.nanmin(np.maximum(a, b), axis=-1)
    hit = (tmax >= tmin) & (tmax > render._EPS)
    return np.where(hit, np.where(tmin > render._EPS, tmin, tmax), np.inf)


_BOXES = [((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), ((0.0, -0.5, 1.0), (1.5, 1.0, 3.0))]


def _slab_rays(lo, hi):
    # origins on every slab plane, inside, outside and on the far side, against
    # directions built from {-1, -0.0, 0.0, 1} (axis-aligned and diagonal,
    # signed zeros, rays parallel to faces) and a few random ones
    coords = sorted({-3.0, -0.25, 0.5, 3.0, *lo, *hi})
    origins = np.stack(np.meshgrid(coords, coords, coords, indexing="ij"), -1).reshape(-1, 3)
    comps = [-1.0, -0.0, 0.0, 1.0]
    dirs = np.stack(np.meshgrid(comps, comps, comps, indexing="ij"), -1).reshape(-1, 3)
    dirs = dirs[np.any(dirs != 0.0, axis=-1)]
    dirs = np.concatenate([dirs, np.random.default_rng(3).normal(size=(8, 3))])
    return np.repeat(origins, len(dirs), axis=0), np.tile(dirs, (len(origins), 1))


@pytest.mark.parametrize("lo,hi", _BOXES)
def test_intersect_box_matches_nan_reductions(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    o, d = _slab_rays(lo, hi)
    with np.errstate(divide="ignore"):
        inv = 1.0 / d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = render._intersect_box(o, inv, lo, hi)
    want = _box_t_nan_reductions(o, d, lo, hi)
    assert t.dtype == want.dtype and t.tobytes() == want.tobytes()
    # the adversarial cases are present: NaN slabs, inside origins, hits, misses
    with np.errstate(divide="ignore", invalid="ignore"):
        nan_slab = np.isnan((lo - o) * inv) | np.isnan((hi - o) * inv)
    inside = np.all((o > lo) & (o < hi), axis=-1)
    assert np.any(nan_slab, axis=-1).sum() > 100
    assert np.isfinite(t[inside]).all()
    assert 0 < np.isfinite(t).sum() < t.size


def _box_scene(lo, hi):
    return scene_from_dict({
        "name": "box", "resolution": [8, 8],
        "camera": {"position": [0.0, 3.0, 6.0], "look_at": [0.0, 0.0, 0.0], "vfov_deg": 40.0},
        "objects": [{"type": "box", "min": list(lo), "max": list(hi),
                     "albedo": [0.5, 0.4, 0.3], "roughness": 0.2, "id": 2},
                    {"type": "sphere", "center": [2.0, 1.0, -2.0], "radius": 0.8,
                     "albedo": [0.2, 0.6, 0.2], "roughness": 0.5, "id": 3}],
        "ground": {"height": -2.0, "albedo": [0.5, 0.5, 0.5], "roughness": 0.9, "id": 1},
        "light": {"center": [0.0, 8.0, 0.0], "radius": 0.5, "intensity": [30.0, 30.0, 30.0]},
        "env": {"kind": "constant", "value": [0.2, 0.2, 0.2]},
    })


@pytest.mark.parametrize("box,name", [(b, None) for b in _BOXES]
                         + [(None, n) for n in PRESET_NAMES])
def test_queries_independent_of_ray_layout(box, name):
    # the renderer passes channel-major rays: every query result must equal,
    # bit for bit, the result on C-order copies of the same rays. The
    # adversarial slab rays run against a box scene, the random rays against
    # every preset.
    if box is not None:
        scene, (o, d) = _box_scene(*box), _slab_rays(*box)
        max_dist = np.full(len(o), 2.5)
    else:
        scene = _scene(name, width=8, height=8, movement="lights-objects")
        o, d, max_dist = _random_rays()
    n = len(o) - len(o) % 8  # (8, n/8) rays, so the queries see 2-D masks
    o, d, max_dist = o[:n].reshape(8, -1, 3), d[:n].reshape(8, -1, 3), max_dist[:n].reshape(8, -1)
    planar_o, planar_d = channel_major(o), channel_major(d)
    assert o.flags.c_contiguous and planar_o[..., 0].flags.c_contiguous
    for lo, hi in _BOXES:
        with np.errstate(divide="ignore"):
            want = render._intersect_box(o, 1.0 / d, np.array(lo), np.array(hi))
            got = render._intersect_box(planar_o, 1.0 / planar_d, np.array(lo), np.array(hi))
        assert got.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = trace_nearest(o, d, scene, 40)
        got = trace_nearest(planar_o, planar_d, scene, 40)
        blocked = occluded(planar_o, planar_d, max_dist, scene, 40)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert blocked.tobytes() == occluded(o, d, max_dist, scene, 40).tobytes()
    assert 0 < np.count_nonzero(want[1]) < want[1].size  # hits and misses
    assert 0 < np.count_nonzero(blocked) < blocked.size


def test_cross_matches_np_cross():
    rs = np.random.default_rng(11)
    a = rs.normal(size=(96, 3)) * 10.0 ** rs.uniform(-30.0, 30.0, (96, 1))
    b = rs.normal(size=(96, 3)) * 10.0 ** rs.uniform(-30.0, 30.0, (96, 1))
    a[:6] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 1.0, 0.0], [1.0, -0.0, -0.0],
             [0.0, 0.0, 1.0], [-0.0, 0.0, 1e-30]]
    b[:6] = [[-0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -0.0], [-0.0, -1.0, 0.0],
             [-0.0, -0.0, -1.0], [1e30, -0.0, 0.0]]
    a, b = a.reshape(8, 12, 3), b.reshape(8, 12, 3)
    helper = np.array([1.0, 0.0, 0.0])  # a (3,) operand broadcast, as `_onb` has
    for x, y in [(a, b), (channel_major(a), channel_major(b)), (channel_major(a), b),
                 (a, helper), (channel_major(a), helper)]:
        got = render._cross(x, y)
        want = np.cross(x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got[..., 0].flags.c_contiguous  # channel-major
    assert np.signbit(np.cross(a, b).reshape(-1, 3)[:6]).any()  # signed zeros exercised


def test_boundary_arrays_are_c_contiguous():
    # channel-major stays inside the renderer; consumers such as luma's `@`
    # see C order
    scene = _scene("breakfast-lite", width=12, height=10, movement="camera", roughness=0.1)
    gbuf, shadow, spec = render_frame(scene, 2, spp=2, seed=1,
                                      prefiltered=prefilter_env(scene.env, 3))
    arrays = {f.name: getattr(gbuf, f.name) for f in fields(gbuf)}
    arrays.update(shadow=shadow.data, specular=spec.data, sky=render_sky(scene, 2),
                  **dict(zip(("origins", "dirs"), camera_rays(scene, 2))))
    for name, arr in arrays.items():
        assert arr.flags.c_contiguous, name


def test_lengths_match_linalg_norm():
    rs = np.random.default_rng(8)
    v = rs.normal(size=(64, 3)) * np.exp(rs.uniform(-30.0, 30.0, (64, 1)))
    v[:4] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 2.0, 0.0], [1e-200, -0.0, 1e-200]]
    cases = [v, v.reshape(8, 8, 3), np.array([3.0, -4.0, -0.0]),
             np.broadcast_to(np.array([0.5, -1.5, 2.5]), (5, 3)),
             np.array([1.0, 2.0, 0.0]) - v]  # a (3,) operand broadcast, as the light sites do
    for x in cases:
        want = np.linalg.norm(x, axis=-1)
        assert render._length(x).tobytes() == want.tobytes()
        unit = x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
        got = render._normalize(x)
        assert got.shape == unit.shape and got.tobytes() == unit.tobytes()


# ---------------------------------------------------------------------------
# umbra: occluder blocks the entire light sphere (verified by brute force)

def _segment_hits_sphere(p0, p1, center, radius):
    # independent closed-form segment/sphere test
    d = p1 - p0
    f = p0 - center
    a = d @ d
    b = 2 * (f @ d)
    c = f @ f - radius * radius
    disc = b * b - 4 * a * c
    if disc < 0:
        return False
    sq = math.sqrt(disc)
    for t in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)):
        if 1e-6 < t < 1.0:
            return True
    return False


def test_full_umbra_is_black():
    doc = {
        "name": "umbra", "resolution": [9, 9],
        "camera": {"position": [0.0, 3.0, 6.0], "look_at": [0.0, 0.0, 0.0],
                   "vfov_deg": 30.0},
        "objects": [{"type": "sphere", "center": [0.0, 4.0, 0.0], "radius": 2.0,
                     "albedo": [0.5, 0.5, 0.5], "roughness": 0.8, "id": 2}],
        "ground": {"height": 0.0, "albedo": [0.5, 0.5, 0.5], "roughness": 0.9, "id": 1},
        "light": {"center": [0.0, 10.0, 0.0], "radius": 0.5,
                  "intensity": [50.0, 50.0, 50.0]},
        "env": {"kind": "constant", "value": [0.2, 0.2, 0.2]},
    }
    scene = scene_from_dict(doc)
    gbuf, shadow, _spec = render_frame(scene, 0, spp=8, seed=3)

    # reconstruct the center pixel's hit point and verify full containment
    origins, dirs = camera_rays(scene, 0)
    _pos, fwd, _r, _u, _t = camera_basis(scene, 0)
    y, x = 4, 4
    assert gbuf.object_id[y, x] == 1  # ground under the occluder
    t = gbuf.depth[y, x] / (dirs[y, x] @ fwd)
    p = origins[y, x] + dirs[y, x] * t
    light_c = np.array([0.0, 10.0, 0.0])
    occ_c = np.array([0.0, 4.0, 0.0])
    rs = np.random.default_rng(0)
    for _ in range(4000):
        v = rs.normal(size=3)
        lp = light_c + 0.5 * v / np.linalg.norm(v)
        assert _segment_hits_sphere(p, lp, occ_c, 2.0)
    assert shadow.data[y, x] == 0.0


# ---------------------------------------------------------------------------
# reference estimator

def test_reference_bernoulli_consistency():
    scene = _scene(width=16, height=16, shadow_angle=8.0)
    a = render_frame(scene, 0, REFERENCE_SPP, 0)[1].data
    b = render_frame(scene, 0, REFERENCE_SPP, 1)[1].data
    # each pixel is a mean of 1024 Bernoulli draws: SE <= 0.5/sqrt(1024)
    assert np.abs(a - b).max() < 0.1
    assert np.abs(a - b).mean() < 0.02


def test_reference_equals_mean_of_subseeded_renders():
    scene = _scene("cubes-distance", width=8, height=8, roughness=0.4,
                   shadow_angle=6.0)
    n = 1024
    ref_g, ref_shadow, ref_spec = render_frame(scene, 0, spp=n, seed=5)
    acc_s = np.zeros((8, 8), dtype=np.float64)
    acc_c = np.zeros((8, 8, 3), dtype=np.float64)
    for s in range(n):
        _g, sh, sp = render_frame(scene, 0, spp=1, seed=5, sample_offset=s)
        acc_s += sh.data
        acc_c += sp.data
    assert np.allclose(acc_s / n, ref_shadow.data, atol=1e-5)
    assert np.allclose(acc_c / n, ref_spec.data, atol=1e-4)


def test_point_light_reference_equals_1spp():
    doc = preset_scene("shadow-objects", width=12, height=12)
    doc["light"]["radius"] = 0.0
    del doc["shadow_angle_deg"]
    scene = scene_from_dict(doc)
    one = render_frame(scene, 0, spp=1, seed=4)[1].data
    ref = render_frame(scene, 0, spp=64, seed=4)[1].data
    assert np.array_equal(one, ref)


def test_unbiased_at_probe_pixel():
    scene = _scene(width=16, height=16, shadow_angle=10.0)
    ref = render_frame(scene, 0, REFERENCE_SPP, 100)[1].data
    probes = np.argwhere((ref > 0.15) & (ref < 0.85))
    assert len(probes) > 0  # the wide penumbra must be visible
    y, x = probes[len(probes) // 2]
    vals = np.array([render_frame(scene, 0, spp=1, seed=s)[1].data[y, x]
                     for s in range(256)])
    p = vals.mean()
    se = max(vals.std(ddof=1) / 16.0, 1e-3)
    assert abs(p - ref[y, x]) < 4 * se + 0.016  # + ref's own standard error


# ---------------------------------------------------------------------------
# motion vectors

def test_static_scene_motion_exact_zero():
    scene = _scene("cubes-distance", width=20, height=20)
    gbuf, _s, _c = render_frame(scene, 3, spp=1, seed=0)
    assert np.all(gbuf.motion == 0.0)


def test_camera_translation_recovers_previous_ids():
    # flat wall filling the view; camera trucks sideways by one pixel of
    # parallax between frames
    h = w = 48
    dist = 4.0
    vfov = 45.0
    px_world = 2 * dist * math.tan(math.radians(vfov) / 2) / h
    doc = {
        "name": "wall", "resolution": [w, h],
        "camera": {"position": {"keyframes": [[0, [0.0, 1.0, 4.0]],
                                              [1, [px_world, 1.0, 4.0]]]},
                   "look_at": {"keyframes": [[0, [0.0, 1.0, 0.0]],
                                             [1, [px_world, 1.0, 0.0]]]},
                   "vfov_deg": vfov},
        "objects": [{"type": "box", "min": [-20.0, -20.0, -0.5], "max": [20.0, 20.0, 0.0],
                     "albedo": [0.6, 0.6, 0.6], "roughness": 0.5, "id": 2}],
        "ground": None,
        "light": {"center": [0.0, 5.0, 5.0], "radius": 0.2, "intensity": [40.0, 40.0, 40.0]},
        "env": {"kind": "constant", "value": [0.3, 0.3, 0.3]},
    }
    scene = scene_from_dict(doc)
    g0 = render_frame(scene, 0, spp=1, seed=0)[0]
    g1 = render_frame(scene, 1, spp=1, seed=0)[0]
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    px = np.rint(xs + g1.motion[:, :, 0]).astype(int)
    py = np.rint(ys + g1.motion[:, :, 1]).astype(int)
    interior = np.zeros((h, w), dtype=bool)
    interior[2:-2, 2:-2] = True
    ok = interior & (px >= 0) & (px < w) & (py >= 0) & (py < h)
    match = g0.object_id[py[ok], px[ok]] == g1.object_id[ok]
    assert match.mean() >= 0.99
    # camera moved right, so each point sat one pixel to the right in the
    # previous frame: motion (current -> previous) is about +1 pixel in x
    assert abs(np.median(g1.motion[interior][:, 0]) - 1.0) < 0.1

