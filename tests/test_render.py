import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rtdenoise import render, rng, scenes
from rtdenoise.envmap import lobe_exponent, prefilter_env, sample_latlong
from rtdenoise.frames import validate_frame
from rtdenoise.pfm import write_pfm
from rtdenoise.render import (REFERENCE_SPP, camera_rays, occluded, render_frame, render_sky,
                              trace_nearest)
from rtdenoise.scenes import MOVEMENTS, PRESET_NAMES, preset_scene, scene_from_dict
from rtdenoise.stencil import channel_major, dot3, length, normalize


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


def test_scene_rejects_light_radius_and_shadow_angle_together():
    doc = preset_scene("shadow-objects", width=24, height=24, shadow_angle=4.0)
    doc["light"]["radius"] = 2.0
    with pytest.raises(ValueError, match="light.radius and shadow_angle_deg both given"):
        scene_from_dict(doc)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -1.0, 180.0, 200.0])
def test_scene_rejects_shadow_angle_out_of_range(angle):
    doc = preset_scene("shadow-objects", width=24, height=24)
    doc["shadow_angle_deg"] = angle
    with pytest.raises(ValueError, match=r"shadow_angle_deg .* outside \[0, 180\)"):
        scene_from_dict(doc)
    # the preset checks its own document
    with pytest.raises(ValueError, match=r"shadow_angle_deg .* outside \[0, 180\)"):
        preset_scene("shadow-objects", width=24, height=24, shadow_angle=angle)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -0.5])
def test_scene_rejects_light_radius_out_of_range(radius):
    doc = preset_scene("shadow-objects", width=24, height=24)
    del doc["shadow_angle_deg"]
    doc["light"]["radius"] = radius
    with pytest.raises(ValueError, match="light.radius .* must be finite and >= 0"):
        scene_from_dict(doc)


@pytest.mark.parametrize("res", [[0, 24], [24, -1], [24.0, 24], [True, 24], [24], "24"])
def test_scene_rejects_resolution_not_two_positive_integers(res):
    doc = preset_scene("shadow-objects", width=24, height=24)
    doc["resolution"] = res
    with pytest.raises(ValueError, match="resolution .* is not two positive integers"):
        scene_from_dict(doc)


def _set(path, value):
    """Edit that sets the document field at `path`, a tuple of keys."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


# (edit of a 16x16 shadow-objects document, the field its message names)
_BAD_SCENES = {
    "look_at at position": (_set(("camera", "look_at"), [0, 4.2, 7.5]), "camera.look_at"),
    "up zero": (_set(("camera", "up"), [0, 0, 0]), "camera.up"),
    "up along view": (_set(("camera", "up"), [0.0, -3.4, -8.0]), "camera.up"),
    "vfov 0": (_set(("camera", "vfov_deg"), 0.0), "camera.vfov_deg"),
    "vfov nan": (_set(("camera", "vfov_deg"), math.nan), "camera.vfov_deg"),
    "vfov 180": (_set(("camera", "vfov_deg"), 180.0), "camera.vfov_deg"),
    "position keyframe of 2": (_set(("camera", "position"), {"keyframes": [
        [0, [0, 4.2, 7.5]], [4, [0, 4.2]]]}), "camera.position.keyframes[1]"),
    "radius nan": (_set(("objects", 0, "radius"), math.nan), "objects[0].radius"),
    "radius negative": (_set(("objects", 0, "radius"), -1.0), "objects[0].radius"),
    "env constant nan": (_set(("env",), {"kind": "constant", "value": math.nan}), "env.value"),
    "env constant negative": (_set(("env",), {"kind": "constant", "value": -0.5}),
                              "env.value"),
    "env scale negative": (_set(("env", "scale"), -1.0), "env.scale"),
    "env sun inf": (_set(("env", "sun_intensity"), [math.inf, 1.0, 1.0]),
                    "env.sun_intensity"),
    "intensity nan": (_set(("light", "intensity"), [math.nan, 1.0, 1.0]), "light.intensity"),
    "intensity negative": (_set(("light", "intensity"), [75.0, -1.0, 70.0]),
                           "light.intensity"),
    "center of 2": (_set(("light", "center"), [2.8, 7.5]), "light.center"),
    "albedo nan": (_set(("objects", 1, "albedo"), [math.nan, 0.5, 0.5]), "objects[1].albedo"),
    "emissive negative": (_set(("objects", 2, "emissive"), [0.0, -1.0, 0.0]),
                          "objects[2].emissive"),
    "ground albedo of 2": (_set(("ground", "albedo"), [0.5, 0.5]), "ground.albedo"),
    "roughness 2": (_set(("objects", 0, "roughness"), 2.0), "objects[0].roughness"),
    "roughness nan": (_set(("objects", 0, "roughness"), math.nan), "objects[0].roughness"),
    "ground height nan": (_set(("ground", "height"), math.nan), "ground.height"),
    "box min above max": (_set(("objects", 1, "min"), [1.8, 0.9, -0.3]), "objects[1].min"),
    "sun dir zero": (_set(("env", "sun_dir"), [0, 0, 0]), "env.sun_dir"),
    "intensity not numeric": (_set(("light", "intensity"), "bright"), "light.intensity"),
    "vfov not numeric": (_set(("camera", "vfov_deg"), "wide"), "camera.vfov_deg"),
    "vfov beyond float": (_set(("camera", "vfov_deg"), 10**400), "camera.vfov_deg"),
    "center without keyframes": (_set(("light", "center"), {"keyframes": []}),
                                 "light.center.keyframes"),
    **{f"keyframe frame {frame!r}": (_set(("light", "center"), {"keyframes": [
        [frame, [2.8, 7.5, 0.0]], [10, [2.8, 7.5, 1.0]]]}), "light.center.keyframes[0]")
       for frame in (2.5, "x", "3", math.nan, math.inf, True, None, [1])},
    "keyframe frame beyond float": (_set(("light", "center"), {"keyframes": [
        [10**400, [2.8, 7.5, 0.0]], [10, [2.8, 7.5, 1.0]]]}), "light.center.keyframes[0]"),
    **{f"keyframe entry {entry!r}": (_set(("objects", 0, "motion"), {"keyframes": [
        [0, [0.0, 0.0, 0.0]], entry]}), "objects[0].motion.keyframes[1]")
       for entry in ([5], [5, [0.0, 0.0, 0.0], 1], 5, {"5": [0.0, 0.0, 0.0]})},
    **{f"frame_count {count!r}": (_set(("frame_count",), count), "frame_count")
       for count in ("8", 2.5, 8.0, 0, -1, True)},
}


@pytest.mark.parametrize("case", list(_BAD_SCENES))
def test_scene_rejects_invalid_value_naming_the_field(case):
    edit, field = _BAD_SCENES[case]
    doc = preset_scene("shadow-objects", width=16, height=16)
    edit(doc)
    with pytest.raises(ValueError, match="^" + re.escape(field) + " "):
        scene_from_dict(doc)


def _drop(path):
    """Edit that deletes the document field at `path`, a tuple of keys."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return edit


def _light_radius(value):
    """Edit that sizes the light by `light.radius` = `value`, not the shadow angle."""
    def edit(doc):
        del doc["shadow_angle_deg"]
        doc["light"]["radius"] = value
    return edit


# (edit of a 16x16 shadow-objects document, the message it raises): a field
# that is missing, shown as None, of the wrong type or empty
_BAD_FIELDS = {
    "camera missing": (_drop(("camera",)), "camera None is not an object"),
    "camera look_at missing": (_drop(("camera", "look_at")),
                               "camera.look_at None is not 3 finite numbers"),
    "object id missing": (_drop(("objects", 0, "id")),
                          "objects[0].id None is not a positive integer"),
    "object radius missing": (_drop(("objects", 0, "radius")),
                              "objects[0].radius None is not finite and > 0"),
    "light intensity missing": (_drop(("light", "intensity")),
                                "light.intensity None is not 3 finite non-negative numbers"),
    "ground id missing": (_drop(("ground", "id")), "ground.id None is not a positive integer"),
    "keyframes missing": (_set(("light", "center"), {"frames": []}),
                          "light.center.keyframes None is not a non-empty list"),
    "env path missing": (_set(("env",), {"kind": "file"}), "env.path None is not a path"),
    "objects not a list": (_set(("objects",), 3), "objects 3 is not a non-empty list"),
    "no objects": (_set(("objects",), []), "objects [] is not a non-empty list"),
    "object not an object": (_set(("objects", 0), 5), "objects[0] 5 is not an object"),
    "ground not an object": (_set(("ground",), 5), "ground 5 is not an object"),
    "object type missing": (_drop(("objects", 0, "type")),
                            "objects[0].type None is not 'sphere' or 'box'"),
    "object type cone": (_set(("objects", 0, "type"), "cone"),
                         "objects[0].type 'cone' is not 'sphere' or 'box'"),
    "keyframes not a list": (_set(("light", "center"), {"keyframes": 3}),
                             "light.center.keyframes 3 is not a non-empty list"),
    "object id 2.5": (_set(("objects", 0, "id"), 2.5),
                      "objects[0].id 2.5 is not a positive integer"),
    "object id 0": (_set(("objects", 0, "id"), 0), "objects[0].id 0 is not a positive integer"),
    "object id true": (_set(("objects", 1, "id"), True),
                       "objects[1].id True is not a positive integer"),
    "ground id 1.9": (_set(("ground", "id"), 1.9), "ground.id 1.9 is not a positive integer"),
    "env not an object": (_set(("env",), 5), "env 5 is not an object"),
    **{f"env {kind} {key} {value!r}": (_set(("env",), {"kind": kind, key: value}),
                                       f"env.{key} {value!r} is not a positive integer")
       for kind in ("constant", "gradient") for key in ("width", "height")
       for value in (2.5, True, 0, "16", None)},
    "env scale 'x'": (_set(("env", "scale"), "x"), "env.scale 'x' is not finite and >= 0"),
    "env scale inf": (_set(("env", "scale"), math.inf), "env.scale inf is not finite and >= 0"),
    "env sun_cos [1, 2]": (_set(("env", "sun_cos"), [1, 2]), "env.sun_cos [1, 2] is not finite"),
    "env sun_cos nan": (_set(("env", "sun_cos"), math.nan), "env.sun_cos nan is not finite"),
    "env value [1, 2]": (_set(("env",), {"kind": "constant", "value": [1, 2]}),
                         "env.value [1, 2] is not 3 finite non-negative numbers"),
    "env value 'x'": (_set(("env",), {"kind": "constant", "value": "x"}),
                      "env.value 'x' is not finite and >= 0"),
    "env value [1, -1, 1]": (_set(("env",), {"kind": "constant", "value": [1, -1, 1]}),
                             "env.value [1, -1, 1] is not 3 finite non-negative numbers"),
    **{f"light radius {radius!r}": (_light_radius(radius),
                                    f"light.radius {radius!r} must be finite and >= 0")
       for radius in ("big", "1", [1], True)},
    **{f"shadow angle {angle!r}": (_set(("shadow_angle_deg",), angle),
                                   f"shadow_angle_deg {angle!r} outside [0, 180)")
       for angle in ("x", "4", [4.0], True)},
}


@pytest.mark.parametrize("case", list(_BAD_FIELDS))
def test_scene_rejects_missing_or_mistyped_field_naming_it(case):
    edit, message = _BAD_FIELDS[case]
    doc = preset_scene("shadow-objects", width=16, height=16)
    assert [o["id"] for o in doc["objects"]][:2] == [2, 3] and doc["ground"]["id"] == 1
    edit(doc)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        scene_from_dict(doc)


# (edit of a 16x16 shadow-objects document, the whole message it raises)
_BAD_SCENE_MESSAGES = {
    "duplicate ids": (_set(("objects", 1, "id"), 2), "object ids must be unique"),
    "duplicate ground id": (_set(("ground", "id"), 3), "object ids must be unique"),
    # a frame stores ids as float32, where 2^24 + 1 reads as 2^24; 2^31 used
    # to end rendering with a bare OverflowError
    "id above 2^24": (_set(("objects", 1, "id"), 2**24 + 1),
                      "objects[1].id 16777217 is above 16777216, the largest id a frame "
                      "stores exactly"),
    "ground id 2^31": (_set(("ground", "id"), 2**31),
                       "ground.id 2147483648 is above 16777216, the largest id a frame "
                       "stores exactly"),
    "env 4x4": (_set(("env",), {"kind": "constant", "value": 0.5, "width": 4, "height": 4}),
                "env map must be at least 8x4"),
    "env kind": (_set(("env",), {"kind": "cube"}), "unknown env map kind 'cube'"),
    # 16 texels over the cap: were it not checked, the map would take ~25 MB
    **{f"env {kind} over the cap": (_set(("env",), {"kind": kind, "width": 65537, "height": 16}),
                                    "env map 65537x16 has more than 1048576 texels")
       for kind in ("constant", "gradient")},
    "no light size": (_set(("shadow_angle_deg",), None),
                      "light needs either a radius or a scene shadow_angle_deg"),
}


@pytest.mark.parametrize("width,height", [(1025, 1024), (10**9, 16), (1, 2**20 + 1)])
def test_env_size_over_the_cap_is_rejected_by_the_check_alone(width, height):
    scenes._check_env_size(1024, 1024)  # 2^20 texels pass
    with pytest.raises(ValueError, match=f"^env map {width}x{height} has more than 1048576 "):
        scenes._check_env_size(width, height)


@pytest.mark.parametrize("case", list(_BAD_SCENE_MESSAGES))
def test_scene_rejects_invalid_document(case):
    edit, message = _BAD_SCENE_MESSAGES[case]
    doc = preset_scene("shadow-objects", width=16, height=16)
    assert [o["id"] for o in doc["objects"]][:2] == [2, 3]
    edit(doc)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        scene_from_dict(doc)


def test_scene_takes_tuples_where_it_takes_lists():
    doc = preset_scene("shadow-objects", width=16, height=16, movement="light-teleport")
    want = scene_from_dict(doc)
    doc["objects"] = tuple(doc["objects"])
    doc["light"]["center"]["keyframes"] = tuple(doc["light"]["center"]["keyframes"])
    got = scene_from_dict(doc)
    assert [o.oid for o in got.objects] == [o.oid for o in want.objects]
    assert repr(got.light.center_kf) == repr(want.light.center_kf)


def test_keyframe_repeated_frame_takes_the_segment_that_ends_there():
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["light"]["center"] = {"keyframes": [[0, [0.0] * 3], [5, [0.1] * 3], [5, [0.7] * 3],
                                            [10, [1.0] * 3]]}
    light = scene_from_dict(doc).light
    assert light.center_at(5).tobytes() == np.full(3, 0.1).tobytes()
    assert light.center_at(7.5).tobytes() == np.full(3, 0.7 + 0.5 * (1.0 - 0.7)).tobytes()


def test_keyframe_frame_may_be_an_integral_float():
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["light"]["center"] = {"keyframes": [[4.0, [1.0] * 3], [0, [0.0] * 3]]}
    center_kf = scene_from_dict(doc).light.center_kf
    assert [(type(f), f) for f, _v in center_kf] == [(int, 0), (int, 4)]


def test_preset_scene_rejects_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown preset 'kitchen'; have cubes-distance, "):
        preset_scene("kitchen")


def test_render_frame_rejects_frame_past_the_animation():
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["frame_count"] = 2
    scene = scene_from_dict(doc)
    render_frame(scene, 1, spp=1, seed=0)
    with pytest.raises(ValueError, match="^frame 2 beyond scene animation length 2$"):
        render_frame(scene, 2, spp=1, seed=0)


@pytest.mark.parametrize("name,movement", [("cubes-distance", "camrea"),
                                           ("pillars", "camera")])
def test_preset_scene_rejects_unavailable_movement(name, movement):
    with pytest.raises(ValueError, match=f"movement '{movement}'.*'{name}'"):
        preset_scene(name, movement=movement)


@pytest.mark.parametrize("name", ["shadow-objects", "pillars"])
def test_preset_scene_rejects_roughness_of_fixed_materials(name):
    # these presets' materials are fixed, so a roughness would be ignored
    with pytest.raises(ValueError, match=f"preset '{name}' has fixed materials"):
        preset_scene(name, roughness=0.9)


@pytest.mark.parametrize("movement", [m for m in MOVEMENTS if m != "light-teleport"])
def test_preset_scene_rejects_teleport_frame_without_teleport(movement):
    # only the teleport reads the frame, so elsewhere it would be ignored
    with pytest.raises(ValueError, match=f"movement '{movement}' has no teleport"):
        preset_scene("cubes-distance", movement=movement, teleport_frame=5)


def test_preset_scene_teleport_frame_defaults_to_32():
    doc = preset_scene("shadow-objects", movement="light-teleport")
    assert doc == preset_scene("shadow-objects", movement="light-teleport", teleport_frame=32)
    assert _keyframes(doc["light"]["center"]) == [31, 32]


@pytest.mark.parametrize("frame", [0, -3, True, 2.0, "5"])
def test_preset_scene_rejects_a_teleport_frame_that_is_no_positive_int(frame):
    # the light's path runs from frame teleport_frame - 1, so below 1 the
    # light stands where it jumps to from frame 0 on: no teleport at all
    with pytest.raises(ValueError, match="^" + re.escape(
            f"teleport_frame {frame!r} is not a positive integer") + "$"):
        preset_scene("shadow-objects", width=16, height=16, movement="light-teleport",
                     teleport_frame=frame)


def test_preset_scene_teleport_frame_1_jumps_after_frame_0():
    doc = preset_scene("shadow-objects", width=16, height=16, movement="light-teleport",
                       teleport_frame=np.int64(1))
    light = scene_from_dict(doc).light
    assert not np.array_equal(light.center_at(0), light.center_at(1))
    assert np.array_equal(light.center_at(1), light.center_at(2))


@pytest.mark.parametrize("name", ["cubes-distance", "breakfast-lite"])
def test_preset_scene_roughness_defaults_to_0_3(name):
    assert preset_scene(name) == preset_scene(name, roughness=0.3)
    assert preset_scene(name) != preset_scene(name, roughness=0.9)


def _file_env_scene(path, img):
    write_pfm(path, img)
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["env"] = {"kind": "file", "path": str(path)}
    return scene_from_dict(doc)


def test_file_env_one_channel_repeated_to_rgb(tmp_path):
    img = np.random.default_rng(21).random((8, 16)).astype(np.float32)
    env = _file_env_scene(tmp_path / "env.pfm", img).env
    assert env.shape == (8, 16, 3) and env.dtype == np.float64
    for k in range(3):
        assert np.array_equal(env[..., k], img)


def test_file_env_three_channels_load_unchanged(tmp_path):
    img = np.random.default_rng(22).random((8, 16, 3)).astype(np.float32)
    env = _file_env_scene(tmp_path / "env.pfm", img).env
    assert env.dtype == np.float64 and np.array_equal(env, img)


def test_file_env_negative_texel_rejected(tmp_path):
    img = np.full((8, 16, 3), 0.5, dtype=np.float32)
    img[2, 5, 1] = -0.25
    with pytest.raises(ValueError, match=r"^env radiance at texel \(5, 2\) "):
        _file_env_scene(tmp_path / "env.pfm", img)


def test_file_env_relative_path_resolves_against_working_directory(tmp_path, monkeypatch):
    img = np.random.default_rng(23).random((8, 16, 3)).astype(np.float32)
    (tmp_path / "maps").mkdir()
    write_pfm(tmp_path / "maps" / "env.pfm", img)
    monkeypatch.chdir(tmp_path)
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["env"] = {"kind": "file", "path": "maps/env.pfm"}
    assert np.array_equal(scene_from_dict(doc).env, img)


def _keyframes(value):
    return [f for f, _v in value["keyframes"]] if isinstance(value, dict) else None


@pytest.mark.parametrize("name,movement", [(n, m) for n in PRESET_NAMES for m in MOVEMENTS
                                           if (n, m) != ("pillars", "camera")])
def test_movement_matrix(name, movement):
    # every preset follows the one movement rule; pillars has no moving object
    teleport = {"teleport_frame": 5} if movement == "light-teleport" else {}
    doc = preset_scene(name, movement=movement, **teleport)
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


@pytest.mark.parametrize("spp", [0, -2, True, 2.5, 1.0])
def test_render_frame_rejects_spp_below_one(spp):
    # spp = 0 would divide the sample sums by zero into all-NaN channels; a
    # bool or a float is no count
    with pytest.raises(ValueError, match="^" + re.escape(
            f"spp must be an integer >= 1, got {spp!r}") + "$"):
        render_frame(_scene(width=8, height=8), 0, spp, seed=0)


@pytest.mark.parametrize("name", ["frame_index", "sample_offset"])
@pytest.mark.parametrize("value", [1.5, 1.0, True, False, -1, np.float64(2.0)])
def test_render_frame_rejects_an_index_that_is_no_int_at_least_0(monkeypatch, name, value):
    # frame 1.5 would place the geometry between frames while the RNG keys on
    # frame 1, and a reference at sample offset -1 would reuse the sample 0 of
    # the input it grades
    scene = _scene("shadow-objects", width=16, height=16, movement="lights-objects")
    monkeypatch.setattr(render, "trace_nearest", None)  # nothing may be traced
    monkeypatch.setattr(render, "camera_rays", None)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer >= 0, got {value!r}") + "$"):
        render_frame(scene, **{"frame_index": 1, "sample_offset": 0, name: value},
                     spp=1, seed=0)


def test_render_frame_takes_numpy_integer_indices():
    scene = _scene("shadow-objects", width=8, height=8, movement="lights-objects")
    want = render_frame(scene, 1, spp=1, seed=3, sample_offset=2)
    got = render_frame(scene, np.int64(1), spp=1, seed=3, sample_offset=np.int32(2))
    for a, b in zip(_frame_dict(*want).values(), _frame_dict(*got).values()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [2.5, True])
def test_render_frame_rejects_a_seed_that_is_no_int(monkeypatch, seed):
    monkeypatch.setattr(render, "trace_nearest", None)  # nothing may be traced
    with pytest.raises(ValueError, match="^" + re.escape(
            f"seed must be an integer, got {seed!r}") + "$"):
        render_frame(_scene(width=8, height=8), 0, spp=1, seed=seed)


# ---------------------------------------------------------------------------
# the sample loop traces only the foreground pixels and split each bounce

def _full_frame_channels(scene, frame, spp, seed, prefiltered=None, sample_offset=0):
    # reference: the sample loops over every pixel, each bounce shaded both
    # ways and one of the two kept
    h, w = scene.height, scene.width
    origins, dirs = (channel_major(a) for a in camera_rays(scene, frame)[:2])
    t, oid, normal, _alb, rough, _emis = trace_nearest(origins, dirs, scene, frame)
    fg = oid != 0
    origin = origins + dirs * np.where(fg, t, 0.0)[..., None] + normal * render._EPS
    key = rng.pixel_key(seed, frame, np.arange(w)[None, :], np.arange(h)[:, None])
    light_c = scene.light.center_at(frame)
    samples = range(sample_offset, sample_offset + spp)
    visible = np.zeros((h, w))
    for s in samples:
        point = light_c + scene.light.radius * render._sphere_point(
            rng.sample_uniform(key, s, 0), rng.sample_uniform(key, s, 1))
        to_l = point - origin
        dist = length(to_l)
        ldir = to_l / np.maximum(dist, 1e-12)[..., None]
        visible += 1.0 - occluded(origin, ldir, dist - render._EPS, scene, frame)
    mirror = dirs - 2.0 * dot3(dirs, normal)[..., None] * normal
    mirror = np.where(fg[..., None], normalize(mirror), dirs)
    exponent = lobe_exponent(rough)
    is_mirror = ~(exponent < np.inf)
    onb = render._onb(mirror)
    power = 1.0 / (np.where(is_mirror, 1.0, exponent) + 1.0)
    spec = np.zeros((h, w, 3))
    for s in samples:
        lobe = render._phong_lobe(mirror, onb, power, rng.sample_uniform(key, s, 2),
                                  rng.sample_uniform(key, s, 3))
        lobe = np.where(is_mirror[..., None], mirror, lobe)
        t2, oid2, n2, alb2, rough2, emis2 = trace_nearest(origin, lobe, scene, frame)
        hit2 = oid2 != 0
        p2 = origin + lobe * np.where(hit2, t2, 0.0)[..., None]
        lit = render._direct_at(p2, n2, alb2, emis2, scene, frame, light_c)
        if prefiltered is not None:
            refl2 = lobe - 2.0 * dot3(lobe, n2)[..., None] * n2
            lit = lit + alb2 * prefiltered.sample(normalize(refl2), rough2)
        radiance = np.where(hit2[..., None], lit, sample_latlong(scene.env, lobe))
        spec += radiance * (dot3(lobe, normal) > 0.0)[..., None]
    return (np.where(fg, visible / spp, 1.0).astype(np.float32),
            np.where(fg[..., None], spec / spp, 0.0).astype(np.float32))


@pytest.mark.parametrize("name,kw,ibl", [
    ("cubes-distance", {"movement": "camera"}, False),
    ("cubes-distance", {"movement": "camera", "roughness": 0.0}, True),
    ("breakfast-lite", {"movement": "lights-objects", "roughness": 0.1}, True),
    ("pillars", {"movement": "lights-objects"}, False),
])
def test_compacted_loops_match_full_frame(name, kw, ibl):
    scene = _scene(name, width=24, height=20, **kw)
    pre = prefilter_env(scene.env, 3) if ibl else None
    gbuf, shadow, spec = render_frame(scene, 5, spp=3, seed=2, prefiltered=pre,
                                      sample_offset=1)
    assert 0 < np.count_nonzero(gbuf.object_id) < gbuf.object_id.size  # sky and geometry
    want_shadow, want_spec = _full_frame_channels(scene, 5, 3, 2, pre, sample_offset=1)
    assert shadow.data.tobytes() == want_shadow.tobytes()
    assert spec.data.tobytes() == want_spec.tobytes()


def _spy(monkeypatch, name, calls):
    # wrap a module-level query; render_frame looks it up at every call
    query = getattr(render, name)

    def spied(origins, *args):
        out = query(origins, *args)
        calls.append((name, origins.shape[:-1], out))
        return out

    monkeypatch.setattr(render, name, spied)


def test_rays_traced_only_where_kept(monkeypatch):
    # shadow rays and bounces at the foreground pixels, a bounce's direct
    # light only at that sample's bounce hits
    scene = _scene("cubes-distance", width=24, height=20, movement="camera")
    calls = []
    _spy(monkeypatch, "trace_nearest", calls)
    _spy(monkeypatch, "occluded", calls)
    spp = 4
    gbuf, _shadow, _spec = render_frame(scene, 5, spp=spp, seed=2)
    n_fg = np.count_nonzero(gbuf.object_id)
    assert 0 < n_fg < 24 * 20
    assert (calls[0][0], calls[0][1]) == ("trace_nearest", (20, 24))
    # per sample: its shadow ray, its bounce, then the bounce hits' direct light
    rest = iter(calls[1:])
    hits = []
    for name, shape, _out in rest:
        assert name == "occluded" and shape == (n_fg,)
        name, shape, out = next(rest)
        assert name == "trace_nearest" and shape == (n_fg,)
        hits.append(np.count_nonzero(out[1]))
        name, shape, _out = next(rest)
        assert name == "occluded" and shape == (hits[-1],)
    assert len(hits) == spp
    assert all(0 < n < n_fg for n in hits)  # bounces both hit and miss


def test_all_sky_frame():
    # no foreground pixel: the sample loop traces nothing and warns of nothing
    doc = {"name": "sky", "resolution": [10, 8],
           "camera": {"position": [0.0, 1.0, 0.0], "look_at": [0.0, 2.0, -1.0],
                      "vfov_deg": 50.0},
           "objects": [{"type": "sphere", "center": [0.0, -4.0, 4.0], "radius": 1.0,
                        "id": 2}],  # behind the camera
           "ground": None,
           "light": {"center": [0.0, 8.0, 0.0], "radius": 0.5,
                     "intensity": [30.0, 30.0, 30.0]},
           "env": {"kind": "gradient"}}
    scene = scene_from_dict(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gbuf, shadow, spec = render_frame(scene, 0, spp=2, seed=1,
                                          prefiltered=prefilter_env(scene.env, 3))
    assert not np.any(gbuf.object_id)
    assert shadow.data.shape == (8, 10) and np.all(shadow.data == 1.0)
    assert spec.data.shape == (8, 10, 3) and np.all(spec.data == 0.0)
    assert not np.signbit(spec.data).any()
    assert shadow.data.flags.c_contiguous and spec.data.flags.c_contiguous


def test_frame_whose_bounces_all_miss(monkeypatch):
    # a mirror ground seen from above, its one sphere hidden below it: every
    # primary ray hits the ground and every bounce leaves to the sky, so each
    # query on the bounce hits, IBL's lookup among them, runs on no ray
    doc = {"name": "mirror-floor", "resolution": [24, 24],
           "camera": {"position": [0.0, 6.0, 0.0], "look_at": [0.3, 0.0, -0.4],
                      "vfov_deg": 40.0},
           "objects": [{"type": "sphere", "center": [0.0, -50.0, 0.0], "radius": 1.0,
                        "id": 2}],
           "ground": {"height": 0.0, "albedo": [0.5, 0.5, 0.5], "roughness": 0.0, "id": 1},
           "light": {"center": [0.0, 8.0, 0.0], "radius": 0.5,
                     "intensity": [30.0, 30.0, 30.0]},
           "env": {"kind": "gradient"}}
    scene = scene_from_dict(doc)
    calls = []
    _spy(monkeypatch, "trace_nearest", calls)
    gbuf, _shadow, spec = render_frame(scene, 0, spp=1, seed=4,
                                       prefiltered=prefilter_env(scene.env, 3))
    hit_counts = [np.count_nonzero(out[1]) for _name, _shape, out in calls]
    assert hit_counts == [24 * 24, 0]  # the primary rays, then the one bounce
    assert np.all(gbuf.object_id == 1)
    _origins, dirs, _cos = camera_rays(scene, 0)
    up = np.array([0.0, 1.0, 0.0])
    mirror = normalize(dirs - 2.0 * dot3(dirs, up)[..., None] * up)
    want = sample_latlong(scene.env, mirror).astype(np.float32)
    assert spec.data.tobytes() == want.tobytes()


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
                  **dict(zip(("origins", "dirs", "cos"), camera_rays(scene, 2), strict=True)))
    for name, arr in arrays.items():
        assert arr.flags.c_contiguous, name


def test_camera_rays_carry_their_view_cosine():
    # the factor between ray distance and depth, taken on the C-order rays
    scene = _scene("cubes-distance", width=12, height=10, movement="camera")
    _origins, dirs, cos = camera_rays(scene, 3)
    _pos, fwd, _r, _u, _t = scene.camera_at(3)
    assert cos.shape == (10, 12)
    assert cos.tobytes() == (dirs @ fwd).tobytes()


def test_masked_sky_keeps_each_pixels_bits():
    # the sky under the geometry is never shown, so it may be left at 0
    scene = _scene("cubes-distance", width=20, height=16, movement="camera")
    gbuf, _shadow, _spec = render_frame(scene, 1, spp=1, seed=1)
    bg = ~gbuf.foreground
    assert bg.any() and not bg.all()
    full = render_sky(scene, 1)
    _origins, dirs, _cos = camera_rays(scene, 1)
    for masked in (render_sky(scene, 1, where=bg), render_sky(scene, 1, dirs=dirs, where=bg)):
        assert masked.flags.c_contiguous
        assert masked[bg].tobytes() == full[bg].tobytes()
        assert not masked[~bg].any()
    assert render_sky(scene, 1, dirs=dirs).tobytes() == full.tobytes()


def test_lengths_match_linalg_norm():
    rs = np.random.default_rng(8)
    v = rs.normal(size=(64, 3)) * np.exp(rs.uniform(-30.0, 30.0, (64, 1)))
    v[:4] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 2.0, 0.0], [1e-200, -0.0, 1e-200]]
    cases = [v, v.reshape(8, 8, 3), np.array([3.0, -4.0, -0.0]),
             np.broadcast_to(np.array([0.5, -1.5, 2.5]), (5, 3)),
             np.array([1.0, 2.0, 0.0]) - v]  # a (3,) operand broadcast, as the light sites do
    for x in cases:
        want = np.linalg.norm(x, axis=-1)
        assert length(x).tobytes() == want.tobytes()
        unit = x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
        got = normalize(x)
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
    origins, dirs, _cos = camera_rays(scene, 0)
    _pos, fwd, _r, _u, _t = scene.camera_at(0)
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

