import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtdenoise.frames import (CHANNELS, MAX_OBJECT_ID, DenoiseConfig, FrameSequence,
                              validate_frame)
from rtdenoise.pfm import write_pfm
from rtdenoise.pipeline import run_pipeline, synthesize_sequence
from rtdenoise.scenes import preset_scene, scene_from_dict
from rtdenoise.store import SequenceError, check_sequence, load_sequence, save_sequence


def _tiny_frame(h=4, w=4):
    frame = {
        "depth": np.full((h, w), 3.0, dtype=np.float32),
        "normal": np.zeros((h, w, 3), dtype=np.float32),
        "motion": np.zeros((h, w, 2), dtype=np.float32),
        "object_id": np.ones((h, w), dtype=np.int32),
        "albedo": np.full((h, w, 3), 0.5, dtype=np.float32),
        "roughness": np.full((h, w), 0.3, dtype=np.float32),
        "emissive": np.zeros((h, w, 3), dtype=np.float32),
        "shadow_1spp": np.ones((h, w), dtype=np.float32),
        "specular_1spp": np.full((h, w, 3), 0.25, dtype=np.float32),
    }
    frame["normal"][:, :, 1] = 1.0
    return frame


def _tiny_seq(h=4, w=4, frames=1):
    frame_list = [_tiny_frame(h, w) for _ in range(frames)]
    manifest = {"width": w, "height": h, "channels": sorted(frame_list[0].keys()),
                "seed": 0, "spp": 1}
    return FrameSequence(manifest=manifest, frames=frame_list)


def test_roundtrip_bit_exact(tmp_path):
    seq = _tiny_seq()
    seq.frames[0]["depth"][1, 2] = np.float32(1.2345678)
    save_sequence(seq, tmp_path / "seq")
    back = load_sequence(tmp_path / "seq")
    assert back.channels == seq.channels
    for name in seq.channels:
        assert np.array_equal(back.frames[0][name], seq.frames[0][name]), name


def test_empty_sequence_rejected(tmp_path):
    seq = _tiny_seq()
    seq.frames = []
    with pytest.raises(SequenceError, match="empty sequence"):
        save_sequence(seq, tmp_path / "seq")


def test_missing_channel_rejected(tmp_path):
    seq = _tiny_seq()
    del seq.frames[0]["depth"]
    with pytest.raises(SequenceError, match="frame 0.*'depth'"):
        save_sequence(seq, tmp_path / "seq")


def test_unknown_manifest_channel_rejected():
    seq = _tiny_seq()
    seq.manifest["channels"].append("bogus")
    seq.frames[0]["bogus"] = np.zeros((4, 4), dtype=np.float32)
    with pytest.raises(SequenceError, match="^unknown channel 'bogus' in manifest$"):
        check_sequence(seq)


def test_run_pipeline_needs_a_scene_in_the_manifest():
    seq = _tiny_seq()
    check_sequence(seq)
    with pytest.raises(ValueError, match="^sequence manifest carries no scene descriptor$"):
        run_pipeline(seq, DenoiseConfig(iterations=0))


def test_absent_file_reported(tmp_path):
    seq = _tiny_seq()
    save_sequence(seq, tmp_path / "seq")
    (tmp_path / "seq" / "frame_0000" / "albedo.pfm").unlink()
    with pytest.raises(SequenceError, match="albedo.pfm"):
        load_sequence(tmp_path / "seq")


@pytest.mark.parametrize("name,on_disk,want", [("motion", (4, 4), (4, 4, 3)),
                                               ("depth", (4, 4, 3), (4, 4))])
def test_load_rejects_channel_of_wrong_on_disk_shape(tmp_path, name, on_disk, want):
    # a 1-component motion file used to fail with a bare IndexError
    save_sequence(_tiny_seq(), tmp_path / "seq")
    write_pfm(tmp_path / "seq" / "frame_0000" / f"{name}.pfm", np.zeros(on_disk, np.float32))
    with pytest.raises(SequenceError, match=re.escape(
            f"channel '{name}' of frame 0 has on-disk shape {on_disk}, expected {want}")):
        load_sequence(tmp_path / "seq")


def test_missing_manifest(tmp_path):
    with pytest.raises(SequenceError, match="manifest"):
        load_sequence(tmp_path / "nothing")


def test_validate_frame_normal_violation():
    frame = _tiny_frame()
    frame["normal"][2, 1] *= 0.5
    out = validate_frame(frame, 4, 4)
    assert len(out) == 1
    assert "normal" in out[0] and "(1, 2)" in out[0]


def test_validate_frame_nan_specular():
    frame = _tiny_frame()
    frame["specular_1spp"][0, 3, 1] = np.nan
    out = validate_frame(frame, 4, 4)
    assert any("non-finite" in v and "specular" in v for v in out)


def test_validate_frame_clean():
    assert validate_frame(_tiny_frame(), 4, 4) == []


def test_background_inf_depth_allowed():
    frame = _tiny_frame()
    frame["object_id"][0, 0] = 0
    frame["depth"][0, 0] = np.inf
    assert validate_frame(frame, 4, 4) == []


def test_validate_frame_rejects_inf_depth_on_geometry():
    # +inf marks a miss; on a foreground pixel it would reach the filters
    frame = _tiny_frame()
    frame["depth"][2, 1] = np.inf
    assert validate_frame(frame, 4, 4) == [
        "channel 'depth' not positive and finite on geometry at pixel (1, 2)"]


def test_run_pipeline_rejects_inf_depth_on_geometry():
    scene = scene_from_dict(preset_scene("shadow-objects", width=24, height=24))
    seq = synthesize_sequence(scene, 1, 1, 0)
    y, x = np.argwhere(seq.frames[0]["object_id"] != 0)[0]
    seq.frames[0]["depth"][y, x] = np.inf
    with pytest.raises(SequenceError, match=r"frame 0 invalid: channel 'depth' not positive "
                                            rf"and finite on geometry at pixel \({x}, {y}\)"):
        run_pipeline(seq, DenoiseConfig())


def test_validate_frame_reports_bad_shapes_without_raising():
    # a wrong-sized object_id and a wrong-sized channel outside the table,
    # one holding a NaN, are violations naming the channel, not numpy errors
    frame = _tiny_frame()
    frame["object_id"] = np.ones((3, 3), dtype=np.int32)
    frame["mask"] = np.zeros((3, 3), dtype=np.float32)
    frame["mask"][1, 1] = np.nan
    out = validate_frame(frame, 4, 4)
    assert len(out) == 2
    assert "'object_id' has shape (3, 3)" in out[0]
    assert "'mask' has shape (3, 3)" in out[1]


def test_validate_frame_rejects_float_object_id(tmp_path):
    seq = _tiny_seq()
    seq.frames[0]["object_id"] = seq.frames[0]["object_id"].astype(np.float32)
    out = validate_frame(seq.frames[0], 4, 4)
    assert out == ["channel 'object_id' has dtype float32, expected an integer type"]
    with pytest.raises(SequenceError, match="frame 0 .*'object_id' has dtype float32"):
        save_sequence(seq, tmp_path / "seq")


@pytest.mark.parametrize("stored", [np.nan, np.inf, 2.5, 1e10, -3.0, 2.0**24 + 2])
def test_load_rejects_stored_object_id_that_is_no_id(tmp_path, stored):
    # a stored id used to be cast to int32 unchecked: NaN and 1e10 loaded as
    # -2147483648, 2.5 as 2, and -3 as it was. Above 2^24 a float32 no longer
    # holds every integer, so two ids there may have been stored as one
    save_sequence(_tiny_seq(frames=2), tmp_path / "seq")
    ids = np.ones((4, 4), dtype=np.float32)
    ids[1, 2] = stored
    write_pfm(tmp_path / "seq" / "frame_0001" / "object_id.pfm", ids)
    with pytest.raises(SequenceError, match=re.escape(
            f"channel 'object_id' of frame 1 holds {np.float32(stored)} at pixel (2, 1), "
            "expected an integer in [0, 16777216]")):
        load_sequence(tmp_path / "seq")


def test_object_ids_up_to_2_to_the_24_round_trip_and_larger_ones_are_refused(tmp_path):
    # float32 holds every integer up to 2^24, but 2^24 + 1 used to be saved,
    # and loaded as 2^24, merged with the object of that id
    seq = _tiny_seq()
    seq.frames[0]["object_id"][0, :2] = [2**24 - 1, 2**24]
    save_sequence(seq, tmp_path / "seq")
    back = load_sequence(tmp_path / "seq").frames[0]["object_id"]
    assert back.tobytes() == seq.frames[0]["object_id"].tobytes()
    seq.frames[0]["object_id"][3, 1] = 2**24 + 1
    assert validate_frame(seq.frames[0], 4, 4) == [
        "channel 'object_id' above 16777216 at pixel (1, 3)"]
    with pytest.raises(SequenceError, match="frame 0 .*'object_id' above 16777216 at pixel"):
        save_sequence(seq, tmp_path / "over")
    assert not (tmp_path / "over").exists()


def test_validate_frame_rejects_negative_object_id(tmp_path):
    seq = _tiny_seq()
    seq.frames[0]["object_id"][3, 1] = -3
    assert validate_frame(seq.frames[0], 4, 4) == ["channel 'object_id' negative at pixel (1, 3)"]
    with pytest.raises(SequenceError, match="frame 0 .*'object_id' negative at pixel"):
        save_sequence(seq, tmp_path / "seq")


def _edit_manifest(root, edit):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["format_version", "width", "height", "channels",
                                 "frame_count"])
def test_manifest_missing_key_named(tmp_path, key):
    save_sequence(_tiny_seq(), tmp_path / "seq")
    _edit_manifest(tmp_path / "seq", lambda m: m.pop(key))
    with pytest.raises(SequenceError, match=f"lacks required keys: {key}$"):
        load_sequence(tmp_path / "seq")


_ENTRY_POINTS = {
    "check_sequence": lambda seq, _root: check_sequence(seq),
    "save_sequence": lambda seq, root: save_sequence(seq, root / "seq"),
    "run_pipeline": lambda seq, _root: run_pipeline(seq, DenoiseConfig()),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("keys", [("width",), ("height",), ("channels",),
                                  ("width", "channels")])
def test_in_memory_manifest_missing_keys_named(tmp_path, entry, keys):
    seq = _tiny_seq()
    for key in keys:
        del seq.manifest[key]
    with pytest.raises(SequenceError,
                       match=f"sequence manifest lacks required keys: {', '.join(keys)}$"):
        _ENTRY_POINTS[entry](seq, tmp_path)
    assert not (tmp_path / "seq").exists()


_CHANNELS = sorted(_tiny_frame())
# (key, bad value, what the message says of it)
_BAD_MANIFEST_VALUES = [
    *((key, value, "is not an integer above 0") for key, value in (
        ("width", 4.5), ("width", 4.0), ("width", True), ("height", 0), ("height", "4"),
        ("frame_count", 1.5), ("frame_count", "1"), ("frame_count", 0),
        ("frame_count", False))),
    *(("channels", value, "is not a list of distinct names") for value in (
        "depth", _CHANNELS + ["depth"], _CHANNELS + [3], {"depth": 1})),
]


@pytest.mark.parametrize("key,value,want", _BAD_MANIFEST_VALUES)
def test_load_rejects_manifest_values_of_the_wrong_type(tmp_path, key, value, want):
    # unchecked, such a value loads truncated (width 4.5 as 4, frame_count
    # "1" as 1) or fails later under another name (channels "depth" as d.pfm)
    save_sequence(_tiny_seq(), tmp_path / "seq")
    _edit_manifest(tmp_path / "seq", lambda m: m.update({key: value}))
    with pytest.raises(SequenceError, match=re.escape(f"{key} {value!r} {want}")):
        load_sequence(tmp_path / "seq")


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("key,value,want", _BAD_MANIFEST_VALUES)
def test_in_memory_manifest_values_checked(tmp_path, entry, key, value, want):
    seq = _tiny_seq()
    seq.manifest[key] = value
    with pytest.raises(SequenceError,
                       match=re.escape(f"sequence manifest {key} {value!r} {want}")):
        _ENTRY_POINTS[entry](seq, tmp_path)
    assert not (tmp_path / "seq").exists()


@pytest.mark.parametrize("manifest", [5, "width height channels", [1, 2]])
def test_load_rejects_a_manifest_that_is_no_object(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SequenceError, match=re.escape(f"{manifest!r} is not a JSON object")):
        load_sequence(tmp_path)


def test_manifest_of_other_format_version_rejected(tmp_path):
    save_sequence(_tiny_seq(), tmp_path / "seq")
    _edit_manifest(tmp_path / "seq", lambda m: m.update(format_version=1))
    with pytest.raises(SequenceError, match="format_version 1; this version reads 2"):
        load_sequence(tmp_path / "seq")


def test_config_is_valid_by_construction():
    # each invalid value of test_config_validation fails when the config is built
    for bad in ({"alpha": 0.0}, {"iterations": 9}, {"rectify_mode": "sometimes"},
                {"history_cap": 0}, {"depth_consistency": 0.0}, {"depth_consistency": -1.0},
                {"normal_consistency": 1.0}, {"normal_consistency": 2.0},
                {"separable": "no"}, {"adaptive_start": 1}, {"iterations": 2.5},
                {"iterations": True}, {"history_cap": 4.0}, {"sigma_n": "x"},
                {"alpha": False}, {"rectify_mode": 3}, {"feedback": None}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DenoiseConfig(**bad)
    cfg = DenoiseConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.history_cap = 0
    assert cfg.history_cap == 256


def test_config_sigma_z_bounded():
    # at 1e3 the depth stop is ~1 already; above, sigma_z * |z| could overflow
    assert DenoiseConfig(sigma_z=1e3).sigma_z == 1e3
    for bad in (1e3 * (1 + 1e-12), 1e303, np.inf):
        with pytest.raises(ValueError, match=r"sigma_z .* outside \(0.0, 1000.0\]"):
            DenoiseConfig(sigma_z=bad)


def test_config_validation():
    DenoiseConfig()
    with pytest.raises(ValueError, match="alpha"):
        DenoiseConfig(alpha=0.0)
    with pytest.raises(ValueError, match="iterations"):
        DenoiseConfig(iterations=9)
    with pytest.raises(ValueError, match="rectify_mode"):
        DenoiseConfig(rectify_mode="sometimes")
    # values that would silently switch the temporal stage off
    for bad in ({"history_cap": 0}, {"depth_consistency": 0.0},
                {"depth_consistency": -1.0}, {"normal_consistency": 1.0},
                {"normal_consistency": 2.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DenoiseConfig(**bad)
    with pytest.raises(ValueError, match="unknown"):
        DenoiseConfig.from_dict({"alpha": 0.5, "bogus": 1})
    # a config file holding no object used to fail with a bare AttributeError
    for bad, kind in (([1, 2], "list"), ("fast", "str"), (None, "NoneType"), (3, "int")):
        with pytest.raises(ValueError, match=f"^a DenoiseConfig must be a JSON object, "
                                             f"got {kind}$"):
            DenoiseConfig.from_dict(bad)
    # each value must have its default's type; a float field also takes an int
    DenoiseConfig(alpha=1, sigma_n=64)
    for name, bad in (("separable", "no"), ("adaptive_start", 1), ("iterations", 2.5),
                      ("iterations", True), ("history_cap", 4.0), ("sigma_n", "x"),
                      ("alpha", False), ("rectify_mode", 3), ("feedback", None)):
        with pytest.raises(ValueError, match=f"{name} {bad!r} is not a "):
            DenoiseConfig(**{name: bad})
        with pytest.raises(ValueError, match=name):
            DenoiseConfig.from_dict({name: bad})


def _mask_oracle(frame: dict, width: int, height: int) -> list:
    """`validate_frame` as a per-pixel mask for every rule, on every frame:
    the reference the reduction-first checks must agree with, message for
    message and in order."""
    def first_bad_pixel(mask):
        ys, xs = np.nonzero(mask)
        return int(xs[0]), int(ys[0])

    violations = []
    shaped = {}
    for name, arr in frame.items():
        arity = CHANNELS.get(name)
        if arity is None:
            got, want = arr.shape[:2], (height, width)
        else:
            got, want = arr.shape, (height, width) if arity == 1 else (height, width, arity)
        if got != want:
            violations.append(f"channel '{name}' has shape {arr.shape}, expected {want}")
            continue
        shaped[name] = arr
        bad = ~np.isfinite(arr)
        if name == "depth":
            bad = bad & ~np.isposinf(arr)
        if np.any(bad):
            x, y = first_bad_pixel(bad.reshape(height, width, -1).any(axis=2))
            violations.append(f"non-finite value in channel '{name}' at pixel ({x}, {y})")

    oid = shaped.get("object_id")
    fg = np.zeros((height, width), dtype=bool)
    if oid is not None:
        if not np.issubdtype(oid.dtype, np.integer):
            violations.append(f"channel 'object_id' has dtype {oid.dtype}, "
                              "expected an integer type")
        fg = oid != 0

    normal = shaped.get("normal")
    if normal is not None:
        n = normal.astype(np.float64)
        norms = np.sqrt(np.sum(n * n, axis=-1))
        bad = fg & (np.abs(norms - 1.0) > 1e-4)
        if np.any(bad):
            x, y = first_bad_pixel(bad)
            violations.append(
                f"channel 'normal' not unit length at pixel ({x}, {y}): |n| = {norms[y, x]:.6f}")

    ranges = (("depth", "not positive and finite on geometry",
               lambda a: fg & ~((a > 0) & (a < np.inf))),
              ("object_id", "negative", lambda a: a < 0),
              ("object_id", f"above {MAX_OBJECT_ID}", lambda a: a > MAX_OBJECT_ID),
              ("roughness", "outside [0, 1]", lambda a: (a < 0) | (a > 1)),
              ("shadow_1spp", "outside [0, 1]", lambda a: np.isfinite(a) & ((a < 0) | (a > 1))),
              ("specular_1spp", "negative", lambda a: (np.isfinite(a) & (a < 0)).any(axis=2)))
    for name, what, bad_at in ranges:
        arr = shaped.get(name)
        if arr is None:
            continue
        bad = bad_at(arr)
        if np.any(bad):
            x, y = first_bad_pixel(bad)
            violations.append(f"channel '{name}' {what} at pixel ({x}, {y})")
    return violations


def _random_frame(rng, h, w):
    """A valid frame as the renderer makes one, with a channel outside the
    table: background pixels of id 0 and +inf depth, unit normals on the
    geometry, and the ranged channels' own ends among their values."""
    fg = rng.random((h, w)) < 0.7
    normal = rng.normal(size=(h, w, 3))
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    frame = {
        "depth": np.where(fg, rng.uniform(0.1, 20.0, (h, w)), np.inf),
        "normal": normal * fg[..., None],
        "motion": rng.normal(0.0, 3.0, (h, w, 2)),
        "object_id": np.where(fg, rng.integers(1, 6, (h, w)), 0).astype(np.int32),
        "albedo": rng.random((h, w, 3)),
        "roughness": rng.choice([0.0, 0.3, 1.0], (h, w)),
        "emissive": rng.exponential(size=(h, w, 3)),
        "shadow_1spp": rng.choice([0.0, 0.5, 1.0], (h, w)),
        "specular_1spp": rng.exponential(size=(h, w, 3)) * (rng.random((h, w, 3)) < 0.8),
        "shadow_ref": rng.random((h, w)),
        "reference": rng.random((h, w, 3)),
        "mask": rng.random((h, w, 2)),
    }
    return {k: v if k == "object_id" else v.astype(np.float32) for k, v in frame.items()}


# per channel, values that break its own rule, beside NaN and +-inf
_OUT_OF_RANGE = {
    "depth": [0.0, -1.0, -0.0],
    "roughness": [-0.25, 1.5],
    "shadow_1spp": [-0.25, 1.0000001],
    "specular_1spp": [-0.25, -1e-30],
}
# factors on a normal's length, on both sides of the 1e-4 tolerance and of
# the fast test's 1.9e-4 margin on its square
_NORMAL_SCALES = [0.0, 0.5, 1 - 1.2e-4, 1 - 1e-4 - 1e-6, 1 - 1e-4 + 1e-6, 1 - 0.9e-4,
                  1 + 0.9e-4, 1 + 1e-4 - 1e-6, 1 + 1e-4 + 1e-6, 1 + 1.2e-4, 2.0]


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 5), w=st.integers(1, 5),
       float_ids=st.booleans(), data=st.data())
def test_validate_frame_reports_what_the_per_pixel_masks_report(seed, h, w, float_ids, data):
    frame = _random_frame(np.random.default_rng(seed), h, w)
    pixel = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    for _ in range(data.draw(st.integers(0, 4), label="faults")):
        name = data.draw(st.sampled_from(sorted(frame)), label="channel")
        arr = frame[name]
        y, x = data.draw(pixel, label="pixel")
        if name == "object_id":
            arr[y, x] = data.draw(st.sampled_from([0, 3, -3, MAX_OBJECT_ID, MAX_OBJECT_ID + 1]))
        elif name == "normal" and data.draw(st.booleans(), label="rescale"):
            arr[y, x] *= np.float32(data.draw(st.sampled_from(_NORMAL_SCALES), label="scale"))
        else:
            at = (y, x) if arr.ndim == 2 else (y, x, data.draw(st.integers(0, arr.shape[2] - 1)))
            arr[at] = data.draw(st.sampled_from(
                [np.nan, np.inf, -np.inf, *_OUT_OF_RANGE.get(name, [])]), label="value")
    if float_ids:
        frame["object_id"] = frame["object_id"].astype(np.float32)
    assert validate_frame(frame, w, h) == _mask_oracle(frame, w, h)


def _one_normal(n):
    frame = _tiny_frame()
    frame["normal"][2, 1] = n
    return frame


@pytest.mark.parametrize("direction", [(0.0, 1.0, 0.0), (0.6, 0.0, -0.8), (0.48, 0.6, 0.64)])
@pytest.mark.parametrize("side", [1, -1])
def test_normal_length_tolerance_is_the_float64_one(direction, side):
    # just inside |n| - 1 = +-1e-4 the squared length misses the fast test's
    # margin, so the float64 rule decides; just outside it fails
    delta = 1e-6
    for off, want_ok in ((1e-4 - delta, True), (1e-4 + delta, False)):
        n = (np.array(direction) * (1 + side * off)).astype(np.float32)
        length = np.sqrt(np.sum(n.astype(np.float64) ** 2))
        assert abs(side * (length - 1) - off) < delta / 4  # float32 rounding moved it little
        out = validate_frame(_one_normal(n), 4, 4)
        assert out == ([] if want_ok else [
            f"channel 'normal' not unit length at pixel (1, 2): |n| = {length:.6f}"])


def test_nan_roughness_is_only_non_finite():
    frame = _tiny_frame()
    frame["roughness"][1, 3] = np.nan
    nonfinite = "non-finite value in channel 'roughness' at pixel (3, 1)"
    assert validate_frame(frame, 4, 4) == [nonfinite]
    frame["roughness"][1, 3] = np.inf  # +inf is both
    assert validate_frame(frame, 4, 4) == [nonfinite,
                                           "channel 'roughness' outside [0, 1] at pixel (3, 1)"]


def test_synthesized_sequence_round_trips_every_channel_bytes_and_dtype(tmp_path):
    scene = scene_from_dict(preset_scene("shadow-objects", width=48, height=48))
    seq = synthesize_sequence(scene, frames=2, spp=1, seed=7, reference=True, reference_spp=2)
    save_sequence(seq, tmp_path / "seq")
    back = load_sequence(tmp_path / "seq")
    assert back.channels == seq.channels
    assert back.frames[0]["object_id"].dtype == np.int32
    assert back.frames[0]["motion"].shape == (48, 48, 2)
    for want, got in zip(seq.frames, back.frames, strict=True):
        for name in seq.channels:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name
