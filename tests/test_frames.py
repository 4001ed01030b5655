import dataclasses
import json
import re

import numpy as np
import pytest

from rtdenoise.frames import DenoiseConfig, FrameSequence, validate_frame
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
    DenoiseConfig().validate()
    with pytest.raises(ValueError, match="alpha"):
        DenoiseConfig(alpha=0.0).validate()
    with pytest.raises(ValueError, match="iterations"):
        DenoiseConfig(iterations=9).validate()
    with pytest.raises(ValueError, match="rectify_mode"):
        DenoiseConfig(rectify_mode="sometimes").validate()
    # values that would silently switch the temporal stage off
    for bad in ({"history_cap": 0}, {"depth_consistency": 0.0},
                {"depth_consistency": -1.0}, {"normal_consistency": 1.0},
                {"normal_consistency": 2.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DenoiseConfig(**bad).validate()
    with pytest.raises(ValueError, match="unknown"):
        DenoiseConfig.from_dict({"alpha": 0.5, "bogus": 1})
    # each value must have its default's type; a float field also takes an int
    DenoiseConfig(alpha=1, sigma_n=64).validate()
    for name, bad in (("separable", "no"), ("adaptive_start", 1), ("iterations", 2.5),
                      ("iterations", True), ("history_cap", 4.0), ("sigma_n", "x"),
                      ("alpha", False), ("rectify_mode", 3), ("feedback", None)):
        with pytest.raises(ValueError, match=f"{name} {bad!r} is not a "):
            DenoiseConfig(**{name: bad}).validate()
        with pytest.raises(ValueError, match=name):
            DenoiseConfig.from_dict({name: bad})
