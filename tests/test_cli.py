import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rtdenoise import envmap, render
from rtdenoise.cli import main
from rtdenoise.pfm import write_pfm
from rtdenoise.scenes import preset_scene
from rtdenoise.store import SequenceError, load_sequence


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.json"
    assert main(["scene", "--preset", "shadow-objects", "--width", "32",
                 "--height", "32", "--out", str(scene)]) == 0
    synth = root / "noisy"
    assert main(["synth", "--scene", str(scene), "--frames", "2", "--spp", "1",
                 "--seed", "5", "--out", str(synth)]) == 0
    return root, scene, synth


def test_synth_output_loads(workspace):
    _root, _scene, synth = workspace
    seq = load_sequence(synth)
    assert len(seq.frames) == 2
    assert "shadow_1spp" in seq.frames[0]


def test_denoise_and_report(workspace):
    root, _scene, synth = workspace
    out = root / "denoised"
    report = root / "report.json"
    assert main(["denoise", "--in", str(synth), "--preset", "svgf+rectify",
                 "--out", str(out), "--report", str(report),
                 "--dump-intermediates"]) == 0
    seq = load_sequence(out)
    assert "composite" in seq.frames[0]
    assert "debug_accum_shadow" in seq.frames[0]
    doc = json.loads(report.read_text())
    assert doc["config"]["rectify_mode"] == "clamp"


def test_eval_between_sequences(workspace):
    root, _scene, synth = workspace
    out = root / "denoised"
    rep = root / "eval.csv"
    # requesting a channel the reference side does not carry is an error
    assert main(["eval", "--a", str(out), "--b", str(synth),
                 "--channel", "composite_noisy", "--report", str(rep)]) == 1
    assert main(["eval", "--a", str(out), "--b", str(out), "--channel", "composite",
                 "--report", str(rep)]) == 0
    text = rep.read_text()
    assert "ssim" in text.splitlines()[0]


def test_eval_rejects_sequences_of_different_lengths(workspace, tmp_path, capsys):
    _root, scene, synth = workspace
    three = tmp_path / "three"
    assert main(["synth", "--scene", str(scene), "--frames", "3", "--spp", "1",
                 "--seed", "5", "--out", str(three)]) == 0
    capsys.readouterr()
    rep = tmp_path / "eval.csv"
    assert main(["eval", "--a", str(three), "--b", str(synth), "--channel", "shadow_1spp",
                 "--report", str(rep)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "3 frame(s)" in err and "has 2" in err
    assert out == "" and not rep.exists()


def test_synth_rerun_bit_identical(workspace, tmp_path):
    root, scene, synth = workspace
    again = tmp_path / "again"
    assert main(["synth", "--scene", str(scene), "--frames", "2", "--spp", "1",
                 "--seed", "5", "--out", str(again)]) == 0
    assert _dir_digest(synth) == _dir_digest(again)


def test_error_paths_nonzero_exit(tmp_path, capsys):
    assert main(["synth", "--scene", str(tmp_path / "missing.json"), "--frames",
                 "1", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["denoise", "--in", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "y")]) == 1
    assert main(["eval", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b")]) == 1


def test_synth_ibl_rejects_a_map_over_the_prefilter_cap(tmp_path, capsys, monkeypatch):
    # prefiltering takes time quadratic in the texels: a 256x64 map is
    # turned away before any convolution and before any frame is rendered
    def fail(*args):
        raise AssertionError("convolved or rendered")

    monkeypatch.setattr(envmap, "_convolve_cosine_power", fail)
    monkeypatch.setattr(render, "render_frame", fail)
    write_pfm(tmp_path / "env.pfm", np.full((64, 256, 3), 0.5, dtype=np.float32))
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["env"] = {"kind": "file", "path": str(tmp_path / "env.pfm")}
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    assert main(["synth", "--scene", str(tmp_path / "scene.json"), "--frames", "1",
                 "--ibl", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: env map 256x64 has 16384 texels, more than the 8192 (128x64) a "
        "prefiltered map may have; downsample the map\n")
    assert not (tmp_path / "x").exists()


def test_debug_flag_reraises(tmp_path, capsys):
    args = ["denoise", "--in", str(tmp_path / "nothing"), "--out", str(tmp_path / "y")]
    assert main(args) == 1
    assert "error: missing manifest" in capsys.readouterr().err
    with pytest.raises(SequenceError, match="missing manifest"):
        main(["--debug"] + args)
    assert capsys.readouterr().err == ""


def test_denoise_names_missing_input_channels(workspace, tmp_path, capsys):
    # a denoised output carries no G-buffer and no 1spp channels to denoise
    _root, _scene, synth = workspace
    out = tmp_path / "denoised"
    assert main(["denoise", "--in", str(synth), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["denoise", "--in", str(out), "--out", str(tmp_path / "x"),
                 "--set", "iterations=2"]) == 1
    err = capsys.readouterr().err
    assert "error: sequence lacks the input channels:" in err
    assert "depth" in err and "shadow_1spp" in err


@pytest.mark.parametrize("flags", [["--spp", "0"], ["--reference", "--reference-spp", "0"],
                                   ["--frames", "0"]])
def test_synth_rejects_spp_below_one(workspace, tmp_path, capsys, flags):
    _root, scene, _synth = workspace
    out = tmp_path / "zero"
    assert main(["synth", "--scene", str(scene), "--frames", "1", "--out", str(out)]
                + flags) == 1
    # the message names the parameter of the flag set to 0
    name = flags[-2].removeprefix("--").replace("-", "_")
    assert f"error: {name} must be an integer >= 1, got 0\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--preset", "shadow-objects", "--width", "0"],
     "resolution [0, 96] is not two positive integers"),
    (["--preset", "shadow-objects", "--shadow-angle", "200"],
     "shadow_angle_deg 200.0 outside [0, 180)"),
    (["--preset", "cubes-distance", "--roughness", "2"],
     "objects[0].roughness 2.0 outside [0, 1]")])
def test_scene_rejects_options_its_loader_would_reject(tmp_path, capsys, flags, message):
    out = tmp_path / "scene.json"
    assert main(["scene", *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("item,names", [("separable=no", ["separable", "'no'", "not JSON"]),
                                        ("separable", ["'separable'", "KEY=JSON"])])
def test_bad_set_names_key_and_value(workspace, tmp_path, capsys, item, names):
    _root, _scene, synth = workspace
    assert main(["denoise", "--in", str(synth), "--out", str(tmp_path / "o"),
                 "--set", item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --set ")
    for name in names:
        assert name in err


def test_scene_passes_only_the_options_given(tmp_path):
    # preset_scene owns every default, so the CLI's document is its own
    out = tmp_path / "scene.json"
    assert main(["scene", "--preset", "pillars", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == preset_scene("pillars")
    assert main(["scene", "--preset", "cubes-distance", "--roughness", "0.9",
                 "--width", "40", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == preset_scene("cubes-distance", width=40,
                                                       roughness=0.9)
    assert main(["scene", "--preset", "pillars", "--roughness", "0.9",
                 "--out", str(out)]) == 1


def test_scene_reports_a_teleport_frame_without_teleport(tmp_path, capsys):
    out = tmp_path / "scene.json"
    assert main(["scene", "--preset", "shadow-objects", "--movement", "camera",
                 "--teleport-frame", "5", "--out", str(out)]) == 1
    assert "error: movement 'camera' has no teleport" in capsys.readouterr().err
    assert not out.exists()
    assert main(["scene", "--preset", "shadow-objects", "--movement", "light-teleport",
                 "--teleport-frame", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == preset_scene(
        "shadow-objects", movement="light-teleport", teleport_frame=5)


@pytest.mark.parametrize("frame", ["0", "-3"])
def test_scene_rejects_a_teleport_frame_below_1(tmp_path, capsys, frame):
    out = tmp_path / "scene.json"
    assert main(["scene", "--preset", "shadow-objects", "--movement", "light-teleport",
                 "--teleport-frame", frame, "--out", str(out)]) == 1
    assert f"error: teleport_frame {frame} is not a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_config_layers_file_then_preset_then_set(workspace, tmp_path):
    # the config file is the base, --preset overrides it and --set overrides both
    _root, _scene, synth = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.3, "iterations": 2, "rectify_mode": "clip"}))
    report = tmp_path / "report.json"

    def run(*extra):
        assert main(["denoise", "--in", str(synth), "--out", str(tmp_path / "o"),
                     "--config", str(config), "--report", str(report), *extra]) == 0
        cfg = json.loads(report.read_text())["config"]
        return cfg["alpha"], cfg["iterations"], cfg["rectify_mode"]

    assert run() == (0.3, 2, "clip")
    assert run("--preset", "svgf+rectify") == (0.3, 2, "clamp")
    assert run("--preset", "svgf+rectify", "--set", 'rectify_mode="clip"',
               "--set", "iterations=1") == (0.3, 1, "clip")


def test_denoise_names_a_config_file_that_holds_no_object(workspace, tmp_path, capsys):
    _root, _scene, synth = workspace
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert main(["denoise", "--in", str(synth), "--out", str(tmp_path / "o"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == ("error: a DenoiseConfig must be a JSON object, "
                                       "got list\n")
    assert not (tmp_path / "o").exists()


def test_denoise_prints_quality_per_frame_against_a_reference(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(["scene", "--preset", "shadow-objects", "--width", "16", "--height", "16",
                 "--out", str(scene)]) == 0
    synth = tmp_path / "noisy"
    assert main(["synth", "--scene", str(scene), "--frames", "2", "--seed", "5",
                 "--reference", "--reference-spp", "2", "--out", str(synth)]) == 0
    capsys.readouterr()
    assert main(["denoise", "--in", str(synth), "--out", str(tmp_path / "o"),
                 "--set", "iterations=1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pattern = r"frame {}: ssim=-?\d\.\d{{4}} \(noisy -?\d\.\d{{4}}\) mse=\d+\.\d{{6}}$"
    assert [bool(re.match(pattern.format(f), line)) for f, line in enumerate(lines[:2])] \
        == [True, True]
    assert lines[2:] == [f"denoised 2 frame(s) -> {tmp_path / 'o'}"]


@pytest.mark.parametrize("command", ["eval --a", "eval --b", "synth --scene",
                                     "denoise --config"])
def test_a_file_that_holds_no_json_is_named(workspace, tmp_path, capsys, command):
    # the parser's message alone used to be printed, naming no file
    _root, _scene, synth = workspace
    bad = tmp_path / "bad"
    bad.mkdir()
    path = bad / "manifest.json" if command.startswith("eval") else bad / "input.json"
    path.write_text("{not json")
    given = {"eval --a": ["eval", "--a", str(bad), "--b", str(synth)],
             "eval --b": ["eval", "--a", str(synth), "--b", str(bad)],
             "synth --scene": ["synth", "--scene", str(path), "--frames", "1",
                               "--out", str(tmp_path / "o")],
             "denoise --config": ["denoise", "--in", str(synth), "--config", str(path),
                                  "--out", str(tmp_path / "o")]}[command]
    assert main(given) == 1
    assert capsys.readouterr().err == (
        f"error: {path} is not JSON (Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1))\n")
    assert not (tmp_path / "o").exists()
