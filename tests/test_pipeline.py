import numpy as np
import pytest

from rtdenoise import compose, render, temporal
from rtdenoise.frames import DenoiseConfig
from rtdenoise.pipeline import (PRESETS, preset_config, reconstruct_positions,
                                run_pipeline, synthesize_sequence)
from rtdenoise.scenes import preset_scene, scene_from_dict
from rtdenoise.store import load_sequence, save_sequence


def _make_seq(name="shadow-objects", w=32, h=32, frames=2, seed=3, **kw):
    scene = scene_from_dict(preset_scene(name, width=w, height=h, **kw))
    return scene, synthesize_sequence(scene, frames=frames, spp=1, seed=seed)


def test_identity_configuration_reproduces_raw_composite():
    scene, seq = _make_seq(frames=1)
    cfg = DenoiseConfig(iterations=0, rectify_mode="off")
    out, _report = run_pipeline(seq, cfg)
    gbuf = seq.gbuffer(0)
    positions = reconstruct_positions(scene, 0, gbuf.depth.astype(np.float64))
    direct = compose.shade_direct(gbuf, positions, scene.light.center_at(0),
                                  scene.light.intensity)
    sky = render.render_sky(scene, 0)
    expected = compose.composite(direct, seq.frames[0]["shadow_1spp"].astype(np.float64),
                                 seq.frames[0]["specular_1spp"].astype(np.float64),
                                 gbuf, sky)
    assert np.allclose(out.frames[0]["composite"], expected, atol=1e-6)
    assert np.array_equal(out.frames[0]["composite"], out.frames[0]["composite_noisy"])


def test_pipeline_deterministic():
    # 48x48 leaves room for the adaptive start level on top of 4 iterations
    _scene, seq = _make_seq(frames=3, w=48, h=48)
    cfg = preset_config("svgf+rectify+adaptive+separable+reinhard")
    a, _r1 = run_pipeline(seq, cfg)
    b, _r2 = run_pipeline(seq, cfg)
    for f in range(3):
        for name in a.frames[f]:
            assert np.array_equal(a.frames[f][name], b.frames[f][name]), name


def test_pass_order_trace():
    _scene, seq = _make_seq(frames=2)
    cfg = DenoiseConfig(reinhard=True, iterations=1)
    _out, report = run_pipeline(seq, cfg, dump_intermediates=True)
    expected_per_frame = ["reinhard_forward", "temporal:shadow", "temporal:specular",
                          "atrous:shadow", "atrous:specular", "reinhard_inverse",
                          "shade_direct", "composite", "taa", "debug_dump"]
    expected = [f"{f}:{p}" for f in range(2) for p in expected_per_frame]
    assert report["trace"] == expected


def test_trace_without_reinhard_skips_bracket():
    _scene, seq = _make_seq(frames=1)
    _out, report = run_pipeline(seq, DenoiseConfig(iterations=1))
    assert not any("reinhard" in t for t in report["trace"])


def test_presets_accumulate_techniques():
    base = preset_config("svgf")
    assert (base.rectify_mode, base.adaptive_start, base.separable, base.reinhard) \
        == ("off", False, False, False)
    full = preset_config("svgf+rectify+adaptive+separable+reinhard")
    assert (full.rectify_mode, full.adaptive_start, full.separable, full.reinhard) \
        == ("clamp", True, True, True)
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("svgf+magic")


def test_quality_report_uses_reference():
    scene = scene_from_dict(preset_scene("shadow-objects", width=32, height=32))
    seq = synthesize_sequence(scene, frames=1, spp=1, seed=0, reference=True,
                              reference_spp=16)
    _out, report = run_pipeline(seq, preset_config("svgf"))
    assert len(report["quality"]) == 1
    row = report["quality"][0]
    assert set(row) >= {"ssim", "mse", "ssim_noisy", "mse_noisy"}


def test_output_sequence_roundtrips(tmp_path):
    _scene, seq = _make_seq(frames=2)
    out, _report = run_pipeline(seq, preset_config("svgf"), dump_intermediates=True)
    save_sequence(out, tmp_path / "out")
    back = load_sequence(tmp_path / "out")
    assert np.array_equal(back.frames[1]["composite"], out.frames[1]["composite"])
    assert "debug_variance_shadow" in back.frames[0]


def test_feedback_changes_history_but_not_first_output():
    _scene, seq = _make_seq(frames=4)
    out_fb, _ = run_pipeline(seq, DenoiseConfig(iterations=2))
    out_no, _ = run_pipeline(seq, DenoiseConfig(iterations=2, feedback="none"))
    assert np.array_equal(out_fb.frames[0]["shadow_denoised"],
                          out_no.frames[0]["shadow_denoised"])
    diff = np.abs(out_fb.frames[3]["shadow_denoised"].astype(np.float64)
                  - out_no.frames[3]["shadow_denoised"].astype(np.float64))
    assert diff.max() > 0.0


def test_synthesized_reference_is_independent_of_input():
    # the reference's samples start after the input's, so it never contains them
    scene = scene_from_dict(preset_scene("shadow-objects", width=16, height=16,
                                         movement="camera"))
    seq = synthesize_sequence(scene, frames=2, spp=1, seed=5, reference=True,
                              reference_spp=4)
    for f, frame in enumerate(seq.frames):
        _g, shadow, specular = render.render_frame(scene, f, 4, 5, sample_offset=1)
        assert frame["shadow_ref"].tobytes() == shadow.data.tobytes()
        assert frame["specular_ref"].tobytes() == specular.data.tobytes()


def test_run_pipeline_rejects_nonfinite_input():
    _scene, seq = _make_seq(frames=2)
    seq.frames[1]["specular_1spp"][5, 7, 1] = np.nan
    with pytest.raises(ValueError, match=r"frame 1 .*'specular_1spp' at pixel \(7, 5\)"):
        run_pipeline(seq, preset_config("svgf"))


def test_run_pipeline_rejects_scene_of_other_size():
    _scene, seq = _make_seq(frames=1)
    other = scene_from_dict(preset_scene("shadow-objects", width=40, height=40))
    with pytest.raises(ValueError, match="40x40 differs from the sequence's 32x32"):
        run_pipeline(seq, preset_config("svgf"), scene=other)


def test_synth_reference_channels_present():
    scene = scene_from_dict(preset_scene("pillars", width=24, height=24))
    seq = synthesize_sequence(scene, frames=1, spp=1, seed=1, reference=True,
                              reference_spp=8)
    f = seq.frames[0]
    assert {"shadow_ref", "specular_ref", "reference"} <= set(f)
    assert f["reference"].shape == (24, 24, 3)


def test_ibl_adaptive_iterations_keep_configured_count():
    _scene, seq = _make_seq("cubes-distance", frames=2, movement="camera")
    cfg = DenoiseConfig(iterations=2, adaptive_start=True, ibl_adaptive_iterations=True)
    _out, report = run_pipeline(seq, cfg)
    assert [len(rec["specular"]) for rec in report["iterations"]] == [2, 2]


def test_run_pipeline_checks_atrous_level_before_any_frame(monkeypatch):
    _scene, seq = _make_seq(frames=2)
    calls = []
    step = temporal.temporal_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(temporal, "temporal_step", counted)
    with pytest.raises(ValueError, match="a-trous level 4 too large for 32x32"):
        run_pipeline(seq, preset_config("svgf+rectify+adaptive"))
    assert calls == []


def test_ibl_secondary_adds_to_specular_only():
    scene = scene_from_dict(preset_scene("cubes-distance", width=16, height=16,
                                         roughness=0.0))
    plain = synthesize_sequence(scene, frames=2, spp=1, seed=3)
    ibl = synthesize_sequence(scene, frames=2, spp=1, seed=3, ibl_secondary=True)
    for a, b in zip(plain.frames, ibl.frames):
        for name in a:
            if name != "specular_1spp":
                assert a[name].tobytes() == b[name].tobytes(), name
        assert np.all(b["specular_1spp"] >= a["specular_1spp"])
        assert np.any(b["specular_1spp"] > a["specular_1spp"])
