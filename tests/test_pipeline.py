import functools
import inspect
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtdenoise import compose, metrics, render, spatial, temporal, tonemap
from rtdenoise.frames import CHANNELS, ChannelKind, DenoiseConfig, FrameSequence
from rtdenoise.pipeline import (PRESETS, SPECULAR, lighting, preset_config,
                                reconstruct_positions, run_pipeline, synthesize_sequence)
from rtdenoise.scenes import MOVEMENTS, PRESET_NAMES, preset_scene, scene_from_dict
from rtdenoise.store import SequenceError, check_sequence, load_sequence, save_sequence


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
    # the full sky plate and a second camera-ray trace give the same bits
    assert np.array_equal(out.frames[0]["composite"], expected.astype(np.float32))
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


@pytest.mark.parametrize("spp,reference_spp", [(0, 4), (1, 0)])
def test_synthesize_sequence_rejects_spp_below_one(spp, reference_spp):
    scene = scene_from_dict(preset_scene("shadow-objects", width=8, height=8))
    with pytest.raises(ValueError, match="spp must be an integer >= 1, got 0"):
        synthesize_sequence(scene, frames=1, spp=spp, seed=0, reference=True,
                            reference_spp=reference_spp)


@pytest.mark.parametrize("count,name", [
    (0, "frames"), (-2, "frames"), (0, "reference_spp"),
    # a bool would count as 1 frame or sample, a float fail inside numpy
    *[(count, name) for name in ("frames", "spp", "reference_spp")
      for count in (True, 2.5, 2.0, "2")]])
def test_synthesize_sequence_rejects_counts_before_rendering(monkeypatch, count, name):
    scene = scene_from_dict(preset_scene("shadow-objects", width=8, height=8))

    def render_frame(*args, **kwargs):
        raise AssertionError("a frame was rendered")

    monkeypatch.setattr(render, "render_frame", render_frame)
    args = {"frames": 2, "spp": 1, "seed": 0, "reference": True, "reference_spp": 4}
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer >= 1, got {count!r}") + "$"):
        synthesize_sequence(scene, **{**args, name: count})


@pytest.mark.parametrize("seed", [2.5, 2.0, True, False, None, "3"])
def test_synthesize_sequence_rejects_a_seed_that_is_no_int(monkeypatch, seed):
    # the RNG would key on a float's int part while the manifest kept the float
    scene = scene_from_dict(preset_scene("shadow-objects", width=8, height=8))
    monkeypatch.setattr(render, "render_frame", None)  # nothing may be rendered
    with pytest.raises(ValueError, match="^" + re.escape(
            f"seed must be an integer, got {seed!r}") + "$"):
        synthesize_sequence(scene, frames=2, spp=1, seed=seed)


def test_synthesize_sequence_rejects_frames_past_the_animation_before_rendering(monkeypatch):
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["frame_count"] = 2
    scene = scene_from_dict(doc)
    calls = []
    real = render.render_frame

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(render, "render_frame", counted)
    with pytest.raises(ValueError, match="^frame 2 beyond scene animation length 2$"):
        synthesize_sequence(scene, frames=4, spp=1, seed=0, reference=True, reference_spp=4)
    assert calls == []


class _Rendered(Exception):
    """Raised by a stand-in `render_frame`: the checks let the first render start."""


@pytest.mark.parametrize("spp,reference_spp,rejected", [
    (2, 2**63 - 1, True), (1, 2**63, True), (1, 2**63 - 1, False), (2**62, 2**62, False)])
def test_synthesize_sequence_checks_the_reference_sample_range_before_rendering(
        monkeypatch, spp, reference_spp, rejected):
    # the reference's samples follow the input's, so its last index is
    # spp + reference_spp - 1; it used to be checked only in the reference's
    # own render, after frame 0's input had rendered, naming neither count
    scene = scene_from_dict(preset_scene("shadow-objects", width=8, height=8))
    calls = []

    def render_frame(*args, **kwargs):
        calls.append(args)
        raise _Rendered

    monkeypatch.setattr(render, "render_frame", render_frame)
    args = {"frames": 1, "spp": spp, "seed": 0, "reference": True, "reference_spp": reference_spp}
    if rejected:
        with pytest.raises(ValueError, match="^" + re.escape(
                "the reference's last sample index spp + reference_spp - 1 must be below 2^63, "
                f"got spp {spp} and reference_spp {reference_spp}") + "$"):
            synthesize_sequence(scene, **args)
        assert calls == []
    else:
        with pytest.raises(_Rendered):
            synthesize_sequence(scene, **args)
        assert len(calls) == 1


def test_run_pipeline_rejects_frames_past_the_animation_before_any_frame(temporal_calls):
    # the manifest's scene says the sequence is shorter than it is
    _scene, seq = _make_seq(w=16, h=16, frames=3, movement="lights-objects")
    seq.manifest["scene"]["frame_count"] = 2
    with pytest.raises(ValueError, match="^frame 2 beyond scene animation length 2$"):
        run_pipeline(seq, DenoiseConfig(iterations=1))
    assert temporal_calls == []


def test_every_camera_query_checks_the_frame_range():
    doc = preset_scene("shadow-objects", width=8, height=8, movement="camera")
    doc["frame_count"] = 2
    # the camera path's last keyframe, 63, lies past the animation and parses
    scene = scene_from_dict(doc)
    gbuf = render.render_frame(scene, 1, 1, 0)[0]
    for query in (lambda: scene.camera_at(2), lambda: render.camera_rays(scene, 2),
                  lambda: render.project_to_pixel(np.zeros((1, 3)), scene, 2),
                  lambda: lighting(scene, 2, gbuf)):
        with pytest.raises(ValueError, match="^frame 2 beyond scene animation length 2$"):
            query()


def test_synthesize_sequence_renders_every_frame_of_the_animation():
    doc = preset_scene("shadow-objects", width=8, height=8)
    doc["frame_count"] = 2
    seq = synthesize_sequence(scene_from_dict(doc), frames=2, spp=1, seed=0)
    assert len(seq.frames) == 2


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
    seq.manifest["scene"] = preset_scene("shadow-objects", width=40, height=40)
    with pytest.raises(ValueError, match="40x40 differs from the sequence's 32x32"):
        run_pipeline(seq, preset_config("svgf"))


def test_run_pipeline_is_causal():
    # frame k's output depends only on frames 0..k: denoising a prefix gives
    # the first frames of the full run bit for bit
    _scene, seq = _make_seq("breakfast-lite", w=48, h=48, frames=5, roughness=0.1,
                            movement="camera")
    cfg = preset_config("svgf+rectify+adaptive+separable+reinhard",
                        base=DenoiseConfig(iterations=3))
    full, full_report = run_pipeline(seq, cfg)
    for k in range(1, len(seq.frames) + 1):
        part, report = run_pipeline(FrameSequence(seq.manifest, seq.frames[:k]), cfg)
        assert report["iterations"] == full_report["iterations"][:k]
        for got, want in zip(part.frames, full.frames[:k], strict=True):
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].tobytes() == want[name].tobytes(), (k, name)


@functools.lru_cache(maxsize=None)
def _static_sequence(name):
    """Three frames of the preset scene at rest, 16x16; callers do not mutate it."""
    _scene, seq = _make_seq(name, w=16, h=16, frames=3, movement="static")
    return seq


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(PRESET_NAMES), st.sampled_from(list(PRESETS)),
       st.floats(0.0, 1.0, width=32), st.lists(st.floats(0.0, 8.0, width=32), min_size=3,
                                               max_size=3))
def test_constant_inputs_on_static_geometry_are_a_fixed_point(name, preset, shadow, specular):
    # every stage averages equal values, so only Reinhard's biased inverse
    # moves the output off the input. The outputs are stored in float32, so
    # the denoised channels are read in float64 where they are composed.
    seq = _static_sequence(name)
    h, w = seq.height, seq.width
    frames = [{**frame, "shadow_1spp": np.full((h, w), shadow, dtype=np.float32),
               "specular_1spp": np.broadcast_to(np.float32(specular), (h, w, 3)).copy()}
              for frame in seq.frames]
    cfg = preset_config(preset, base=DenoiseConfig(iterations=2))
    composed, real = [], compose.composite

    def spy(direct, shadow_denoised, specular_denoised, gbuf, sky):
        composed.append((shadow_denoised, specular_denoised))
        return real(direct, shadow_denoised, specular_denoised, gbuf, sky)

    with mock.patch.object(compose, "composite", spy):
        run_pipeline(FrameSequence(seq.manifest, frames), cfg)
    spec = np.asarray(specular, dtype=np.float64)
    if cfg.reinhard:
        spec = tonemap.reinhard_inverse_paper(
            tonemap.reinhard_forward(spec, cfg.luma_multiplier), cfg.reinhard_weight)
    # each frame composes the denoised channels, then the noisy ones
    assert len(composed) == 2 * len(frames)
    for got_shadow, got_specular in composed[0::2]:
        assert np.abs(got_shadow - np.float64(shadow)).max() <= 1e-12
        assert np.abs(got_specular - spec).max() <= 1e-12


_SCENE_CASES = [(name, movement) for name in PRESET_NAMES for movement in MOVEMENTS
                if (name, movement) != ("pillars", "camera")]


@settings(deadline=None, max_examples=20)
@given(case=st.sampled_from(_SCENE_CASES), seed=st.integers(0, 2**31 - 1),
       ibl=st.booleans(), noise_seed=st.none() | st.integers(0, 2**32 - 1),
       preset=st.sampled_from(list(PRESETS)), iterations=st.integers(0, 3),
       rectify_mode=st.sampled_from(["off", "clamp", "clip"]),
       feedback=st.sampled_from(["first_iteration", "none"]),
       ibl_adaptive_iterations=st.booleans(), dump=st.booleans())
def test_every_output_is_finite_and_valid(case, seed, ibl, noise_seed, preset, iterations,
                                          rectify_mode, feedback, ibl_adaptive_iterations,
                                          dump):
    name, movement = case
    teleport = {"teleport_frame": 2} if movement == "light-teleport" else {}
    scene = scene_from_dict(preset_scene(name, width=32, height=32, movement=movement,
                                         **teleport))
    seq = synthesize_sequence(scene, frames=3, spp=1, seed=seed, ibl_secondary=ibl)
    if noise_seed is not None:
        # any in-range 1 spp input: visibility in [0, 1], and specular with a
        # heavy tail up to 1e4
        rs = np.random.default_rng(noise_seed)
        for frame in seq.frames:
            frame["shadow_1spp"] = rs.random((32, 32)).astype(np.float32)
            frame["specular_1spp"] = np.minimum(rs.pareto(0.5, (32, 32, 3)),
                                                1e4).astype(np.float32)
    cfg = DenoiseConfig(**{**preset_config(preset).to_dict(), "iterations": iterations,
                           "rectify_mode": rectify_mode, "feedback": feedback,
                           "ibl_adaptive_iterations": ibl_adaptive_iterations})
    out, _report = run_pipeline(seq, cfg, dump_intermediates=dump)
    check_sequence(out)
    assert len(out.frames) == 3
    for f, frame in enumerate(out.frames):
        for channel, img in frame.items():
            assert np.all(np.isfinite(img)), (f, channel)


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


@pytest.fixture
def temporal_calls(monkeypatch):
    """The calls of `temporal.temporal_frame` made while the test runs."""
    calls = []
    step = temporal.temporal_frame

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(temporal, "temporal_frame", counted)
    return calls


def test_temporal_calls_sees_every_frame(temporal_calls):
    # so that the checks "before any frame" below are not vacuous
    _scene, seq = _make_seq(frames=2)
    run_pipeline(seq, DenoiseConfig(iterations=1))
    assert temporal_calls == [1, 1]


def test_run_pipeline_checks_atrous_level_before_any_frame(temporal_calls):
    _scene, seq = _make_seq(frames=2)
    with pytest.raises(ValueError, match="a-trous level 4 too large for 32x32"):
        run_pipeline(seq, preset_config("svgf+rectify+adaptive"))
    assert temporal_calls == []


# a camera path with a view basis at its keyframes, frames 0 and 2, but none
# at frame 1, and the message naming the fault there
_CAMERA_WITHOUT_BASIS_AT_FRAME_1 = {
    # position and look-at trade places and meet halfway: a depth plane of NaN
    "look_at at position": ({"position": {"keyframes": [[0, [0, 2, 6]], [2, [0, 2, -6]]]},
                             "look_at": {"keyframes": [[0, [0, 2, -6]], [2, [0, 2, 6]]]}},
                            "camera.look_at equals camera.position at frame 1"),
    # the view sweeps through `up`: every pixel rendered along one ray
    "view along up": ({"position": [0, 2, 0],
                       "look_at": {"keyframes": [[0, [-1, 3, 0]], [2, [1, 3, 0]]]}},
                      "camera.up [0.0, 1.0, 0.0] is parallel to the view direction at frame 1"),
}


@pytest.mark.parametrize("case", list(_CAMERA_WITHOUT_BASIS_AT_FRAME_1))
def test_camera_is_checked_at_every_frame_before_any_work(temporal_calls, monkeypatch, case):
    camera, message = _CAMERA_WITHOUT_BASIS_AT_FRAME_1[case]
    doc = preset_scene("shadow-objects", width=16, height=16)
    doc["camera"].update(camera)
    scene = scene_from_dict(doc)  # its keyframes pass
    render.render_frame(scene, 0, 1, 0)
    match = "^" + re.escape(message) + "$"
    with pytest.raises(ValueError, match=match):
        render.render_frame(scene, 1, 1, 0)

    _scene, seq = _make_seq(w=16, h=16, frames=2)
    seq.manifest["scene"] = doc
    with pytest.raises(ValueError, match=match):
        run_pipeline(seq, DenoiseConfig(iterations=1))
    assert temporal_calls == []
    monkeypatch.setattr(render, "render_frame", None)  # nothing may be rendered
    with pytest.raises(ValueError, match=match):
        synthesize_sequence(scene, frames=2, spp=1, seed=0)


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


def test_run_pipeline_writes_exactly_its_channels():
    _scene, seq = _make_seq(frames=2)
    outputs = {"shadow_denoised", "specular_denoised", "composite", "composite_noisy"}
    debug = {name for name in CHANNELS if name.startswith("debug_")}
    assert len(debug) == 6
    for dump, want in ((False, outputs), (True, outputs | debug)):
        out, _report = run_pipeline(seq, DenoiseConfig(iterations=2), dump_intermediates=dump)
        assert out.channels == sorted(want)
        for frame in out.frames:
            assert frame.keys() == want
            for name, img in frame.items():
                arity = CHANNELS[name]
                assert img.shape == ((32, 32) if arity == 1 else (32, 32, arity)), name
                assert img.dtype == np.float32, name


def test_run_pipeline_names_missing_input_channels_before_any_frame(temporal_calls):
    _scene, seq = _make_seq(frames=2)
    for name in ("depth", "albedo", "shadow_1spp"):
        seq.manifest["channels"].remove(name)
        for frame in seq.frames:
            del frame[name]
    with pytest.raises(SequenceError,
                       match="lacks the input channels: depth, albedo, shadow_1spp$"):
        run_pipeline(seq, preset_config("svgf"))
    assert temporal_calls == []


def test_history_len_is_the_same_for_every_channel():
    # history length follows the G-buffer alone, so one debug channel serves both
    _scene, seq = _make_seq("cubes-distance", frames=4, movement="camera")
    cfg = DenoiseConfig(rectify_mode="clamp")
    shadow = specular = prev_gbuf = None
    for f, frame in enumerate(seq.frames):
        gbuf = seq.gbuffer(f)
        assert frame["shadow_1spp"].ndim == 2 and frame["specular_1spp"].shape[2] == 3
        shadow, _v = temporal.temporal_step(frame["shadow_1spp"].astype(np.float64), gbuf,
                                            shadow, prev_gbuf, cfg)
        specular, _v = temporal.temporal_step(frame["specular_1spp"].astype(np.float64),
                                              gbuf, specular, prev_gbuf, cfg)
        prev_gbuf = gbuf
        assert np.array_equal(shadow.history_len, specular.history_len), f
    assert shadow.history_len.max() == 4


@pytest.mark.parametrize("reinhard", [False, True])
@pytest.mark.parametrize("rectify_mode", ["off", "clamp", "clip"])
@pytest.mark.parametrize("name,movement", [("cubes-distance", "camera"),
                                           ("shadow-objects", "light-teleport")])
def test_joint_temporal_step_gives_each_channel_its_bits_alone(name, movement, rectify_mode,
                                                               reinhard):
    # the light teleports mid-sequence, which drives rectification
    extra = {"teleport_frame": 2} if movement == "light-teleport" else {}
    _scene, seq = _make_seq(name, frames=4, movement=movement, **extra)
    cfg = DenoiseConfig(rectify_mode=rectify_mode, reinhard=reinhard)
    rs = np.random.default_rng(7)
    joint, alone, prev_gbuf = None, dict.fromkeys(ChannelKind), None
    for f, frame in enumerate(seq.frames):
        gbuf = seq.gbuffer(f)
        signal = {kind: frame[f"{kind.value}_1spp"].astype(np.float64) for kind in ChannelKind}
        if reinhard:
            signal[SPECULAR] = tonemap.reinhard_forward(signal[SPECULAR], cfg.luma_multiplier)
        joint, variance = temporal.temporal_frame(signal, gbuf, joint, prev_gbuf, cfg)
        assert list(variance) == list(ChannelKind)
        for kind in ChannelKind:
            alone[kind], want = temporal.temporal_step(signal[kind], gbuf, alone[kind],
                                                       prev_gbuf, cfg)
            pairs = [(getattr(joint, name)[kind], getattr(alone[kind], name)[0], name)
                     for name in ("color", "moment1", "moment2")]
            # the frame's one history length is each channel's own
            pairs.append((joint.history_len, alone[kind].history_len, "history_len"))
            for got, ref, name in pairs:
                assert got.dtype == ref.dtype and got.shape == ref.shape, (f, kind, name)
                assert got.tobytes() == ref.tobytes(), (f, kind, name)
            assert variance[kind].shape == want.shape
            assert variance[kind].tobytes() == want.tobytes(), (f, kind)
            # the a-trous feedback replaces the color that the next frame reprojects
            joint.color[kind] = alone[kind].color[0] = rs.random(joint.color[kind].shape)
        assert list(joint.color) == list(joint.moment1) == list(joint.moment2) \
            == list(ChannelKind)
        prev_gbuf = gbuf


def test_consistency_tests_run_once_per_frame_for_both_channels(monkeypatch):
    tests, per_frame = [], []
    consistent, frame_step = temporal._consistent, temporal.temporal_frame

    def counted(*args, **kwargs):
        tests.append(1)
        return consistent(*args, **kwargs)

    def step(*args, **kwargs):
        before = len(tests)
        result = frame_step(*args, **kwargs)
        per_frame.append(len(tests) - before)
        return result

    monkeypatch.setattr(temporal, "_consistent", counted)
    monkeypatch.setattr(temporal, "temporal_frame", step)
    _scene, seq = _make_seq("cubes-distance", frames=3, movement="camera")
    run_pipeline(seq, DenoiseConfig(iterations=1, rectify_mode="clamp"))
    # every history is shorter than 4 frames, so each frame takes the spatial
    # variance's 7x7 window; past frame 0 the 4 bilinear texels come first
    assert per_frame == [49, 4 + 49, 4 + 49]


def test_temporal_passes_run_through_the_module_attribute(monkeypatch):
    # a tracer wraps these module attributes and reads the arguments named
    # here by the real signatures, and the reprojection's "valid"; the frame's
    # one history is accumulated and its variance estimated once per frame
    calls = []
    for name in ("reproject", "rectify_history", "accumulate", "estimate_variance"):
        real = getattr(temporal, name)

        def probe(*args, _real=real, _name=name, _sig=inspect.signature(real), **kwargs):
            result = _real(*args, **kwargs)
            calls.append((_name, _sig.bind(*args, **kwargs).arguments, result))
            return result

        monkeypatch.setattr(temporal, name, probe)
    _scene, seq = _make_seq("cubes-distance", frames=3, movement="camera")
    cfg = DenoiseConfig(iterations=1, rectify_mode="clamp")
    run_pipeline(seq, cfg)
    per_frame = ["reproject", "rectify_history", "rectify_history", "accumulate",
                 "estimate_variance"]
    assert [c[0] for c in calls] == per_frame[-2:] + per_frame * 2
    for name, args, result in calls:
        if name == "reproject":
            assert args["curr_gbuf"].depth.shape == (32, 32)
            assert result["valid"].shape == (32, 32) and result["valid"].any()
        elif name == "accumulate":
            assert list(args["curr"]) == list(result.color) == list(ChannelKind)
            assert result.history_len.shape == (32, 32)
        elif name == "estimate_variance":
            assert args["curr_gbuf"].depth.shape == (32, 32)
            assert args["history"].history_len.shape == (32, 32)
            assert args["min_history"] == cfg.spatial_variance_min_history
    widths = [args["tap_color"].shape for name, args, _r in calls if name == "rectify_history"]
    assert widths == [(32, 32, 1), (32, 32, 3)] * 2


@pytest.mark.parametrize("separable", [False, True])
def test_atrous_iterations_run_through_the_module_attribute(separable, monkeypatch):
    # a tracer wraps spatial.atrous_dense / atrous_separable and reads the tap
    # count from `stats`: one joint call per iteration, counting both channels
    name = "atrous_separable" if separable else "atrous_dense"
    real = getattr(spatial, name)
    taps = []

    def probe(channel, variance, gbuf, level, cfg, stats=None, **kwargs):
        result = real(channel, variance, gbuf, level, cfg, stats=stats, **kwargs)
        taps.append(stats["taps"])
        return result

    monkeypatch.setattr(spatial, name, probe)
    _scene, seq = _make_seq(frames=2)
    cfg = DenoiseConfig(iterations=3, separable=separable)
    _out, report = run_pipeline(seq, cfg)
    per_channel = 32 * 32 * (10 if separable else 25)
    assert taps == [2 * per_channel] * (2 * 3)
    for rec in report["iterations"]:
        assert [r["taps"] for kind in ("shadow", "specular") for r in rec[kind]] \
            == [per_channel] * (2 * 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rectification_cuts_the_shadow_error_after_a_light_teleport(seed):
    # the paper's claim for history rectification: after the light jumps,
    # clamping the history to the new samples' neighbourhood cuts the shadow
    # error against the 64-spp reference on every later frame. At 32x32 the
    # cut reads 1.5-2.2x over seeds 0-5 (>= 3x was measured at 64x64)
    scene = scene_from_dict(preset_scene("shadow-objects", width=32, height=32,
                                         movement="light-teleport", teleport_frame=4))
    seq = synthesize_sequence(scene, frames=8, spp=1, seed=seed, reference=True,
                              reference_spp=64)
    errors = {}
    for name in ("svgf", "svgf+rectify"):
        out, _report = run_pipeline(seq, preset_config(name))
        errors[name] = [metrics.mse(o["shadow_denoised"], i["shadow_ref"])
                        for o, i in zip(out.frames[4:], seq.frames[4:])]
    for frame, (plain, rectified) in enumerate(zip(errors["svgf"], errors["svgf+rectify"]), 4):
        assert plain >= 1.3 * rectified, (frame, plain, rectified)
