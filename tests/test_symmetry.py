"""The denoiser's symmetries, which need no reference: a fault that shifts,
mirrors or mis-signs a tap the same way everywhere breaks them, though it
moves no digest of a symmetric scene and few reference scores."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtdenoise import spatial
from rtdenoise.frames import DenoiseConfig, FrameSequence
from rtdenoise.pipeline import PRESETS, preset_config, run_pipeline, synthesize_sequence
from rtdenoise.scenes import MOVEMENTS, PRESET_NAMES, preset_scene, scene_from_dict

_SCENES = [("cubes-distance", "camera"), ("shadow-objects", "light-teleport")]
_DENOISED = ("shadow_denoised", "specular_denoised")
_X, _Y = 1, 0  # image axes: (H, W) planes flip rows along y and columns along x


@pytest.fixture(scope="module")
def sequences() -> dict:
    """48x48, 6-frame inputs of each scene, keyed by (name, movement)."""
    return {(name, movement): synthesize_sequence(
                scene_from_dict(preset_scene(name, width=48, height=48, movement=movement)),
                frames=6, spp=1, seed=5)
            for name, movement in _SCENES}


def _flipped(seq: FrameSequence, axis: int, signed: bool = True) -> FrameSequence:
    """`seq` mirrored along the image `axis`: every channel flipped, and the
    motion's component along that axis negated, unless not `signed`."""
    frames = []
    for frame in seq.frames:
        out = {name: np.flip(arr, axis).copy() for name, arr in frame.items()}
        if signed:
            out["motion"][..., 0 if axis == _X else 1] *= -1
        frames.append(out)
    return FrameSequence(manifest=seq.manifest, frames=frames)


@pytest.mark.parametrize("preset", list(PRESETS))
@pytest.mark.parametrize("name,movement", _SCENES)
def test_denoiser_is_flip_symmetric(sequences, name, movement, preset):
    # the composite is left out: its lighting traces the unflipped camera
    seq, cfg = sequences[name, movement], preset_config(preset)
    base, _report = run_pipeline(seq, cfg)
    for axis in (_X, _Y):
        out, _report = run_pipeline(_flipped(seq, axis), cfg)
        for f, (want, got) in enumerate(zip(base.frames, out.frames, strict=True)):
            for channel in _DENOISED:
                assert np.array_equal(got[channel], np.flip(want[channel], axis)), \
                    (axis, f, channel)


def test_flip_relation_catches_a_motion_sign_fault(sequences):
    # the relation's own check: a flip that keeps the motion's sign
    # reprojects from the wrong side under camera motion
    seq, cfg = sequences["cubes-distance", "camera"], preset_config("svgf")
    base, _report = run_pipeline(seq, cfg)
    out, _report = run_pipeline(_flipped(seq, _X, signed=False), cfg)
    assert not np.array_equal(out.frames[-1]["shadow_denoised"],
                              np.flip(base.frames[-1]["shadow_denoised"], _X))


_FLIP_CASES = [(name, movement) for name in PRESET_NAMES for movement in MOVEMENTS
               if (name, movement) != ("pillars", "camera")]


@settings(deadline=None, max_examples=15)
@given(case=st.sampled_from(_FLIP_CASES), size=st.integers(24, 40),
       seed=st.integers(0, 2**31 - 1), roughness=st.floats(0.0, 1.0),
       ibl=st.sampled_from([True, False, False]), preset=st.sampled_from(list(PRESETS)),
       iterations=st.integers(1, 3), ibl_adaptive_iterations=st.booleans())
# the float64 sums run in mirrored order, so a flip may round otherwise: here
# frame 3's specular differs by one float32 spacing along x
@example(case=("cubes-distance", "lights-objects"), size=40, seed=1050735361, roughness=0.0,
         ibl=False, preset="svgf+rectify+adaptive", iterations=3,
         ibl_adaptive_iterations=False)
def test_denoiser_is_flip_symmetric_within_float32_rounding(
        case, size, seed, roughness, ibl, preset, iterations, ibl_adaptive_iterations):
    # over drawn scenes, seeds and configs, a flip gives the flipped outputs
    # within 2 float32 spacings of the frame's largest value, the exposure
    # relation's bound
    name, movement = case
    graded = {"roughness": roughness} if name in ("cubes-distance", "breakfast-lite") else {}
    teleport = {"teleport_frame": 2} if movement == "light-teleport" else {}
    scene = scene_from_dict(preset_scene(name, width=size, height=size, movement=movement,
                                         **graded, **teleport))
    seq = synthesize_sequence(scene, frames=4, spp=1, seed=seed, ibl_secondary=ibl)
    cfg = DenoiseConfig(**{**preset_config(preset).to_dict(), "iterations": iterations,
                           "ibl_adaptive_iterations": ibl and ibl_adaptive_iterations})
    base, _report = run_pipeline(seq, cfg)
    for axis in (_X, _Y):
        out, _report = run_pipeline(_flipped(seq, axis), cfg)
        for f, (want, got) in enumerate(zip(base.frames, out.frames, strict=True)):
            for channel in _DENOISED:
                mirrored = np.flip(want[channel], axis)
                gap = np.abs(got[channel].astype(np.float64) - mirrored).max()
                assert gap <= 2 * np.spacing(np.abs(mirrored).max()), (axis, f, channel, gap)


def _transposed(seq: FrameSequence) -> FrameSequence:
    """`seq` with its image axes swapped: every channel transposed, and the
    motion's x and y components swapped."""
    frames = []
    for frame in seq.frames:
        out = {name: np.swapaxes(arr, 0, 1).copy() for name, arr in frame.items()}
        out["motion"] = out["motion"][..., ::-1].copy()
        frames.append(out)
    return FrameSequence(manifest=seq.manifest, frames=frames)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("preset", ["svgf", "svgf+rectify"])
@pytest.mark.parametrize("name,movement", _SCENES)
def test_dense_denoiser_is_transpose_symmetric(sequences, name, movement, preset, split,
                                               monkeypatch):
    # the dense kernel is symmetric in x and y; the separable form filters
    # rows first, so it is not. A transposed frame puts the a-trous row
    # halves where the columns were: a half that reads or writes the other
    # half's rows breaks the relation
    if split:  # every level pass as two row halves, as on two CPUs
        monkeypatch.setattr(spatial, "_SPLIT_PIXELS", 0)
        monkeypatch.setattr(spatial.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seq, cfg = sequences[name, movement], preset_config(preset)
    base, _report = run_pipeline(seq, cfg)
    out, _report = run_pipeline(_transposed(seq), cfg)
    for f, (want, got) in enumerate(zip(base.frames, out.frames, strict=True)):
        for channel in _DENOISED:
            assert np.array_equal(got[channel], np.swapaxes(want[channel], 0, 1)), (f, channel)


def _exposed(seq: FrameSequence, k: float) -> FrameSequence:
    """`seq` with its 1 spp specular input scaled by `k`."""
    frames = [dict(frame, specular_1spp=frame["specular_1spp"] * np.float32(k))
              for frame in seq.frames]
    return FrameSequence(manifest=seq.manifest, frames=frames)


def _exposure_errors(seq: FrameSequence, preset: str, k: float = 4.0):
    """Per frame, the largest |specular(k x input) - k x specular(input)| in
    float32 spacings of the frame's largest k x specular, and whether the
    shadow output kept its bits."""
    cfg = preset_config(preset)
    base, _report = run_pipeline(seq, cfg)
    out, _report = run_pipeline(_exposed(seq, k), cfg)
    errors = []
    for want, got in zip(base.frames, out.frames, strict=True):
        scaled = np.float32(k) * want["specular_denoised"]
        gap = np.abs(got["specular_denoised"].astype(np.float64) - scaled)
        errors.append((float(gap.max() / np.spacing(np.abs(scaled).max())),
                       np.array_equal(got["shadow_denoised"], want["shadow_denoised"])))
    return errors


@pytest.mark.parametrize("preset", [p for p in PRESETS if not preset_config(p).reinhard])
@pytest.mark.parametrize("name,movement", _SCENES)
def test_specular_output_scales_with_its_input(sequences, name, movement, preset):
    # every stage is linear in the signal, but for the luminance stop's
    # epsilon, so 4 x the input gives 4 x the output within float32
    # rounding (at most 2 spacings of the frame's largest value here). The
    # shadow, filtered jointly, keeps its own bits
    for f, (spacings, shadow_kept) in enumerate(_exposure_errors(sequences[name, movement],
                                                                 preset)):
        assert spacings <= 2.0 and shadow_kept, (f, spacings)


def test_reinhard_breaks_the_exposure_relation(sequences):
    # x / (1 + x) compresses by design, so 4 x the input is no longer 4 x
    # the output: millions of spacings off, not a rounding
    errors = _exposure_errors(sequences["cubes-distance", "camera"],
                              "svgf+rectify+adaptive+separable+reinhard")
    assert max(spacings for spacings, _kept in errors) > 1e4
