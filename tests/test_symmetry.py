"""The denoiser's symmetries, which need no reference: a fault that shifts,
mirrors or mis-signs a tap the same way everywhere breaks them, though it
moves no digest of a symmetric scene and few reference scores."""

import numpy as np
import pytest

from rtdenoise.frames import FrameSequence
from rtdenoise.pipeline import PRESETS, preset_config, run_pipeline, synthesize_sequence
from rtdenoise.scenes import preset_scene, scene_from_dict

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
