#!/usr/bin/env python3
"""SHA-256 digests of every input sequence the cases synthesize and of
everything `run_pipeline` returns for them, to show that a change leaves the
renderer's and the denoiser's output bit for bit as they were.

Run from anywhere; the program is imported from the `src/` directory next to
this one, and the benchmark's workloads from `perfbench/harness.py`:

    python3 tools/digests.py > after.txt

Run it on two checkouts and diff the outputs. Each input prints one line per
frame and channel as `<input> input <frame> <channel> <shape> <sha256>`: the
G-buffer, the `*_1spp` channels and, where rendered, `shadow_ref`,
`specular_ref` and `reference`. Then each case denoised from it prints one
line per frame and output channel, debug intermediates included, and one
line each for the report's trace, iteration records and quality (empty for
the workloads, whose inputs carry no reference). The inputs are both
benchmark workloads at their own size and frame count, each its own case,
and 6-frame 48x48 cubes-distance/camera, shadow-objects/light-teleport and
breakfast-lite/lights-objects, cubes-distance and breakfast-lite at
roughness 0.1, each denoised under the five presets. breakfast-lite runs
per-pixel a-trous levels under adaptive start, which neither workload does.
Last, breakfast-lite/lights-objects at roughness 0.0 is synthesized with IBL
secondaries and denoised under the two adaptive presets without Reinhard,
with `ibl_adaptive_iterations`: its specular runs per-pixel iteration counts
{0, 1, 4} (the sphere at roughness 0, the table clamped to 0.05), so these
cases cover the pixels that stop before the channel's last iteration. Every
input is rendered on seed 3, so two runs' outputs compare line for line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # as perfbench/run.py runs the program
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from rtdenoise import pipeline  # noqa: E402
from rtdenoise.scenes import preset_scene, scene_from_dict  # noqa: E402

SIZE, FRAMES, REFERENCE_SPP, SEED = 48, 6, 4, 3
# (scene, movement, roughness or None for fixed materials)
SCENES = (("cubes-distance", "camera", 0.1), ("shadow-objects", "light-teleport", None),
          ("breakfast-lite", "lights-objects", 0.1))
# the presets run with `ibl_adaptive_iterations` on noise-free IBL secondaries
IBL_PRESETS = ("svgf+rectify+adaptive", "svgf+rectify+adaptive+separable")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _print_planes(prefix: str, frames) -> None:
    """One line per frame and channel: its shape and digest."""
    for f, frame in enumerate(frames):
        for channel in sorted(frame):
            plane = frame[channel]
            shape = "x".join(map(str, plane.shape))
            print(f"{prefix} {f} {channel} {shape} {_sha(plane.tobytes())}")


def inputs():
    """(name, synthesize, cases) per input sequence: `synthesize()` renders it,
    and `cases` maps the name of each case denoised from it to its config."""
    for name, wl in harness.WORKLOADS.items():
        yield name, lambda wl=wl: pipeline.synthesize_sequence(
            harness.make_scene(wl, wl.size, wl.frames), wl.frames, harness.INPUT_SPP, SEED), {
            name: harness.denoise_config(wl.preset, wl.size)}
    for scene, movement, roughness in SCENES:
        extra = {"teleport_frame": FRAMES // 2} if movement == "light-teleport" else {}
        if roughness is not None:
            extra["roughness"] = roughness
        doc = preset_scene(scene, width=SIZE, height=SIZE, movement=movement, **extra)
        yield f"{scene}/{movement}", lambda doc=doc: pipeline.synthesize_sequence(
            scene_from_dict(doc), FRAMES, 1, SEED, reference=True,
            reference_spp=REFERENCE_SPP), {
            f"{scene}/{movement}/{preset}": harness.denoise_config(preset, SIZE)
            for preset in pipeline.PRESETS}
    ibl_doc = preset_scene("breakfast-lite", width=SIZE, height=SIZE,
                           movement="lights-objects", roughness=0.0)
    name = "breakfast-lite/lights-objects/ibl-roughness-0"
    yield name, lambda: pipeline.synthesize_sequence(
        scene_from_dict(ibl_doc), FRAMES, 1, SEED, ibl_secondary=True, reference=True,
        reference_spp=REFERENCE_SPP), {
        f"{name}/{preset}": dataclasses.replace(harness.denoise_config(preset, SIZE),
                                                ibl_adaptive_iterations=True)
        for preset in IBL_PRESETS}


def main() -> int:
    for input_name, synthesize, cases in inputs():
        seq = synthesize()
        _print_planes(f"{input_name} input", seq.frames)
        for name, cfg in cases.items():
            out, report = pipeline.run_pipeline(seq, cfg, dump_intermediates=True)
            _print_planes(name, out.frames)
            for key in ("trace", "iterations", "quality"):
                text = json.dumps(report[key], sort_keys=True, default=repr)
                print(f"{name} {key} {_sha(text.encode())}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
