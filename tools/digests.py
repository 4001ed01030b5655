#!/usr/bin/env python3
"""SHA-256 digests of everything `run_pipeline` returns, to show that a
change leaves the denoiser's output bit for bit as it was.

Run from anywhere; the program is imported from the `src/` directory next to
this one, and the benchmark's workloads from `perfbench/harness.py`:

    python3 tools/digests.py > after.txt

Run it on two checkouts and diff the outputs. Each case prints one line per
frame and output channel, debug intermediates included, then one line each
for the report's trace, iteration records and quality (empty for the
workloads, whose inputs carry no reference). The cases are both
benchmark workloads at their own size and frame count, and the five presets
on 6-frame 48x48 cubes-distance/camera, shadow-objects/light-teleport and
breakfast-lite/lights-objects, cubes-distance and breakfast-lite at roughness
0.1. breakfast-lite runs per-pixel a-trous levels under adaptive start, which
neither workload does. Every case runs on seed 3, so two runs' outputs compare
line for line.
"""

from __future__ import annotations

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases():
    """(name, thunk) per case; the thunk returns the input sequence and config."""
    for name, wl in harness.WORKLOADS.items():
        yield name, lambda wl=wl: (
            pipeline.synthesize_sequence(harness.make_scene(wl, wl.size, wl.frames), wl.frames,
                                         harness.INPUT_SPP, SEED),
            harness.denoise_config(wl.preset, wl.size))
    for scene, movement, roughness in SCENES:
        extra = {"teleport_frame": FRAMES // 2} if movement == "light-teleport" else {}
        if roughness is not None:
            extra["roughness"] = roughness
        doc = preset_scene(scene, width=SIZE, height=SIZE, movement=movement, **extra)
        for preset in pipeline.PRESETS:
            yield f"{scene}/{movement}/{preset}", lambda doc=doc, preset=preset: (
                pipeline.synthesize_sequence(scene_from_dict(doc), FRAMES, 1, SEED,
                                             reference=True, reference_spp=REFERENCE_SPP),
                harness.denoise_config(preset, SIZE))


def main() -> int:
    for name, make in cases():
        seq, cfg = make()
        out, report = pipeline.run_pipeline(seq, cfg, dump_intermediates=True)
        for f, frame in enumerate(out.frames):
            for channel in sorted(frame):
                plane = frame[channel]
                shape = "x".join(map(str, plane.shape))
                print(f"{name} {f} {channel} {shape} {_sha(plane.tobytes())}")
        for key in ("trace", "iterations", "quality"):
            text = json.dumps(report[key], sort_keys=True, default=repr)
            print(f"{name} {key} {_sha(text.encode())}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
