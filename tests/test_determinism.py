"""Outputs do not depend on the BLAS thread count.

`rng` and `render` claim bit-identical images for fixed inputs regardless of
scheduling, and `tonemap.luma` and the camera rays go through `@`, which a
threaded BLAS may split differently. One frame is also rendered with
image-based lighting, so the prefiltered map's lookups on channel-major
directions are covered. Each run is a fresh interpreter, since
the thread count is read when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import rtdenoise

_SCRIPT = """
import hashlib
from dataclasses import fields

import numpy as np

from rtdenoise.envmap import prefilter_env
from rtdenoise.frames import DenoiseConfig
from rtdenoise.pipeline import preset_config, run_pipeline, synthesize_sequence
from rtdenoise.render import render_frame
from rtdenoise.scenes import preset_scene, scene_from_dict

digest = hashlib.sha256()
scene = scene_from_dict(preset_scene("cubes-distance", width=24, height=24,
                                     movement="camera"))
for prefiltered in (None, prefilter_env(scene.env, 3)):
    gbuf, shadow, specular = render_frame(scene, 1, 2, 9, prefiltered=prefiltered)
    for arr in [getattr(gbuf, f.name) for f in fields(gbuf)] + [shadow.data, specular.data]:
        digest.update(np.ascontiguousarray(arr).tobytes())
seq = synthesize_sequence(scene, frames=3, spp=1, seed=9)
# the dense path (svgf) and the separable full stack
for preset in ("svgf", "svgf+rectify+adaptive+separable+reinhard"):
    cfg = preset_config(preset, base=DenoiseConfig(iterations=2))
    out, report = run_pipeline(seq, cfg, dump_intermediates=True)
    for frame in out.frames:
        for name in sorted(frame):
            digest.update(np.ascontiguousarray(frame[name]).tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    src = str(Path(rtdenoise.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_outputs_independent_of_blas_threads():
    one, two = _digest(1), _digest(2)
    assert len(one) == 64
    assert one == two
