"""Workloads, the measured chain, output checks and metrics.

Every workload follows the program's command-line flow from one process:
render a 1 spp input sequence (`synthesize_sequence`), save and reload it
through the sequence store, denoise the reloaded copy (`run_pipeline`), then
save and reload the output. Untraced repetitions reload LOADS times, so that
the short load step is timed over more work; the first reload is checked.

Set-up renders the inputs and an independent reference of the last frame.
It runs before every repetition of the store/denoise chain and at least
SETUPS times, so that its median is steady and work moved into set-up
shows, and every repeat must reproduce the first bit for bit. Set-ups and
chain repetitions alternate for about the requested seconds, with at least
MIN_PASSES repetitions. Each step's wall time is scaled by the host speed
sampled around and inside it (see hostspeed.py), and each timing is the
median of the scaled times over its repeats; wall times are printed beside.

Every repetition checks its output: the reloaded input and output match
what was saved bit for bit, every output frame passes `check_sequence`
(which covers non-finite values), every repetition's composites equal the
first repetition's bit for bit, and the denoised last frame grades better
against the reference than the 1 spp composite does. A frame failing any
check counts once per repetition toward `failed`.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rtdenoise import compose, metrics, pipeline, render, store
from rtdenoise.frames import DenoiseConfig, FrameSequence
from rtdenoise.scenes import preset_scene, scene_from_dict

import spans
from hostspeed import HostSpeed

SETUPS = 2
MIN_PASSES = 2
LOADS = 6  # reloads per untraced store round trip; load times are their mean
INPUT_SPP = 1


@dataclass(frozen=True)
class Workload:
    scene: str
    movement: str
    size: int
    frames: int
    preset: str
    reference_spp: int


WORKLOADS = {
    # Every pixel moves: reprojection gathers bilinearly with disocclusions,
    # and dense 25-tap a-trous on the large working set is about two thirds
    # of the frame. The configuration of the roadmap's 256x256 per-frame
    # target; 8 frames, so that five of them are past the 4-frame
    # spatial-variance warm-up.
    "camera-dense": Workload("cubes-distance", "camera", 256, 8, "svgf", 16),
    # Static camera, so history grows long and most of the spatial variance
    # is computed only to be discarded; the light teleports mid-sequence,
    # which drives rectification. Reinhard on, separable a-trous, 128x128.
    "teleport-stack": Workload("shadow-objects", "light-teleport", 128, 8,
                               "svgf+rectify+adaptive+separable+reinhard", 32),
}

# per-layer metrics: `<span>.ms` is inclusive and `<span>.self_ms` self time,
# both in ms per frame. The renderer's spans are taken from the traced set-up,
# every other layer's from the median traced repetition of the chain alone.
LAYER_TIMES = (
    "temporal.temporal_step.self_ms",
    "temporal.reproject.ms",
    "temporal.rectify_history.ms",
    "temporal.accumulate.ms",
    "temporal.estimate_variance.ms",
    "spatial.denoise_channel.self_ms",
    "spatial.atrous_dense.ms",
    "spatial.atrous_separable.ms",
    "tonemap.reinhard_forward.ms",
    "tonemap.reinhard_inverse_paper.ms",
    "compose.shade_direct.ms",
    "compose.composite.ms",
    "compose.taa.ms",
    "compose.rectify_history.ms",
    "pipeline.reconstruct_positions.ms",
    "pipeline.run_pipeline.self_ms",
    "render.render_frame.ms",
    "render.trace_nearest.ms",
    "render.occluded.ms",
    "render.render_sky.ms",
    "store.save_sequence.ms",
    "store.load_sequence.ms",
)


def _ratio(num: str, den: str):
    return lambda c, n: c.get(num, 0) / c[den] if c.get(den) else 0.0


# per-layer counts of one repetition: name -> (unit, f(counts, frames))
LAYER_COUNTS = {
    "temporal.reproject.valid_frac": ("1", _ratio("reproject.valid", "reproject.foreground")),
    "temporal.rectify.changed_frac": ("1", _ratio("rectify.changed", "rectify.valid")),
    "temporal.spatial_fallback_frac": ("1", _ratio("variance.spatial", "variance.foreground")),
    "temporal.nonfinite_in": ("count", lambda c, n: c.get("temporal.nonfinite_in", 0)),
    "spatial.atrous.taps": ("taps/frame", lambda c, n: c.get("atrous.taps", 0) / n),
    "spatial.nonfinite_out": ("count", lambda c, n: c.get("spatial.nonfinite_out", 0)),
    "compose.nonfinite_out": ("count", lambda c, n: c.get("compose.nonfinite_out", 0)),
    "store.bytes_per_frame": ("bytes", _ratio("store.bytes", "store.frames")),
}


def make_scene(wl: Workload, size: int, frames: int):
    extra = {"teleport_frame": frames // 2} if wl.movement == "light-teleport" else {}
    return scene_from_dict(preset_scene(wl.scene, width=size, height=size,
                                        movement=wl.movement, **extra))


def denoise_config(preset: str, size: int) -> DenoiseConfig:
    """The preset's config; at sizes too small for its top a-trous level
    (the 32x32 smoke runs) the iteration count drops until it fits."""
    cfg = pipeline.preset_config(preset)
    iterations = cfg.iterations
    while iterations > 1 and 2 ** (iterations - 1 + cfg.adaptive_start) >= size / 2:
        iterations -= 1
    return pipeline.preset_config(preset, base=DenoiseConfig(iterations=iterations))


def _paced(speed: HostSpeed, traced: bool, owner, attr: str):
    return contextlib.nullcontext() if traced else speed.pacing(owner, attr)


def setup(scene, frames: int, reference_spp: int, seed: int, speed: HostSpeed,
          traced: bool):
    """Render the 1 spp inputs and an independent reference of the last frame.

    Returns (inputs, reference composite, scaled seconds by step, wall
    seconds by step). Untraced, host speed is sampled at every call of
    `occluded`, which render_frame makes twice per sample per pixel (the
    shadow ray and the specular bounce's direct light).
    """
    with _paced(speed, traced, render, "occluded"):
        seq, synth_wall, synth = speed.timed(pipeline.synthesize_sequence,
                                             scene, frames, INPUT_SPP, seed)
        last = frames - 1
        # starting after the input's samples keeps the two estimates independent
        (_g, shadow, specular), ref_wall, ref = speed.timed(
            render.render_frame, scene, last, reference_spp, seed, sample_offset=INPUT_SPP)
    reference, comp_wall, comp = speed.timed(compose_reference, scene, seq, shadow, specular)
    return (seq, reference,
            {"setup": synth + ref + comp, "synth": synth, "reference": ref},
            {"setup": synth_wall + ref_wall + comp_wall, "synth": synth_wall,
             "reference": ref_wall})


def compose_reference(scene, seq: FrameSequence, shadow, specular) -> np.ndarray:
    """The last frame's reference, composed the way synthesize_sequence
    composes its own."""
    last = len(seq.frames) - 1
    gbuf = seq.gbuffer(last)
    positions = pipeline.reconstruct_positions(scene, last, gbuf.depth.astype(np.float64))
    direct = compose.shade_direct(gbuf, positions, scene.light.center_at(last),
                                  scene.light.intensity)
    return compose.composite(direct, shadow.data.astype(np.float64),
                             specular.data.astype(np.float64), gbuf,
                             render.render_sky(scene, last)).astype(np.float32)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def differing_frames(a: list, b: list, channels=None) -> set:
    """Indices of frames whose channels differ bit for bit (or are missing)."""
    bad = set(range(min(len(a), len(b)), max(len(a), len(b))))
    for i, (fa, fb) in enumerate(zip(a, b)):
        names = channels or fa.keys() | fb.keys()
        if any(k not in fa or k not in fb or not _same(fa[k], fb[k]) for k in names):
            bad.add(i)
    return bad


def invalid_frames(seq: FrameSequence) -> set:
    bad = set()
    for i, frame in enumerate(seq.frames):
        try:
            store.check_sequence(FrameSequence(manifest=seq.manifest, frames=[frame]))
        except store.SequenceError:
            bad.add(i)
    return bad


@dataclass
class Pass:
    timings: dict | None  # scaled seconds by step; None when the output was invalid
    wall: dict | None     # wall seconds by step
    bad: set              # frames failing a check
    output: FrameSequence | None
    traced: bool = False
    spans: list | None = None
    counts: dict | None = None


def round_trip(seq: FrameSequence, path: Path, speed: HostSpeed, loads: int):
    """Save `seq` to `path` and reload it `loads` times; returns (first
    reload, (save wall s, save scaled s), (wall s, scaled s) per load).
    Later reloads repeat the first's work and are dropped unchecked."""
    def reload():
        first = store.load_sequence(path)
        for _ in range(loads - 1):
            store.load_sequence(path)
        return first

    try:
        _none, save_wall, save = speed.timed(store.save_sequence, seq, path)
        loaded, load_wall, load = speed.timed(reload)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return loaded, (save_wall, save), (load_wall / loads, load / loads)


def chain(seq: FrameSequence, cfg: DenoiseConfig, workdir: Path, speed: HostSpeed,
          traced: bool) -> Pass:
    """Round-trip the inputs through the store, denoise the reloaded copy,
    round-trip the output. Untraced, each round trip reloads LOADS times and
    host speed is sampled at every denoised frame; traced, neither, so that
    the spans are those of one plain chain."""
    loads = 1 if traced else LOADS
    loaded, save_in, load_in = round_trip(seq, workdir / "input", speed, loads)
    # gbuffer(f) is the first call run_pipeline makes for frame f
    with _paced(speed, traced, FrameSequence, "gbuffer"):
        (out, _report), denoise_wall, denoise = speed.timed(pipeline.run_pipeline, loaded, cfg)
    bad = differing_frames(seq.frames, loaded.frames) | invalid_frames(out)
    if bad:  # save_sequence would refuse the output
        return Pass(None, None, bad, out)
    reloaded, save_out, load_out = round_trip(out, workdir / "output", speed, loads)
    bad |= differing_frames(out.frames, reloaded.frames)
    return Pass({"denoise": denoise, "save": save_in[1] + save_out[1],
                 "load": load_in[1] + load_out[1]},
                {"denoise": denoise_wall, "save": save_in[0] + save_out[0],
                 "load": load_in[0] + load_out[0]},
                bad, out)


def quality(out: FrameSequence, reference: np.ndarray) -> dict:
    last = out.frames[-1]
    return {"ssim": metrics.ssim(last["composite"], reference),
            "mse": metrics.mse(last["composite"], reference),
            "ssim_noisy": metrics.ssim(last["composite_noisy"], reference)}


@dataclass
class Measurement:
    reference: np.ndarray | None = None  # of the first set-up
    setup_times: list = field(default_factory=list)  # scaled seconds by step, per set-up
    setup_wall: list = field(default_factory=list)   # wall seconds by step, per set-up
    setup_spans: list = field(default_factory=list)  # of the traced set-up
    passes: list = field(default_factory=list)
    deterministic: bool = True  # every set-up reproduced the first bit for bit


def measure(scene, frames: int, reference_spp: int, cfg: DenoiseConfig, seed: int,
            seconds: float, workdir: Path, tracer=None) -> Measurement:
    """Alternate set-ups with repetitions of the chain for about `seconds`.

    Untraced: a set-up runs just before every repetition, so that both kinds
    of sample spread over the whole run, with at least MIN_PASSES
    repetitions and SETUPS set-ups; set-ups still due when the repetitions
    stop run after them. Traced: one traced set-up, then at least MIN_PASSES
    repetitions that alternate traced and untraced, starting traced.
    Repetitions stop before one that would end past `seconds`. Untraced
    set-ups and repetitions sample host speed at every frame (see
    hostspeed.py); traced ones only around each step, so that no layer is
    charged for it.
    """
    m = Measurement()
    speed = HostSpeed()
    n_setups = 1 if tracer else SETUPS
    seq = None

    def next_setup():
        nonlocal seq
        with tracer.installed() if tracer else contextlib.nullcontext():
            inputs, reference, times, wall = setup(scene, frames, reference_spp, seed, speed,
                                                   traced=tracer is not None)
        if tracer:
            m.setup_spans, _counts = tracer.take()
        m.setup_times.append(times)
        m.setup_wall.append(wall)
        if seq is None:
            seq, m.reference = inputs, reference
        elif differing_frames(seq.frames, inputs.frames) or not _same(m.reference, reference):
            m.deterministic = False

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not (tracer and m.setup_times):
            next_setup()
        traced = tracer is not None and len(m.passes) % 2 == 0
        if traced:
            with tracer.installed():
                p = chain(seq, cfg, workdir, speed, traced=True)
            p.traced = True
            p.spans, p.counts = tracer.take()
        else:
            p = chain(seq, cfg, workdir, speed, traced=False)
        q = quality(p.output, m.reference)
        if not q["ssim"] > q["ssim_noisy"]:
            p.bad.add(frames - 1)
        if m.passes:
            p.bad |= differing_frames(m.passes[0].output.frames, p.output.frames,
                                      channels=["composite"])
            p.output = None  # only the first is kept, so memory does not grow
        m.passes.append(p)
        now = time.perf_counter()
        if len(m.passes) >= MIN_PASSES and (now - start) + (now - t0) > seconds:
            break
    while len(m.setup_times) < n_setups:
        next_setup()
    return m


def _median_ms_per(values, per: float) -> float:
    return statistics.median(values) / per * 1e3


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        size: int | None = None, frames: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = WORKLOADS[name]
    size = size or wl.size
    frames = frames or wl.frames
    scene = make_scene(wl, size, frames)
    cfg = denoise_config(wl.preset, size)
    tracer = spans.Tracer() if trace else None
    m = measure(scene, frames, wl.reference_spp, cfg, seed, seconds, workdir, tracer)

    passes = m.passes
    attempted = frames * len(passes)
    failed = sum(len(p.bad) for p in passes)
    timed = [p for p in passes if p.timings and not p.traced]
    if not timed:
        raise SystemExit("perfbench: every untraced repetition produced invalid output")
    traced = [p for p in passes if p.traced]
    # counts must repeat exactly
    correct = m.deterministic and all(p.counts == traced[0].counts for p in traced)
    settings = {"workload": name, "seed": seed, "trace": int(trace), "scene": wl.scene,
                "movement": wl.movement, "resolution": [size, size], "frames": frames,
                "input_spp": INPUT_SPP, "reference_spp": wl.reference_spp,
                "preset": wl.preset, "iterations": cfg.iterations, "seconds": seconds,
                "setup_s": m.setup_times, "setup_wall_s": m.setup_wall,
                "repetition_s": [p.timings for p in passes],
                "repetition_wall_s": [p.wall for p in passes]}

    if not trace:
        q = quality(passes[0].output, m.reference)
        setup_ms = lambda key, per: _median_ms_per([t[key] for t in m.setup_times], per)
        chain_ms = lambda key: _median_ms_per([p.timings[key] for p in timed], frames)
        table = {
            "setup_s": (statistics.median(t["setup"] for t in m.setup_times), "s"),
            "denoise_ms_per_frame": (chain_ms("denoise"), "ms"),
            "synth_ms_per_frame": (setup_ms("synth", frames), "ms"),
            "reference_ms_per_spp": (setup_ms("reference", wl.reference_spp), "ms"),
            "load_ms_per_frame": (chain_ms("load"), "ms"),
            "ssim_last": (q["ssim"], "1"),
            "mse_last": (q["mse"], "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        reported = dict(table)
        # Printed, but kept out of the result metrics. Saving is mostly file
        # creation, whose cost drifts up to twofold within seconds on a
        # shared disk, beyond any bound a run could hold; the traced run
        # still reports store.save_sequence. failed_frac is 0 on a healthy
        # run, and the result's own `failed` / `attempted` carry it.
        table["save_ms_per_frame"] = (chain_ms("save"), "ms")
        table["failed_frac"] = (failed / attempted, "1")
    else:
        table = _layer_metrics(m.setup_spans, m.setup_times[0]["setup"] / m.setup_wall[0]["setup"],
                               traced, frames)
        untraced_ms = _median_ms_per([p.timings["denoise"] for p in timed], frames)
        traced_ms = _median_ms_per([p.timings["denoise"] for p in traced if p.timings], frames)
        table["trace.overhead_ms_per_frame"] = (traced_ms - untraced_ms, "ms/frame")
        settings["denoise_ms_per_frame"] = {"untraced": untraced_ms, "traced": traced_ms}
        reported = table

    _print_report(settings, table)
    return {"correct": bool(correct and failed == 0), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in reported.items()}}


def _layer_metrics(setup_spans: list, setup_scale: float, traced: list, frames: int) -> dict:
    """Span times are scaled like the step they ran in: by the set-up's
    scaled/wall ratio, or by that of the repetition's denoise step."""
    def scaled(totals, by):
        return {k: (calls, incl * by, self_ * by) for k, (calls, incl, self_) in totals.items()}
    setup_totals = scaled(spans.layer_totals(setup_spans), setup_scale)
    pass_totals = [scaled(spans.layer_totals(p.spans),
                          p.timings["denoise"] / p.wall["denoise"] if p.timings else 1.0)
                   for p in traced]
    out = {}
    for metric in LAYER_TIMES:
        span, kind = metric.rsplit(".", 1)
        col = 1 if kind == "ms" else 2
        if span.startswith("render."):
            seconds = setup_totals.get(span, (0, 0.0, 0.0))[col]
        else:
            seconds = statistics.median(t.get(span, (0, 0.0, 0.0))[col] for t in pass_totals)
        out[metric] = (seconds / frames * 1e3, "ms/frame")
    for metric, (unit, fn) in LAYER_COUNTS.items():
        out[metric] = (fn(traced[0].counts, frames), unit)
    return out


def machine() -> dict:
    """The machine and settings the numbers were taken on."""
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""
    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {f"L{level}": read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").strip()
              or "unknown" for level, index in ((2, 2), (3, 3))}
    root = Path(__file__).resolve().parent.parent
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
        else "unknown",
        "commit": commit,
    }


def _print_report(settings: dict, table: dict):
    print("settings " + json.dumps(settings))
    print("machine " + json.dumps(machine()))
    for name, (value, unit) in table.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
