"""Per-frame pass orchestration and the named technique presets.

Frame order is strictly sequential (the temporal stage carries state).
Within a frame each phase runs both channels, shadow then specular, in one
call that does the G-buffer's share of the work once for both. The temporal
phase is one call of `temporal.temporal_frame` on the frame's one
`TemporalHistory`, whose channels share one history length: one
reprojection, one set of consistency tests and one blend weight per frame.
The a-trous phase is one call of
`spatial.denoise_frame`, which runs each iteration of both channels in one
shared tap loop, so the G-buffer side of the edge weights is computed once
per iteration and level; its first iteration feeds back into each channel's
history. Reinhard brackets the two on specular alone: forward on the raw
samples before the temporal phase, inverse on the filtered result after the
a-trous phase. Direct shading, composition with sky fill and the simplified
TAA follow. A trace of pass names is recorded so the ordering is testable.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import compose, metrics, render, rng, spatial, temporal, tonemap
from .envmap import prefilter_env
from .frames import ChannelKind, DenoiseConfig, FrameSequence, GBufferFrame
from .scenes import Scene, scene_from_dict
from .store import SequenceError, check_sequence

SHADOW, SPECULAR = ChannelKind

# cumulative technique stacks, in the order they build on one another
PRESETS = {
    "svgf": {},
    "svgf+rectify": {"rectify_mode": "clamp"},
    "svgf+rectify+adaptive": {"rectify_mode": "clamp", "adaptive_start": True},
    "svgf+rectify+adaptive+separable": {
        "rectify_mode": "clamp", "adaptive_start": True, "separable": True},
    "svgf+rectify+adaptive+separable+reinhard": {
        "rectify_mode": "clamp", "adaptive_start": True, "separable": True,
        "reinhard": True},
}

ENV_LEVELS = 5  # roughness levels of the prefiltered env map for IBL secondaries


def preset_config(name: str, base: DenoiseConfig | None = None) -> DenoiseConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
    return DenoiseConfig(**{**(base.to_dict() if base else {}), **PRESETS[name]})


def reconstruct_positions(scene: Scene, frame_index: int, depth: np.ndarray,
                          rays=None) -> np.ndarray:
    """World-space primary hit points from the linear view-space depth.
    `rays` are the frame's (origins, directions, view cosines) from
    `render.camera_rays`, traced here when not given."""
    origins, dirs, cos = render.camera_rays(scene, frame_index) if rays is None else rays
    t = np.where(np.isfinite(depth), depth / cos, 0.0)
    return origins + dirs * t[..., None]


def lighting(scene: Scene, frame_index: int, gbuf: GBufferFrame) -> tuple:
    """Unshadowed direct light on the frame's geometry and its sky plate,
    the inputs `compose.composite` blends the channels with: (direct, sky).

    The camera rays are traced once, for both. The sky is looked up only on
    the background, the one place where `compose.composite` shows it, and
    is 0 under the geometry.
    """
    rays = render.camera_rays(scene, frame_index)
    positions = reconstruct_positions(scene, frame_index, gbuf.depth.astype(np.float64),
                                      rays=rays)
    direct = compose.shade_direct(gbuf, positions, scene.light.center_at(frame_index),
                                  scene.light.intensity)
    return direct, render.render_sky(scene, frame_index, dirs=rays[1],
                                     where=~gbuf.foreground)


def run_pipeline(seq: FrameSequence, cfg: DenoiseConfig, dump_intermediates: bool = False):
    """Denoise a sequence; returns (output FrameSequence, report dict).

    The input must carry the G-buffer and each kind's `<kind>_1spp` channel.
    The scene, including the shadow angle that picks the shadow channel's
    adaptive start level, comes from the manifest's descriptor and must match
    the sequence's resolution. `Scene.camera_at` is asked for every frame
    before any frame is denoised, so a sequence longer than the scene's
    `frame_count`, or a frame whose camera has no view basis, is rejected
    then.
    The report carries the pass trace, per-frame metrics against the
    `reference` channel when the input provides one, each frame graded in
    its own iteration of the frame loop, and the per-iteration a-trous
    records (steps and tap counts).
    """
    check_sequence(seq)
    needed = [g.name for g in fields(GBufferFrame)] + [f"{k.value}_1spp" for k in ChannelKind]
    missing = [name for name in needed if name not in seq.channels]
    if missing:
        raise SequenceError(f"sequence lacks the input channels: {', '.join(missing)}")
    if "scene" not in seq.manifest:
        raise ValueError("sequence manifest carries no scene descriptor")
    scene = scene_from_dict(seq.manifest["scene"])
    if (scene.width, scene.height) != (seq.width, seq.height):
        raise ValueError(f"scene resolution {scene.width}x{scene.height} differs from "
                         f"the sequence's {seq.width}x{seq.height}")
    for f in range(len(seq.frames)):
        scene.camera_at(f)
    if cfg.iterations > 0:
        # the last iteration's level, one higher where adaptive start shifts it
        spatial.check_level(cfg.iterations - 1 + cfg.adaptive_start, seq.height, seq.width)

    trace, frames_out, records, quality = [], [], [], []
    history = prev_gbuf = prev_taa = None

    for f, frame in enumerate(seq.frames):
        gbuf = seq.gbuffer(f)
        # shadow stays (H, W) and specular (H, W, 3); the filters work on planes
        raw = {kind: frame[f"{kind.value}_1spp"].astype(np.float64) for kind in ChannelKind}
        signal = dict(raw)
        if cfg.reinhard:
            trace.append(f"{f}:reinhard_forward")
            signal[SPECULAR] = tonemap.reinhard_forward(raw[SPECULAR], cfg.luma_multiplier)

        trace.extend(f"{f}:temporal:{kind.value}" for kind in ChannelKind)
        history, variance = temporal.temporal_frame(signal, gbuf, history, prev_gbuf, cfg)

        trace.extend(f"{f}:atrous:{kind.value}" for kind in ChannelKind)
        den, rec = {}, {"frame": f}
        for kind, (planes, history.color[kind], rec[kind.value]) in spatial.denoise_frame(
                {kind: (history.color[kind], variance[kind]) for kind in ChannelKind}, gbuf,
                cfg, shadow_angle=scene.shadow_angle_deg).items():
            den[kind] = planes.reshape(raw[kind].shape)
        records.append(rec)

        if cfg.reinhard:
            trace.append(f"{f}:reinhard_inverse")
            den[SPECULAR] = tonemap.reinhard_inverse_paper(den[SPECULAR], cfg.reinhard_weight)

        trace.append(f"{f}:shade_direct")
        direct, sky = lighting(scene, f, gbuf)

        trace.append(f"{f}:composite")
        comp = compose.composite(direct, den[SHADOW], den[SPECULAR], gbuf, sky)
        comp_noisy = compose.composite(direct, raw[SHADOW], raw[SPECULAR], gbuf, sky)

        trace.append(f"{f}:taa")
        taa_out = prev_taa = compose.taa(comp, prev_taa, gbuf)
        prev_gbuf = gbuf

        out = {f"{kind.value}_denoised": den[kind] for kind in ChannelKind}
        out.update(composite=taa_out, composite_noisy=comp_noisy)
        if dump_intermediates:
            trace.append(f"{f}:debug_dump")
            out.update({f"debug_accum_{k.value}": history.color[k].reshape(raw[k].shape)
                        for k in ChannelKind})
            out.update({f"debug_variance_{k.value}": variance[k] for k in ChannelKind})
            # the channels share one history length; the store format keeps its name
            out.update(debug_history_len_shadow=history.history_len,
                       debug_composite_pre_taa=comp)
        out = {name: img.astype(np.float32) for name, img in out.items()}
        frames_out.append(out)
        if "reference" in frame:  # graded as it is stored, in float32
            ref = frame["reference"]
            quality.append({"frame": f,
                            "ssim": metrics.ssim(out["composite"], ref),
                            "mse": metrics.mse(out["composite"], ref),
                            "ssim_noisy": metrics.ssim(out["composite_noisy"], ref),
                            "mse_noisy": metrics.mse(out["composite_noisy"], ref)})

    manifest = {
        "width": seq.width,
        "height": seq.height,
        "channels": sorted(frames_out[0].keys()),
        "scene": seq.manifest.get("scene"),
        "seed": seq.manifest.get("seed"),
        "spp": seq.manifest.get("spp"),
        "denoise_config": cfg.to_dict(),
    }
    out_seq = FrameSequence(manifest=manifest, frames=frames_out)
    report = {"trace": trace, "iterations": records, "quality": quality,
              "config": cfg.to_dict()}
    return out_seq, report


def synthesize_sequence(scene: Scene, frames: int, spp: int, seed: int,
                        ibl_secondary: bool = False, reference: bool = False,
                        reference_spp: int = render.REFERENCE_SPP) -> FrameSequence:
    """Render a sequence of G-buffers and noisy channels (plus references).
    A count that is no int >= 1 and a seed that is no int in [-2^63, 2^63)
    (`render.check_counts`) are rejected before any frame is rendered. So is
    a reference whose last sample index, `spp + reference_spp - 1`, is 2^63
    or more, as the RNG keys on it, and a frame at or past the scene's
    `frame_count` or whose camera has no view basis: `Scene.camera_at` is
    asked for every frame first."""
    render.check_counts(seed, frames=frames, spp=spp,
                        **({"reference_spp": reference_spp} if reference else {}))
    # summed as Python ints, which cannot overflow
    if reference and int(spp) + int(reference_spp) - 1 >= rng.KEY_LIMIT:
        raise ValueError("the reference's last sample index spp + reference_spp - 1 must be "
                         f"below 2^63, got spp {spp} and reference_spp {reference_spp}")
    for f in range(frames):
        scene.camera_at(f)
    prefiltered = prefilter_env(scene.env, ENV_LEVELS) if ibl_secondary else None

    out = []
    for f in range(frames):
        gbuf, *noisy = render.render_frame(scene, f, spp, seed, prefiltered=prefiltered)
        frame = {**{g.name: getattr(gbuf, g.name) for g in fields(gbuf)},
                 **{f"{ch.kind.value}_1spp": ch.data for ch in noisy}}
        if reference:
            # starting after the input's samples keeps the reference independent
            _g, *refs = render.render_frame(
                scene, f, reference_spp, seed, prefiltered=prefiltered, sample_offset=spp)
            frame.update({f"{ch.kind.value}_ref": ch.data for ch in refs})
            direct, sky = lighting(scene, f, gbuf)
            ref = compose.composite(direct, *(ch.data.astype(np.float64) for ch in refs),
                                    gbuf, sky)
            frame["reference"] = ref.astype(np.float32)
        out.append(frame)

    manifest = {
        "width": scene.width,
        "height": scene.height,
        "channels": sorted(out[0]),
        "scene": scene.raw,
        "seed": seed,
        "spp": spp,
        "ibl_secondary": ibl_secondary,
    }
    return FrameSequence(manifest=manifest, frames=out)
