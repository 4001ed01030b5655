"""Per-frame pass orchestration and the named technique presets.

Frame order is strictly sequential (the temporal stage carries state);
within a frame the passes run in the fixed order: optional Reinhard forward
on the raw specular samples, temporal accumulation per channel, a-trous
filtering per channel, optional Reinhard inverse, direct shading and
composition with sky fill, and finally the simplified TAA. A trace of pass
names is recorded so the ordering is testable.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import compose, metrics, render, spatial, temporal, tonemap
from .envmap import prefilter_env
from .frames import ChannelKind, DenoiseConfig, FrameSequence, GBufferFrame
from .scenes import Scene, scene_from_dict
from .store import check_sequence

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
    cfg = DenoiseConfig(**{**(base.to_dict() if base else {}), **PRESETS[name]})
    cfg.validate()
    return cfg


def reconstruct_positions(scene: Scene, frame_index: int, depth: np.ndarray) -> np.ndarray:
    """World-space primary hit points from the linear view-space depth."""
    origins, dirs = render.camera_rays(scene, frame_index)
    _pos, fwd, _r, _u, _t = render.camera_basis(scene, frame_index)
    z = dirs @ fwd
    t = np.where(np.isfinite(depth), depth / z, 0.0)
    return origins + dirs * t[..., None]


def lighting(scene: Scene, frame_index: int, gbuf: GBufferFrame) -> tuple:
    """Unshadowed direct light on the frame's geometry and its sky plate,
    the inputs `compose.composite` blends the channels with: (direct, sky)."""
    positions = reconstruct_positions(scene, frame_index, gbuf.depth.astype(np.float64))
    direct = compose.shade_direct(gbuf, positions, scene.light.center_at(frame_index),
                                  scene.light.intensity)
    return direct, render.render_sky(scene, frame_index)


def run_pipeline(seq: FrameSequence, cfg: DenoiseConfig, dump_intermediates: bool = False):
    """Denoise a sequence; returns (output FrameSequence, report dict).

    The scene, including the shadow angle that picks the shadow channel's
    adaptive start level, comes from the manifest's descriptor and must match
    the sequence's resolution. The report carries the pass trace, per-frame
    metrics against the `reference` channel when the input provides one, and
    the per-iteration a-trous records (steps and tap counts).
    """
    cfg.validate()
    check_sequence(seq)
    if "scene" not in seq.manifest:
        raise ValueError("sequence manifest carries no scene descriptor")
    scene = scene_from_dict(seq.manifest["scene"])
    if (scene.width, scene.height) != (seq.width, seq.height):
        raise ValueError(f"scene resolution {scene.width}x{scene.height} differs from "
                         f"the sequence's {seq.width}x{seq.height}")
    if cfg.iterations > 0:
        # the last iteration's level, one higher where adaptive start shifts it
        spatial.check_level(cfg.iterations - 1 + cfg.adaptive_start, seq.height, seq.width)

    trace = []
    frames_out = []
    records = []
    hist_shadow = hist_spec = None
    prev_gbuf = None
    prev_taa = None

    for f in range(len(seq.frames)):
        frame = seq.frames[f]
        gbuf = seq.gbuffer(f)
        shadow_raw = frame["shadow_1spp"].astype(np.float64)
        spec_raw = frame["specular_1spp"].astype(np.float64)

        if cfg.reinhard:
            trace.append(f"{f}:reinhard_forward")
            spec_in = tonemap.reinhard_forward(spec_raw, cfg.luma_multiplier)
        else:
            spec_in = spec_raw

        trace.append(f"{f}:temporal:shadow")
        hist_shadow, var_shadow = temporal.temporal_step(
            shadow_raw, gbuf, hist_shadow, prev_gbuf, cfg)
        trace.append(f"{f}:temporal:specular")
        hist_spec, var_spec = temporal.temporal_step(
            spec_in, gbuf, hist_spec, prev_gbuf, cfg)

        trace.append(f"{f}:atrous:shadow")
        den_shadow, fb_shadow, shadow_recs = spatial.denoise_channel(
            hist_shadow.color, var_shadow, gbuf, cfg, ChannelKind.SHADOW,
            shadow_angle=scene.shadow_angle_deg)
        hist_shadow.color = fb_shadow

        trace.append(f"{f}:atrous:specular")
        den_spec, fb_spec, spec_recs = spatial.denoise_channel(
            hist_spec.color, var_spec, gbuf, cfg, ChannelKind.INDIRECT_SPECULAR)
        hist_spec.color = fb_spec
        records.append({"frame": f, "shadow": shadow_recs, "specular": spec_recs})

        if cfg.reinhard:
            trace.append(f"{f}:reinhard_inverse")
            den_spec_out = tonemap.reinhard_inverse_paper(den_spec, cfg.reinhard_weight)
        else:
            den_spec_out = den_spec

        trace.append(f"{f}:shade_direct")
        direct, sky = lighting(scene, f, gbuf)

        trace.append(f"{f}:composite")
        den_shadow_img = den_shadow[:, :, 0]
        comp = compose.composite(direct, den_shadow_img, den_spec_out, gbuf, sky)
        comp_noisy = compose.composite(direct, shadow_raw, spec_raw, gbuf, sky)

        trace.append(f"{f}:taa")
        taa_out = compose.taa(comp, prev_taa, gbuf)
        prev_taa = taa_out
        prev_gbuf = gbuf

        out = {
            "shadow_denoised": den_shadow_img.astype(np.float32),
            "specular_denoised": den_spec_out.astype(np.float32),
            "composite": taa_out.astype(np.float32),
            "composite_noisy": comp_noisy.astype(np.float32),
        }
        if dump_intermediates:
            trace.append(f"{f}:debug_dump")
            out["debug_accum_shadow"] = hist_shadow.color[:, :, 0].astype(np.float32)
            out["debug_accum_specular"] = hist_spec.color.astype(np.float32)
            out["debug_variance_shadow"] = var_shadow.astype(np.float32)
            out["debug_variance_specular"] = var_spec.astype(np.float32)
            out["debug_history_len_shadow"] = hist_shadow.history_len.astype(np.float32)
            out["debug_composite_pre_taa"] = comp.astype(np.float32)
        frames_out.append(out)

    quality = []
    for f in range(len(seq.frames)):
        if "reference" in seq.frames[f]:
            ref = seq.frames[f]["reference"]
            quality.append({
                "frame": f,
                "ssim": metrics.ssim(frames_out[f]["composite"], ref),
                "mse": metrics.mse(frames_out[f]["composite"], ref),
                "ssim_noisy": metrics.ssim(frames_out[f]["composite_noisy"], ref),
                "mse_noisy": metrics.mse(frames_out[f]["composite_noisy"], ref),
            })

    manifest = {
        "width": seq.width,
        "height": seq.height,
        "channels": sorted(frames_out[0].keys()) if frames_out else [],
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
    """Render a sequence of G-buffers and noisy channels (plus references)."""
    prefiltered = prefilter_env(scene.env, ENV_LEVELS) if ibl_secondary else None

    out = []
    channels = None
    for f in range(frames):
        gbuf, shadow, spec = render.render_frame(scene, f, spp, seed, prefiltered=prefiltered)
        frame = {**{g.name: getattr(gbuf, g.name) for g in fields(gbuf)},
                 "shadow_1spp": shadow.data, "specular_1spp": spec.data}
        if reference:
            # starting after the input's samples keeps the reference independent
            _g, sref, cref = render.render_frame(
                scene, f, reference_spp, seed, prefiltered=prefiltered, sample_offset=spp)
            frame["shadow_ref"] = sref.data
            frame["specular_ref"] = cref.data
            direct, sky = lighting(scene, f, gbuf)
            ref = compose.composite(direct, sref.data.astype(np.float64),
                                    cref.data.astype(np.float64), gbuf, sky)
            frame["reference"] = ref.astype(np.float32)
        if channels is None:
            channels = sorted(frame.keys())
        out.append(frame)

    manifest = {
        "width": scene.width,
        "height": scene.height,
        "channels": channels or [],
        "scene": scene.raw,
        "seed": seed,
        "spp": spp,
        "ibl_secondary": ibl_secondary,
    }
    return FrameSequence(manifest=manifest, frames=out)
