"""Command-line interface: scene / synth / denoise / eval.

Performance is measured by the `perfbench` harness, not by a subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .frames import DenoiseConfig
from .metrics import mse, ssim, write_report
from .pipeline import PRESETS, preset_config, run_pipeline, synthesize_sequence
from .render import REFERENCE_SPP
from .scenes import MOVEMENTS, PRESET_NAMES, load_scene, preset_scene
from .store import load_sequence, save_sequence


_SCENE_OPTIONS = ("width", "height", "roughness", "shadow_angle", "movement", "teleport_frame")


def _cmd_scene(args) -> int:
    # only the options given; `preset_scene` owns every default
    doc = preset_scene(args.preset, **{k: getattr(args, k) for k in _SCENE_OPTIONS
                                       if hasattr(args, k)})
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    print(f"wrote scene '{args.preset}' to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    scene = load_scene(args.scene)
    seq = synthesize_sequence(scene, frames=args.frames, spp=args.spp,
                              seed=args.seed, ibl_secondary=args.ibl,
                              reference=args.reference,
                              reference_spp=args.reference_spp)
    save_sequence(seq, args.out)
    print(f"synthesized {args.frames} frame(s) at {scene.width}x{scene.height} "
          f"spp={args.spp} seed={args.seed} -> {args.out}")
    return 0


def _load_config(args) -> DenoiseConfig:
    cfg = DenoiseConfig()
    if args.config:
        with open(args.config) as f:
            cfg = DenoiseConfig.from_dict(json.load(f))
    if getattr(args, "preset", None):
        cfg = preset_config(args.preset, base=cfg)
    for item in getattr(args, "set", None) or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"--set {item!r}: expected KEY=JSON, e.g. {key}=true")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError as e:
            raise ValueError(f"--set {key}: value {value!r} is not JSON ({e.msg})") from None
        cfg = DenoiseConfig.from_dict({**cfg.to_dict(), key: parsed})
    return cfg


def _cmd_denoise(args) -> int:
    seq = load_sequence(args.input)
    cfg = _load_config(args)
    out_seq, report = run_pipeline(seq, cfg, dump_intermediates=args.dump_intermediates)
    save_sequence(out_seq, args.out)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    for row in report["quality"]:
        print(f"frame {row['frame']}: ssim={row['ssim']:.4f} "
              f"(noisy {row['ssim_noisy']:.4f}) mse={row['mse']:.6f}")
    print(f"denoised {len(out_seq.frames)} frame(s) -> {args.out}")
    return 0


def _pick_channel(frame: dict, prefer: list):
    for name in prefer:
        if name in frame:
            return name, frame[name]
    raise ValueError(f"no comparable channel among {prefer}; have {sorted(frame)}")


def _cmd_eval(args) -> int:
    seq_a = load_sequence(args.a)
    seq_b = load_sequence(args.b)
    n = len(seq_a.frames)
    if len(seq_b.frames) != n:
        raise ValueError(f"--a has {n} frame(s) but --b has {len(seq_b.frames)}; "
                         "eval compares sequences of the same length")
    records = []
    prefer_a = [args.channel] if args.channel else ["composite", "reference",
                                                    "composite_noisy"]
    prefer_b = [args.channel] if args.channel else ["reference", "composite"]
    for f in range(n):
        name_a, img_a = _pick_channel(seq_a.frames[f], prefer_a)
        name_b, img_b = _pick_channel(seq_b.frames[f], prefer_b)
        records.append({"frame": f, "channel_a": name_a, "channel_b": name_b,
                        "ssim": ssim(img_a, img_b), "mse": mse(img_a, img_b)})
    summary = {"frame": "mean", "channel_a": records[0]["channel_a"],
               "channel_b": records[0]["channel_b"],
               "ssim": float(np.mean([r["ssim"] for r in records])),
               "mse": float(np.mean([r["mse"] for r in records]))}
    if args.report:
        write_report(records + [summary], args.report)
    for r in records + [summary]:
        print(f"frame {r['frame']}: ssim={r['ssim']:.4f} mse={r['mse']:.6f} "
              f"({r['channel_a']} vs {r['channel_b']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rtdenoise",
                                description="Synthesize, denoise and evaluate "
                                            "1spp ray-traced frame sequences.")
    p.add_argument("--debug", action="store_true",
                   help="let errors propagate with their traceback")
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scene", help="write a preset scene JSON",
                        argument_default=argparse.SUPPRESS)
    sc.add_argument("--preset", required=True, choices=PRESET_NAMES)
    sc.add_argument("--width", type=int)
    sc.add_argument("--height", type=int)
    sc.add_argument("--roughness", type=float)
    sc.add_argument("--shadow-angle", type=float)
    sc.add_argument("--movement", choices=MOVEMENTS)
    sc.add_argument("--teleport-frame", type=int)
    sc.add_argument("--out", required=True)
    sc.set_defaults(fn=_cmd_scene)

    sy = sub.add_parser("synth", help="render a sequence from a scene JSON")
    sy.add_argument("--scene", required=True)
    sy.add_argument("--frames", type=int, required=True)
    sy.add_argument("--spp", type=int, default=1)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", required=True)
    sy.add_argument("--ibl", action="store_true",
                    help="shade secondary hits with the prefiltered env map")
    sy.add_argument("--reference", action="store_true",
                    help="also render high-spp reference channels")
    sy.add_argument("--reference-spp", type=int, default=REFERENCE_SPP)
    sy.set_defaults(fn=_cmd_synth)

    dn = sub.add_parser("denoise", help="run the denoising pipeline")
    dn.add_argument("--in", dest="input", required=True)
    dn.add_argument("--config", help="DenoiseConfig JSON file")
    dn.add_argument("--preset", choices=list(PRESETS))
    dn.add_argument("--set", action="append", metavar="KEY=JSON",
                    help="override one config field (repeatable)")
    dn.add_argument("--out", required=True)
    dn.add_argument("--report", help="write the run report JSON here")
    dn.add_argument("--dump-intermediates", action="store_true")
    dn.set_defaults(fn=_cmd_denoise)

    ev = sub.add_parser("eval", help="SSIM/MSE between two sequences")
    ev.add_argument("--a", required=True)
    ev.add_argument("--b", required=True)
    ev.add_argument("--channel", help="compare this channel on both sides")
    ev.add_argument("--report", help="JSON or CSV path")
    ev.set_defaults(fn=_cmd_eval)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # diagnostics to stderr, nonzero exit
        if args.debug:
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
