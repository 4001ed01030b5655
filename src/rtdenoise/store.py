"""Sequence directory format: manifest.json plus frame_%04d/<channel>.pfm.

Only sequences of the current `FORMAT_VERSION` load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .frames import CHANNELS, FORMAT_VERSION, FrameSequence, validate_frame
from .pfm import read_pfm, write_pfm


class SequenceError(ValueError):
    """Invalid sequence contents or layout."""


_REQUIRED_KEYS = ("format_version", "width", "height", "channels", "frame_count")
_SHAPE_KEYS = ("width", "height", "channels")  # what a sequence in memory needs


def _check_keys(manifest: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in manifest]
    if missing:
        raise SequenceError(f"{where} lacks required keys: {', '.join(missing)}")


def _frame_dir(index: int) -> str:
    return f"frame_{index:04d}"


def _to_disk(name: str, arr: np.ndarray) -> np.ndarray:
    data = np.asarray(arr)
    if name == "motion":
        padded = np.zeros(data.shape[:2] + (3,), dtype=np.float32)
        padded[:, :, :2] = data
        return padded
    return data.astype(np.float32, copy=False)


def _from_disk(name: str, arr: np.ndarray) -> np.ndarray:
    if name == "motion":
        return arr[:, :, :2].copy()
    if name == "object_id":
        return arr.astype(np.int32)
    return arr


def check_sequence(seq: FrameSequence) -> None:
    """Re-validate a sequence against the frame/-manifest invariants; raises."""
    _check_keys(seq.manifest, _SHAPE_KEYS, "sequence manifest")
    if not seq.frames:
        raise SequenceError("empty sequence")
    channels = seq.channels
    for name in channels:
        if name not in CHANNELS:
            raise SequenceError(f"unknown channel '{name}' in manifest")
    for i, frame in enumerate(seq.frames):
        for name in channels:
            if name not in frame:
                raise SequenceError(f"frame {i} is missing channel '{name}'")
        violations = validate_frame(frame, seq.width, seq.height)
        if violations:
            raise SequenceError(f"frame {i} invalid: " + "; ".join(violations))


def save_sequence(seq: FrameSequence, path) -> None:
    """Write manifest + PFM channel files; rejects invalid sequences up front."""
    check_sequence(seq)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = dict(seq.manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["frame_count"] = len(seq.frames)
    with open(root / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    for i, frame in enumerate(seq.frames):
        fdir = root / _frame_dir(i)
        fdir.mkdir(exist_ok=True)
        for name in seq.channels:
            write_pfm(fdir / f"{name}.pfm", _to_disk(name, frame[name]))


def load_sequence(path) -> FrameSequence:
    """Load and re-validate a sequence directory; float payloads are bit-exact."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise SequenceError(f"missing manifest: {manifest_path}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    _check_keys(manifest, _REQUIRED_KEYS, f"manifest {manifest_path}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise SequenceError(f"manifest {manifest_path} has format_version "
                            f"{manifest['format_version']!r}; this version reads {FORMAT_VERSION}")
    width, height = int(manifest["width"]), int(manifest["height"])
    frames = []
    for i in range(int(manifest["frame_count"])):
        frame = {}
        for name in manifest["channels"]:
            fpath = root / _frame_dir(i) / f"{name}.pfm"
            if not fpath.exists():
                raise SequenceError(f"manifest references absent file: {fpath}")
            arr = read_pfm(fpath)
            # on disk a channel of more than one component has three;
            # check_sequence names a channel outside the table
            want = (height, width) if CHANNELS.get(name) == 1 else (height, width, 3)
            if name in CHANNELS and arr.shape != want:
                raise SequenceError(f"channel '{name}' of frame {i} has on-disk shape "
                                    f"{arr.shape}, expected {want} for a {width}x{height} "
                                    "manifest")
            frame[name] = _from_disk(name, arr)
        frames.append(frame)
    seq = FrameSequence(manifest=manifest, frames=frames)
    check_sequence(seq)
    return seq
