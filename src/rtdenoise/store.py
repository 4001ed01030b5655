"""Sequence directory format: manifest.json plus frame_%04d/<channel>.pfm.

Only sequences of the current `FORMAT_VERSION` load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .frames import CHANNELS, FORMAT_VERSION, MAX_OBJECT_ID, FrameSequence, validate_frame
from .pfm import read_pfm, write_pfm
from .scenes import positive_int, read_json


class SequenceError(ValueError):
    """Invalid sequence contents or layout."""


_REQUIRED_KEYS = ("format_version", "width", "height", "channels", "frame_count")
_SHAPE_KEYS = ("width", "height", "channels")  # what a sequence in memory needs


def _check_manifest(manifest: dict, keys, where: str) -> None:
    """Raise a `SequenceError` naming the first bad key and its value unless
    the manifest is an object holding every key of `keys`, its `width`,
    `height` and, where given, `frame_count` are ints above 0 (a bool or a
    float is none), and its `channels` are a list of distinct names."""
    if not isinstance(manifest, dict):
        raise SequenceError(f"{where} {manifest!r} is not a JSON object")
    missing = [k for k in keys if k not in manifest]
    if missing:
        raise SequenceError(f"{where} lacks required keys: {', '.join(missing)}")
    for key in ("width", "height", "frame_count"):
        if key in manifest and not positive_int(manifest[key]):
            raise SequenceError(f"{where} {key} {manifest[key]!r} is not an integer above 0")
    channels = manifest["channels"]
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)
            and len(set(channels)) == len(channels)):
        raise SequenceError(f"{where} channels {channels!r} is not a list of distinct names")


def _frame_dir(index: int) -> str:
    return f"frame_{index:04d}"


def _to_disk(name: str, arr: np.ndarray) -> np.ndarray:
    data = np.asarray(arr)
    if name == "motion":
        padded = np.zeros(data.shape[:2] + (3,), dtype=np.float32)
        padded[:, :, :2] = data
        return padded
    return data.astype(np.float32, copy=False)


def _from_disk(name: str, arr: np.ndarray, frame: int) -> np.ndarray:
    """The in-memory form of a channel read from disk: motion drops its
    padding component, and an object id plane becomes int32 once its min
    and max lie in [0, MAX_OBJECT_ID] (a NaN fails both) and the cast gives
    every value back. Only a plane that fails builds the per-pixel mask
    that names its first bad pixel in the `SequenceError`."""
    if name == "motion":
        return arr[:, :, :2].copy()
    if name == "object_id":
        if 0 <= arr.min() and arr.max() <= MAX_OBJECT_ID:
            ids = arr.astype(np.int32)
            if np.array_equal(ids, arr):
                return ids
        # NaN fails every comparison; what passes casts to int32 exactly
        bad = ~((arr >= 0) & (arr <= MAX_OBJECT_ID) & (np.floor(arr) == arr))
        y, x = np.argwhere(bad)[0]
        raise SequenceError(f"channel 'object_id' of frame {frame} holds {arr[y, x]} at "
                            f"pixel ({x}, {y}), expected an integer in "
                            f"[0, {MAX_OBJECT_ID}]")
    return arr


def check_sequence(seq: FrameSequence) -> None:
    """Re-validate a sequence against the frame/-manifest invariants; raises
    a `SequenceError` naming the first frame that breaks one, with every
    message `validate_frame` gives it. `validate_frame` decides each value
    rule from the plane's min and max, and builds the rule's per-pixel mask
    only to name a bad pixel."""
    _check_manifest(seq.manifest, _SHAPE_KEYS, "sequence manifest")
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
    """Load and re-validate a sequence directory; float payloads are bit-exact.
    Each object id plane is checked as it is cast (`_from_disk`), then the
    whole sequence by `check_sequence`. Both decide from plane reductions
    and build a per-pixel mask only to name a bad pixel."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise SequenceError(f"missing manifest: {manifest_path}")
    manifest = read_json(manifest_path, SequenceError)
    _check_manifest(manifest, _REQUIRED_KEYS, f"manifest {manifest_path}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise SequenceError(f"manifest {manifest_path} has format_version "
                            f"{manifest['format_version']!r}; this version reads {FORMAT_VERSION}")
    width, height = manifest["width"], manifest["height"]
    frames = []
    for i in range(manifest["frame_count"]):
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
            frame[name] = _from_disk(name, arr, i)
        frames.append(frame)
    seq = FrameSequence(manifest=manifest, frames=frames)
    check_sequence(seq)
    return seq
