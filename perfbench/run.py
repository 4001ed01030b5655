#!/usr/bin/env python3
"""End-to-end benchmark of rtdenoise.

Run from anywhere; the program is imported from the `src/` directory next to
this one, never from an installed copy:

    python3 perfbench/run.py --workload camera-dense --seed 0 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run, --trace 1 the
per-layer metrics of a traced one (see harness.py and spans.py). Times are
scaled by the host speed sampled next to each step (see hostspeed.py). Every line
but the last is for people: the workload's settings, the machine and a table
of metrics. The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Store round trips write to a temporary
directory under `.perfbench_work/`, which is removed before exit.

The smoke test runs every workload at 32x32 with 2 frames:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_harness():
    # one BLAS thread, set before numpy loads; the harness records the setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rtdenoise
    except ImportError as e:
        sys.exit(f"perfbench: cannot import rtdenoise from {src}: {e}")
    if src not in Path(rtdenoise.__file__).resolve().parents:
        sys.exit(f"perfbench: rtdenoise came from {rtdenoise.__file__}, not from {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    return harness


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to repeat the measured chain (at least twice)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, help="override the frame size (smoke runs)")
    p.add_argument("--frames", type=int, help="override the frame count (smoke runs)")
    args = p.parse_args(argv)

    harness = _import_harness()
    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; have {', '.join(harness.WORKLOADS)}")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir, size=args.size, frames=args.frames)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
