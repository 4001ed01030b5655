#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two revisions.

    python3 tools/abpairs.py BASE HEAD [--pairs 10] [--out PATH]

BASE and HEAD are git revisions of this repository. Each is exported with
`git archive` into its own temporary directory, so both sides are made the
same way, from committed files alone.

For each workload of HEAD's `BENCHMARK.json`, the benchmark command runs on
the two sides in turn for that file's `run_seconds`, N pairs of runs, the
first side alternating from pair to pair; pair i runs both sides on seed i.
For each end-to-end metric the report gives each side's median and
quartiles, the median of the per-pair ratios head / base, their range, how
many pairs the head won (moved the way the metric is better), whether a gain
may be claimed (the head won at least nine pairs in ten, and its median is
better than the base's by more than the distance between the base's
quartiles), and whether the median ratio leaves the metric's bound (worse by
more than that share). It also diffs both sides' `tools/digests.py` and
totals their `tools/loc.py` where a side has them. Everything, with the
machine and the settings, goes to `BENCH_<head short sha>.json` in the
current directory, or to `--out`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of `rev` into `dest`."""
    dest.mkdir(parents=True)
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(side: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run on the checkout at `side`."""
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=side, check=True, capture_output=True, text=True).stdout
    return _last_json(out)


def _quartiles(values: list) -> list:
    """[first quartile, median, third quartile] of `values`."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(base_runs: list, head_runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: each side's values and quartiles, the pair
    ratios head / base with their median and range, the pairs the head won,
    whether a gain may be claimed and whether the median leaves the bound."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        ratios = [h / b if b else (1.0 if h == b else float("inf")) for b, h in zip(base, head)]
        median = statistics.median(ratios)
        worse_by = median - 1.0 if lower else 1.0 - median
        wins = sum((r < 1.0) if lower else (r > 1.0) for r in ratios)
        (b1, b2, b3), (h1, h2, h3) = _quartiles(base), _quartiles(head)
        gain = (b2 - h2) if lower else (h2 - b2)
        out[name] = {"base": base, "head": head, "base_quartiles": [b1, b2, b3],
                     "head_quartiles": [h1, h2, h3], "ratios": ratios,
                     "median_ratio": median, "range": [min(ratios), max(ratios)],
                     "head_wins": wins, "gain_claimable": wins >= 0.9 * len(ratios)
                     and gain > b3 - b1, "bound": metric["bound"],
                     "leaves_bound": worse_by > metric["bound"]}
    return out


def _tool_output(side: Path, tool: str) -> list | None:
    if not (side / "tools" / tool).exists():
        return None
    return subprocess.run([sys.executable, f"tools/{tool}"], cwd=side, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def checks(base: Path, head: Path) -> dict:
    """Both sides' output digests, diffed, and their code-line totals."""
    digests = [_tool_output(side, "digests.py") for side in (base, head)]
    locs = [_tool_output(side, "loc.py") for side in (base, head)]
    out = {"loc_total": [int(lines[-1].split()[-1]) if lines else None for lines in locs]}
    if None not in digests:
        b, h = digests
        out["digests"] = {"base_lines": len(b), "head_lines": len(h),
                          "identical": b == h, "head_lines_not_in_base": len(set(h) - set(b))}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    base_sha, head_sha = (_git("rev-parse", "--verify", f"{rev}^{{commit}}")
                          for rev in (args.base, args.head))
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        base, head = Path(tmp) / "base", Path(tmp) / "head"
        export(base_sha, base)
        export(head_sha, head)
        spec = json.loads((head / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        results = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(bench(base if side == "base" else head, spec["command"],
                                            workload, i, seconds))
                    print(f"{workload} pair {i} {side} denoise "
                          f"{runs[side][-1]['metrics']['denoise_ms_per_frame']['value']:.1f} ms",
                          file=sys.stderr, flush=True)
            results[workload] = {
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "metrics": summarize(runs["base"], runs["head"], spec["end_to_end"])}
        report = {"base": base_sha, "head": head_sha,
                  "pairs": args.pairs, "seconds": seconds, "command": spec["command"],
                  "machine": {"platform": platform.platform(), "python": platform.python_version(),
                              "cpus": os.cpu_count(),
                              "affinity": (len(os.sched_getaffinity(0))
                                           if hasattr(os, "sched_getaffinity") else None)},
                  "workloads": results, "checks": checks(base, head)}
    out = args.out or Path(f"BENCH_{_git('rev-parse', '--short', head_sha)}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{workload:16}{name:24}median {m['median_ratio']:.3f} "
                  f"range {m['range'][0]:.3f}-{m['range'][1]:.3f} wins {m['head_wins']}/"
                  f"{args.pairs}{'  GAIN' if m['gain_claimable'] else ''}"
                  f"{'  LEAVES BOUND' if m['leaves_bound'] else ''}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
