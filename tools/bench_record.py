#!/usr/bin/env python3
"""Fold benchmark run records into one ``BENCH_<pr>.json`` at the repository root.

Usage, from the root of a checkout (standard library only):

    python3 tools/bench_record.py --pr 26                  # every .perfbench-out/*-trace0.json
    python3 tools/bench_record.py --pr 26 runs/*.json      # chosen records, several per workload

Each ``python3 perfbench/run.py --trace 0`` run writes its record to
``.perfbench-out/<workload>-seed<s>-trace0.json`` and the next run of that
workload overwrites it, so keep a copy of each record to fold several runs of
one workload. Per run the output holds the median, quartiles and IQR of the
per-round ops/s (ops completed per second of command wall time, as the
benchmark's ``ops_per_s``), the ``setup_s`` samples and their median, the peak
RSS, and the run's commit, source hash, versions, ``nproc`` and thread pins.
Per workload it lists every run given, in argument order, and the median of
their ops/s medians. Traced records (``--trace 1``) carry no end-to-end
metrics and are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = ("git_commit", "src_caf_sha256", "caf_version", "python", "numpy", "nproc",
               "thread_pins", "seed")


def quartiles(values: list) -> dict:
    """Median, quartiles and IQR of ``values`` (statistics' inclusive method)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def fold_run(path: Path) -> tuple:
    """(workload, summary) of one ``perfbench/run.py --trace 0`` record."""
    blob = json.loads(path.read_text(encoding="utf-8"))
    record = blob["record"]
    if record.get("trace"):
        raise ValueError(f"{path}: a traced record has no end-to-end metrics")
    plain = [r for r in blob["rounds"] if not r["traced"]]
    if not plain:
        raise ValueError(f"{path}: no untraced rounds")
    summary = {"record": path.name, **{key: record[key] for key in RECORD_KEYS},
               "correct": blob["correct"], "rounds": len(plain),
               "ops_per_s": quartiles([(r["ops"] - r["failed"]) / r["wall_s"] for r in plain]),
               "setup_s": {"samples": blob["setup_s"],
                           "median": statistics.median(blob["setup_s"])},
               "peak_rss_mb": blob["metrics"]["peak_rss_mb"]["value"]}
    return record["workload"], summary


def fold(paths: list, pr: int) -> dict:
    workloads = {}
    for path in paths:
        name, summary = fold_run(Path(path))
        workloads.setdefault(name, []).append(summary)
    return {"pr": pr, "workloads": {
        name: {"median_ops_per_s": statistics.median(r["ops_per_s"]["median"] for r in runs),
               "runs": runs}
        for name, runs in sorted(workloads.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--out", type=Path,
                        help="output path (default: BENCH_<pr>.json at the root)")
    parser.add_argument("records", nargs="*", type=Path,
                        help="run records (default: .perfbench-out/*-trace0.json)")
    args = parser.parse_args(argv)
    records = args.records or sorted((ROOT / ".perfbench-out").glob("*-trace0.json"))
    if not records:
        parser.error("no run records given or found in .perfbench-out/")
    try:
        bench = fold(records, args.pr)
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}: " + ", ".join(f"{name} x{len(w['runs'])}"
                                       for name, w in bench["workloads"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
