#!/usr/bin/env python3
"""caf benchmark: run one workload in a closed loop, check its outputs, report metrics.

Usage, from the root of a checkout (standard library and numpy only):

    python3 perfbench/run.py --workload fig2_k2 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

The workload's caf commands run in this process through ``caf.cli.main``,
one after another, in rounds, until ``--seconds`` is used up (at least one
round). ``--seed`` is passed to every command as caf's ``--seed``.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (median over
rounds of ops completed per second of command wall time), ``setup_s``
(median time from a fresh interpreter until caf is imported and the argv
parsed) and ``peak_rss_mb`` (this process's ``ru_maxrss``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``tracer.layer_metrics``.

Every round's CSVs are checked (digests at the pinned seed, invariants at
any seed); failed ops are counted, never dropped. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Run records and spans are written to ``.perfbench-out/``.
"""

import os

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import caf.cli\n"
    "caf.cli.build_parser().parse_args(sys.argv[2:])\n"
    "print('ready', flush=True)\n"
)


def import_caf():
    """Import caf from this checkout's ``src``; raise if it is missing or shadowed."""
    if not (SRC / "caf" / "cli.py").is_file():
        raise FileNotFoundError(f"no caf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import caf.cli

    if Path(caf.__file__).resolve().parent != SRC / "caf":
        raise ImportError(f"imported caf from {caf.__file__}, not from {SRC}")
    return caf


def measure_setup(argv) -> list:
    """Seconds from spawning a fresh interpreter until it has parsed ``argv``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
    return samples


def command_argv(cmd, seed, out) -> list:
    return [*cmd.argv, "--seed", str(seed), "--out", str(out)]


def run_round(caf, workload, seed, tracer=None) -> dict:
    """Run every command of ``workload`` once and check what it wrote."""
    wall, errors, outs = 0.0, [], []
    for i, cmd in enumerate(workload.commands):
        out = OUT / "work" / workload.name / f"cmd{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = command_argv(cmd, seed, out)
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            start = time.perf_counter()
            try:
                caf.cli.main(argv)
            except Exception:  # an aborted command fails its ops; reported below
                errors.append(f"caf {' '.join(argv)} aborted:\n{traceback.format_exc()}")
            wall += time.perf_counter() - start
        outs.append(out / cmd.csv)
    msgs = list(errors)
    leftover = tracing.leftover_wrappers()
    if leftover:
        msgs.append(f"wrappers left installed: {leftover}")
    if errors:
        # the other commands' outputs cannot be cross-checked either
        return {"traced": tracer is not None, "wall_s": wall, "ops": workload.ops,
                "failed": workload.ops, "messages": msgs, "digests": []}
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in outs]
    failed, digest_msgs = workload.check_digests(seed, digests)
    ops, check_failed, check_msgs = workload.check([p.read_text(encoding="utf-8") for p in outs], seed)
    return {"traced": tracer is not None, "wall_s": wall, "ops": ops,
            "failed": min(ops, failed + check_failed), "messages": msgs + digest_msgs + check_msgs,
            "digests": digests}


def run_record(caf, workload, seed, trace) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    source = hashlib.sha256()
    for path in sorted((SRC / "caf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit, "src_caf_sha256": source.hexdigest(), "caf_version": caf.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "thread_pins": THREAD_PINS, "seed": seed, "trace": trace,
        "workload": workload.name,
        "argv": [["caf", *command_argv(c, seed, "<out>")] for c in workload.commands],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        caf = import_caf()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        # each workload in a fresh process, as a single run would be
        return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for name in workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    return report(caf, workload, args.seed, args.seconds, args.trace)


def report(caf, workload, seed, seconds, trace) -> int:
    """Measure, write the run record, print the summary and the result line."""
    setup = [] if trace else measure_setup(command_argv(workload.commands[0], seed, OUT / "setup"))
    tracer = tracing.Tracer() if trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        sides = [None]
        if trace:  # an untraced and a traced round, alternating which runs first
            sides = [None, tracer] if len(rounds) % 4 == 0 else [tracer, None]
        for side in sides:
            rounds.append(run_round(caf, workload, seed, side))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [m for r in rounds for m in r["messages"]]
    if trace:
        traced_wall = sum(r["wall_s"] for r in traced)
        metrics = tracing.layer_metrics(
            tracer, len(traced), traced_wall,
            statistics.median(r["wall_s"] for r in plain),
            statistics.median(r["wall_s"] for r in traced))
        if metrics["trace.unattributed_s"][0] < -1e-6:
            problems.append(f"layer self times exceed the traced wall {traced_wall} s")
    else:
        metrics = {
            "ops_per_s": (statistics.median((r["ops"] - r["failed"]) / r["wall_s"] for r in plain), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    correct = failed == 0 and not problems
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    record = {"record": run_record(caf, workload, seed, trace), "setup_s": setup,
              "rounds": rounds, "attempted": attempted, "failed": failed, "correct": correct,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if trace:
        record["call_counts"] = {k[5:]: v for k, v in tracer.counters.items() if k.startswith("call:")}
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["layer", "function", "start_s", "end_s", "parent", "strategy"],
            "spans": tracer.spans}), encoding="utf-8")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for msg in problems:
        print(msg, file=sys.stderr)
    print(f"{workload.name} seed={seed} trace={trace} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ops_ratio = {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
