"""calib-lab benchmark: one command, three workloads, every metric by name.

Run from the root of a checkout:

    python3 bench/run.py --workload cli_desk --seed 0 --seconds 30 --trace 0

It imports ``calib_lab`` from the checkout's ``src/`` (and refuses any
other copy), builds the workload's inputs from ``--seed``, repeats
timed passes until ``--seconds`` are used (at least two, so passes of
one seed can be compared byte for byte), runs the correctness gate and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the budget on untraced passes and half on traced ones and reports the
per-layer metrics (see ``tracer.py``). A summary line with the
environment stamp comes just before the result, and the full record
(plus the spans of a traced run) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# setup_s = median import time of calib_lab over IMPORT_PROBES fresh
# processes + median of SETUP_REPEATS in-process workload set-ups.
SETUP_REPEATS = 3
IMPORT_PROBES = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import calib_lab; print(time.perf_counter() - t)")


def _import_calib_lab():
    sys.path.insert(0, str(SRC))
    import calib_lab
    if SRC not in Path(calib_lab.__file__).resolve().parents:
        raise ImportError(f"calib_lab was imported from {calib_lab.__file__}, not from {SRC}")
    return calib_lab


def _import_seconds() -> float:
    """Median import time of calib_lab (numpy included) in fresh processes."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_stamp() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"), **_git_stamp()}


def _run_passes(wl, gate, budget: float, min_passes: int, first_id: int, digests,
                tracer=None):
    """Timed passes until the next one would overrun ``budget`` seconds.
    With a tracer, each pass's spans are tagged with its pass id."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    walls = []
    start = time.perf_counter()
    while True:
        pass_id = first_id + len(walls)
        if tracer:
            tracer.pass_id = pass_id
        t0 = time.perf_counter()
        wl.run_pass(pass_id, gate, span)
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.pass_id = None
        digests.append(wl.check_pass(pass_id, gate))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + walls[-1] > budget:
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        _import_calib_lab()
    except ImportError as exc:
        print(f"bench: cannot import calib_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS, Gate
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    env = _environment(args)
    gate = Gate()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    record: dict = {"environment": env}
    metrics: dict = {}
    try:
        import_s = _import_seconds()
        setup_times, setup_digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_digests.append(wl.setup())
            setup_times.append(time.perf_counter() - t0)
        gate.check("setup_reproducible", len(set(setup_digests)) == 1)
        record.update(import_s=import_s, setup_times=setup_times)

        digests: list[str] = []
        if args.trace:
            walls = _run_passes(wl, gate, args.seconds / 2, 1, 0, digests)
            with tracer.patched():
                traced = _run_passes(wl, gate, args.seconds / 2, 1, len(walls), digests, tracer)
            traced_ids = range(len(walls), len(walls) + len(traced))
            record.update(traced_walls=traced)
        else:
            walls = _run_passes(wl, gate, args.seconds, 2, 0, digests)
        record.update(walls=walls)
        gate.check("passes_reproducible", len(set(digests)) == 1,
                   f"{len(set(digests))} distinct outputs over {len(digests)} passes")
        quality, detail = wl.finish(gate)
        record["quality_detail"] = detail

        if args.trace:
            overhead = statistics.median(traced) - statistics.median(walls)
            metrics = tracing.layer_metrics(tracer, traced_ids, overhead)
            stats = [tracer.pass_stats(p) for p in traced_ids]
            for name in wl.expected_spans:
                gate.check(f"trace_fires_{name}",
                           all(st.get(name, {}).get("calls", 0) > 0 for st in stats),
                           "span never fired")
            for name in tracing.EXACT_COUNTS:
                span_name, stat = tracing.LAYER_METRICS[name]
                counts = {st.get(span_name, {}).get(stat, 0) for st in stats}
                gate.check(f"trace_count_repeats_{name}", len(counts) == 1, repr(counts))
        else:
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": import_s + statistics.median(setup_times),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       **quality}
        produced = set(metrics) | (set() if args.trace else {"ok_rate"})
        gate.check("metrics_match_benchmark_json", produced == set(declared),
                   f"differ in {sorted(produced ^ set(declared))}")
    except Exception as exc:  # the gate records any failure of the program under test
        traceback.print_exc()
        gate.fail("exception", repr(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics and not args.trace:
        metrics["ok_rate"] = 1.0 - gate.failed / max(gate.attempted, gate.failed)

    result = {"correct": gate.failed == 0,
              "attempted": max(gate.attempted, gate.failed, 1),
              "failed": gate.failed,
              "metrics": {m: {"value": metrics[m], "unit": unit}
                          for m, unit in declared.items() if m in metrics}}
    record.update(failures=gate.failures, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps(s) + "\n")
    for failure in gate.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env, "walls": record.get("walls"),
                      "setup_times": record.get("setup_times"),
                      "quality_detail": record.get("quality_detail")}, default=float))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
