"""Benchmark for orbicalc: four seeded workloads, speed-corrected timings.

    python3 bench/run.py --workload {groups,maps,nerve,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
src/).  Every timing is reported in reference seconds, corrected for the
machine's speed by the calibration kernel in bench/calib.py; the raw
figures and the speed factor are printed beside them.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
Details of the run go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("groups", "maps", "nerve", "cli")
SETUP_STARTS = 5
DEADLINE_S = 170

# Layers whose per-layer time is the summed self time of their spans.
LAYER_TIMES = (
    "groups.build", "groups.classes", "groups.lattice", "characters.table",
    "realreps.irreps", "homs.classes", "stablemaps.map_group", "rstar.category",
    "rstar.chains", "snf.homology",
)
LAYER_COUNTS = (
    "groups.elements", "groups.classes", "groups.subgroup_classes", "homs.classes",
    "stablemaps.generators", "rstar.cells", "snf.matrix_entries",
)
# CLI layers: the median latency of one cold call.
CLI_SPANS = (
    "start", "group", "irreps", "homs", "bundles", "stable-maps", "rstar",
    "localize", "detect", "corpus",
)


class BenchError(Exception):
    pass


def run_worker(deadline, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def correct_jobs(r):
    """Each job's raw time in reference seconds.

    A job is corrected by the mean of the calibration samples taken just
    before it, during it and just after it, so a drift in machine speed
    during a round is followed job by job.
    """
    k = r["kernel"]
    return [t * calib.REFERENCE_KERNEL_S / statistics.fmean(k[a:b + 1])
            for t, (a, b) in zip(r["jobs"], r["job_samples"])]


def correct_setup(s):
    return s["raw"] * 2 * calib.REFERENCE_KERNEL_S / sum(s["kernel"])


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_layer(traced, rounds, src_lines):
    job_factor = [c / t for c, t in zip(correct_jobs(traced), traced["jobs"])]
    factor = sum(correct_jobs(traced)) / traced["wall"]
    spans = traced["spans"]
    own = [t * (factor if s["job"] is None else job_factor[s["job"]])
           for s, t in zip(spans, self_times(spans))]
    metrics = {}
    for layer in LAYER_TIMES:
        metrics[layer + "_s"] = (sum(t for s, t in zip(spans, own) if s["name"] == layer), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (traced["counts"].get(name, 0), "count")
    for sub in CLI_SPANS:
        times = [t for s, t in zip(spans, own) if s["name"] == "cli." + sub]
        metrics[f"cli.{sub}_s"] = (statistics.median(times) if times else 0.0, "s")
    walls = [sum(correct_jobs(r)) for r in rounds]
    metrics["bench.speed_factor"] = (
        statistics.median(w / r["wall"] for w, r in zip(walls, rounds)), "ratio")
    metrics["bench.raw_wall_s"] = (statistics.median(r["wall"] for r in rounds), "s")
    metrics["bench.trace_overhead"] = (
        sum(correct_jobs(traced)) / statistics.median(walls), "ratio")
    metrics["src.lines"] = (src_lines, "count")
    return metrics


def count_src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "orbicalc" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'orbicalc'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [run_worker(deadline, "setup", *common) for _ in range(SETUP_STARTS)]
    rounds = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < args.seconds:
        rounds.append(run_worker(deadline, "round", *common))
    traced = run_worker(deadline, "round", *common, "--trace") if args.trace else None

    walls = [sum(correct_jobs(r)) for r in rounds]
    factors = [w / r["wall"] for w, r in zip(walls, rounds)]
    setup_factors = [correct_setup(s) / s["raw"] for s in setups]
    raw = {
        "setup_s": statistics.median(s["raw"] for s in setups),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "job_p50_s": statistics.median(statistics.median(r["jobs"]) for r in rounds),
    }
    corrected = {
        "setup_s": statistics.median(correct_setup(s) for s in setups),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(statistics.median(correct_jobs(r)) for r in rounds),
    }
    rss = statistics.median(r["rss_mb"] for r in rounds)
    all_rounds = rounds + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    check_errors = [e for r in all_rounds for e in r["check_errors"]]
    correct = not check_errors

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed")
    for name in ("setup_s", "wall_s", "job_p50_s"):
        f = statistics.median(setup_factors if name == "setup_s" else factors)
        print(f"  {name:12s} {corrected[name]:10.4f} s  (raw {raw[name]:.4f} s, "
              f"speed factor {f:.3f})")
    print(f"  {'peak_rss_mb':12s} {rss:10.2f} MB")
    for message in sorted(set(e for r in all_rounds for e in r["failures"])):
        print(f"  failed: {message}")
    for message in check_errors[:20]:
        print(f"  WRONG: {message}")

    if args.trace:
        layers = per_layer(traced, rounds, count_src_lines())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        for k, (v, u) in layers.items():
            print(f"  {k:26s} {v:12.4f} {u}")
    else:
        metrics = {k: {"value": v, "unit": "s"} for k, v in corrected.items()}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"setups": setups, "rounds": rounds, "raw": raw, "corrected": corrected,
               "factors": factors, "setup_factors": setup_factors}
    (OUT / f"{stem}.json").write_text(json.dumps(details))
    if traced:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(traced))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
