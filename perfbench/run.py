"""ROADS benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload query_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced reps, with
every time normalised to a nominal host speed (``clock.py``).
``--trace 1`` runs rep 0 untraced and then traced, requires both to
produce the same determinism fingerprint, reports the per-layer rows and
writes the spans to ``perfbench/out/``. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name and unit, the sample counts and the
fingerprint. The exit code is non-zero when an answer check fails, when
reps of one seed disagree, or when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import numpy as np
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise ImportError(f"repro comes from {repro.__file__}, not {ROOT}/src")
    from harness import run_rep
    from layers import PER_LAYER, layer_rows
    from workloads import SETUPS, WORKLOADS, draw_inputs, rep_seed
except ImportError as exc:  # no program to measure next to the benchmark
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "sim_s_per_wall_s": "ratio",
    "peak_rss_mb": "MB",
    "answered_frac": "fraction",
    "sim_sojourn_p50_s": "sim_s",
    "sim_sojourn_p95_s": "sim_s",
    "query_bytes_per_search": "B",
    "update_bytes_per_epoch": "B",
}


def end_to_end(reps, unique) -> dict:
    """End-to-end metrics: times normalised to the nominal host speed, as
    medians over every rep (every set-up for ``setup_s``); the
    deterministic outputs pooled over the distinct sub-streams."""
    sojourns = np.concatenate([r.sojourns for r in unique])
    return {
        "setup_s": statistics.median(s for r in reps for s in r.setup_s),
        "queries_per_s": statistics.median(r.searches / r.norm_s for r in reps),
        "sim_s_per_wall_s": statistics.median(r.sim_s / r.norm_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answered_frac": 1.0 - _pooled(unique, "failed", "attempted"),
        "sim_sojourn_p50_s": float(np.percentile(sojourns, 50)),
        "sim_sojourn_p95_s": float(np.percentile(sojourns, 95)),
        "query_bytes_per_search": _pooled(unique, "query_bytes", "searches"),
        "update_bytes_per_epoch": statistics.mean(r.epoch_bytes for r in unique),
    }


def _pooled(reps, num: str, den: str) -> float:
    return sum(getattr(r, num) for r in reps) / sum(getattr(r, den) for r in reps)


def extra_lines(reps, unique) -> list:
    """Outputs printed but not gated: the raw wall-clock readings behind
    the normalised times, and outputs that are zero or swing with the
    seed far beyond any bound."""
    def mean(row: str) -> float:
        return statistics.mean(r.counts[row] for r in unique)

    raw_setup = statistics.median(s for r in reps for s in r.setup_wall_s)
    raw_qps = statistics.median(r.searches / r.wall_s for r in reps)
    raw_sim = statistics.median(r.sim_s / r.wall_s for r in reps)
    speed = statistics.median(r.norm_s / r.wall_s for r in reps)
    lines = [
        f"  raw wall clock: setup_s {raw_setup:.6g} s, queries_per_s "
        f"{raw_qps:.6g} 1/s, sim_s_per_wall_s {raw_sim:.6g} ratio "
        f"(normalised / raw measured time {speed:.4g})",
        f"  failed_frac {_pooled(unique, 'failed', 'attempted'):.6g} fraction",
        f"  update_bytes_per_sim_s {mean('update.bytes_per_sim_s'):.6g} B/sim_s",
        f"  root_served_share {mean('net.root_served_share'):.6g} fraction",
    ]
    if all(r.quality for r in unique):
        tp = sum(r.quality["tp"] for r in unique)
        fp = sum(r.quality["fp"] for r in unique)
        fn = sum(r.quality["fn"] for r in unique)
        lines.append(f"  precision {tp / (tp + fp) if tp + fp else 1.0:.6g} fraction")
        lines.append(f"  recall {tp / (tp + fn) if tp + fn else 1.0:.6g} fraction")
    else:
        lines.append("  precision, recall: n/a (no observer on this workload)")
    return lines


def measure(workload, seed: int, seconds: float):
    """Untraced reps: every sub-stream once, then repeats (cycling the
    sub-streams) until the timed phases have run for *seconds*."""
    reps, timed, rep = [], 0.0, 0
    setups = -(-SETUPS // workload.reps)
    while rep < workload.reps or timed < seconds:
        # Collect the last rep's federation before drawing the next
        # inputs, so that the two never overlap in ``peak_rss_mb``.
        gc.collect()
        inputs = draw_inputs(workload, rep_seed(seed, rep % workload.reps))
        gc.collect()
        r = run_rep(workload, inputs, setups=setups)
        del inputs
        reps.append(r)
        timed += sum(r.setup_wall_s) + r.wall_s
        rep += 1
    unique = reps[: workload.reps]
    agree = all(
        r.fingerprint == unique[i % workload.reps].fingerprint
        for i, r in enumerate(reps)
    )
    metrics = {
        name: {"value": value, "unit": END_TO_END[name]}
        for name, value in end_to_end(reps, unique).items()
    }
    lines = [f"  {name:<24} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += extra_lines(reps, unique)
    lines.append(
        f"  samples: {len(reps)} reps ({len(unique)} sub-streams), "
        f"{sum(len(r.setup_s) for r in reps)} set-ups, "
        f"{sum(r.searches for r in unique)} stream searches pooled for "
        f"the sojourn percentiles"
    )
    lines.append(
        "  fingerprints " + " ".join(r.fingerprint for r in unique)
        + ("" if agree else "  MISMATCH between repeats of one sub-stream")
    )
    return reps, agree, metrics, lines


def measure_layers(workload, seed: int, out_dir: str):
    """Rep 0 untraced, then traced: per-layer rows and the tripwire."""
    inputs = draw_inputs(workload, rep_seed(seed, 0))
    plain = run_rep(workload, inputs)
    traced = run_rep(workload, inputs, trace=True)
    agree = plain.fingerprint == traced.fingerprint
    rows = layer_rows(
        traced.tracer,
        traced.counts,
        traced.quality,
        traced_wall=traced.wall_s,
        untraced_wall=plain.wall_s,
    )
    units = dict(PER_LAYER)
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in rows.items()
    }
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-{seed}.npz")
    traced.tracer.save(spans_path)
    lines = [f"  {name:<32} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  spans: {len(traced.tracer)} written to {os.path.relpath(spans_path, ROOT)}")
    lines.append(
        f"  fingerprints untraced {plain.fingerprint} traced {traced.fingerprint}"
        + ("" if agree else "  MISMATCH: tracing changed the simulated run")
    )
    return [plain, traced], agree, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    if args.trace:
        reps, agree, metrics, lines = measure_layers(
            workload, args.seed, os.path.join(HERE, "out")
        )
    else:
        reps, agree, metrics, lines = measure(workload, args.seed, args.seconds)
    mismatches = sum(r.mismatches for r in reps)
    correct = agree and mismatches == 0
    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} "
        f"run_wall={time.perf_counter() - t0:.1f}s"
    )
    for line in lines:
        print(line)
    print(f"  answer-check mismatches {mismatches}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
