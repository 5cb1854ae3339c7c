"""Benchmark of the epimc command line on three fixed workloads.

    python3 bench/run.py --workload broadcast_eval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Load model: a closed loop with one client. This process sets up the
workload's input files, then runs its CLI queries one child at a time
(``python -m epimc.cli ...``), waiting for each to exit before starting
the next, and checks every answer against ``bench/references.json``. The
query phase repeats while the next repetition would end within
``--seconds`` (at least twice); ``verdict_s`` is the sum over its queries
of each query's median time. Set-up and query times are scaled to a
reference host speed by calibration children run around them (see
CALIBRATION_REFERENCE_S in workloads.py and bench/README.md).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of the traced run (see spans.py), and the spans are
written to ``.bench_trace/``. Generated inputs live under ``.bench_work/``
and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads as wl

#: Every query runs at least this often, so each per-query median has a
#: second sample even when one phase fills --seconds.
MIN_PHASES = 2


def declared_metrics() -> dict:
    path = wl.ROOT / "BENCHMARK.json"
    try:
        config = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"bench: cannot read {path}: {exc}") from None
    return {
        "end_to_end": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def measure(
    launcher: wl.Launcher, workload: wl.Workload, seed: int, seconds: float, work: Path, refs: dict
) -> dict:
    """The untraced run: end-to-end metrics of one workload."""
    files, setups, setup_scale = wl.run_setup(launcher, workload, work)
    queries = workload.queries(files, seed)
    phases = []
    began = time.perf_counter()
    while True:
        phases.append(wl.run_phase(launcher, queries, work, refs, calibrated=True))
        elapsed = time.perf_counter() - began
        # Stop before a phase that would end past --seconds.
        if len(phases) >= MIN_PHASES and elapsed * (len(phases) + 1) / len(phases) > seconds:
            break
    setup_wall = statistics.median(s.seconds for s in setups)
    per_query = list(zip(*(p.children for p in phases)))
    per_scale = list(zip(*(p.scales for p in phases)))
    verdict_wall = sum(statistics.median(c.seconds for c in same) for same in per_query)
    verdict = sum(
        statistics.median(c.seconds * k for c, k in zip(same, scales))
        for same, scales in zip(per_query, per_scale)
    )
    children = [c for s in setups for c in s.children]
    children += [c for p in phases for c in p.children]
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.children) for p in phases)
    for line in failures:
        print(f"FAIL {workload.name}: {line}", file=sys.stderr)
    host = statistics.median(k for p in phases for k in p.scales)
    print(
        f"{workload.name}: setup_s is the median of {len(setups)} set-ups, "
        f"verdict_s sums per-query medians over {len(phases)} query phases; "
        f"unscaled wall times: setup {setup_wall:.4f} s, verdict {verdict_wall:.4f} s "
        f"(host speed {host:.3f} of reference); "
        f"ops {attempted}, failed {len(failures)}, "
        f"fail_ratio {len(failures) / attempted:g}"
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "setup_s": setup_wall * setup_scale,
            "verdict_s": verdict,
            "peak_rss_mb": max(c.maxrss_mib for c in children),
        },
    }


def traced(
    launcher: wl.Launcher, name: str, seed: int, work: Path, refs: dict, declared: list[str]
) -> dict:
    metrics, check, tracer = spans.traced_run(launcher, name, seed, work, refs, declared)
    trace_path = wl.ROOT / ".bench_trace" / f"{name}-seed{seed}.json"
    tracer.write(trace_path, metrics)
    for line in check.failures:
        print(f"FAIL traced: {line}", file=sys.stderr)
    print(f"traced run: {len(tracer.spans)} spans written to {trace_path}")
    return {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics,
    }


def with_units(result: dict, units: dict[str, str]) -> dict:
    missing = set(units) - set(result["metrics"])
    if missing:
        raise SystemExit(f"bench: no value for {sorted(missing)}")
    result = dict(result)
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    for name, m in result["metrics"].items():
        print(f"  {name:56s} {m['value']:>14.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl.ensure_importable()
    declared = declared_metrics()
    refs = wl.load_references()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        parser.error("--trace 1 takes one workload; every traced run profiles all three")
    work = wl.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    results = {}
    try:
        with wl.Launcher() as launcher:
            for name in names:
                wdir = work / name
                wdir.mkdir()
                if args.trace:
                    per_layer = declared["per_layer"]
                    result = traced(launcher, name, args.seed, wdir, refs, list(per_layer))
                    results[name] = with_units(result, per_layer)
                else:
                    workload = wl.WORKLOADS[name]
                    result = measure(launcher, workload, args.seed, args.seconds, wdir, refs[name])
                    results[name] = with_units(result, declared["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
