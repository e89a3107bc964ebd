"""mbsfnsim benchmark: wall time per TTI, set-up time and peak memory of
whole simulation runs, or a per-layer trace, with an output check.

    python3 perfbench/run.py --workload mc5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in its own fresh Python process (`measure.py`) with
OpenBLAS/OpenMP/MKL pinned to one thread.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the line before it holds the run's provenance, output
digest and `output_mismatch_frac` (failed over attempted runs).  With
`--workload all` metric names are prefixed with the workload name.

Exits with a non-zero code, printing no result, when the checkout has no
mbsfnsim source or a workload process fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, blas_env  # noqa: E402

TIME_LIMIT_S = 175.0

UNITS = {
    "ms_per_tti": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
    "metrics.write_run_outputs.ms": "ms",
    "channel.first_block_rss_delta_mb": "MB",
    "scheduler.unicast_priced_per_granted": "ratio",
    "scheduler.multicast_rb_fill": "ratio",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("ms_per_tti") else "count"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int,
            timeout: float | None) -> dict:
    """Run measure.py for one workload in a fresh process; returns its
    result, or raises RuntimeError when it fails or prints none."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = {**os.environ, **blas_env()}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: measure.py exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{workload}: measure.py printed no result")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mbsfnsim" / "engine.py").is_file():
        print(f"error: no mbsfnsim source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.perf_counter()
    results = []
    try:
        for name in names:
            timeout = (TIME_LIMIT_S - (time.perf_counter() - start)
                       if args.workload != "all" else None)
            results.append(measure(name, args.seed, args.seconds, args.trace,
                                   timeout))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    commit = git_commit()
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if args.workload == "all" else ""
        for name, value in res["values"].items():
            metrics[prefix + name] = {"value": value, "unit": unit(name)}
            print(f"{res['workload']:12s} {name:42s} {value:12.6g} {unit(name)}")
        res["info"]["commit"] = commit
        res["info"]["output_mismatch_frac"] = res["failed"] / max(
            res["attempted"], 1)
        print(json.dumps({"workload": res["workload"], **res["info"]}))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
