"""One workload measured in this process; prints one JSON line.

`run.py` starts this in a fresh process with BLAS threads pinned, so the
peak RSS it reports belongs to this workload alone:

    python3 perfbench/measure.py --workload mc5 --seed 3 --seconds 30 --trace 0

Times are wall times scaled to a reference host speed by interleaved
calibration kernels (see `hostspeed.py`); the info line keeps every raw
wall time and kernel time.

Untraced (`--trace 0`): `setup_s` is the median of `SETUP_REPS` samples
of the time of a run with `n_tti = 1`; `ms_per_tti` is the median, over repeated full runs (at
least `MIN_REPS`, more while `--seconds` allows), of run time over
`n_tti`; `peak_rss_mb` is this process's `ru_maxrss`.

Traced (`--trace 1`): traced and untraced full runs alternate, traced
first so that the first fading block's memory rise is seen.  Layer times
are medians over the traced runs; `trace.overhead_pct` compares the
median traced with the median untraced run time.

Output check, outside every timed region: all full runs of one process
must give the same output digest, and the workload's default seed must
reproduce the digest stored in `workloads.py` (on an extra untimed run
when `--seed` is another seed).  A run that raises or mismatches counts
as failed.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time
import traceback

import workloads
from hostspeed import Timeline
from outputs import output_digest, rb_bounds_ok
from tracer import COUNT_METRICS, LayerTracer, maxrss_mb
from workloads import DEFAULT_SEED, WORKLOADS

# Set-up samples; each is the mean of back-to-back set-ups lasting at
# least SETUP_BLOCK_S, long enough for the host-speed scaling to hold.
SETUP_REPS = 5
SETUP_BLOCK_S = 1.0
MIN_REPS = 3
MIN_TRACED_PAIRS = 2


class Checks:
    """Counts attempted runs and those that raised or mismatched."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)
        print(f"check failed: {note}", file=sys.stderr)

    def attempt(self, label: str, fn, *args):
        """fn(*args) as one attempted run; a raise counts as a failure and
        returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:   # a broken commit must be reported, not crash the run
            traceback.print_exc()
            self.fail(f"{label} raised")
            return None

    def same_output(self, label: str, record, digest: str,
                    expected: str) -> None:
        if digest != expected:
            self.fail(f"{label}: digest {digest[:12]} != {expected[:12]}")
        elif not rb_bounds_ok(record):
            self.fail(f"{label}: more RBs used than offered")


def timed_run(engine, cfg, min_s=0.0):
    """(mean wall seconds, last record) of back-to-back untraced
    `engine.run` calls, as many as last `min_s` (at least one)."""
    walls = []
    while not walls or sum(walls) < min_s:
        t0 = time.perf_counter()
        record = engine.run(cfg)
        walls.append(time.perf_counter() - t0)
    return sum(walls) / len(walls), record


def check_reference(engine, workload, seed, digest_at_seed, checks) -> None:
    """The default seed must reproduce the stored digest."""
    digest = digest_at_seed
    if seed != DEFAULT_SEED:
        out = checks.attempt("reference run", timed_run, engine,
                             workloads.config(workload, DEFAULT_SEED))
        digest = None if out is None else output_digest(out[1])
    if digest is not None and digest != workload.expected_digest:
        checks.fail(f"default seed: digest {digest[:12]} != stored "
                    f"{workload.expected_digest[:12]}")


def untraced_pass(engine, workload, seed, seconds, checks):
    start = time.perf_counter()
    clock = Timeline()
    setup = []
    for _ in range(SETUP_REPS):
        out = checks.attempt("setup run", clock.measure, timed_run, engine,
                             workloads.config(workload, seed, n_tti=1),
                             SETUP_BLOCK_S)
        if out is not None:
            setup.append(out[0])
    cfg = workloads.config(workload, seed)
    # Leave room for the extra reference run within --seconds.
    reruns = 1 if seed == DEFAULT_SEED else 2
    times, rounds, digest = [], [], None
    while len(rounds) < MIN_REPS or (time.perf_counter() - start
                                     + reruns * statistics.median(rounds)
                                     <= seconds):
        t0 = time.perf_counter()
        out = checks.attempt("timed run", clock.measure, timed_run, engine, cfg)
        if out is not None:
            times.append(out[0])
            this = output_digest(out[1])
            digest = digest or this
            checks.same_output(f"timed run {len(times)}", out[1], this, digest)
        rounds.append(time.perf_counter() - t0)
        if checks.failed >= MIN_REPS:
            break
    check_reference(engine, workload, seed, digest, checks)
    values = {}
    if times:
        values["ms_per_tti"] = (1000.0 * statistics.median(times)
                                / workload.n_tti)
    if setup:
        values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = maxrss_mb()
    return values, {"digest": digest, "raw_walls_s": clock.raw_s,
                    "kernel_s": clock.kernel_s}


def traced_pass(engine, workload, seed, seconds, checks):
    start = time.perf_counter()
    clock = Timeline()
    tracer = LayerTracer()
    cfg = workloads.config(workload, seed)

    def traced_run():
        record, digest = tracer.run(engine, cfg, output_digest)
        return tracer.run_s, (record, digest)

    traced, plain, layers, outputs, rounds = [], [], [], [], []
    while len(rounds) < MIN_TRACED_PAIRS or (
            time.perf_counter() - start + statistics.median(rounds)
            <= seconds):
        t0 = time.perf_counter()
        out = checks.attempt("traced run", clock.measure, traced_run)
        if out is not None:
            traced.append(out[0])
            layers.append(tracer.layer_metrics(
                workload.n_tti, scale=out[0] / clock.raw_s[-1]))
            outputs.append(("traced run", *out[1]))
        out = checks.attempt("untraced run", clock.measure, timed_run,
                             engine, cfg)
        if out is not None:
            plain.append(out[0])
            outputs.append(("untraced run", out[1], output_digest(out[1])))
        rounds.append(time.perf_counter() - t0)
        if checks.failed:
            break
    digest = outputs[0][2] if outputs else None
    for label, record, this in outputs:
        checks.same_output(label, record, this, digest)
    for name in COUNT_METRICS:
        seen = {m[name] for m in layers}
        if len(seen) > 1:
            checks.fail(f"{name} differs between traced runs: {sorted(seen)}")
    check_reference(engine, workload, seed, digest, checks)
    values = {}
    if layers:
        # Counts repeat exactly (checked above), and only the process's
        # first run can raise its peak RSS.
        first = ("channel.first_block_rss_delta_mb",) + COUNT_METRICS
        values = {name: (layers[0][name] if name in first
                         else statistics.median(m[name] for m in layers))
                  for name in layers[0]}
    if traced and plain:
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
    return values, {"digest": digest, "raw_walls_s": clock.raw_s,
                    "kernel_s": clock.kernel_s}


def provenance(workload, seed) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": workloads.blas_setting(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "n_tti": workload.n_tti,
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    engine = workloads.load_mbsfnsim()
    # The congestion and distance-clamp warnings repeat on every run.
    logging.getLogger("mbsfnsim").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    checks = Checks()
    run_pass = traced_pass if args.trace else untraced_pass
    values, info = run_pass(engine, workload, args.seed, args.seconds, checks)
    info.update(provenance(workload, args.seed))
    info["failures"] = checks.notes
    print(json.dumps({"workload": workload.name, "values": values,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
