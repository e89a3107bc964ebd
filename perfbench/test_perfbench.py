"""Tests of the benchmark's own machinery on short runs: the tracer puts
every original back, a perturbed artifact is a mismatch, counts repeat
exactly, the benchmark refuses to run without the program's source, and
host-speed scaling uses the kernel passes around each call."""
import shutil
import subprocess
import sys

import pytest

import hostspeed
import workloads
from measure import Checks
from outputs import digest_dir, output_digest
from tracer import COUNT_METRICS, LayerTracer
from workloads import WORKLOADS

engine = workloads.load_mbsfnsim()
from mbsfnsim import metrics  # noqa: E402

SHORT_TTI = 128


def short(name, seed=1):
    return workloads.config(WORKLOADS[name], seed, n_tti=SHORT_TTI)


def wrapped_attributes(tracer):
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _ in tracer.timed + tracer.counted}


def test_wrappers_restored_after_traced_run():
    tracer = LayerTracer()
    originals = wrapped_attributes(tracer)
    record, digest = tracer.run(engine, short("mc5"), output_digest)
    assert wrapped_attributes(tracer) == originals
    assert tracer.calls["link.bler"] > 0
    assert tracer.calls["metrics.write_run_outputs"] == 1
    # The shims change nothing the run emits.
    assert digest == output_digest(engine.run(short("mc5")))

    def fail(record):
        raise RuntimeError("emit failed")
    with pytest.raises(RuntimeError):
        tracer.run(engine, short("mc5"), fail)
    assert wrapped_attributes(tracer) == originals


def test_perturbed_artifact_is_a_mismatch(tmp_path):
    record = engine.run(short("mc5"))
    metrics.write_run_outputs(tmp_path, record)
    good = digest_dir(tmp_path, record)
    assert output_digest(record) == good

    summary = tmp_path / "summary.csv"
    data = bytearray(summary.read_bytes())
    data[-2] ^= 1
    summary.write_bytes(bytes(data))
    checks = Checks()
    checks.same_output("perturbed file", record, digest_dir(tmp_path, record),
                       good)
    summary.write_bytes(bytes(data[:-2] + data[-1:]))
    checks.same_output("truncated file", record, digest_dir(tmp_path, record),
                       good)
    assert checks.failed == 2

    record.multicast_rb_per_tti[0] += 1
    assert output_digest(record) != good


@pytest.mark.parametrize("name", ["mc5", "uc5"])
def test_counts_repeat_exactly(name):
    tracer = LayerTracer()
    counts = []
    for _ in range(2):
        tracer.run(engine, short(name, seed=3), output_digest)
        layer = tracer.layer_metrics(SHORT_TTI)
        counts.append({k: layer[k] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    path = ("scheduler.multicast_rb_fill" if name == "mc5"
            else "scheduler.unicast_priced_per_granted")
    assert counts[0][path] > 0


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc5", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timeline_scales_by_neighbouring_kernel_passes(monkeypatch):
    passes = iter([0.5, 0.25, 0.125])
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: next(passes))
    clock = hostspeed.Timeline()
    ref = hostspeed.REFERENCE_S
    assert clock.measure(lambda: (1.0, "a")) == (ref / 0.5, "a")
    assert clock.measure(lambda: (2.0, "b")) == (2.0 * ref / 0.375, "b")

    def fail():
        raise RuntimeError("run failed")
    with pytest.raises(RuntimeError):
        clock.measure(fail)
    assert clock.kernel_s == [0.5, 0.25, 0.125]
    assert clock.raw_s == [1.0, 2.0]
