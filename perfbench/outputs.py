"""Output check: one digest over everything a run emits.

The digest covers every file `metrics.write_run_outputs` writes (name and
bytes, in name order) and the record's per-TTI `multicast_rb_per_tti` and
`cam_rb_per_tti` arrays (dtype, shape and bytes).  A speed-only change
must leave it unchanged.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from workloads import ROOT

SCRATCH = ROOT / ".perfbench_out"


def digest_dir(out_dir, record) -> str:
    """sha256 over the artifact files in `out_dir` and the record's RB arrays."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        data = (Path(out_dir) / name).read_bytes()
        h.update(f"file {name} {len(data)}\n".encode())
        h.update(data)
    for field in ("multicast_rb_per_tti", "cam_rb_per_tti"):
        arr = np.ascontiguousarray(getattr(record, field))
        h.update(f"array {field} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def output_digest(record) -> str:
    """Write the run's artifacts to a scratch directory inside the checkout,
    hash them together with the RB arrays, and remove the directory.

    `metrics.write_run_outputs` is looked up at call time, so a traced pass
    times it."""
    from mbsfnsim import metrics
    SCRATCH.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        metrics.write_run_outputs(out_dir, record)
        return digest_dir(out_dir, record)
    finally:
        shutil.rmtree(out_dir)
        remove_scratch()


def remove_scratch() -> None:
    """Drop the scratch directory once nothing is left in it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def rb_bounds_ok(record) -> bool:
    """Per-TTI RB use never exceeds what the subframe offers: the whole
    band for multicast, the band in every area cell for unicast copies."""
    from mbsfnsim import engine
    n_rb = engine.BANDWIDTH_TO_RB[record.config_dict["bandwidth_mhz"]]
    rings = record.config_dict["mbsfn_rings"]
    n_area_cells = 1 + 3 * rings * (rings + 1)
    return bool((record.multicast_rb_per_tti >= 0).all()
                and (record.multicast_rb_per_tti <= n_rb).all()
                and (record.cam_rb_per_tti >= 0).all()
                and (record.cam_rb_per_tti <= n_rb * n_area_cells).all())
