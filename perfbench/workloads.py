"""The benchmark's workloads and how to build their configs.

Every workload is a `ScenarioConfig` built from the standard setup plus
the overrides below, with the seed supplied by the caller.  `n_tti` is
fixed per workload so that run outputs, and therefore their digests,
are comparable between commits.

Why each workload was chosen sits beside it below.  README.md has the
layer-to-metric mapping and the configurations deliberately left out.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    n_tti: int
    why: str
    # sha256 of the run outputs at DEFAULT_SEED on the seed commit
    # (see outputs.output_digest).
    expected_digest: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc5",
        overrides=dict(mode="multicast", cqi_policy="fixed", cqi_value=3,
                       bandwidth_mhz=5),
        n_tti=1024,
        why="The paper's headline multicast fixed:3 5 MHz config and the "
            "battery's most-run one: channel snapshot plus the per-user "
            "ordinary stage, no unicast copy pricing.",
        expected_digest=("b8795494d1ba7634ffc1c217d7f903b8"
                         "78f36adfab19f70800a70ea96d5717e1"),
    ),
    Workload(
        name="uc5",
        overrides=dict(mode="unicast_baseline", cqi_policy="fixed",
                       cqi_value=3, bandwidth_mhz=5),
        n_tti=1024,
        why="Unicast baseline at 152.8% offered load: per-copy pricing of a "
            "congested backlog and a growing latency table; bypasses the "
            "multicast and (starved) ordinary-user paths.",
        expected_digest=("10bf380f1f8e1393c19c326829371ba4"
                         "a3828c8f740fddc48427e4d59030dd56"),
    ),
    Workload(
        name="mc20_rings2",
        overrides=dict(mode="multicast", cqi_policy="fixed", cqi_value=3,
                       bandwidth_mhz=20, mbsfn_rings=2),
        n_tti=256,
        why="Scale config: 37 cells, 114 tracked users, 4218 fading pairs at "
            "20 MHz; channel- and memory-bound, with a small per-user link "
            "and scheduler share.",
        expected_digest=("7f5250ece81a999e09e5eac80b25244a"
                         "2f83d83669d6a5e028d77368f0a7363a"),
    ),
)}

def load_mbsfnsim():
    """Import the package from this checkout's `src/`, never from an
    installed copy; raises ImportError when the checkout has no source."""
    if not (SRC / "mbsfnsim" / "engine.py").is_file():
        raise ImportError(f"no mbsfnsim source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mbsfnsim
    from mbsfnsim import engine
    if Path(mbsfnsim.__file__).resolve().parent != SRC / "mbsfnsim":
        raise ImportError(f"mbsfnsim imported from {mbsfnsim.__file__}, "
                          f"not from {SRC}")
    return engine


def config(workload: Workload, seed: int, n_tti: int | None = None):
    """The workload's ScenarioConfig for `seed` (and optionally another
    run length)."""
    engine = load_mbsfnsim()
    return engine.ScenarioConfig(
        **workload.overrides, seed=seed,
        n_tti=workload.n_tti if n_tti is None else n_tti)


def blas_env() -> dict:
    """Environment that pins OpenBLAS/OpenMP/MKL to one thread."""
    return {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}


def blas_setting() -> str:
    return ",".join(f"{k}={os.environ.get(k, 'unset')}"
                    for k in sorted(blas_env()))
