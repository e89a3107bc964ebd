"""Golden digests: short runs of the four acceptance-battery configs,
plus adaptive unicast, three configs that take the channel's and the
engine's edge paths (static cars, a delayed unicast report, no cars), two
with shadowing, where handover follows the gain, not the distance,
three multicast variants (a delayed report, no subframe hand-back, an
adaptive CQI without a bound), and three delayed multicast reports whose
subframes differ from the reserved ones (a fixed CQI that reads none, a
report from an unreserved subframe, a report from the previous fading
block), error-free decoding, which draws nothing, and unicast at 20 MHz,
where the RBs the copies leave to ordinary users take many values.
One more digest covers the whole output tree of a `compare` run: its
per-cell run directories, overlays, ratios, summary and manifest.

Each run's artifact files (name and bytes, as `metrics.write_run_outputs`
emits them) and its per-TTI RB arrays are hashed with SHA-256 and compared
with a committed digest.  A refactor or speed-up must leave every digest
unchanged; a change that moves simulated results must re-bless the digest
here and say why.

`PYTHONPATH=src python tests/test_golden.py` prints every config's digest.
"""
import hashlib
import os
import pathlib
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from mbsfnsim import cli, engine, metrics

N_TTI = 256
SEED = 1

BASE = engine.ScenarioConfig(n_tti=N_TTI, seed=SEED)
CONFIGS = {
    "mc_fixed_5": BASE,
    "mc_adaptive_5": replace(BASE, cqi_policy="adaptive"),
    "uc_fixed_5": replace(BASE, mode="unicast_baseline"),
    "mc_fixed_20": replace(BASE, bandwidth_mhz=20),
    # The one path that prices each unicast copy through sinr_vs_cell.
    "uc_adaptive_5": replace(BASE, mode="unicast_baseline",
                             cqi_policy="adaptive"),
    # No moving rows: the multicast sources are zero-Doppler rows.
    "mc_static_cars": replace(BASE, car_speed_kmh=0.0),
    # Unicast copies priced from a report two TTIs old.
    "uc_adaptive_delay2": replace(BASE, mode="unicast_baseline",
                                  cqi_policy="adaptive",
                                  cqi_feedback_delay_tti=2),
    # No sources at all: only the ordinary users are served.
    "mc_no_cars": replace(BASE, cars_per_cell=0),
    # With shadowing the strongest cell need not be the nearest one.
    "mc_shadow8": replace(BASE, shadowing_std_db=8.0),
    "uc_adaptive_shadow8": replace(BASE, mode="unicast_baseline",
                                   cqi_policy="adaptive",
                                   shadowing_std_db=8.0),
    # The multicast CQI chosen from a report two TTIs old.
    "mc_adaptive_delay2": replace(BASE, cqi_policy="adaptive",
                                  cqi_feedback_delay_tti=2),
    # Reserved subframes with nothing to send stay empty.
    "mc_no_reassign": replace(BASE, reassign_unused_subframes=False),
    # Adaptive CQI with bound 0: the reservation is sized at reservation_cqi.
    "mc_adaptive_bound0": replace(BASE, cqi_policy="adaptive", cqi_value=0),
    # A fixed CQI with a delayed report: the report's subframes
    # (reserved - 3) include some that nothing reads.
    "mc_fixed_delay3": replace(BASE, cqi_feedback_delay_tti=3),
    # The adaptive CQI chosen from a report of a subframe that is not
    # reserved (reserved - 4 includes 4 and 9).
    "mc_adaptive_delay4": replace(BASE, cqi_policy="adaptive",
                                  cqi_feedback_delay_tti=4),
    # The report comes from the previous 64-TTI fading block.
    "mc_adaptive_delay70": replace(BASE, cqi_policy="adaptive",
                                   cqi_feedback_delay_tti=70),
    # Every block decodes: no decode draw is taken.
    "mc_perfect_decode": replace(BASE, perfect_decode=True),
    # The copies leave each cell's ordinary users many different RB counts.
    "uc_fixed_20": replace(BASE, mode="unicast_baseline", bandwidth_mhz=20),
}

GOLDEN = {
    "mc_fixed_5": ("09f742e5e1937a96b10969e136db4161"
                   "a640b3b205bfeadb1107cfc2c905ffde"),
    "mc_adaptive_5": ("fbb2b1503cd18cb7dddd340e3dd2d619"
                      "b42d005421e05049204ed83500e9a658"),
    "uc_fixed_5": ("ad186ed6642290dc622a95b1ae77a1ab"
                   "b1b9ad3bc2191bb162657931fc9c536b"),
    "mc_fixed_20": ("0bdf861381f6bfd5f9f7a3164401ba6d"
                    "4c24a6655d331c4ad8e03ef18c5fb5d0"),
    "uc_adaptive_5": ("c67e427dc089149e90b75b0e2acddf56"
                      "1eb984885039411e0b569ec84cbfb918"),
    "mc_static_cars": ("8cc28968f59fbf7f374f3a8961bcc082"
                       "53bdc76df4b298307c88a2e36bb44318"),
    "uc_adaptive_delay2": ("b4f642c7e1581c3a3dbb2e41c7c93dff"
                           "9f6e9fca67da090f3f601108c0be7dd1"),
    "mc_no_cars": ("bc4d3500961d9883ea39c7aecd5fcf7e"
                   "04585a1f5b4814aea5f69c3097c81dbb"),
    "mc_shadow8": ("d52af182cffd712b507b500236b08f39"
                   "8bbd5ef1e5cceafb75616f914d0eff9a"),
    "uc_adaptive_shadow8": ("809abf89f6632b6b5ae3eced41dcdb7f"
                            "e9cf4c8f8ff608b94eb1f6ccc3a946d6"),
    "mc_adaptive_delay2": ("8b1adc3e29c1036a6ef14d0b6169f00a"
                           "2500015dcb755feefdd4c99c24eb2099"),
    "mc_no_reassign": ("723075a0335f541dde67264a829bf4ca"
                       "5fa752e351ca31a2b3ee7eb596172915"),
    "mc_adaptive_bound0": ("a0a4c6d17928cf02f436062d3c560cff"
                           "f615188c22c8dec6fe8762ef35ede308"),
    "mc_fixed_delay3": ("b9bccc35047d44c4a6e652b23e7032ac"
                        "7d611ce3879e1170965b8fe33cc79cb0"),
    "mc_adaptive_delay4": ("39838e64c0117924aa5628efad66fb30"
                           "8417d3318693eae96b863ca10af53aea"),
    "mc_adaptive_delay70": ("f47dfb11cabcb4dfa4a240933190ac8b"
                            "bf60874ce4451473bccd7f8f523875b9"),
    "mc_perfect_decode": ("bdb709594bdd1b506f16c0aafc2bffd9"
                          "704734253b626267da94a5ea83d1484b"),
    "uc_fixed_20": ("7f33a9eed1a62b4c5401e4a268beda21"
                    "9c0a51a564fa752b6353fef794ebe315"),
}

# Both modes at both bandwidths, fixed and unbounded adaptive CQI: eight
# cells and one bandwidth ratio per (mode, CQI) pair.
COMPARE_ARGS = ["compare", "--modes", "multicast,unicast_baseline",
                "--bandwidths", "5,20", "--cqi", "fixed:3,adaptive:0",
                "--n-tti", "400", "--seed", "3"]
# In the unicast 20 MHz adaptive:0 cell some full grants carry a residual
# a rounding error above whole RBs (see `allocate_fifo`).
COMPARE_GOLDEN = ("864231c3f0f21e8c048a3a387793179b"
                  "b425a66ba79c231c05a2293623d613d5")


def run_digest(cfg, out_dir) -> str:
    record = engine.run(cfg)
    metrics.write_run_outputs(out_dir, record)
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        data = (out_dir / name).read_bytes()
        h.update(f"file {name} {len(data)}\n".encode())
        h.update(data)
    for field in ("multicast_rb_per_tti", "cam_rb_per_tti"):
        arr = np.ascontiguousarray(getattr(record, field))
        h.update(f"array {field} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def compare_digest(out_dir) -> str:
    assert cli.main(COMPARE_ARGS + ["--out", str(out_dir)]) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"file {path.relative_to(out_dir).as_posix()} "
                 f"{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name, tmp_path):
    assert run_digest(CONFIGS[name], tmp_path) == GOLDEN[name]


def test_compare_golden_digest(tmp_path):
    assert compare_digest(tmp_path) == COMPARE_GOLDEN


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as out:
            print(name, run_digest(CONFIGS[name], pathlib.Path(out)))
    with tempfile.TemporaryDirectory() as out:
        print("compare", compare_digest(pathlib.Path(out)))
