"""Link abstraction: SINR, CQI mapping, spectral efficiency and decoding.

Multicast receivers see the coherent sum of all single-frequency-area
cells as signal and only the outside ring as interference; unicast
receivers see a single serving cell against everything else.  A
mutual-information average condenses per-RB SINRs into one effective
value, which drives both CQI selection and a logistic block-error model
calibrated to 10% error at each CQI's switching threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CqiRangeError(ValueError):
    """CQI index outside 1..15."""


# LTE 4-bit CQI table: efficiency in information bits per resource element
# (modulation order times code rate) and the SINR above which the entry
# sustains a 10% block error rate.
@dataclass(frozen=True)
class CqiEntry:
    index: int
    modulation: str
    efficiency: float
    sinr_threshold_db: float


CQI_TABLE = (
    CqiEntry(1, "QPSK", 0.1523, -6.7),
    CqiEntry(2, "QPSK", 0.2344, -4.7),
    CqiEntry(3, "QPSK", 0.3770, -2.3),
    CqiEntry(4, "QPSK", 0.6016, 0.2),
    CqiEntry(5, "QPSK", 0.8770, 2.4),
    CqiEntry(6, "QPSK", 1.1758, 4.3),
    CqiEntry(7, "16QAM", 1.4766, 5.9),
    CqiEntry(8, "16QAM", 1.9141, 8.1),
    CqiEntry(9, "16QAM", 2.4063, 10.3),
    CqiEntry(10, "64QAM", 2.7305, 11.7),
    CqiEntry(11, "64QAM", 3.3223, 14.1),
    CqiEntry(12, "64QAM", 3.9023, 16.3),
    CqiEntry(13, "64QAM", 4.5234, 18.7),
    CqiEntry(14, "64QAM", 5.1152, 21.0),
    CqiEntry(15, "64QAM", 5.5547, 22.7),
)

THRESHOLDS_DB = np.array([e.sinr_threshold_db for e in CQI_TABLE])
EFFICIENCIES = np.array([e.efficiency for e in CQI_TABLE])


def load_cqi_table(path) -> tuple[CqiEntry, ...]:
    """Read a replacement CQI table (CSV: index,modulation,efficiency,
    sinr_threshold_db) for sensitivity studies."""
    import csv
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            entries.append(CqiEntry(
                index=int(row["index"]),
                modulation=row["modulation"],
                efficiency=float(row["efficiency"]),
                sinr_threshold_db=float(row["sinr_threshold_db"]),
            ))
    validate_cqi_table(entries)
    return tuple(entries)


def validate_cqi_table(entries) -> None:
    if [e.index for e in entries] != list(range(1, 16)):
        raise ValueError("CQI table must cover indices 1..15 in order")
    eff = [e.efficiency for e in entries]
    thr = [e.sinr_threshold_db for e in entries]
    if any(b <= a for a, b in zip(eff, eff[1:])):
        raise ValueError("CQI efficiencies must be strictly increasing")
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise ValueError("CQI thresholds must be strictly increasing")


def apply_cqi_table(entries) -> tuple[CqiEntry, ...]:
    """Install a replacement table; returns the previous one for restoring."""
    global CQI_TABLE, THRESHOLDS_DB, EFFICIENCIES
    validate_cqi_table(entries)
    previous = CQI_TABLE
    CQI_TABLE = tuple(entries)
    THRESHOLDS_DB = np.array([e.sinr_threshold_db for e in CQI_TABLE])
    EFFICIENCIES = np.array([e.efficiency for e in CQI_TABLE])
    return previous

# Logistic BLER steepness: one decade of error probability per dB around
# the 10%-BLER anchor point.
BLER_TARGET = 0.1
BLER_SLOPE_DB_PER_DECADE = 1.0


def cqi_efficiency(cqi_index: int) -> float:
    if not 1 <= cqi_index <= 15:
        raise CqiRangeError(f"CQI index {cqi_index} outside 1..15")
    return float(EFFICIENCIES[cqi_index - 1])


def cqi_threshold_db(cqi_index: int) -> float:
    if not 1 <= cqi_index <= 15:
        raise CqiRangeError(f"CQI index {cqi_index} outside 1..15")
    return float(THRESHOLDS_DB[cqi_index - 1])


def sinr_multicast(snapshot, mbsfn_cells, user: int, subcarrier: int) -> float:
    """Coherent-combining SINR for one user and RB: the area cells add in
    amplitude, everything outside adds in power."""
    if not mbsfn_cells:
        raise ValueError("multicast SINR needs a non-empty cell set")
    h = snapshot.h[user, :, subcarrier]
    mask = np.zeros(h.shape[0], dtype=bool)
    mask[list(mbsfn_cells)] = True
    signal = abs(h[mask].sum()) ** 2
    interference = float(np.sum(np.abs(h[~mask]) ** 2))
    return signal / (snapshot.noise_variance + interference)


def sinr_unicast(snapshot, serving_cell: int, user: int, subcarrier: int) -> float:
    """Single-cell SINR: all non-serving cells interfere."""
    h = snapshot.h[user, :, subcarrier]
    signal = abs(h[serving_cell]) ** 2
    interference = float(np.sum(np.abs(h) ** 2)) - signal
    return signal / (snapshot.noise_variance + interference)


def multicast_sinr_grid(h: np.ndarray, mbsfn_mask: np.ndarray,
                        noise_variance: float) -> np.ndarray:
    """Vectorized multicast SINR over (user, rb) from h (user, cell, rb)."""
    signal = np.abs(h[:, mbsfn_mask, :].sum(axis=1)) ** 2
    interference = (np.abs(h[:, ~mbsfn_mask, :]) ** 2).sum(axis=1)
    return signal / (noise_variance + interference)


def power_components(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(user, cell, rb) power and its per-user total over cells."""
    power = np.abs(h) ** 2
    return power, power.sum(axis=1)


def sinr_vs_cell(power: np.ndarray, total_power: np.ndarray, rows,
                 cells, noise_variance: float) -> np.ndarray:
    """Unicast SINR of `rows` against per-row signal `cells`: (rows, rb)."""
    signal = power[rows, cells, :]
    return signal / (noise_variance + total_power[rows] - signal)


def unicast_sinr_grid(h: np.ndarray, serving_cell: np.ndarray,
                      noise_variance: float) -> np.ndarray:
    """Vectorized unicast SINR over (user, rb) given per-user serving cells."""
    power, total = power_components(h)
    rows = np.arange(h.shape[0])
    return sinr_vs_cell(power, total, rows, serving_cell, noise_variance)


def effective_sinr(sinr_per_rb) -> float:
    """Mutual-information average of per-RB SINRs, inverted back to linear SINR.

    Uses the Gaussian-capacity information measure; strictly monotone in any
    per-RB SINR, equal to the common value when all RBs agree.
    """
    s = np.asarray(sinr_per_rb, dtype=float)
    if s.size == 0:
        raise ValueError("effective SINR of an empty RB set")
    mi = np.log2(1.0 + s).mean()
    return float(2.0 ** mi - 1.0)


def sinr_to_cqi(sinr_per_rb) -> int:
    """Largest CQI whose threshold the effective SINR meets; at least 1."""
    eff_db = 10.0 * math.log10(max(effective_sinr(sinr_per_rb), 1e-30))
    idx = int(np.searchsorted(THRESHOLDS_DB, eff_db + 1e-12, side="right"))
    return max(idx, 1)


def effective_sinr_db_rows(sinr_rows: np.ndarray) -> np.ndarray:
    """Effective SINR in dB of each row of a (rows, rb) SINR array.

    Row-wise counterpart of `effective_sinr`; each row reduces with the
    same pairwise sum whatever the number of rows, so a row's value does
    not depend on which other rows are evaluated with it.
    """
    mi = np.log2(1.0 + sinr_rows).mean(axis=1)
    return 10.0 * np.log10(np.maximum(2.0 ** mi - 1.0, 1e-30))


def cqi_from_sinr_rows(sinr_rows: np.ndarray) -> np.ndarray:
    """Row-wise `sinr_to_cqi` against the CQI table installed now."""
    idx = np.searchsorted(THRESHOLDS_DB, effective_sinr_db_rows(sinr_rows)
                          + 1e-12, side="right")
    return np.maximum(idx, 1)


def bler(effective_sinr_db, cqi_index,
         slope_db_per_decade: float = BLER_SLOPE_DB_PER_DECADE):
    """Block error probability of a transport block sent with `cqi_index`.

    Logistic in dB, anchored so that error probability is BLER_TARGET at the
    CQI's threshold and falls one decade per `slope` dB around it.
    `cqi_index` is one index or an integer array matching the SINR array,
    one index per block.
    """
    cqi = np.asarray(cqi_index)
    if cqi.size and not (1 <= cqi.min() and cqi.max() <= 15):
        raise CqiRangeError(f"CQI index {cqi_index} outside 1..15")
    thr = THRESHOLDS_DB[cqi - 1]
    k = slope_db_per_decade * math.log(10.0) / (1.0 - BLER_TARGET)
    midpoint = thr - math.log(1.0 / BLER_TARGET - 1.0) / k
    x = np.asarray(effective_sinr_db, dtype=float)
    out = 1.0 / (1.0 + np.exp(np.clip(k * (x - midpoint), -700.0, 700.0)))
    return float(out) if np.isscalar(effective_sinr_db) else out


def decode_success(effective_sinr_db: float, cqi_index: int,
                   rng: np.random.Generator,
                   slope_db_per_decade: float = BLER_SLOPE_DB_PER_DECADE) -> bool:
    """Bernoulli decode outcome for one transport block."""
    return bool(rng.random() >= bler(effective_sinr_db, cqi_index,
                                     slope_db_per_decade))
