"""Link abstraction: SINR, CQI mapping, spectral efficiency and decoding.

Multicast receivers see the coherent sum of all single-frequency-area
cells as signal and only the outside ring as interference; unicast
receivers see a single serving cell against everything else.  A
mutual-information average condenses per-RB SINRs into one effective
value, which drives both CQI selection and a logistic block-error model
calibrated to 10% error at each CQI's switching threshold.

SINRs are formed in the tap domain, from the channel's scaled tap gains
x[user, cell, tap] and its steering matrix S (tap, rb).  A signal is a
sum of x over its cells, steered: |(sum_c x_c) @ S|^2.  Power added over
cells is a quadratic form in each user's tap covariance
R = sum_c x_c x_c^H: sum_c |x_c @ S[:, r]|^2 = sum_kl R[k, l] S[k, r]
conj(S[l, r]), which is real, so stacking [Re R, Im R] against the
channel's steering products [Re M; -Im M] prices every RB with one real
matrix product and never forms the per-(user, cell, rb) coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# LTE 4-bit CQI table: efficiency in information bits per resource element
# (modulation order times code rate) and the SINR above which the entry
# sustains a 10% block error rate.
@dataclass(frozen=True)
class CqiEntry:
    index: int
    modulation: str
    efficiency: float
    sinr_threshold_db: float


@dataclass(frozen=True, eq=False)
class CqiTable:
    """A validated CQI table: its 15 entries plus read-only arrays of their
    SINR thresholds (dB) and efficiencies, indexed by CQI - 1.

    Both columns are finite and strictly increasing, and every efficiency
    is positive.  A table is a value passed to the functions that read it,
    so runs with different tables can share a process.  It pickles as its
    entries, so an unpickled table is checked and read-only again.
    """
    entries: tuple[CqiEntry, ...]
    thresholds_db: np.ndarray = field(init=False, repr=False)
    efficiencies: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if [e.index for e in self.entries] != list(range(1, 16)):
            raise ValueError("CQI table must cover indices 1..15 in order")
        for name, attr in (("thresholds_db", "sinr_threshold_db"),
                           ("efficiencies", "efficiency")):
            values = np.array([getattr(e, attr) for e in self.entries])
            if not np.isfinite(values).all():
                raise ValueError(f"CQI {name} must be finite")
            if np.any(np.diff(values) <= 0):
                raise ValueError(f"CQI {name} must be strictly increasing")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.efficiencies[0] <= 0:
            raise ValueError("CQI efficiencies must be positive")

    def __reduce__(self):
        return CqiTable, (self.entries,)


CQI_TABLE = CqiTable((
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
))


def load_cqi_table(path) -> CqiTable:
    """Read a replacement CQI table (CSV: index,modulation,efficiency,
    sinr_threshold_db) for sensitivity studies; content that is not such a
    table raises ValueError."""
    import csv
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                entries.append(CqiEntry(
                    index=int(row["index"]),
                    modulation=row["modulation"],
                    efficiency=float(row["efficiency"]),
                    sinr_threshold_db=float(row["sinr_threshold_db"]),
                ))
            except KeyError as exc:
                raise ValueError(f"missing column {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return CqiTable(tuple(entries))

# The block error probability at each CQI's switching threshold.
BLER_TARGET = 0.1


def cqi_efficiency(cqi_index: int, table: CqiTable) -> float:
    return float(table.efficiencies[cqi_index - 1])


def multicast_sinr_grid(x: np.ndarray, mbsfn_mask: np.ndarray,
                        steer: np.ndarray, steer_products: np.ndarray,
                        noise_variance: float) -> np.ndarray:
    """Multicast SINR over (user, rb) from scaled taps x (user, cell, tap):
    the `mbsfn_mask` cells add in amplitude, every other cell in power."""
    signal = np.abs(x[:, mbsfn_mask].sum(axis=1) @ steer) ** 2
    return signal / (noise_variance
                     + power_components(x[:, ~mbsfn_mask], steer_products))


def power_components(x: np.ndarray,
                     steer_products: np.ndarray) -> np.ndarray:
    """Per-(user, rb) power received from all of x's cells together, as the
    quadratic form of each user's tap covariance (see the module
    docstring)."""
    n_taps = x.shape[2]
    cov = (x.transpose(0, 2, 1) @ x.conj()).reshape(len(x), n_taps * n_taps)
    return np.concatenate((cov.real, cov.imag), axis=1) @ steer_products


def sinr_vs_cell(x: np.ndarray, cells, steer: np.ndarray,
                 steer_products: np.ndarray,
                 noise_variance: float) -> np.ndarray:
    """Unicast SINR over (user, rb) from scaled taps x (user, cell, tap):
    user u's signal cell `cells[u]` against the power of all others."""
    rows = np.arange(len(x))
    signal = np.abs(x[rows, cells] @ steer) ** 2
    others = x.copy()
    others[rows, cells] = 0.0
    return signal / (noise_variance
                     + power_components(others, steer_products))


def cqi_from_sinr_db(eff_db, table: CqiTable):
    """Largest CQI whose threshold an effective SINR in dB meets, at least
    1: one value or an array."""
    idx = np.searchsorted(table.thresholds_db, eff_db + 1e-12, side="right")
    return np.maximum(idx, 1)


def effective_sinr_db_rows(sinr_rows: np.ndarray) -> np.ndarray:
    """Effective SINR in dB of each row of a (rows, rb) SINR array.

    The mutual-information average of the row's per-RB SINRs (Gaussian
    capacity), inverted back to SINR: strictly monotone in any per-RB SINR
    and equal to the common value when all RBs agree.  Each row reduces
    with the same pairwise sum whatever the number of rows, so a row's
    value does not depend on which other rows are evaluated with it; the
    sum and divide are `.mean(axis=1)` without its dispatch.
    """
    mi = np.log2(1.0 + sinr_rows).sum(axis=1) / sinr_rows.shape[1]
    return _db_from_mi(mi)


def _db_from_mi(mi: np.ndarray) -> np.ndarray:
    """SINR in dB whose Gaussian capacity is `mi` bits per RE."""
    return 10.0 * np.log10(np.maximum(2.0 ** mi - 1.0, 1e-30))


def effective_sinr_db_slices(sinr: np.ndarray, rows, starts,
                             counts) -> np.ndarray:
    """Effective SINR in dB of RB slice `starts[k]:starts[k] + counts[k]`
    of row `rows[k]` of a C-ordered (row, rb) SINR array, for every k.

    Each value is bitwise the one `effective_sinr_db_rows` gives its slice
    alone.  `log2(1 + sinr)` is taken elementwise over the whole grid once;
    a slice's run of it is the same values, contiguous, and numpy reduces
    a contiguous run with one pairwise sum whether it is a whole array or
    a row of one.  So full-width slices are summed as whole rows in one
    `.sum(axis=1)` and every other slice alone.
    """
    log2_sinr = np.log2(1.0 + sinr)
    full = counts == sinr.shape[1]
    sums = np.empty(len(counts))
    sums[full] = log2_sinr[rows[full]].sum(axis=1)
    for k in np.flatnonzero(~full).tolist():
        sums[k] = log2_sinr[rows[k], starts[k]:starts[k] + counts[k]].sum()
    return _db_from_mi(sums / counts)


def cqi_from_sinr_rows(sinr_rows: np.ndarray,
                       table: CqiTable) -> np.ndarray:
    """CQI of each row's effective SINR, from a (rows, rb) SINR array."""
    return cqi_from_sinr_db(effective_sinr_db_rows(sinr_rows), table)


def bler(effective_sinr_db, cqi_index, slope_db_per_decade: float,
         table: CqiTable):
    """Block error probability of a transport block sent with `cqi_index`.

    Logistic in dB, anchored so that error probability is BLER_TARGET at the
    CQI's threshold and falls one decade per `slope` dB around it.
    `cqi_index` is one index or an integer array matching the SINR array,
    one index per block.
    """
    thr = table.thresholds_db[np.asarray(cqi_index) - 1]
    k = slope_db_per_decade * math.log(10.0) / (1.0 - BLER_TARGET)
    midpoint = thr - math.log(1.0 / BLER_TARGET - 1.0) / k
    x = np.asarray(effective_sinr_db, dtype=float)
    out = 1.0 / (1.0 + np.exp(np.clip(k * (x - midpoint), -700.0, 700.0)))
    return float(out) if np.isscalar(effective_sinr_db) else out

