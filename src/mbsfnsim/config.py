"""Run configuration: the scenario schema and its checks.

`ScenarioConfig` is the one description of a run.  Its fields, with their
scenario-file sections and lower bounds (`_spec`), are the whole schema:
the CLI's scenario parser and README's schema block derive from them.  A
config is checked when it is built, so every config that reaches
`engine.Runner` is valid.  The mode and CQI-policy names and the
bandwidth-to-RB map live here too, with `policy_label`, the one
`policy:value` spelling of a CQI policy that the CLI and the summary
files print.
"""
# No `from __future__ import annotations`: the scenario parser and
# ScenarioConfig's own check read its field types as classes at run time.
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from . import channel, link, topology

MODE_MULTICAST = "multicast"
MODE_UNICAST_BASELINE = "unicast_baseline"
POLICY_FIXED = "fixed"
POLICY_ADAPTIVE = "adaptive"

BANDWIDTH_TO_RB = MappingProxyType({5: 25, 20: 100})


def policy_label(policy: str, value: int) -> str:
    """`fixed:3`, `adaptive:0`: a CQI policy with its value, as a scenario
    file's `cqi_policy` key and the compare `--cqi` list spell it."""
    return f"{policy}:{value}"


def _spec(default, section: str, *, at_least=None, above=None):
    """A config field with its scenario-file section and lower bound
    (`at_least` inclusive, `above` exclusive), checked at construction."""
    return field(default=default, metadata={
        "section": section, "at_least": at_least, "above": above})


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one run.

    Each field's annotation (int, float, bool or str), default, scenario
    file section and lower bound are the whole schema: the scenario parser
    and the per-field checks derive from them.  A config is checked when it
    is built, also by `dataclasses.replace`: a bad value raises ValueError
    naming its field, so every ScenarioConfig is valid.  Beyond the bounds,
    a value is rejected when a quantity the run derives from it would not
    fit its type: the carrier in Hz and the Doppler phase over the run,
    the squared distance across the layout, the noise to transmit power
    ratio (floats), and an RB grid's resource elements (int64).  Building
    it also reads `cqi_table_file`, once, and keeps the checked table as
    `cqi_table` (the standard table when the field is empty).  `cqi_table`
    is no field: `to_dict` and `content_hash` cover the fields alone.
    """
    mode: str = _spec(MODE_MULTICAST, "scenario")
    cqi_policy: str = _spec(POLICY_FIXED, "scenario")
    cqi_value: int = _spec(3, "scenario")  # fixed CQI, or bound when adaptive
    bandwidth_mhz: int = _spec(5, "scenario")
    mbsfn_rings: int = _spec(1, "layout", at_least=0)
    interference_rings: int = _spec(1, "layout", at_least=1)
    inter_site_distance_m: float = _spec(500.0, "layout", above=0)
    users_per_cell: int = _spec(6, "users", at_least=1)
    cars_per_cell: int = _spec(3, "users", at_least=0)
    car_speed_kmh: float = _spec(100.0, "users", at_least=0)
    cam_size_bytes: int = _spec(300, "traffic", at_least=1)
    cam_period_ms: int = _spec(100, "traffic", at_least=1)
    carrier_ghz: float = _spec(2.14, "radio", above=0)
    usable_re_per_rb: int = _spec(100, "radio", at_least=1)
    tx_power_dbm: float = _spec(43.0, "radio")
    noise_figure_db: float = _spec(9.0, "radio", at_least=0)
    shadowing_std_db: float = _spec(0.0, "radio", at_least=0)
    cqi_feedback_delay_tti: int = _spec(0, "radio", at_least=0)
    reassign_unused_subframes: bool = _spec(True, "radio")
    bler_slope_db_per_decade: float = _spec(1.0, "radio", above=0)
    perfect_decode: bool = _spec(False, "radio")
    reservation_cqi: int = _spec(3, "radio")  # sizing CQI when the bound is 0
    cqi_table_file: str = _spec("", "radio")  # optional replacement CQI table
    n_tti: int = _spec(10000, "run", at_least=0)
    seed: int = _spec(1, "run", at_least=0)

    def __post_init__(self) -> None:
        for f in fields(self):
            value, low, above = (getattr(self, f.name), f.metadata["at_least"],
                                 f.metadata["above"])
            # An int is a float here; a bool is neither an int nor a float.
            accepted = (int, float) if f.type is float else f.type
            if (not isinstance(value, accepted)
                    or isinstance(value, bool) and f.type is not bool):
                raise ValueError(f"{f.name} must be {f.type.__name__}, "
                                 f"got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}")
            if above is not None and value <= above:
                raise ValueError(f"{f.name} must be > {above}")
        if self.mode not in (MODE_MULTICAST, MODE_UNICAST_BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cqi_policy not in (POLICY_FIXED, POLICY_ADAPTIVE):
            raise ValueError(f"unknown cqi_policy {self.cqi_policy!r}")
        if self.bandwidth_mhz not in BANDWIDTH_TO_RB:
            raise ValueError("bandwidth_mhz must be 5 or 20")
        if self.cqi_policy == POLICY_FIXED and not 1 <= self.cqi_value <= 15:
            raise ValueError("fixed CQI must be in 1..15")
        if self.cqi_policy == POLICY_ADAPTIVE and not 0 <= self.cqi_value <= 15:
            raise ValueError("adaptive CQI bound must be in 0..15")
        if not 1 <= self.reservation_cqi <= 15:
            raise ValueError("reservation_cqi must be in 1..15")
        if self.cars_per_cell > self.users_per_cell:
            raise ValueError("cars_per_cell exceeds users_per_cell")
        # The wrap at the boundary disc keeps a car inside it only while one
        # TTI's step is at most the disc's diameter.  A radius that
        # overflows is inf, which the distance check below rejects.
        with np.errstate(over="ignore"):
            radius = topology.build_layout(
                self.mbsfn_rings, self.interference_rings,
                self.inter_site_distance_m).boundary_radius
        if self.car_speed_ms * channel.TTI_S > 2.0 * radius:
            raise ValueError(
                f"car_speed_kmh must be at most "
                f"{2.0 * radius / channel.TTI_S * 3.6:.6g}: a car may move "
                f"at most the layout's diameter ({2.0 * radius:.0f} m) per TTI")
        # A user and a cell lie inside the boundary disc, so a squared
        # user-cell distance is at most the squared diameter.
        if not math.isfinite((2.0 * radius) * (2.0 * radius)):
            raise ValueError("inter_site_distance_m is too large: the squared "
                             "distance across the layout overflows")
        # A pair's phasor angle grows as 2*pi*Doppler*t up to the run's end;
        # a standing car's Doppler is 0 only while the carrier is finite.
        doppler = channel.doppler_frequency(self.car_speed_ms,
                                            self.carrier_ghz * 1e9)
        if not math.isfinite(2.0 * math.pi * doppler
                             * (max(self.n_tti, 1) * channel.TTI_S)):
            raise ValueError("carrier_ghz is too large: the carrier in Hz or "
                             "the Doppler phase at car_speed_kmh over the run "
                             "overflows")
        # The ordinary users' slots hold RB counts times this in int64.
        re_limit = np.iinfo(np.int64).max // self.n_rb
        if self.usable_re_per_rb > re_limit:
            raise ValueError(f"usable_re_per_rb must be at most {re_limit} at "
                             f"{self.n_rb} RBs: an RB grid's resource "
                             f"elements must fit in int64")
        try:
            noise = channel.noise_variance_normalized(
                self.n_rb, self.tx_power_dbm, self.noise_figure_db)
        except OverflowError:
            noise = math.inf
        if noise == math.inf:
            raise ValueError("noise_figure_db - tx_power_dbm is too large: "
                             "the noise to transmit power ratio overflows")
        if noise == 0.0:
            raise ValueError("noise_figure_db - tx_power_dbm is too small: "
                             "the noise to transmit power ratio underflows "
                             "to 0")
        table = link.CQI_TABLE
        if self.cqi_table_file:
            try:
                table = link.load_cqi_table(self.cqi_table_file)
            except (OSError, ValueError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ValueError(f"cqi_table_file: {self.cqi_table_file!r}: "
                                 f"{reason}") from exc
        object.__setattr__(self, "cqi_table", table)

    @property
    def n_rb(self) -> int:
        return BANDWIDTH_TO_RB[self.bandwidth_mhz]

    @property
    def cam_size_bits(self) -> int:
        return self.cam_size_bytes * 8

    @property
    def cam_period_ttis(self) -> int:
        return self.cam_period_ms

    @property
    def car_speed_ms(self) -> float:
        return self.car_speed_kmh / 3.6

    @property
    def sizing_cqi(self) -> int:
        """CQI at which the subframe reservation is dimensioned."""
        if self.cqi_policy == POLICY_FIXED:
            return self.cqi_value
        return self.cqi_value if self.cqi_value >= 1 else self.reservation_cqi

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
