"""Radio channel: macroscopic gain, multipath fading, per-TTI snapshots.

Every user-cell pair carries a static macroscopic amplitude (pathloss
plus log-normal shadowing, frozen per run) and a time-varying microscopic
fading term.  Fading is a tapped delay line whose taps are independent
Rayleigh processes with a Jakes Doppler spectrum, generated by a
sum-of-sinusoids (Zheng & Xiao, IEEE Trans. Commun. 2003) and evaluated by
phasor rotation.

The channel is held in the tap domain: a snapshot is each pair's tap
gains scaled by its amplitude, x[user, cell, tap].  The complex
coefficient at resource block r is x @ steer[:, r], where the steering
matrix carries the taps' powers and delays; the link layer forms SINRs
from x and the steering without building the per-RB coefficients.

A zero-Doppler pair's fading does not change with t: its tap gains are
the oscillator sums of cos(phase), taken once as its phases are drawn, and
it has no frequencies and no phasors.  The other pairs' phasors are
anchored once per run, at TTI 0, and stepped one TTI at a time from block
to block, in chunks of pairs, so the tap gains at TTI t are a function of
the seed, the pair and t alone.  The module owns no thread: a block maps
its chunks on the thread pool its caller passes in (`engine.run` owns one
per run), and without a pool runs them inline.  Each chunk steps phasors
of its own and writes disjoint pairs with the same operations on either
path, so the tap gains do not depend on the number of workers.
"""
from __future__ import annotations

import functools
import logging
import math
import os

import numpy as np

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0

# ITU-T Vehicular A tapped delay line (delays in seconds, powers in dB).
VEHA_TAP_DELAYS = (0.0, 310e-9, 710e-9, 1090e-9, 1730e-9, 2510e-9)
VEHA_TAP_POWERS_DB = (0.0, -1.0, -9.0, -10.0, -15.0, -20.0)

# Urban-macro pathloss at 2 GHz: 128.1 + 37.6 log10(d/km) dB.
PATHLOSS_INTERCEPT_DB = 128.1
PATHLOSS_SLOPE_DB = 37.6
MIN_DISTANCE_M = 35.0

N_OSCILLATORS = 16
RB_BANDWIDTH_HZ = 180e3
TTI_S = 1e-3
# TTIs of moving-pair tap gains evaluated per FadingBank.block_tap_gains call.
BLOCK_LEN = 64
# Pairs per block_tap_gains chunk: 1.2 MB of phasors and rotations at 6 taps.
CHUNK_PAIRS = 200


def normalized_tap_powers(powers_db) -> np.ndarray:
    p = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
    return p / p.sum()


def doppler_frequency(speed_ms: float, carrier_hz: float) -> float:
    return speed_ms * carrier_hz / SPEED_OF_LIGHT


def pathloss_db(distance_m):
    """Distance-dependent loss in dB; distances below MIN_DISTANCE_M are
    clamped."""
    km = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M) / 1e3
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(km)


def usable_cpus() -> int:
    """The CPUs this process may run on: `engine.run`'s fading pool has
    this many workers."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _unit_phasors(out) -> None:
    """exp(1j * angle) written over the complex array `out`, whose
    imaginary part holds the angle, allocating nothing.  The real part is
    zeroed; exp(+-0 + ix) is exactly cos x + i sin x, so this is bitwise
    np.exp(1j * angle)."""
    out.real = 0.0
    np.exp(out, out=out)


def _draw_phases(rng, n_pairs: int, n_taps: int) -> np.ndarray:
    """The next (n_pairs, n_taps, 16) uniform phases of `rng`, oscillator
    axis first."""
    return np.moveaxis(rng.uniform(-math.pi, math.pi,
                                   size=(n_pairs, n_taps, N_OSCILLATORS)),
                       -1, 0)


def _oscillator_sum(a: np.ndarray, out: np.ndarray) -> None:
    """The sum of `a` over its oscillator axis (the first) written to `out`,
    in numpy's pairwise order: a[j] + a[j+8], then adjacent pairs."""
    r = a[:8] + a[8:]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    np.add(r[0], r[1], out=out)


def draw_shadowing(n_users: int, n_cells: int, std_db: float,
                   seed) -> np.ndarray:
    """Independent log-normal shadowing per (user, cell), frozen per run."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5AD]))
    return rng.normal(0.0, std_db, size=(n_users, n_cells))


class FadingBank:
    """Sum-of-sinusoids Rayleigh fading for a batch of user-cell pairs.

    Each pair owns `n_taps` independent complex processes; real and imaginary
    parts are separate sums of N_OSCILLATORS cosines whose frequencies
    stratify the Jakes spectrum, so the ensemble autocorrelation is
    J0(2*pi*fd*tau) and E|g|^2 = 1 per tap.  Both quadratures are held
    oscillator axis first: (16, 2, pairs, taps).  The bank's state is its
    phasors and rotations, which `block_tap_gains` keeps from block to
    block; a row is still a function of the seed, the pair and the TTI.

    `n_static` zero-Doppler pairs follow the `doppler_hz` pairs in the
    draw order but are not held: their tap gains are constant, so the bank
    keeps them as `static`, (n_static, n_taps), each the oscillator sum of
    cos(phase) in `block_tap_gains`' order and scaling.  numpy's cos(x) is
    bitwise its exp(1j*x).real (a channel test pins this), so `static` is
    bitwise the t = 0 row of a bank that held those pairs.  Their phases
    are drawn and summed a chunk of CHUNK_PAIRS pairs at a time and never
    held at full size, and their frequencies are never computed.

    `block_tap_gains` steps the pairs in chunks of CHUNK_PAIRS.  From the
    bank's first block that steps on, a bank of more than one chunk maps
    them on the pool it is given, if any; otherwise they run inline, one
    after another.  The bank holds no thread and no per-worker buffer, only
    per-chunk ones, so a row is bitwise the same on either path, whatever
    the number of workers.
    """

    def __init__(self, doppler_hz: np.ndarray, tap_delays, tap_powers_db,
                 seed, n_static: int = 0):
        self.n_pairs = len(doppler_hz)
        self.tap_delays = np.asarray(tap_delays, dtype=float)
        self.tap_powers = normalized_tap_powers(tap_powers_db)
        self.n_taps = len(self.tap_delays)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), 0xFAD, 0]))
        shape = (N_OSCILLATORS, 2, self.n_pairs, self.n_taps)
        m = np.arange(1, N_OSCILLATORS + 1, dtype=float)
        theta = rng.uniform(-math.pi, math.pi, size=shape[2:])
        # The static pairs' angles keep the stream; nothing reads them.
        rng.uniform(-math.pi, math.pi, size=(n_static, self.n_taps))
        alpha = (2.0 * math.pi * m - math.pi)[:, None, None] + theta
        alpha /= 4.0 * N_OSCILLATORS
        self._w = np.empty(shape)
        np.cos(alpha, out=self._w[:, 0])
        np.sin(alpha, out=self._w[:, 1])
        del alpha
        self._w *= 2.0 * math.pi * np.asarray(doppler_hz, dtype=float)[:, None]
        # The phases of quadrature 0, then of quadrature 1, drawn a chunk of
        # pairs at a time: the stream order of one (pairs, taps, 16) draw
        # per quadrature, the static pairs last.  A static chunk's phases
        # live only until their cosines are summed.
        self._phase = np.empty(shape)
        static = np.empty((2, n_static, self.n_taps))
        for q in range(2):
            for start in range(0, self.n_pairs, CHUNK_PAIRS):
                part = self._phase[:, q, start:start + CHUNK_PAIRS]
                part[...] = _draw_phases(rng, part.shape[1], self.n_taps)
            for start in range(0, n_static, CHUNK_PAIRS):
                part = static[q, start:start + CHUNK_PAIRS]
                _oscillator_sum(np.cos(
                    _draw_phases(rng, len(part), self.n_taps)), part)
        self.static = (static[0] + 1j * static[1]) \
            * (1.0 / math.sqrt(N_OSCILLATORS))
        # Per chunk (`_chunk_buffers`): its phasors at TTI `_at`, then its
        # rotations exp(1j*w*TTI_S), built once `_rotating`.
        self._chunks, self._at, self._rotating = None, None, False

    def block_tap_gains(self, start: int, steps, pool=None) -> np.ndarray:
        """Per-tap complex gains at TTI start + i for each i in the ascending
        `steps`, via a phasor recurrence: (len(steps), n_pairs, n_taps).

        Each oscillator's phasor exp(1j*phase) is anchored once, at TTI 0,
        and then advanced one TTI at a time by multiplying it with the
        rotation exp(1j*w*TTI_S); a requested sample is the sum of the
        phasors' real parts, in numpy's pairwise order (`_oscillator_sum`,
        which also sums the `static` pairs' cosines).  The phasors persist
        from block to block: a block steps them on from the previous
        block's last read, through the gap, to its own reads.  So the row
        at TTI t is exp(1j*phase)*r*r*...*r, t multiplies in order,
        whatever blocks, reads, chunks or workers lead there; a block that
        starts before the phasors' TTI anchors them again at TTI 0 and
        walks forward.  Only the anchor and the rotations take trig.
        Against the direct cosine sum, 40 pairs at 100 km/h differ by at
        most 3.8e-12 over 10^4 TTIs, 3.6e-11 over 10^5 and 3.4e-10 over
        10^6, no more than with an anchor per block: the direct sum's own
        rounding of w*t dominates.

        Each chunk of CHUNK_PAIRS pairs runs through all steps while it
        stays in cache, on phasors and rotations of its own, and writes
        only its own pairs of the result.  The bank's first block allocates
        both for every chunk in one buffer and anchors the phasors; its
        first block that steps builds the rotations.  From then on a bank
        of more than one chunk maps its chunks on `pool`, when given; a
        block that never steps, such as a 1-TTI run's, runs inline and so
        starts no thread.
        """
        out = np.empty((len(steps), self.n_pairs, self.n_taps), dtype=complex)
        if not len(steps):
            return out
        anchor = self._at is None or start < self._at
        at = 0 if anchor else self._at
        ttis = [start + step for step in steps]
        build = ttis[-1] > at and not self._rotating
        if self._chunks is None:
            self._chunks = self._chunk_buffers()
        self._rotating |= build
        starts = range(0, self.n_pairs, CHUNK_PAIRS)
        run = (pool.map if pool is not None and len(starts) > 1
               and self._rotating else map)
        rows = functools.partial(self._chunk_rows, anchor, build, at, ttis,
                                 out)
        for _ in run(rows, starts, self._chunks):
            pass
        self._at = ttis[-1]
        return out

    def _chunk_buffers(self) -> list:
        """One complex (2, 16, 2, chunk pairs, n_taps) array per chunk,
        each contiguous, in one new buffer: the chunk's phasors, then its
        rotations."""
        per_pair = 4 * N_OSCILLATORS * self.n_taps
        flat = np.empty(per_pair * self.n_pairs, dtype=complex)
        return [flat[start * per_pair:(start + CHUNK_PAIRS) * per_pair]
                .reshape(2, N_OSCILLATORS, 2, -1, self.n_taps)
                for start in range(0, self.n_pairs, CHUNK_PAIRS)]

    def _chunk_rows(self, anchor, build, at, ttis, out, start,
                    buffers) -> None:
        """The rows of pairs start..start+CHUNK_PAIRS-1 at `ttis`, written
        to `out`: the chunk's phasors, at TTI `at` or anchored at TTI 0
        when `anchor`, stepped by its rotations, which are built first when
        `build`, then scaled to unit power."""
        pairs = slice(start, start + CHUNK_PAIRS)
        z, rotation = buffers
        if build:
            np.multiply(self._w[:, :, pairs], TTI_S, out=rotation.imag)
            _unit_phasors(rotation)
        if anchor:
            z.imag = self._phase[:, :, pairs]
            _unit_phasors(z)
        # Each row's real and imaginary parts: (steps, 2, pairs, taps).
        parts = np.moveaxis(out.view(float).reshape(out.shape + (2,)), -1, 1)
        for k, tti in enumerate(ttis):
            for _ in range(tti - at):
                z *= rotation
            at = tti
            _oscillator_sum(z.real, parts[k, :, pairs])
        out[:, pairs] *= 1.0 / math.sqrt(N_OSCILLATORS)

    def steering(self, freq_offsets_hz) -> np.ndarray:
        """Tap-to-frequency mixing matrix (n_taps, n_freqs), powers included."""
        f = np.asarray(freq_offsets_hz, dtype=float)
        return (np.sqrt(self.tap_powers)[:, None]
                * np.exp(-2j * math.pi * f[None, :] * self.tap_delays[:, None]))


def steering_products(steer: np.ndarray) -> np.ndarray:
    """[Re M; -Im M], (2 * n_taps**2, n_rb), of a steering matrix S
    (n_taps, n_rb), with M[k * n_taps + l, r] = S[k, r] * conj(S[l, r]):
    the real matrix through which `link.power_components` turns tap
    covariances into per-RB powers."""
    m = (steer[:, None] * steer[None].conj()).reshape(-1, steer.shape[1])
    return np.concatenate((m.real, -m.imag))


class ChannelModel:
    """Per-TTI tap gains of a set of users against all cells.

    Shadowing is frozen per (user, cell) for the whole run; `amplitude_gain`
    turns positions into the macroscopic amplitude (pathloss plus
    shadowing).  Fading evolves with the TTI clock (TTI_S).  Every array
    the model hands out is x[user, cell, tap]: a pair's tap gains times
    its amplitude.  `steer`, (n_taps, n_rb), maps taps to the RB centres,
    so a pair's coefficient at RB r is x @ steer[:, r]; `steer_products`
    is its `steering_products`.

    `positions`, (n_users, 2), and `shadowing_db`, (n_users, n_cells), hold
    the rows of the users whose speeds `user_speeds_ms` gives.  Moving
    users must come first in the user order, and the split between them
    and the zero-Doppler users is fixed here.  A zero-Doppler user
    neither moves nor fades, so its scaled taps (amplitude at its given
    position times fading) are evaluated once, at construction, as
    `static`, (n_static, n_cells, n_taps).  A snapshot holds the moving
    users' rows only; the caller evaluates their amplitude once per block
    and passes in each TTI's, so the same gain can also drive handover.
    The moving pairs' tap gains are evaluated by the bank's phasor
    recurrence, run-long from TTI 0, over blocks of BLOCK_LEN consecutive
    TTIs and chunks of CHUNK_PAIRS pairs; each snapshot scales one TTI of
    them, and handing out a block's last read row frees the block.  Both
    groups draw from one FadingBank stream: the bank holds the moving
    pairs' oscillators and only the static pairs' constant tap gains
    (`FadingBank.static`), so the split leaves every value unchanged.

    `evaluated_ttis`, a boolean mask over TTIs 0..len-1, names the only
    TTIs a caller reads: a block sums the taps only at those, and
    `snapshot` at any other TTI raises KeyError.  The phasors still step
    through every TTI up to the last read one, so each snapshot is bitwise
    the same under any mask that reads its TTI and for any BLOCK_LEN.

    `pool` is the thread pool on which the moving pairs' blocks step their
    chunks (see `FadingBank`), or None to step them inline; the static
    rows are the bank's cosine sums, taken at construction without the
    pool.  The model only uses the pool: its
    owner, `engine.run`, starts and ends it.  Snapshots are bitwise the
    same for any number of workers.
    """

    def __init__(self, cell_positions: np.ndarray, positions: np.ndarray,
                 user_speeds_ms: np.ndarray, shadowing_db: np.ndarray,
                 carrier_hz: float, n_rb: int, seed,
                 evaluated_ttis: np.ndarray, pool):
        self.cell_positions = np.asarray(cell_positions, dtype=float)
        self.n_cells = len(self.cell_positions)
        n_users = len(user_speeds_ms)
        self.shadowing_db = shadowing_db
        self.n_rb = n_rb
        self.rb_freqs = (np.arange(n_rb) - (n_rb - 1) / 2.0) * RB_BANDWIDTH_HZ
        user_doppler = np.array([doppler_frequency(s, carrier_hz)
                                 for s in user_speeds_ms], dtype=float)
        m = self.n_moving = int(np.count_nonzero(user_doppler))
        self.bank = FadingBank(np.repeat(user_doppler[:m], self.n_cells),
                               VEHA_TAP_DELAYS, VEHA_TAP_POWERS_DB, seed,
                               n_static=(n_users - m) * self.n_cells)
        self.steer = self.bank.steering(self.rb_freqs)
        self.steer_products = steering_products(self.steer)
        self.evaluated_ttis, self.pool = evaluated_ttis, pool
        # The current block's tap gains and the row of each TTI in it.
        self._gains = None
        self._rows = {}
        self._clamp_warned = False
        gamma = self.amplitude_gain(np.asarray(positions)[m:],
                                    slice(m, None))
        self.static = gamma[:, :, None] * self.bank.static.reshape(
            -1, self.n_cells, self.bank.n_taps)

    def amplitude_gain(self, positions: np.ndarray, rows) -> np.ndarray:
        """Linear macroscopic amplitude per (user, cell) at given positions,
        (..., users, 2) -> (..., users, n_cells); `rows` selects the users
        (and shadowing rows) they belong to, and any leading axes, such as
        a block's steps, share them.  A block's values are bitwise those of
        one call per step.  The passes run in place where they can: a
        block's temporaries are its largest arrays."""
        # sqrt(dx**2 + dy**2) is bitwise the 2-vector norm, which sums the
        # two squares in this order; x**2 is x*x.
        d = (positions[..., 0, None] - self.cell_positions[:, 0]) ** 2
        d += (positions[..., 1, None] - self.cell_positions[:, 1]) ** 2
        np.sqrt(d, out=d)
        clamped = (0 if self._clamp_warned
                   else np.count_nonzero(d < MIN_DISTANCE_M))
        if clamped:
            log.warning("%d user-cell distance(s) below %.1f m clamped",
                        clamped, MIN_DISTANCE_M)
            self._clamp_warned = True
        return 10.0 ** ((-pathloss_db(d) + self.shadowing_db[rows]) / 20.0)

    def _tap_gains_at(self, tti: int) -> np.ndarray:
        """Moving pairs' tap gains at `tti`: (n_moving * n_cells, n_taps).
        A TTI the mask does not read has no row: KeyError.  Handing out
        the block's last read row frees the block."""
        mask = self.evaluated_ttis
        if tti not in self._rows:
            start = (tti // BLOCK_LEN) * BLOCK_LEN
            steps = np.flatnonzero(mask[start:start + BLOCK_LEN]).tolist()
            self._gains = None
            self._gains = self.bank.block_tap_gains(start, steps, self.pool)
            self._rows = {start + step: k for k, step in enumerate(steps)}
        gains = self._gains[self._rows[tti]]
        if tti == next(reversed(self._rows)):
            self._gains, self._rows = None, {}
        return gains

    def snapshot(self, tti: int, gamma: np.ndarray) -> np.ndarray:
        """The moving users' scaled tap gains x[user, cell, tap] at `tti`,
        in a new (n_moving, n_cells, n_taps) array; `gamma` is their
        `amplitude_gain` at this TTI's positions, (n_moving, n_cells)."""
        return gamma[:, :, None] * self._tap_gains_at(tti).reshape(
            self.n_moving, self.n_cells, self.bank.n_taps)


def noise_variance_normalized(bandwidth_rb: int, tx_power_dbm: float,
                              noise_figure_db: float,
                              noise_density_dbm_hz: float = -174.0) -> float:
    """Receiver noise power per RB divided by per-RB transmit power.

    Snapshots carry channel amplitudes only, so SINRs computed from them
    assume unit transmit power; this factor restores the absolute scale.
    """
    noise_dbm = noise_density_dbm_hz + noise_figure_db \
        + 10.0 * math.log10(RB_BANDWIDTH_HZ)
    tx_per_rb_dbm = tx_power_dbm - 10.0 * math.log10(bandwidth_rb)
    return 10.0 ** ((noise_dbm - tx_per_rb_dbm) / 10.0)
