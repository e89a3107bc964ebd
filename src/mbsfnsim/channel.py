"""Radio channel: macroscopic gain, multipath fading, per-TTI snapshots.

Every user-cell pair carries a static macroscopic amplitude (pathloss
plus log-normal shadowing, frozen per run) and a time-varying microscopic
fading term: a tapped delay line of independent Rayleigh taps with a
Jakes Doppler spectrum, a sum of sinusoids (Zheng & Xiao, IEEE Trans.
Commun. 2003) evaluated by phasor rotation.  A snapshot is each pair's
tap gains scaled by its amplitude, x[user, cell, tap]; the coefficient at
resource block r is x @ steer[:, r], the steering matrix carrying the
taps' powers and delays.  A zero-Doppler pair's tap gains are constant.
The other pairs' phasors are anchored once per run, at TTI 0, and stepped
one TTI at a time, so the tap gains at TTI t are a function of the seed,
the pair and t alone, whichever thread or process steps them.  The module
starts no thread and no process: a block runs its chunks inline or on the
pool it is handed, and `fading_child` steps the blocks in a child forked
by the `fork` it is handed.  Whether to fork, and with how many workers,
is `engine`'s decision (`engine.usable_cpus`).
"""
from __future__ import annotations

import functools
import gc
import logging
import math
import mmap
import os
import signal

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
    block.  The bank holds no thread and no per-worker buffer, only
    per-chunk ones, so a row is bitwise the same inline, on any pool and
    in a forked copy of the bank (`fading_child`).

    `n_static` zero-Doppler pairs follow the `doppler_hz` pairs in the
    draw order but are not held: the bank keeps their constant tap gains as
    `static`, (n_static, n_taps), each the oscillator sum of cos(phase) in
    `block_tap_gains`' order and scaling.  numpy's cos(x) is bitwise its
    exp(1j*x).real (a channel test pins this), so `static` is bitwise the
    t = 0 row of a bank that held those pairs.  Their phases are drawn and
    summed CHUNK_PAIRS pairs at a time, and their frequencies never exist.
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

    def block_tap_gains(self, start: int, steps, pool=None, child=None,
                        out=None) -> np.ndarray:
        """Per-tap complex gains at TTI start + i for each i in the ascending
        `steps`, (len(steps), n_pairs, n_taps), written to `out` if given.

        Each oscillator's phasor exp(1j*phase) is anchored once, at TTI 0,
        and advanced one TTI at a time by the rotation exp(1j*w*TTI_S); a
        sample is the sum of the phasors' real parts in numpy's pairwise
        order (`_oscillator_sum`).  The phasors persist from block to block,
        so the row at TTI t is exp(1j*phase)*r*r*...*r, t multiplies in
        order, whatever blocks, reads, chunks or workers lead there; a block
        that starts before the phasors' TTI anchors them again.  Against the
        direct cosine sum, 40 pairs at 100 km/h differ by at most 3.8e-12
        over 10^4 TTIs, 3.6e-11 over 10^5 and 3.4e-10 over 10^6: the direct
        sum's own rounding of w*t dominates.

        Each chunk of CHUNK_PAIRS pairs runs through all steps while it
        stays in cache, on phasors and rotations of its own, and writes only
        its own pairs; two or more chunks map on `pool`, if given.  With
        `child`, a `fading_child` of this bank, the block is the one it
        yields for `start`, the blocks before it passed over; once the child
        has ended without it, this bank steps it, and every later block,
        itself, from TTI 0.
        """
        for first, gains in child or ():
            if first == start:
                return gains
        if out is None:
            out = np.empty((len(steps), self.n_pairs, self.n_taps), complex)
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
        run = pool.map if pool is not None and len(starts) > 1 else map
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


def fading_child(bank: FadingBank, blocks: dict, fork):
    """(start, tap gains) of each of `blocks` (start -> steps read, as
    `ChannelModel.blocks`) of `bank`, in order, stepped one block ahead in
    a child.  The first `next` forks the child with `fork(body)`, which
    calls `body(pool)` with a thread pool of its own, exits and returns
    the child's pid.

    The child steps its copy of the bank through the blocks, writes block
    k into slot k % 2 of a shared anonymous mmap, sized for the largest
    block, and sends a token down the ready pipe.  Asking for block k
    sends one down the free pipe, freeing block k - 1's slot, and the
    child takes one before it writes block k + 1: it is one block ahead at
    most and never writes a slot that is read.  If the child exits early,
    this logs one warning and stops; closing it, or its end, closes the
    pipes and kills and reaps the child.
    """
    shape = (2, max(map(len, blocks.values())), bank.n_pairs, bank.n_taps)
    slots = np.ndarray(shape, complex, mmap.mmap(-1, 16 * math.prod(shape)))
    # This side keeps the free pipe's read end too: a token sent once the
    # child has exited is lost, not an error.
    (ready, ready_w), (free_r, free) = os.pipe(), os.pipe()

    def body(pool):
        # The objects the child inherits are this side's to finalize: a
        # collection there must not run another child's `finally`.
        gc.freeze()
        os.close(free)  # EOF, and an exit, once this side is gone
        for k, (s, steps) in enumerate(blocks.items()):
            if k and not os.read(free_r, 1):
                return
            bank.block_tap_gains(s, steps, pool, out=slots[k % 2, :len(steps)])
            os.write(ready_w, b".")
    pid = fork(body)
    os.close(ready_w)
    try:
        for k, (s, steps) in enumerate(blocks.items()):
            os.write(free, b".")
            if not os.read(ready, 1):
                log.warning("fading child exited; inline from TTI %d", s)
                return
            yield s, slots[k % 2, :len(steps)]
    finally:
        for fd in (ready, free_r, free):
            os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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
    shadowing).  Every array the model hands out is x[user, cell, tap]: a
    pair's tap gains times its amplitude.  `steer`, (n_taps, n_rb), maps
    taps to the RB centres, so a pair's coefficient at RB r is
    x @ steer[:, r]; `steer_products` is its `steering_products`.

    `positions`, (n_users, 2), and `shadowing_db`, (n_users, n_cells), hold
    the rows of the users whose speeds `user_speeds_ms` gives, moving users
    first.  A zero-Doppler user neither moves nor fades, so its scaled taps
    are evaluated once, as `static`, (n_static, n_cells, n_taps).  A
    snapshot holds the moving users' rows only, scaled by the amplitude the
    caller passes in, which can then also drive handover.  Their tap gains
    come from the bank's run-long phasor recurrence in blocks of BLOCK_LEN
    TTIs, and handing out a block's last read row frees the block.  Both
    groups draw from one FadingBank stream, so the split changes no value.

    `evaluated_ttis`, a boolean mask over TTIs 0..len-1, names the only
    TTIs a caller reads: `blocks` maps the start of each block that reads
    one to the steps it reads, a block sums the taps only at those, and
    `snapshot` at any other TTI raises KeyError.  The phasors still step
    through every TTI up to the last read one, so each snapshot is bitwise
    the same under any mask that reads its TTI and for any BLOCK_LEN.

    With `fork`, and a mask that reads a TTI past the first block, the
    first block read forks a `fading_child` that steps every block that
    reads a TTI; a mask that reads the first block only has nothing to
    overlap.  The model steps a block itself without a child and once the
    child has exited; its owner ends the child with `close`.  Snapshots
    are the same bits either way.
    """

    def __init__(self, cell_positions: np.ndarray, positions: np.ndarray,
                 user_speeds_ms: np.ndarray, shadowing_db: np.ndarray,
                 carrier_hz: float, n_rb: int, seed,
                 evaluated_ttis: np.ndarray, fork=None):
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
        mask = self.evaluated_ttis = evaluated_ttis
        self.blocks = {s: steps for s in range(0, len(mask), BLOCK_LEN) if (
            steps := np.flatnonzero(mask[s:s + BLOCK_LEN]).tolist())}
        self.child = (fading_child(self.bank, self.blocks, fork)
                      if fork and max(self.blocks, default=0) > 0 else None)
        # The current block's tap gains and the row of each TTI in it.
        self._gains, self._rows = None, {}
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
        if tti not in self._rows:
            start = (tti // BLOCK_LEN) * BLOCK_LEN
            steps = self.blocks[start]
            self._gains = None
            self._gains = self.bank.block_tap_gains(start, steps,
                                                    child=self.child)
            self._rows = {start + step: k for k, step in enumerate(steps)}
        gains = self._gains[self._rows[tti]]
        if tti == next(reversed(self._rows)):
            self._gains, self._rows = None, {}
        return gains

    def close(self) -> None:
        """Close the pipes to the fading child and kill and reap it, if it
        was forked and has not ended."""
        if self.child is not None:
            self.child.close()

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
