import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import channel, engine, topology
from mbsfnsim.topology import (advance_mobility, build_layout, drop_users,
                               point_in_hexagon)
from test_channel import every_tti_model


def brute_force_ring_count(n_rings: int) -> int:
    """Independent oracle: count axial lattice points within hex distance."""
    count = 0
    for q in range(-n_rings, n_rings + 1):
        for r in range(-n_rings, n_rings + 1):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= n_rings:
                count += 1
    return count


class TestBuildLayout:
    def test_one_mbsfn_ring_one_interference_ring(self):
        layout = build_layout(1, 1, 500.0)
        assert len(layout.mbsfn_cells) == 7
        assert layout.n_cells - len(layout.mbsfn_cells) == 12
        assert layout.n_cells == 19

    def test_single_cell_area(self):
        layout = build_layout(0, 1, 500.0)
        assert len(layout.mbsfn_cells) == 1
        assert layout.n_cells - len(layout.mbsfn_cells) == 6
        assert layout.n_cells == 7

    def test_two_mbsfn_rings(self):
        layout = build_layout(2, 1, 500.0)
        assert len(layout.mbsfn_cells) == brute_force_ring_count(2) == 19
        assert layout.n_cells - len(layout.mbsfn_cells) == 18
        assert layout.n_cells == brute_force_ring_count(3) == 37

    @given(st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_cell_count_formula(self, m, i):
        layout = build_layout(m, i, 500.0)
        total_rings = m + i
        assert layout.n_cells == 1 + sum(6 * r for r in range(1, total_rings + 1))
        assert layout.n_cells == brute_force_ring_count(total_rings)

    def test_neighbor_spacing(self):
        layout = build_layout(1, 1, 500.0)
        ring1 = layout.cell_positions[1:7]
        dist = np.hypot(*(ring1 - layout.cell_positions[0]).T)
        np.testing.assert_allclose(dist, 500.0)

    def test_bad_parameters(self):
        """`build_layout` trusts its arguments: a bad layout is rejected
        where its config is built, naming the field."""
        for field, value in (("inter_site_distance_m", 0.0),
                             ("inter_site_distance_m", -5.0),
                             ("interference_rings", 0), ("mbsfn_rings", -1)):
            with pytest.raises(ValueError, match=field):
                engine.ScenarioConfig(**{field: value})


class TestDropUsers:
    def test_table_counts(self):
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=1)
        assert pop.n_users == 114
        assert pop.is_car.sum() == 57
        in_area = [u for u in np.flatnonzero(pop.is_car)
                   if int(pop.serving_cell[u]) in layout.mbsfn_cells]
        assert len(in_area) == 21

    def test_no_cars(self):
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 1, 0, 0.0, rng_seed=3)
        assert pop.n_users == 19
        assert not pop.is_car.any()
        assert np.all(pop.velocities == 0.0)

    def test_deterministic_per_seed(self):
        layout = build_layout(1, 1, 500.0)
        a = drop_users(layout, 6, 3, 27.78, rng_seed=7)
        b = drop_users(layout, 6, 3, 27.78, rng_seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)
        np.testing.assert_array_equal(a.serving_cell, b.serving_cell)
        c = drop_users(layout, 6, 3, 27.78, rng_seed=8)
        assert not np.array_equal(a.positions, c.positions)

    def test_positions_inside_serving_hexagon(self):
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=2)
        for u in range(pop.n_users):
            cell = int(pop.serving_cell[u])
            assert point_in_hexagon(pop.positions[u],
                                    layout.cell_positions[cell], 500.0)
            # nearest centre is the drop cell
            d = np.hypot(*(layout.cell_positions - pop.positions[u]).T)
            assert int(np.argmin(d)) == cell

    def test_car_speed_and_heading(self):
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=5)
        cars = np.flatnonzero(pop.is_car)
        speeds = np.hypot(*pop.velocities[cars].T)
        np.testing.assert_allclose(speeds, 27.78)

    def test_too_many_cars(self):
        """`drop_users` trusts its counts: more cars than users per cell is
        rejected where the config is built."""
        with pytest.raises(ValueError, match="cars_per_cell"):
            engine.ScenarioConfig(users_per_cell=2, cars_per_cell=3)


def _sequential_drop(layout, n_users_per_cell, n_cars_per_cell, car_speed,
                     rng_seed):
    """The drop one numpy draw at a time, each candidate position an array
    and each velocity a product with one, as `drop_users` first drew it:
    the reference its batched draws must match bit for bit.  Returns the
    population's arrays and the number of uniforms taken."""
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), 0x0D0]))
    isd = layout.inter_site_distance
    circum = isd / math.sqrt(3.0)
    taken = 0
    is_car, serving, pos, vel = [], [], [], []
    for cell_id in range(layout.n_cells):
        centre = layout.cell_positions[cell_id]
        for k in range(n_users_per_cell):
            while True:
                p = centre + rng.uniform(-circum, circum, size=2)
                taken += 2
                if point_in_hexagon(p, centre, isd):
                    break
            if k < n_cars_per_cell:
                heading = rng.uniform(0.0, 2.0 * math.pi)
                taken += 1
                v = car_speed * np.array([math.cos(heading),
                                          math.sin(heading)])
            else:
                v = np.zeros(2)
            is_car.append(k < n_cars_per_cell)
            serving.append(cell_id)
            pos.append(p)
            vel.append(v)
    arrays = {"is_car": np.asarray(is_car, dtype=bool),
              "serving_cell": np.asarray(serving, dtype=np.int64),
              "positions": np.asarray(pos, dtype=float),
              "velocities": np.asarray(vel, dtype=float)}
    return arrays, taken


def _check_against_sequential(layout, *users, rng_seed):
    """`drop_users` against `_sequential_drop`: equal arrays, dtypes and
    signs of zero.  Returns the uniforms the drop takes."""
    pop = drop_users(layout, *users, rng_seed=rng_seed)
    want, taken = _sequential_drop(layout, *users, rng_seed)
    for name, value in want.items():
        got = getattr(pop, name)
        assert got.dtype == value.dtype, name
        np.testing.assert_array_equal(got, value, err_msg=name)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(value),
                                      err_msg=name)
    return taken


class TestBatchedDrop:
    """`drop_users` draws its uniforms in batches but takes them in the
    order, and with the arithmetic, of one numpy draw per value."""

    @pytest.mark.parametrize("rings", [(0, 1), (1, 1), (2, 1), (0, 2),
                                       (1, 2), (2, 2)],
                             ids=lambda r: "rings{}-{}".format(*r))
    @pytest.mark.parametrize("users", [
        (6, 3, 27.78), (1, 0, 27.78), (3, 3, 13.9), (6, 3, 0.0)],
        ids=["mixed", "one_static_user", "all_cars", "standing_cars"])
    def test_bitwise_sequential_drop(self, rings, users):
        """Every layout size and user mix, at three seeds; standing cars
        have a velocity of signed zeros."""
        layout = build_layout(*rings, 500.0)
        for seed in range(3):
            _check_against_sequential(layout, *users, rng_seed=seed)

    def test_bitwise_over_seeds_past_the_first_batch(self):
        """200 seeds of two user mixes; a drop of one car per cell takes
        4.1 uniforms per user on average, so some seeds run past the first
        batch and draw another."""
        layout = build_layout(0, 1, 1732.0)
        for seed in range(200):
            _check_against_sequential(layout, 6, 3, 27.78, rng_seed=seed)
        taken = [_check_against_sequential(layout, 1, 1, 27.78, rng_seed=seed)
                 for seed in range(200)]
        batch = topology._UNIFORMS_PER_USER * layout.n_cells
        assert min(taken) <= batch < max(taken)

def _distance_gain(layout):
    """A gain that falls with distance alone: handover to the nearest cell."""
    def gain(positions):
        return -np.linalg.norm(positions[..., None, :]
                               - layout.cell_positions, axis=-1)
    return gain


def _everyone(pop):
    return np.arange(pop.n_users)


def _cars(pop):
    """Copies of the cars' positions, and their velocities."""
    return pop.positions[pop.is_car], pop.velocities[pop.is_car]


def _single_car(position, velocity):
    return (np.asarray([position], dtype=float),
            np.asarray([velocity], dtype=float))


class TestAdvanceMobility:
    def test_kinematics(self):
        layout = build_layout(1, 1, 500.0)
        positions, velocities = _single_car((0.0, 0.0), (27.78, 0.0))
        advance_mobility(positions, velocities, layout.boundary_radius, 1.0,
                         _distance_gain(layout), 1)
        np.testing.assert_allclose(positions[0], (27.78, 0.0))

    def test_zero_dt_identity(self):
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=1)
        positions, velocities = _cars(pop)
        # A drop cell is its user's nearest cell, so nobody hands over.
        gains, cells = advance_mobility(positions, velocities,
                                        layout.boundary_radius, 0.0,
                                        _distance_gain(layout), 3)
        np.testing.assert_array_equal(positions, pop.positions[pop.is_car])
        assert gains.shape == (3, pop.is_car.sum(), layout.n_cells)
        np.testing.assert_array_equal(
            cells, np.tile(pop.serving_cell[pop.is_car], (3, 1)))

    def test_wrap_and_reselection_against_gain_scan(self):
        layout = build_layout(1, 1, 500.0)
        radius = layout.boundary_radius
        positions, velocities = _single_car((radius - 1.0, 0.0),
                                            (100.0, 0.0))
        advance_mobility(positions, velocities, radius, 1.0,
                         _distance_gain(layout), 1)
        assert np.hypot(*positions[0]) <= radius + 1e-9
        assert positions[0][0] < 0  # re-entered on the opposite side

        # Serving cell must match an exhaustive strongest-gain scan.
        rng = np.random.default_rng(0)
        shadow = rng.normal(0.0, 8.0, size=(1, layout.n_cells))

        def gain_db(positions):
            d = np.hypot(*np.moveaxis(positions[..., None, :]
                                      - layout.cell_positions, -1, 0))
            return -(128.1 + 37.6 * np.log10(np.maximum(d, 35.0) / 1000.0)) \
                + shadow

        (gains,), (cells,) = advance_mobility(positions, velocities, radius,
                                              1.0, gain_db, 1)
        expected = []
        for cell in range(layout.n_cells):
            d = max(np.hypot(*(positions[0]
                               - layout.cell_positions[cell])), 35.0)
            expected.append(-(128.1 + 37.6 * math.log10(d / 1000.0))
                            + shadow[0, cell])
        assert cells[0] == int(np.argmax(expected))
        # The gains used for the handover are returned, for reuse.
        np.testing.assert_allclose(gains[0], expected)

    def test_preserves_counts_and_kinds(self):
        """The cars move the arrays they are given, inside the disc; the
        drop they were copied from is left as it was."""
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=4)
        dropped = {name: getattr(pop, name).copy() for name in (
            "is_car", "serving_cell", "positions", "velocities")}
        positions, velocities = _cars(pop)
        for _ in range(50):
            advance_mobility(positions, velocities, layout.boundary_radius,
                             5.0, _distance_gain(layout), 1)
        for name, value in dropped.items():
            np.testing.assert_array_equal(getattr(pop, name), value)
        radius = layout.boundary_radius
        assert np.all(np.hypot(*positions.T) <= radius + 1e-9)
        assert np.all(positions != pop.positions[pop.is_car])

    def test_only_given_users_move_as_in_a_full_move(self):
        """Moving every third car alone gives those cars bitwise the
        positions and serving cells of moving every car."""
        layout = build_layout(1, 1, 500.0)
        pop = drop_users(layout, 6, 3, 27.78, rng_seed=6)
        radius = layout.boundary_radius
        cars = np.flatnonzero(pop.is_car)
        subset = (pop.positions[cars[::3]], pop.velocities[cars[::3]])
        full = (pop.positions[cars], pop.velocities[cars])
        shadow = np.random.default_rng(2).normal(
            0.0, 8.0, size=(pop.n_users, layout.n_cells))

        def gain_db(movers):
            """The gain of `movers`, the users that move, in user order."""
            def gain(pos):
                d = np.linalg.norm(pos[..., None, :]
                                   - layout.cell_positions, axis=-1)
                return -d + shadow[movers]
            return gain

        handed_over = False
        for _ in range(40):  # long enough for wraps and handovers
            _, (some,) = advance_mobility(*subset, radius, 1.0,
                                          gain_db(cars[::3]), 1)
            _, (every,) = advance_mobility(*full, radius, 1.0,
                                           gain_db(cars), 1)
            np.testing.assert_array_equal(some, every[::3])
            handed_over |= np.any(some != pop.serving_cell[cars[::3]])
        np.testing.assert_array_equal(subset[0], full[0][::3])
        assert handed_over

    def test_wrap_keeps_cars_inside_at_the_speed_limit(self):
        """After a step of the disc's diameter, the most that
        `ScenarioConfig` accepts, the wrap still takes every car
        back inside the disc."""
        layout = build_layout(1, 1, 500.0)
        radius = layout.boundary_radius
        positions, velocities = _cars(
            drop_users(layout, 6, 3, 2.0 * radius, rng_seed=3))
        for _ in range(100):
            advance_mobility(positions, velocities, radius, 1.0,
                             _distance_gain(layout), 1)
            assert np.all(np.hypot(*positions.T) <= radius + 1e-9)


def _parent_amplitude_gain(model, positions, rows, clamps):
    """`ChannelModel.amplitude_gain` before it took per-axis distances: the
    norm over a (users, cells, 2) difference.  Appends the clamp count."""
    d = np.linalg.norm(positions[:, None, :]
                       - model.cell_positions[None, :, :], axis=2)
    clamps.append(int(np.count_nonzero(d < channel.MIN_DISTANCE_M)))
    gain_db = -channel.pathloss_db(d) + model.shadowing_db[rows]
    return 10.0 ** (gain_db / 20.0)


def _parent_advance_mobility(pop, dt, gain_fn, users, wraps):
    """`advance_mobility` before its whole-array passes and blocks: one
    step of in-place updates of indexed positions.  Appends which moving
    users wrapped."""
    users = np.asarray(users, dtype=np.intp)
    moving = users[np.any(pop.velocities[users] != 0.0, axis=1)]
    pop.positions[moving] += pop.velocities[moving] * dt
    radius = pop.layout.boundary_radius
    dist = np.hypot(*pop.positions[moving].T)
    outside = dist > radius
    wraps.append(outside)
    if np.any(outside):
        idx = moving[outside]
        unit = pop.positions[idx] / dist[outside, None]
        pop.positions[idx] -= 2.0 * radius * unit
    gains = gain_fn(pop.positions[moving])
    pop.serving_cell[moving] = np.argmax(gains, axis=1)
    return gains


@pytest.mark.parametrize("mbsfn_rings, speed", [
    (1, lambda radius: 500.0 / 3.6), (2, lambda radius: 500.0 / 3.6),
    # Each TTI's step is 95% of the boundary disc's diameter.
    (1, lambda radius: 0.95 * 2.0 * radius / channel.TTI_S),
    (1, lambda radius: 0.0)],
    ids=["mc5", "mc20_rings2", "near_speed_bound", "standing"])
def test_mobility_stage_bitwise_as_parent(mbsfn_rings, speed, caplog):
    """2000 TTIs of every user's move and macroscopic gain, with 8 dB
    shadowing, driven in blocks of BLOCK_LEN steps and one cut block, give
    at each step bitwise the gains and serving cells of one step of the
    indexed-update, norm-based stage per TTI, and after each block its
    positions, through wraps, handovers and distance clamps; the clamp
    warning is logged once.  Near `ScenarioConfig`'s speed bound a car wraps
    more than once in one block; standing cars stay put."""
    layout = build_layout(mbsfn_rings, 1, 500.0)
    speed_ms = speed(layout.boundary_radius)
    pops = [drop_users(layout, 6, 3, speed_ms, rng_seed=1) for _ in range(2)]
    pop, ref = pops
    cars = np.flatnonzero(pop.is_car)
    # The model's moving users come first: the cars, in user order.
    tracked = np.concatenate((cars, np.flatnonzero(~pop.is_car)))
    shadow = channel.draw_shadowing(pop.n_users, layout.n_cells, 8.0, 1)
    with caplog.at_level(logging.WARNING, logger="mbsfnsim.channel"):
        model = every_tti_model(
            layout.cell_positions, pop.positions[tracked],
            np.hypot(*pop.velocities[tracked].T), shadow[tracked],
            2.14e9, 25, 1)
        moving = cars[:model.n_moving]
        positions, velocities = pop.positions[moving], pop.velocities[moving]
        rows = slice(0, model.n_moving)
        gain = functools.partial(model.amplitude_gain, rows=rows)
        wraps, clamps = [], []
        ref_gain = functools.partial(_parent_amplitude_gain, model,
                                     rows=rows, clamps=clamps)
        handovers = most_wraps_in_a_block = 0
        # 2000 = 31 * 64 + 16.
        for n in [channel.BLOCK_LEN] * 31 + [16]:
            gains, cells = advance_mobility(positions, velocities,
                                            layout.boundary_radius,
                                            channel.TTI_S, gain, n)
            assert gains.shape == (n, len(moving), layout.n_cells)
            assert cells.shape == (n, len(moving))
            for k in range(n):
                serving = ref.serving_cell.copy()
                want = _parent_advance_mobility(ref, channel.TTI_S, ref_gain,
                                                _everyone(ref), wraps)
                assert np.array_equal(gains[k], want)
                assert np.array_equal(cells[k], ref.serving_cell[moving])
                handovers += np.count_nonzero(ref.serving_cell != serving)
            assert np.array_equal(positions, ref.positions[moving])
            most_wraps_in_a_block = max(most_wraps_in_a_block, max(
                np.sum(wraps[-n:], axis=0), default=0))
    if speed_ms:
        assert most_wraps_in_a_block >= (1 if speed_ms < 1e3 else 2)
        assert handovers > 0 and sum(clamps) > 0
        assert caplog.text.count("clamped") == 1
    else:
        assert not moving.size and not handovers
        np.testing.assert_array_equal(ref.positions, pop.positions)
