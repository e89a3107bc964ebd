"""Hexagonal cell layout, user drop and vehicle mobility.

The layout is a hexagonal grid centred at the origin: an inner group of
cells transmits the common multicast signal, the surrounding ring(s) act
as interference sources only.  Users are dropped uniformly inside their
cell's hexagon; car users move in a straight line at constant speed and
wrap around the layout boundary.  `advance_mobility` moves the position
array it is given, so the drop is never written after it is made.  The
arguments are values of a checked `ScenarioConfig` (see `config`), so no
function here checks them again.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Cell hexagons tile the plane with centres one inter-site distance apart:
# inradius = isd / 2, circumradius = isd / sqrt(3).  A hexagon is the points
# within its inradius of the centre along each of these unit axes.
_HEX_AXES = tuple((math.cos(math.radians(deg)), math.sin(math.radians(deg)))
                  for deg in (0.0, 60.0, 120.0))
# Uniforms per user in each batch `drop_users` draws: a candidate position
# lies in the hexagon with probability 0.65, so a user takes 3.1 uniforms
# on average and a car one more, for its heading.
_UNIFORMS_PER_USER = 4


@dataclass(frozen=True)
class CellLayout:
    cell_positions: np.ndarray          # (n_cells, 2) metres
    mbsfn_cells: frozenset[int]
    inter_site_distance: float

    @property
    def n_cells(self) -> int:
        return self.cell_positions.shape[0]

    @functools.cached_property
    def boundary_radius(self) -> float:
        """Radius of the disc that contains every cell hexagon."""
        centre_dist = float(np.max(np.hypot(*self.cell_positions.T)))
        return centre_dist + self.inter_site_distance / math.sqrt(3.0)


@dataclass
class UserPopulation:
    """The drop: flat arrays indexed by user id, cars first within each
    cell.  Nothing writes it after the drop; the moving cars' positions
    live in the run's mobility stage."""
    layout: CellLayout
    is_car: np.ndarray                  # (n_users,) bool
    serving_cell: np.ndarray            # (n_users,) int: the drop cell
    positions: np.ndarray               # (n_users, 2) metres
    velocities: np.ndarray              # (n_users, 2) m/s

    @property
    def n_users(self) -> int:
        return len(self.is_car)


def hex_ring_offsets(ring: int) -> list[tuple[int, int]]:
    """Axial coordinates of the cells in hexagonal ring `ring` (6*ring cells)."""
    if ring == 0:
        return [(0, 0)]
    # Walk the ring starting from (ring, 0), turning through the six axial
    # directions; this yields a deterministic, angle-ordered enumeration.
    directions = [(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)]
    q, r = ring, 0
    cells = []
    for dq, dr in directions:
        for _ in range(ring):
            cells.append((q, r))
            q, r = q + dq, r + dr
    return cells


def _axial_to_xy(q: int, r: int, isd: float) -> tuple[float, float]:
    return isd * (q + r / 2.0), isd * (math.sqrt(3.0) / 2.0) * r


def build_layout(n_mbsfn_rings: int, n_interference_rings: int,
                 inter_site_distance: float) -> CellLayout:
    """Hexagonal grid: rings 0..n_mbsfn_rings form the multicast area, the
    next n_interference_rings rings are interference-only cells."""
    positions = []
    mbsfn = set()
    cid = 0
    for ring in range(n_mbsfn_rings + n_interference_rings + 1):
        for q, r in hex_ring_offsets(ring):
            positions.append(_axial_to_xy(q, r, inter_site_distance))
            if ring <= n_mbsfn_rings:
                mbsfn.add(cid)
            cid += 1
    return CellLayout(
        cell_positions=np.asarray(positions, dtype=float),
        mbsfn_cells=frozenset(mbsfn),
        inter_site_distance=float(inter_site_distance),
    )


def point_in_hexagon(point, centre, isd: float) -> bool:
    """True if `point` lies in the cell hexagon centred at `centre`; both
    are (x, y) pairs."""
    dx, dy = point[0] - centre[0], point[1] - centre[1]
    for c, s in _HEX_AXES:
        if abs(dx * c + dy * s) > isd / 2.0 + 1e-9:
            return False
    return True


def _uniforms(rng: np.random.Generator, batch: int):
    """`rng`'s uniforms on [0, 1) as Python floats, drawn `batch` at a time;
    the stream is the one that single draws take."""
    while True:
        yield from rng.random(batch).tolist()


def drop_users(layout: CellLayout, n_users_per_cell: int, n_cars_per_cell: int,
               car_speed: float, rng_seed: int) -> UserPopulation:
    """Uniform random drop inside each cell hexagon; deterministic per seed.

    Within each cell the first n_cars_per_cell users are cars with a uniform
    random heading at `car_speed` m/s, the rest are static ordinary users.
    A user's candidate positions are drawn uniformly in the square around
    its hexagon until one lies inside it; then a car draws its heading.
    The uniforms are drawn in batches and taken in that order, with the
    arithmetic of one `rng.uniform` draw per value.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), 0x0D0]))
    n_users = layout.n_cells * n_users_per_cell
    draw = functools.partial(next,
                             _uniforms(rng, _UNIFORMS_PER_USER * n_users))
    isd = layout.inter_site_distance
    circum = isd / math.sqrt(3.0)
    # rng.uniform(low, high) is low + (high - low) * u.
    low, span = -circum, circum - -circum
    pos, vel = [], []
    for centre in layout.cell_positions.tolist():
        cx, cy = centre
        for k in range(n_users_per_cell):
            while True:
                p = (cx + (low + span * draw()), cy + (low + span * draw()))
                if point_in_hexagon(p, centre, isd):
                    break
            pos.append(p)
            if k < n_cars_per_cell:
                heading = 2.0 * math.pi * draw()
                vel.append((car_speed * math.cos(heading),
                            car_speed * math.sin(heading)))
            else:
                vel.append((0.0, 0.0))
    return UserPopulation(
        layout=layout,
        is_car=np.tile(np.arange(n_users_per_cell) < n_cars_per_cell,
                       layout.n_cells),
        serving_cell=np.repeat(np.arange(layout.n_cells, dtype=np.int64),
                               n_users_per_cell),
        positions=np.asarray(pos, dtype=float),
        velocities=np.asarray(vel, dtype=float),
    )


def advance_mobility(positions: np.ndarray, velocities: np.ndarray,
                     radius: float, dt: float, gain_fn,
                     n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """In place: move the cars at `positions` (cars, 2) through `n_steps`
    steps of `velocities` * dt, wrapping them at the boundary disc of
    `radius` and handing each one over to its strongest cell after every
    step.

    `gain_fn(positions) -> (..., n_cells)` gives the macroscopic gain at
    positions (..., 2) of the cars.  Returns each step's gains, (n_steps,
    cars, n_cells), and serving cells, (n_steps, cars), the argmax of its
    gains; `positions` is left at the last step.  A car moves by its own
    position and velocity alone, so moving a subset gives those cars the
    values that moving every car would, and one call of n steps gives
    bitwise the values of n calls of one step.  Handover is instantaneous
    and cost-free.
    """
    step = velocities * dt
    # Row k is the position after k steps: numpy's cumulative sum adds the
    # rows in sequence, so it is bitwise k sequential `p + step` adds.
    p = np.empty((n_steps + 1, len(positions), 2))
    p[0] = positions
    p[1:] = step
    np.cumsum(p, axis=0, out=p)

    # Wrap-around: a car crossing the boundary disc re-enters on the
    # antipodal side, keeping its heading.  At the first step that leaves
    # a car outside, wrap it and move on from there again.
    k = 1
    while k <= n_steps:
        dist = np.hypot(p[k:, :, 0], p[k:, :, 1])
        outside = dist > radius
        crossed = np.flatnonzero(outside.any(axis=1))
        if not len(crossed):
            break
        k += crossed[0]
        out, d = outside[crossed[0]], dist[crossed[0]]
        p[k, out] -= 2.0 * radius * (p[k, out] / d[out, None])
        p[k + 1:] = step
        np.cumsum(p[k:], axis=0, out=p[k:])
        k += 1
    positions[:] = p[-1]

    gains = gain_fn(p[1:])
    return gains, gains.argmax(axis=2)
