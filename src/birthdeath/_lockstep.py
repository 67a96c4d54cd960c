"""Lockstep replica backend for the contact model in d=1 and d=2.

A block of replicas advances together as NumPy arrays: one column of
points per replica, sorted lexicographically like a ``Configuration``
and padded with ``inf``, plus a count and, under crowding, each point's
neighbour count.  Points are stored as coordinate planes of shape
``(d, width, replicas)``, so every operation runs along the replicas.
Each replica keeps its own generator and reads it in exactly the order
the scalar kernel ``chain._contact_walk`` does.  Every draw that kernel
makes is ``rng.random()`` (the move choice, the birth component, the
ball draw and any collision redraw), and ``Generator.random(k)``
returns the same doubles as ``k`` scalar calls, so each replica's
uniforms are drawn in fixed-size chunks.  All arithmetic repeats the
scalar kernel's operations in the same order, which makes counts
bit-identical to it:

- death rates are ``baseline + crowding * count`` with exact integer
  neighbour counts, summed in point order (``np.cumsum``), and the
  dying index is ``bisect_right`` over the first n partial sums;
- a d=2 newborn is ``center + r * sqrt(u') * (cos, sin)(2 pi u)``, with
  ``np.sqrt`` (correctly rounded, like ``math.sqrt``) and ``math.cos``
  and ``math.sin`` per newborn, since NumPy's trigonometry depends on
  the build;
- every ``math.dist(x, y) <= r`` (neighbour counts, and balls of one or
  two points) goes through :func:`within`, and balls of three or more
  points in d=2 send the replicas that pass the cheap gates to
  ``in_ball``.

After every step an observer marks the replicas that stop: a hitting
run stops one that enters its target, a corridor one that leaves the
step's cell.  In d >= 3 the ball draw's ``log`` and ``u ** (1/d)`` are
not bit-equal in NumPy, so those dimensions stay scalar.

The same reading rule serves the scalar kernel in every dimension:
:class:`Reader` hands out a generator's uniforms one by one from
chunks, and a block hands its last few live replicas back, with their
unread uniforms, to be finished one at a time.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from typing import Callable, Sequence

import numpy as np

from .configurations import Configuration, Point, RhoBall, in_ball
from .measure import _REDRAWS
from .rates import ContactModel, _crowded_birth

# Uniforms drawn per replica and refill; a step reads at most 2 + d
# (the move, the component and the ball draw) unless a newborn lands
# exactly on an occupied point.
_CHUNK = 64
_KEEP = 4

# Live replicas below which a block stops and hands its rows back.  A
# lockstep step costs about 73 us plus 0.43 us a row, a scalar
# replica-step about 4 us with its membership check, so the scalar
# kernel is cheaper below about 20 rows; counted steps of a README lab
# run put the least total cost between 12 and 24.
_TAIL = 16

# NumPy decides a distance only where the squared radius lies in
# [_LOW, _HIGH] and the squared distance more than _MARGIN (relative,
# 128 rounding errors) away from it.
_MARGIN = 2.0**-46
_LOW, _HIGH = 2.0**-998, 2.0**998


class Reader:
    """Stand-in generator whose ``random()`` returns a generator's uniforms in order.

    It returns the doubles of ``head`` first and then those successive
    ``rng.random()`` calls would, read ``_CHUNK`` at a time (0.12 us a
    draw against 0.4-0.9 us, timeit, 2-core Xeon), for the contact walk
    in any dimension.  It reads ahead, so ``rng`` must be its alone.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator, head: Sequence[float] = ()) -> None:
        chunks = iter(lambda: rng.random(_CHUNK).tolist(), None)
        self.random = chain(head, chain.from_iterable(chunks)).__next__


def within(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """``math.dist(a, b) <= radius`` for each pair of points ``a`` of ``x`` and ``b`` of ``y``.

    Coordinates run along the first axis, and ``x`` and ``y`` broadcast
    over the others; a point padded with ``inf`` reads as outside.  In
    d=1 ``math.dist`` is ``abs(a - b)``, which NumPy computes exactly.
    In d >= 2 both sides start from the same rounded differences, and
    ``math.dist`` is within one ulp of their exact norm.  Where
    ``radius**2`` lies in ``[2**-998, 2**998]``, NumPy's squared
    distance is within three roundings of the exact square unless it
    underflows below ``2**-1000``, a quarter of the smallest squared
    radius, which is then inside for sure, or overflows, which is then
    outside.  So NumPy's comparison is ``math.dist``'s except within the
    relative margin ``_MARGIN`` of ``radius**2``.  Those pairs, and all
    pairs at any other radius, are decided by ``math.dist`` itself.  A
    difference that overflows is ``inf``, like ``math.dist`` of its pair,
    so NumPy's overflow warnings are silenced.
    """
    with np.errstate(over="ignore"):
        diff = x - y
        if len(diff) == 1:
            return np.abs(diff[0]) <= radius
        square = (diff * diff).sum(axis=0)
    bound = radius * radius
    inside = square < bound
    if _LOW <= bound <= _HIGH:
        unsure = (square >= bound * (1.0 - _MARGIN)) & (square <= bound * (1.0 + _MARGIN))
    else:
        unsure = np.ones_like(inside)
    if unsure.any():
        shape = diff.shape[:1] + unsure.shape
        a = np.broadcast_to(x, shape)[:, unsure].T.tolist()
        b = np.broadcast_to(y, shape)[:, unsure].T.tolist()
        inside[unsure] = [math.dist(p, q) <= radius for p, q in zip(a, b)]
    return inside


def ball_members(
    rows: np.ndarray, counts: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Which rows pass ``in_ball``'s layer and first-axis gates; in d=1, its members.

    ``rows`` holds each row's sorted first coordinates and ``center``
    the ball center's, and no row holds fewer columns than its count.
    ``in_ball`` rejects a candidate of another size, or one whose sorted
    first coordinates lie more than the radius from the center's.  In
    d=1 the sorted pairing is an optimal bottleneck matching, and
    rounding is monotone, so comparing ``max |a_i - c_i|`` with the
    radius decides exactly what
    :func:`~birthdeath.configurations.in_ball` decides; a difference
    that overflows is ``inf``, outside, with no warning.
    """
    m = len(center)
    inside = counts == m
    if inside.any():
        with np.errstate(over="ignore"):
            inside[inside] = np.abs(rows[inside, :m] - center).max(axis=1) <= radius
    return inside


def _ball(pts: np.ndarray, n: np.ndarray, center: np.ndarray, ball: RhoBall) -> np.ndarray:
    """Which replicas lie in ``ball``, decided as :func:`~birthdeath.configurations.in_ball` decides."""
    inside = ball_members(pts[0].T, n, center[0], ball.radius)
    d, m = center.shape
    if d == 1 or not inside.any():
        return inside
    rows = np.flatnonzero(inside)
    if m <= 2:
        # near[i, j, k]: point i of replica k lies within the radius of center point j.
        near = within(pts[:, :m, None, rows], center[:, None, :, None], ball.radius)
        if m == 1:
            inside[rows] = near[0, 0]
        else:
            # in_ball's two pairings of a two-point ball.
            inside[rows] = (near[0, 0] & near[1, 1]) | (near[0, 1] & near[1, 0])
    else:
        inside[rows] = [in_ball(Configuration._wrap(tuple(map(tuple, pts[:, :m, k].T.tolist()))), ball)
                        for k in rows.tolist()]
    return inside


class Target:
    """A union of layer sets as a test on block replicas: the empty configuration, bottleneck balls."""

    def __init__(self, empty: bool, balls: Sequence[RhoBall]) -> None:
        self.empty = empty
        self.balls = [(np.array(ball.center.points).T, ball) for ball in balls]

    def __call__(self, pts: np.ndarray, n: np.ndarray) -> np.ndarray:
        inside = n == 0 if self.empty else np.zeros(len(n), dtype=bool)
        for center, ball in self.balls:
            inside |= _ball(pts, n, center, ball)
        return inside


def _before(pts: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Which points of each replica sort before its ``point``, lexicographically like tuples."""
    d = len(pts)
    less = pts[d - 1] < point[d - 1]
    for k in reversed(range(d - 1)):
        less = (pts[k] < point[k]) | ((pts[k] == point[k]) & less)
    return less


class _Uniforms:
    """Per-replica buffers of uniforms, read in stream order.

    Row ``k`` holds the next unread uniforms of generator ``k`` from
    column ``pos[k]`` on.  A refill keeps the last ``_KEEP`` columns and
    appends fresh draws, so no unread uniform is ever skipped.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        self.rngs = np.empty(len(rngs), dtype=object)
        self.rngs[:] = rngs
        self.buf = np.array([rng.random(_CHUNK) for rng in rngs]).reshape(-1, _CHUNK)
        self.pos = np.zeros(len(rngs), dtype=np.intp)

    def take(self, count: int, rows: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` (at most ``_KEEP``) uniforms of ``rows``, all by default, one column each, consumed."""
        every = rows is None
        if every:
            rows = np.arange(len(self.pos))
        low = rows[self.pos[rows] > _CHUNK - count]
        if low.size:
            fresh = [rng.random(_CHUNK - _KEEP) for rng in self.rngs[low]]
            self.buf[low] = np.hstack([self.buf[low, -_KEEP:], fresh])
            self.pos[low] -= _CHUNK - _KEEP
        at = rows * _CHUNK + self.pos[rows]
        if every:
            self.pos += count
        else:
            self.pos[rows] += count
        return self.buf.ravel()[at + np.arange(count)[:, None]]

    def reader(self, row: int) -> Reader:
        """A reader that continues row ``row``'s stream from its next unread uniform."""
        return Reader(self.rngs[row], self.buf[row, self.pos[row]:].tolist())

    def keep(self, mask: np.ndarray) -> None:
        self.rngs = self.rngs[mask]
        self.buf = self.buf[mask]
        self.pos = self.pos[mask]


def count_hits(
    initial: Sequence[Point],
    model: ContactModel,
    stops: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    stop_counts: bool,
    max_steps: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[int, int, list[tuple[tuple[Point, ...], Reader]]]:
    """Replicas, one per generator, counted by an observer within ``max_steps`` steps.

    All replicas start at the sorted points ``initial`` of the model's
    dimension, 1 or 2.  After step ``k`` (from 0), ``stops(k, pts, n)``
    marks the replicas that stop, from their points ``pts[:, :n]``.  A
    stopped replica counts when ``stop_counts`` is set; otherwise those
    still live after ``max_steps`` steps count.  The model's total jump
    rate stays finite at every size the block reaches, which
    ``chain._lockstep_target`` checks before a block starts.

    Returns the count, the steps taken and the unfinished tail.  Once
    fewer than ``_TAIL`` replicas are live the block stops, and each of
    them comes back as its sorted points with a :class:`Reader` of its
    stream, for the scalar kernel to walk the remaining steps.
    """
    d = model.dimension
    imm, per = model._immigration_mass, model._per_neighbor_mass
    imm_center, imm_radius = np.array(model.immigration_region.center)[:, None], model.immigration_region.radius
    radius = model.interaction_radius
    baseline, crowd = model.baseline_death, model.crowding_death

    def birth_location(rows, u):
        # ContactModel.sample_birth_location on the uniforms u (the
        # component, then measure.sample_in_ball's draws): the
        # immigration ball, or the ball around the picked point.
        size = n[rows]
        pick = u[0] * (imm + per * size)
        immigrant = (pick < imm) | (size == 0)
        # Clipped before the cast, which an immigrant's quotient could overflow.
        component = np.minimum(np.maximum((pick - imm) / per, 0), size - 1).astype(np.intp)
        center = np.where(immigrant, imm_center, pts[:, component, rows])
        scale = np.where(immigrant, imm_radius, radius)
        if d == 1:
            location = center + scale * (2.0 * u[1] - 1.0)
        else:
            angles = (math.tau * u[1]).tolist()
            turn = np.fromiter(chain(map(math.cos, angles), map(math.sin, angles)), float, 2 * len(angles))
            location = center + scale * np.sqrt(u[2]) * turn.reshape(2, -1)
        # Points are sorted, so the newborn collides with an occupied
        # point exactly when it equals the first point not below it.
        slot = _before(pts[:, :, rows], location).sum(axis=0)
        return location, slot, (pts[:, slot, rows] == location).all(axis=0)

    draws = _Uniforms(rngs)
    live = len(draws.rngs)
    start = np.array(initial, dtype=float).reshape(-1, d).T
    size = start.shape[1]
    # Two padding rows past the largest count: room for a birth, and one
    # inf row that deaths shift in.
    width = size + 2
    pts = np.full((d, width, live), np.inf)
    pts[:, :size] = start[:, :, None]
    n = np.full(live, size, dtype=np.intp)
    if crowd:
        # Each point's neighbours within the interaction radius, itself
        # excluded; padding holds 0.
        near = np.zeros((width, live), dtype=np.intp)
        near[:size] = within(start[:, :, None], start[:, None], radius).sum(axis=1)[:, None] - 1
    # sums[k] is the death mass of k points without crowding, summed
    # left to right like the scalar kernel's running sum.
    sums = np.zeros(1)
    count = steps = 0
    rows = np.arange(live)
    while steps < max_steps and live and live >= _TAIL:
        if len(sums) <= width:
            sums = np.array([0.0, *accumulate(repeat(baseline, 2 * width))])
        # A birth reads its move, component and ball draws; a death
        # reads only its move and gives the rest back.
        u = draws.take(2 + d)
        last = n - 1
        if crowd:
            # Past the count the sums keep growing from the death mass,
            # above a dying replica's move.
            partial = np.cumsum(baseline + crowd * near, axis=0)
            death_mass = partial[last, rows] * (n > 0)
        else:
            death_mass = sums[n]
        move = u[0] * (death_mass + (imm + per * n))
        dying = move < death_mass
        draws.pos[dying] -= 1 + d
        if crowd:
            index = (partial <= move).sum(axis=0)
        else:
            index = np.searchsorted(sums[1:], move, "right")
        index = np.minimum(index, last)
        births = (~dying).nonzero()[0]
        location, slot, collide = birth_location(births, u[1:, births])
        redraw = collide.nonzero()[0]
        tries = _REDRAWS
        while redraw.size:
            tries -= 1
            if not tries:
                raise _crowded_birth(model)
            again = births[redraw]
            found = birth_location(again, draws.take(1 + d, again))
            location[:, redraw], slot[redraw], collide = found
            redraw = redraw[collide]

        # A death shifts the points after the dying index one row up, a
        # birth those from the slot on one row down.
        shift = np.where(dying, 1, -1)
        if crowd:
            # The point that dies or is born changes its neighbours'
            # counts by one; a dying point's own count leaves with it.
            moved = pts[:, index, rows]
            moved[:, births] = location
            close = within(pts, moved[:, None], radius)
            newborn_near = close[:, births].sum(axis=0)
            near -= close * shift
        n -= shift
        split = index
        split[births] = slot
        # The block takes the width the new counts need.  Sources past
        # the old width clip to its last row, padding in every replica,
        # and a birth's source before row 0 to a cell the newborn fills.
        fresh = np.arange(int(n.max()) + 2)[:, None]
        flat = (fresh + (fresh >= split) * shift) * live + rows
        width = len(fresh)
        pts = pts.reshape(d, -1).take(flat, axis=1, mode="clip")
        pts[:, slot, births] = location
        if crowd:
            near = near.take(flat, mode="clip")
            near[slot, births] = newborn_near

        stop = stops(steps, pts, n)
        if stop.any():
            if stop_counts:
                count += int(stop.sum())
            keep = ~stop
            pts, n = pts[:, :, keep], n[keep]
            if crowd:
                near = near[:, keep]
            draws.keep(keep)
            live = len(n)
            rows = np.arange(live)
        steps += 1
    if steps == max_steps:
        return count + (0 if stop_counts else live), steps, []
    tail = [(tuple(map(tuple, pts[:, :n[k], k].T.tolist())), draws.reader(k)) for k in range(live)]
    return count, steps, tail
