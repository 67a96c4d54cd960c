"""Lockstep replica backend for hitting estimates of the d=1 contact model.

A block of replicas advances together as NumPy arrays: one sorted row
of points per replica (padded with ``inf``) plus a count.  Each replica
keeps its own generator and reads it in exactly the order the scalar
kernel ``chain._advance`` does.  In d=1 without crowding every draw
that kernel makes is ``rng.random()`` (the move choice, the birth
component, the ball offset and any collision redraw), and
``Generator.random(k)`` returns the same doubles as ``k`` scalar calls,
so each replica's uniforms are drawn in fixed-size chunks.  All
arithmetic repeats the scalar kernel's operations in the same order,
which makes hit counts bit-identical to it.

The same reading rule serves the scalar kernel in every dimension:
:class:`Reader` hands out a generator's uniforms one by one from
chunks, and a block hands its last few live replicas back, with their
unread uniforms, to be finished one at a time.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import Sequence

import numpy as np

from .measure import _REDRAWS
from .rates import ContactModel, _crowded_birth, _stuck_state

# Uniforms drawn per replica and refill; a step reads at most three
# unless a newborn lands exactly on an occupied point.
_CHUNK = 64
_KEEP = 3

# Live replicas below which a block stops and hands its rows back.  A
# lockstep step costs about 73 us plus 0.43 us a row, a scalar
# replica-step about 4 us with its membership check, so the scalar
# kernel is cheaper below about 20 rows; counted steps of a README lab
# run put the least total cost between 12 and 24.
_TAIL = 16


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


def ball_members(
    rows: np.ndarray, counts: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Which sorted d=1 rows lie in the bottleneck ball around ``center``.

    ``center`` is sorted and no row holds fewer columns than its count.
    In d=1 the sorted pairing is an optimal bottleneck matching, and
    rounding is monotone, so comparing ``max |a_i - c_i|`` with the
    radius decides exactly what
    :func:`~birthdeath.configurations.in_ball` decides.
    """
    m = len(center)
    inside = counts == m
    if inside.any():
        inside[inside] = np.abs(rows[inside, :m] - center).max(axis=1) <= radius
    return inside


class _Uniforms:
    """Per-replica buffers of uniforms, read in stream order.

    Row ``k`` holds the next unread uniforms of generator ``k`` from
    column ``pos[k]`` on.  A refill keeps the last ``_KEEP`` columns and
    appends fresh draws, so no unread uniform is ever skipped.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        self.rngs = list(rngs)
        self.buf = np.array([rng.random(_CHUNK) for rng in self.rngs]).reshape(-1, _CHUNK)
        self.pos = np.zeros(len(self.rngs), dtype=np.intp)

    def reserve(self, need: int, rows: np.ndarray) -> None:
        """Make sure ``rows`` have ``need`` (at most ``_KEEP``) unread uniforms."""
        low = rows[self.pos[rows] > _CHUNK - need]
        if low.size:
            fresh = [self.rngs[k].random(_CHUNK - _KEEP) for k in low]
            self.buf[low] = np.hstack([self.buf[low, -_KEEP:], fresh])
            self.pos[low] -= _CHUNK - _KEEP

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of every row in ``rows``, consumed."""
        values = self.buf[rows, self.pos[rows]]
        self.pos[rows] += 1
        return values

    def reader(self, row: int) -> Reader:
        """A reader that continues row ``row``'s stream from its next unread uniform."""
        return Reader(self.rngs[row], self.buf[row, self.pos[row]:].tolist())

    def keep(self, mask: np.ndarray) -> None:
        self.rngs = [rng for rng, kept in zip(self.rngs, mask) if kept]
        self.buf = self.buf[mask]
        self.pos = self.pos[mask]


def count_hits(
    initial: Sequence[float],
    model: ContactModel,
    empty: bool,
    balls: Sequence[tuple[np.ndarray, float]],
    max_steps: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[int, int, list[tuple[list[float], Reader]]]:
    """Replicas, one per generator, that enter the target within ``max_steps``.

    The target is the empty configuration when ``empty`` is set, united
    with the d=1 bottleneck balls ``(sorted center, radius)``.
    Membership is checked after every step, never at the start.

    Returns the hits, the steps taken and the unfinished tail.  Once
    fewer than ``_TAIL`` replicas are live the block stops, and each of
    them comes back as its sorted points with a :class:`Reader` of its
    stream, for the scalar kernel to walk the remaining steps.
    """
    imm = model._immigration_mass
    per = model._per_neighbor_mass
    anchor = model.immigration_region.center[0]
    imm_radius = model.immigration_region.radius
    radius = model.interaction_radius

    def birth_location(pts, n, rows, pick, offset):
        # ContactModel.sample_birth_location on uniforms: the immigration
        # ball, or the ball around the point of the picked component.
        size = n[rows]
        pick = pick * (imm + per * size)
        offset = 2.0 * offset - 1.0
        immigrant = (pick < imm) | (size == 0)
        # Clipped before the cast, which an immigrant's quotient could overflow.
        component = np.clip((pick - imm) / per, 0, size - 1).astype(np.intp)
        parent = pts[rows, component]
        location = np.where(immigrant, anchor + imm_radius * offset, parent + radius * offset)
        # Rows are sorted, so the newborn collides with an occupied
        # point exactly when it equals the first point not below it.
        slot = (pts[rows] < location[:, None]).sum(axis=1)
        return location, slot, pts[rows, slot] == location

    draws = _Uniforms(rngs)
    live = len(draws.rngs)
    pts = np.tile(np.asarray(initial, dtype=float), (live, 1))
    width = pts.shape[1]
    n = np.full(live, width, dtype=np.intp)
    hits = steps = room = 0
    while steps < max_steps and live and live >= _TAIL:
        # Room for a birth plus one inf column that deaths shift in.
        need = int(n.max()) + 2
        if need > room:
            if need > width:
                grow = max(need, 2 * width, 8) - width
                pts = np.hstack([pts, np.full((live, grow), np.inf)])
                width += grow
                # partial[k] is the death mass of k points, summed left to
                # right like the scalar kernel's running sum of death_rates.
                partial = np.array([0.0, *accumulate(repeat(model.baseline_death, width))])
                cols = np.arange(width)
            # The scalar kernel refuses a state whose total jump rate (in Python floats,
            # which overflow without a warning) is not finite.  The rate grows with the
            # size, so ``room`` stops short of the first such size, and reaching it raises.
            totals = [death + (imm + per * k) for k, death in enumerate(partial.tolist())]
            room = min(width, sum(total < np.inf for total in totals) + 1)
            if need > room:
                raise _stuck_state(model, need - 2, totals[need - 2])
        rows = np.arange(live)
        draws.reserve(3, rows)
        u = draws.take(rows)

        death_mass = partial[n]
        move = u * (death_mass + (imm + per * n))
        dying = move < death_mass
        index = np.minimum(np.searchsorted(partial[1:], move, "right"), n - 1)
        births = np.flatnonzero(~dying)
        location, slot, collide = birth_location(
            pts, n, births, draws.take(births), draws.take(births)
        )
        redraw = np.flatnonzero(collide)
        tries = _REDRAWS
        while redraw.size:
            tries -= 1
            if not tries:
                raise _crowded_birth(model)
            again = births[redraw]
            draws.reserve(2, again)
            found = birth_location(pts, n, again, draws.take(again), draws.take(again))
            location[redraw], slot[redraw], collide = found
            redraw = redraw[collide]

        # Deaths pull the points after the dying index one column left;
        # births push the points from the slot on one column right.
        split = index
        split[births] = slot
        shift = np.ones(live, dtype=np.intp)
        shift[births] = -1
        source = cols + (cols >= split[:, None]) * shift[:, None]
        pts = np.take_along_axis(pts, np.clip(source, 0, width - 1), axis=1)
        pts[births, slot] = location
        n[births] += 2
        n -= 1

        hit = n == 0 if empty else np.zeros(live, dtype=bool)
        for center, ball_radius in balls:
            hit |= ball_members(pts, n, center, ball_radius)
        if hit.any():
            hits += int(hit.sum())
            keep = ~hit
            pts, n = pts[keep], n[keep]
            draws.keep(keep)
            live = len(draws.rngs)
        steps += 1
    if steps == max_steps:
        return hits, steps, []
    return hits, steps, [(pts[k, :n[k]].tolist(), draws.reader(k)) for k in range(live)]
