"""Lockstep replica backend for the contact model in d=1 and d=2.

Replicas advance together as NumPy arrays, one row of a window each:
a column of points per row, sorted lexicographically like a
``Configuration`` and padded with ``inf``, plus a count, the steps the
row has taken and, under crowding, each point's neighbour count.
Points are stored as coordinate planes of shape ``(d, width, rows)``, so
every operation runs along the rows.  Replicas stream through the
window in index order: a row that stops or runs out of steps is taken
by the next replica.

Each replica reads its own PCG64 stream in exactly the order the scalar
kernel ``chain._contact_walk`` does.  Every draw that kernel makes is
``rng.random()`` (the move choice, the birth component, the ball draw
and any collision redraw), and ``Generator.random(k)`` returns the same
doubles as ``k`` scalar calls, so each row's uniforms are drawn in
fixed-size chunks.  A replica enters as its seed words: the ``2 + d``
uniforms of its first step are computed for a whole batch in one NumPy
pass (:func:`first_uniforms`), and its generator is built only if it
reads on, which most corridor replicas never do.  All arithmetic
repeats the scalar kernel's operations in the same order, which makes
counts bit-identical to it:

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

After every step an observer marks the rows that stop: a hitting run
stops one that enters its target, a corridor one that leaves the cell
of its step.  In d >= 3 the ball draw's ``log`` and ``u ** (1/d)`` are
not bit-equal in NumPy, so those dimensions stay scalar.

The same reading rule serves the scalar kernel in every dimension:
:class:`Reader` hands out a generator's uniforms one by one from
chunks, and the window hands its last few live rows back, with their
unread uniforms, to be finished one at a time.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .configurations import Configuration, Point, RhoBall, in_ball
from .measure import _REDRAWS
from .rates import ContactModel, _crowded_birth

# Uniforms drawn per replica and refill; a step reads at most 2 + d
# (the move, the component and the ball draw) unless a newborn lands
# exactly on an occupied point.
_CHUNK = 64
_KEEP = 4

# Live rows below which the window, once every replica has entered,
# stops and hands its rows back.  A
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


@functools.cache
def _words_seed_type() -> type:
    """A seed sequence type that hands its bit generator precomputed state words.

    It is built on first use: importing ``numpy.random`` while the
    package loads, rather than later, raised peak memory by about 0.7 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return _Words


def generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 generator whose four ``uint64`` seed words are ``words``."""
    return np.random.Generator(np.random.PCG64(_words_seed_type()(words)))


# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128, O'Neill
# 2014), 0x2360ed051fc65da44385df649fccf645, as its high and low words,
# and the low word as two 32-bit limbs.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LIMBS = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)


def first_uniforms(words: np.ndarray, count: int) -> np.ndarray:
    """``generator(w).random(count)`` for each row ``w`` of ``words``, one row each, in one NumPy pass.

    NumPy's PCG64 seeds the 128-bit state ``state = (inc + s) * M +
    inc`` (mod ``2**128``) from the words ``(s_hi, s_lo, i_hi, i_lo)``,
    where ``s`` is the first pair and ``inc = (i << 1) | 1`` the
    second.  A draw steps ``state = state * M + inc``, outputs the
    XSL-RR ``rotr64(hi ^ lo, hi >> 58)`` of the new state, and
    ``random()`` is that output's top 53 bits times ``2**-53``.  The
    high half of ``lo * M_lo`` comes from 32-bit limbs, whose products
    ``uint64`` holds exactly; every other product wraps as the
    arithmetic does.  Its 4 draws cost about 0.46 us a row over a batch
    of 512 (timeit, 2-core Xeon), against 2 us for building a generator.
    """
    one, limb, half = np.uint64(1), np.uint64(0xFFFFFFFF), np.uint64(32)
    m0, m1 = _MULT_LIMBS
    s_hi, s_lo, i_hi, i_lo = words.T
    inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << one) | one

    def step(hi, lo):
        # (hi, lo) * M + inc: lo * M_lo in full, the cross terms mod 2**64.
        l0, l1 = lo & limb, lo >> half
        p01, p10 = l0 * m1, l1 * m0
        middle = ((l0 * m0) >> half) + (p01 & limb) + (p10 & limb)
        hi = l1 * m1 + (p01 >> half) + (p10 >> half) + (middle >> half) + hi * _MULT_LO + lo * _MULT_HI
        lo = lo * _MULT_LO + inc_lo
        return hi + inc_hi + (lo < inc_lo), lo

    lo = inc_lo + s_lo
    hi, lo = step(inc_hi + s_hi + (lo < inc_lo), lo)
    out = np.empty((count, len(words)))
    for k in range(count):
        hi, lo = step(hi, lo)
        mixed, turn = hi ^ lo, hi >> np.uint64(58)
        out[k] = ((mixed >> turn) | (mixed << ((np.uint64(64) - turn) & np.uint64(63)))) >> np.uint64(11)
    return (out * 2.0**-53).T


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
    """Per-row buffers of uniforms, read in stream order.

    Row ``k`` holds the next unread uniforms of its stream from column
    ``pos[k]`` on.  A row enters with its first ``head`` uniforms, which
    :func:`first_uniforms` computed from its seed words, in its last
    columns, and with no generator.  Its first refill builds the
    generator from the words and drops the ``head`` uniforms the row
    already holds, so a row that stops before then never builds one.  A
    refill keeps the last ``_KEEP`` columns and appends fresh draws, so
    no unread uniform is ever skipped.
    """

    def __init__(self, rows: int, head: int) -> None:
        self.head = head
        self.words = np.empty((rows, 4), dtype=np.uint64)
        self.rngs = np.full(rows, None)
        self.buf = np.empty((rows, _CHUNK))
        self.pos = np.empty(rows, dtype=np.intp)

    def enter(self, rows: np.ndarray, words: np.ndarray, heads: np.ndarray) -> None:
        """Rows ``rows`` start the streams of ``words``, whose first uniforms are ``heads``."""
        self.words[rows] = words
        self.rngs[rows] = None
        self.buf[rows, -self.head:] = heads
        self.pos[rows] = _CHUNK - self.head

    def stream(self, row: int) -> np.random.Generator:
        """Row ``row``'s generator, past every uniform the row has held; built on first use."""
        rng = self.rngs[row]
        if rng is None:
            rng = self.rngs[row] = generator(self.words[row])
            rng.random(self.head)
        return rng

    def take(self, count: int, rows: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` (at most ``_KEEP``) uniforms of ``rows``, all by default, one column each, consumed."""
        every = rows is None
        if every:
            rows = np.arange(len(self.pos))
        low = rows[self.pos[rows] > _CHUNK - count]
        if low.size:
            fresh = [self.stream(row).random(_CHUNK - _KEEP) for row in low.tolist()]
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
        return Reader(self.stream(row), self.buf[row, self.pos[row]:].tolist())

    def keep(self, mask: np.ndarray) -> None:
        self.words = self.words[mask]
        self.rngs = self.rngs[mask]
        self.buf = self.buf[mask]
        self.pos = self.pos[mask]


def _checked_heads(words: np.ndarray, head: int) -> np.ndarray:
    """The first ``head`` uniforms of each row of ``words``, its first row checked against its generator."""
    heads = first_uniforms(words, head)
    if heads[0].tolist() != generator(words[0]).random(head).tolist():
        raise RuntimeError("the first uniforms computed from a batch's seed words "
                           "differ from its first generator's")
    return heads


def _inside(cells: Sequence[Target], age: np.ndarray, pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Which rows lie in the cell of their step: cell ``min(age, len(cells) - 1)``, ``age`` counted from 0."""
    if len(cells) == 1:
        return cells[0](pts, n)
    cell = np.minimum(age, len(cells) - 1)
    present = np.flatnonzero(np.bincount(cell)).tolist()
    if len(present) == 1:
        return cells[present[0]](pts, n)
    inside = np.empty(len(n), dtype=bool)
    for k in present:
        group = np.flatnonzero(cell == k)
        inside[group] = cells[k](pts[:, :, group], n[group])
    return inside


def count_hits(
    initial: Sequence[Point],
    model: ContactModel,
    cells: Sequence[Target],
    enter: bool,
    max_steps: int,
    batches: Iterable[np.ndarray],
) -> tuple[int, list[tuple[tuple[Point, ...], Reader, int]]]:
    """Replicas, one per row of seed words, that ``cells`` count within ``max_steps`` steps.

    ``batches`` yields the PCG64 seed words of the replicas, four
    ``uint64`` words a row, in replica order and one batch at a time.
    All replicas start at the sorted points ``initial`` of the model's
    dimension, 1 or 2.  Step ``k`` (from 0) of a replica is checked
    against cell ``min(k, len(cells) - 1)``.  With ``enter`` set, a
    replica stops on entering its cell and counts; otherwise it stops on
    leaving its cell, and counts when it has not left after
    ``max_steps`` steps.  The model's total jump rate stays finite at
    every size a replica reaches, which ``chain._lockstep_target``
    checks first.

    The replicas stream through one window of rows, no more than the
    first batch holds.  Each row counts its own steps, leaves once it
    stops or has taken ``max_steps``, and the next replica takes its
    place.  Replicas enter as seed words: the first ``2 + d`` uniforms
    of a batch, all that a first step reads unless its newborn collides,
    are computed in one NumPy pass (checked on the batch's first row),
    and a row builds its generator only if it reads on.

    Returns the count and the unfinished tail.  Once every replica has
    entered and fewer than ``_TAIL`` rows are live, the window stops, and
    each of them comes back as its sorted points, a :class:`Reader` of
    its stream and the steps it has taken, for the scalar kernel to walk
    the rest of its steps.
    """
    d = model.dimension
    head = 2 + d
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

    batches = iter(batches)
    first = next(batches)
    waiting = first, _checked_heads(first, head)

    def entrants(count):
        # The seed words and first uniforms of the next count replicas,
        # fewer once the batches run out.  The queue is topped up past
        # count, so it is empty only when every replica has entered.
        nonlocal waiting
        words, heads = waiting
        while len(words) <= count and (batch := next(batches, None)) is not None:
            words, heads = np.concatenate([words, batch]), np.concatenate([heads, _checked_heads(batch, head)])
        waiting = words[count:], heads[count:]
        return words[:count], heads[:count]

    start = np.array(initial, dtype=float).reshape(-1, d).T
    size = start.shape[1]
    if crowd:
        # Each point's neighbours within the interaction radius, itself
        # excluded; padding holds 0.
        start_near = within(start[:, :, None], start[:, None], radius).sum(axis=1) - 1

    def place(rows, words, heads):
        # The replicas of words start in rows, at the initial points.
        pts[:, :, rows] = np.inf
        pts[:, :size, rows] = start[:, :, None]
        n[rows] = size
        if crowd:
            near[:, rows] = 0
            near[:size, rows] = start_near[:, None]
        age[rows] = 0
        draws.enter(rows, words, heads)

    live = len(first)
    # Two padding rows past the largest count: room for a birth, and one
    # inf row that deaths shift in.
    width = size + 2
    pts = np.empty((d, width, live))
    n, age = np.empty(live, dtype=np.intp), np.empty(live, dtype=np.intp)
    if crowd:
        near = np.empty((width, live), dtype=np.intp)
    draws = _Uniforms(live, head)
    place(np.arange(live), *entrants(live))
    # sums[k] is the death mass of k points without crowding, summed
    # left to right like the scalar kernel's running sum.
    sums = np.zeros(1)
    count = 0
    rows = np.arange(live)
    while live and (live >= _TAIL or len(waiting[0])):
        if len(sums) <= width:
            sums = np.array([0.0, *accumulate(repeat(baseline, 2 * width))])
        # A birth reads its move, component and ball draws; a death
        # reads only its move and gives the rest back.
        u = draws.take(head)
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
        # The window takes the width the new counts, and a replica that
        # enters at the initial points, need.  Sources past the old width
        # clip to its last row, padding in every row, and a birth's source
        # before row 0 to a cell the newborn fills.
        fresh = np.arange(max(int(n.max()), size) + 2)[:, None]
        flat = (fresh + (fresh >= split) * shift) * live + rows
        width = len(fresh)
        pts = pts.reshape(d, -1).take(flat, axis=1, mode="clip")
        pts[:, slot, births] = location
        if crowd:
            near = near.take(flat, mode="clip")
            near[slot, births] = newborn_near

        inside = _inside(cells, age, pts, n)
        stop = inside if enter else ~inside
        age += 1
        done = age == max_steps
        count += int(np.count_nonzero(stop if enter else done & ~stop))
        leave = np.flatnonzero(stop | done)
        if leave.size:
            # The next replicas take the freed rows; rows left over go.
            words, heads = entrants(leave.size)
            if len(words):
                place(leave[:len(words)], words, heads)
            gone = leave[len(words):]
            if gone.size:
                keep = np.ones(live, dtype=bool)
                keep[gone] = False
                pts, n, age = pts[:, :, keep], n[keep], age[keep]
                if crowd:
                    near = near[:, keep]
                draws.keep(keep)
                live = len(n)
                rows = np.arange(live)
    tail = [(tuple(map(tuple, pts[:, :n[k], k].T.tolist())), draws.reader(k), int(age[k])) for k in range(live)]
    return count, tail
