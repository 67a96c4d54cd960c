"""The jump chain over finite configurations.

One step from a state removes an occupied point or inserts a newborn
one.  A specific death is chosen with probability proportional to its
death rate, and a birth lands in a region with probability
proportional to the birth mass there; everything is normalized by the
state's total jump mass.  The chain is simulated step by step, records
births and deaths as events (states are reconstructed on demand), and
hitting probabilities of target sets are estimated over independent
replicas with a Wilson score interval.  Hitting always means first
return: the starting state itself does not count, even when it already
sits inside the target.
"""

from __future__ import annotations

import abc
import functools
import math
from bisect import bisect, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import dist
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _lockstep
from .configurations import Configuration, Point, _real, _whole_number, as_point
from .measure import (
    BallRegion,
    BallSet,
    BoxRegion,
    EmptySingleton,
    LayerSet,
    TargetPiece,
    _REDRAWS,
    sample_in_ball,
)
from .rates import ContactModel, RateModel, _crowded_birth, _stuck_state

__all__ = [
    "ChainEvent",
    "Trajectory",
    "NullTarget",
    "ExactPointTarget",
    "HyperplaneTarget",
    "PairDistanceTarget",
    "TargetSet",
    "HittingEstimate",
    "step",
    "simulate",
    "death_probability",
    "birth_probability_region",
    "hitting_estimate",
    "wilson_interval",
]


@dataclass(frozen=True, slots=True)
class ChainEvent:
    """A single move: ``kind`` is "birth" or "death" of ``point`` at step ``step_index``."""

    kind: str
    point: Point
    step_index: int


@dataclass(frozen=True)
class Trajectory:
    """A simulated run stored as its initial state plus the event list.

    ``terminal_reason`` is "hit_target" or "max_steps"; ``hit_step`` is
    the first-return step index when the target was reached.  States
    along the run are reconstructed by :meth:`states`.
    """

    initial: Configuration
    events: tuple[ChainEvent, ...]
    seed: object
    terminal_reason: str
    hit_step: int | None = None

    def states(self) -> Iterator[Configuration]:
        """Yield the initial state and every post-event state in order."""
        state = self.initial
        yield state
        for event in self.events:
            if event.kind == "birth":
                state = state.with_point(event.point)
            else:
                state = state.without_point(event.point)
            yield state

    def final_state(self) -> Configuration:
        *_, last = self.states()
        return last

    def __len__(self) -> int:
        return len(self.events)


# --- target sets ------------------------------------------------------


class NullTarget(TargetPiece):
    """A curated predicate whose set carries zero reference measure.

    Each variant is monotone under adding points: once a state
    satisfies it, every superset does too.  That makes the one-step
    reachability analysis exact: a birth can only enter the set from a
    state already inside it (the completing locations form a Lebesgue
    null set), and a death cannot enter it at all, since a state whose
    subset lies inside is inside already.
    """

    def contains(self, state: Configuration) -> bool:
        """Whether some point of ``state`` completes a witness (see :meth:`entered_by_birth`)."""
        return any(self.entered_by_birth(state, p) for p in state.points)

    @abc.abstractmethod
    def entered_by_birth(self, state: Configuration, newborn: Point) -> bool:
        """Whether ``state`` is inside through a witness that involves ``newborn``.

        ``contains(state)`` equals ``contains(state without newborn) or
        entered_by_birth(state, newborn)``, so for a state that was
        outside before the birth this decides membership after it while
        looking only at the new point.
        """


@dataclass(frozen=True)
class ExactPointTarget(NullTarget):
    """States containing one exact point, coordinate for coordinate."""

    point: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", as_point(self.point))

    @property
    def dimensions(self) -> tuple[int, int]:
        return len(self.point), len(self.point)

    def entered_by_birth(self, state: Configuration, newborn: Point) -> bool:
        return newborn == self.point

    def label(self) -> str:
        return f"null:exact_point{self.point!r}"


@dataclass(frozen=True)
class HyperplaneTarget(NullTarget):
    """States with some point lying exactly on a coordinate hyperplane."""

    axis: int
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", _whole_number(self.axis, "axis", 0))
        object.__setattr__(self, "value", _real(self.value, "value"))

    @property
    def dimensions(self) -> tuple[int, None]:
        return self.axis + 1, None

    def entered_by_birth(self, state: Configuration, newborn: Point) -> bool:
        return newborn[self.axis] == self.value

    def label(self) -> str:
        return f"null:hyperplane(axis={self.axis}, value={self.value!r})"


@dataclass(frozen=True)
class PairDistanceTarget(NullTarget):
    """States with two points at exactly the given distance."""

    distance: float
    dimensions = (1, None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "distance", _real(self.distance, "distance", 0.0, strict=True))

    def entered_by_birth(self, state: Configuration, newborn: Point) -> bool:
        d = self.distance
        for p in state.points:
            if p != newborn and dist(p, newborn) == d:
                return True
        return False

    def label(self) -> str:
        return f"null:pair_distance({self.distance!r})"


@dataclass(frozen=True)
class TargetSet:
    """A finite union of target pieces."""

    pieces: tuple[TargetPiece, ...]

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("a target set needs at least one piece")
        object.__setattr__(self, "pieces", pieces)

    def membership(self, state: Configuration) -> bool:
        for piece in self.pieces:
            if piece.contains(state):
                return True
        return False

    def label(self) -> str:
        return " | ".join(piece.label() for piece in self.pieces)


# --- the step kernel --------------------------------------------------


def _advance(
    state: Configuration, model: RateModel, rng: np.random.Generator
) -> tuple[Configuration, str, Point]:
    """One kernel move; returns the new state with the move's kind and point.

    The death mass is the last running sum of the death rates, added
    left to right, so it does not depend on how ``sum`` rounds.
    """
    partial = list(accumulate(model.death_rates(state)))
    death_mass = partial[-1] if partial else 0.0
    total = death_mass + model.total_birth_mass(state)
    if not 0.0 < total < math.inf:
        raise _stuck_state(model, len(state), total)
    u = rng.random() * total
    points = state.points
    if u < death_mass:
        index = min(bisect_right(partial, u), len(partial) - 1)
        return Configuration._wrap(points[:index] + points[index + 1:]), "death", points[index]
    location = model.sample_birth_location(state, rng)
    tries = _REDRAWS
    while location in points:
        tries -= 1
        if not tries:
            raise _crowded_birth(model)
        location = model.sample_birth_location(state, rng)
    slot = bisect(points, location)
    return Configuration._wrap(points[:slot] + (location,) + points[slot:]), "birth", location


def _walk(
    state: Configuration,
    model: RateModel,
    rng: np.random.Generator | _lockstep.Reader,
    max_steps: int,
) -> Iterator[tuple[Configuration, str, Point]]:
    """Run up to ``max_steps`` kernel moves, yielding ``_advance``'s result after each.

    The contact model itself (not a subclass, which may override its
    rates) takes :func:`_contact_walk`, the same moves for less.
    """
    if type(model) is ContactModel:
        return _contact_walk(state, model, rng, max_steps)
    return _advance_walk(state, model, rng, max_steps)


def _advance_walk(
    state: Configuration,
    model: RateModel,
    rng: np.random.Generator | _lockstep.Reader,
    max_steps: int,
) -> Iterator[tuple[Configuration, str, Point]]:
    """``_walk`` for any rate model: one ``_advance`` call a step."""
    for _ in range(max_steps):
        move = _advance(state, model, rng)
        yield move
        state = move[0]


def _contact_walk(
    state: Configuration,
    model: ContactModel,
    rng: np.random.Generator | _lockstep.Reader,
    max_steps: int,
) -> Iterator[tuple[Configuration, str, Point]]:
    """``_advance_walk`` for the contact model with its rate methods inlined.

    Each step makes one ``death_rates`` call and reads the size once;
    the birth mass is ``total_birth_mass``'s sum, and the operations
    and draws are ``_advance``'s in the same order, so the moves are
    bit-identical.  Both birth masses are positive, so every state can
    move unless its total jump rate leaves the float range.
    """
    death_rates = model.death_rates
    random = rng.random
    imm, per = model._immigration_mass, model._per_neighbor_mass
    imm_center, imm_radius = model.immigration_region.center, model.immigration_region.radius
    radius = model.interaction_radius
    wrap = Configuration._wrap
    inf = math.inf
    points = state.points
    for _ in range(max_steps):
        partial = list(accumulate(death_rates(state)))
        n = len(points)
        death_mass = partial[-1] if n else 0.0
        birth_mass = imm + per * n
        total = death_mass + birth_mass
        if not total < inf:
            raise _stuck_state(model, n, total)
        u = random() * total
        if u < death_mass:
            index = bisect_right(partial, u)
            if index >= n:
                index = n - 1
            point = points[index]
            points = points[:index] + points[index + 1:]
            kind = "death"
        else:
            # The component choice of ContactModel.sample_birth_location,
            # redrawn with the location while it lands on an occupied point.
            tries = _REDRAWS
            while True:
                v = random() * birth_mass
                if v < imm or not n:
                    point = sample_in_ball(imm_center, imm_radius, rng)
                else:
                    index = int((v - imm) / per)
                    if index >= n:
                        index = n - 1
                    point = sample_in_ball(points[index], radius, rng)
                if point not in points:
                    break
                tries -= 1
                if not tries:
                    raise _crowded_birth(model)
            slot = bisect(points, point)
            points = points[:slot] + (point,) + points[slot:]
            kind = "birth"
        state = wrap(points)
        yield state, kind, point


def _own_stream(
    rng: np.random.Generator, model: RateModel
) -> np.random.Generator | _lockstep.Reader:
    """``rng`` for a walk that owns it, behind a chunked reader where that gives the same moves.

    Every draw the kernel makes for the contact model itself, in any
    dimension and with or without crowding, is ``rng.random()``, so a
    :class:`~birthdeath._lockstep.Reader` hands out the same doubles for
    less; a subclass may draw otherwise.  The reader reads ahead, so the
    caller must not read ``rng`` again.
    """
    if type(model) is ContactModel:
        return _lockstep.Reader(rng)
    return rng


def _check_start(state: Configuration, model: RateModel) -> None:
    """Refuse a start whose points have another dimension than the model's."""
    if state.dimension not in (None, model.dimension):
        raise ValueError(f"the start has {state.dimension}-D points, the model is {model.dimension}-D")


def _check_target(pieces: Iterable[TargetPiece], model: RateModel) -> None:
    """Refuse a target piece that does not fit the model's dimension, by the dimensions it states."""
    d = model.dimension
    for piece in pieces:
        low, high = piece.dimensions
        if not low <= d <= (d if high is None else high):
            fits = f"is {low}-D" if low == high else f"needs {low} or more dimensions"
            raise ValueError(f"{piece.label()} {fits}, the model is {d}-D")


def step(
    state: Configuration,
    model: RateModel,
    rng: np.random.Generator | np.random.SeedSequence | int | None,
) -> tuple[Configuration, ChainEvent]:
    """Perform one chain step and return the new state with its event.

    A specific occupied point dies with probability ``death rate /
    total mass``; otherwise a birth location is drawn from the
    normalized birth density.  Raises :class:`DegenerateStateError`
    when the state's total jump mass is zero or not finite, or when 1000
    birth draws in a row land on occupied points; a state of another
    dimension than the model raises ``ValueError``.
    """
    _check_start(state, model)
    rng = np.random.default_rng(rng)
    new_state, kind, point = _advance(state, model, rng)
    return new_state, ChainEvent(kind, point, 0)


def simulate(
    initial: Configuration,
    model: RateModel,
    target: TargetSet | None,
    max_steps: int,
    seed: int | np.random.SeedSequence | None,
) -> Trajectory:
    """Run the chain from ``initial`` until first return to ``target`` or ``max_steps``.

    The trajectory records the seed and every event, and identical
    ``(initial, model, seed, max_steps)`` inputs reproduce it
    bit for bit.  Membership is checked after each step, so a start
    inside the target still requires a return at step one or later.
    The generator is read draw by draw, so a caller's is left where the
    last draw took it.  A start or target piece of another dimension
    raises ``ValueError``.
    """
    _check_start(initial, model)
    if target is not None:
        _check_target(target.pieces, model)
    max_steps = _whole_number(max_steps, "max_steps", 0)
    rng = np.random.default_rng(seed)
    events: list[ChainEvent] = []
    hit_step: int | None = None
    member = target.membership if target is not None else None
    for index, (state, kind, point) in enumerate(_walk(initial, model, rng, max_steps), 1):
        events.append(ChainEvent(kind, point, index))
        if member is not None and member(state):
            hit_step = index
            break
    reason = "hit_target" if hit_step is not None else "max_steps"
    return Trajectory(
        initial=initial,
        events=tuple(events),
        seed=seed,
        terminal_reason=reason,
        hit_step=hit_step,
    )


def death_probability(state: Configuration, point: Sequence[float], model: RateModel) -> float:
    """Exact probability that the next move removes ``point``."""
    _check_start(state, model)
    pt = as_point(point)
    if pt not in state:
        raise ValueError(f"point {pt!r} is not in the state")
    total = model.jump_rate(state)
    if not 0.0 < total < math.inf:
        raise _stuck_state(model, len(state), total)
    return model.death_rate(pt, state) / total


def birth_probability_region(state: Configuration, region: BoxRegion | BallRegion | None,
                             model: RateModel) -> float:
    """Exact probability that the next move is a birth landing in ``region``.

    ``None`` means a birth anywhere.  The birth mass comes from
    :meth:`~birthdeath.rates.RateModel.birth_mass_in_region`, which
    raises :class:`~birthdeath.measure.UnsupportedExactEvaluation` where
    the model has no closed form for the region.  Both one-step
    probabilities raise :class:`DegenerateStateError` where the state's
    total jump rate is zero or not finite, and ``ValueError`` for a
    state of another dimension than the model.
    """
    _check_start(state, model)
    total = model.jump_rate(state)
    if not 0.0 < total < math.inf:
        raise _stuck_state(model, len(state), total)
    return model.birth_mass_in_region(state, region) / total


# --- hitting estimates ------------------------------------------------

_Z95 = 1.959963984540054


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    total = _whole_number(total, "total", 1)
    hits = _whole_number(hits, "hits", 0)
    if hits > total:
        raise ValueError(f"hits must be at most total, got {hits} of {total}")
    p = hits / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # The low end is 0 exactly when no hit was seen (and the high end 1
    # when every trial hit); rounding noise must not fake a positive
    # lower bound, since downstream verdicts test ci_low > 0.
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == total else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class HittingEstimate:
    """Replica-based estimate of a first-return hitting probability."""

    hits: int
    replicas: int
    estimate: float
    ci_low: float
    ci_high: float
    max_steps: int

    @classmethod
    def from_counts(cls, hits: int, replicas: int, max_steps: int) -> "HittingEstimate":
        low, high = wilson_interval(hits, replicas)
        return cls(hits, replicas, hits / replicas, low, high, max_steps)


def _root_seed(seed: int | np.random.SeedSequence | None) -> np.random.SeedSequence:
    """``seed`` as a seed sequence; one already (anything with a spawn key) is kept as it is."""
    return seed if hasattr(seed, "spawn_key") else np.random.SeedSequence(seed)


def _replica_seed(seed: int | np.random.SeedSequence | None, *key: int) -> np.random.SeedSequence:
    """The stream at spawn key ``key`` below ``seed``: what ``spawn`` gives a fresh root.

    This is the package's one seed-derivation rule; for an int ``s`` it
    is ``SeedSequence(s, spawn_key=key)``.  Unlike ``spawn`` it leaves a
    seed sequence untouched, so passing the same one twice gives the
    same result.  It is the reference that :func:`_replica_rngs` derives
    in batches and checks against.
    """
    root = _root_seed(seed)
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + key, pool_size=root.pool_size
    )


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Replicas per block.  A lockstep block keeps a generator and rows of
# uniforms and points alive for each of its replicas, and
# :func:`_replica_rngs` hashes the seed words of one block in one NumPy
# pass, so the size bounds the memory of both whatever the replica count.
_BLOCK = 512


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


def _word_count(value: object) -> int:
    """How many 32-bit words SeedSequence makes of an entropy or spawn-key value."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_word_count(v) for v in value)


def _hash_constants(first: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants ``count`` successive SeedSequence hashes xor and multiply by."""
    powers = [first * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)]
    return np.array(powers[:-1], dtype=np.uint32), np.array(powers[1:], dtype=np.uint32)



def _replica_words(root: np.random.SeedSequence, indices: np.ndarray) -> np.ndarray:
    """``_replica_seed(root, i).generate_state(4, np.uint64)`` for every index, one row each.

    A child's assembled entropy is the root's (padded to the pool size)
    plus one final word, the index, so its pool is ``root.pool`` with
    that word mixed into each pool word under the hash constants that
    follow the root's words.  Those constants depend only on word
    counts, so the mix and the output hash run in ``uint32`` over all
    indices and pool words at once.
    """
    size = root.pool_size
    extra = max(_word_count(root.entropy), size) - size + _word_count(root.spawn_key)
    # The root's words took size * (size + extra) hashes: one per pool
    # word, one per ordered pair of pool words, one per pool word for
    # each word beyond the pool.
    after_root = _INIT_A * pow(_MULT_A, size * (size + extra), 1 << 32)
    xor_a, mul_a = _hash_constants(after_root, _MULT_A, size)
    word = (indices.astype(np.uint32)[:, None] ^ xor_a) * mul_a
    word ^= word >> 16
    mixed = root.pool * np.uint32(_MIX_L) - word * np.uint32(_MIX_R)
    pool = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64) hashes eight words, cycling the pool.
    xor_b, mul_b = _hash_constants(_INIT_B, _MULT_B, 8)
    state = (pool[:, np.arange(8) % size] ^ xor_b) * mul_b
    state ^= state >> 16
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _replica_rngs(
    root: np.random.SeedSequence, indices: Sequence[int]
) -> Iterator[np.random.Generator]:
    """One generator per replica index, each on its ``_replica_seed`` stream.

    Seed words are derived a block at a time by :func:`_replica_words` and each
    generator is built only when the loop asks for it.  The first index
    is checked against ``_replica_seed`` itself, and a mismatch raises
    ``RuntimeError``; an index outside ``0 <= i < 2**32`` raises
    ``ValueError``, since it would take more than one spawn-key word.
    """
    seeded = _words_seed_type()
    for k in range(0, len(indices), _BLOCK):
        batch = np.asarray(indices[k:k + _BLOCK], dtype=np.int64)
        if batch.min() < 0 or batch.max() > _MASK32:
            raise ValueError("replica indices must lie in [0, 2**32)")
        words = _replica_words(root, batch)
        if k == 0:
            expected = _replica_seed(root, int(batch[0])).generate_state(4, np.uint64)
            if words[0].tolist() != expected.tolist():
                raise RuntimeError(f"batch seed words of replica {batch[0]} differ from "
                                   "its SeedSequence's")
        for row in words:
            yield np.random.Generator(np.random.PCG64(seeded(row)))


def _lockstep_target(
    model: RateModel, target: TargetSet, max_size: int
) -> tuple[bool, list[tuple[np.ndarray, float]]] | None:
    """The target as lockstep data, or None when the input needs the scalar kernel.

    The lockstep backend covers the plain d=1 contact model (no
    crowding), with targets built from the empty singleton and balls as
    layer sets (``hitting_estimate`` has refused balls of another
    dimension); everything else, box shapes included, runs on the scalar
    kernel.  So does a model whose total jump rate may overflow at up to
    ``max_size`` (at most ``2**53``) points, so that kernel alone refuses:
    the block's total at k points is at most ``(1 + k * 2**-53) * jump_rate_sup(k)``.
    """
    if (type(model) is not ContactModel or model.dimension != 1 or model.crowding_death != 0.0
            or not 2.0 * model.jump_rate_sup(max_size) < math.inf):
        return None
    empty = False
    balls = []
    for piece in target.pieces:
        shape = piece.shape if type(piece) is LayerSet else None
        if type(shape) is EmptySingleton:
            empty = True
        elif type(shape) is BallSet:
            center = np.array([p[0] for p in shape.ball.center.points])
            balls.append((center, shape.ball.radius))
        else:
            return None
    return empty, balls


def _count_hits(
    initial: Configuration,
    model: RateModel,
    target: TargetSet,
    max_steps: int,
    rngs: Iterable[np.random.Generator],
) -> int:
    """Replicas, one per generator, that enter ``target`` within ``max_steps``.

    A lockstep block hands its last few live replicas back mid-run;
    they finish on the scalar kernel from where the block left them.
    """
    walks = ((initial, _own_stream(rng, model), max_steps) for rng in rngs)
    hits = 0
    spec = _lockstep_target(model, target, min(len(initial) + max_steps, 2**53))
    if spec is not None:
        initial_xs = [p[0] for p in initial.points]
        hits, steps, tail = _lockstep.count_hits(initial_xs, model, *spec, max_steps, list(rngs))
        walks = (
            (Configuration._wrap(tuple((x,) for x in xs)), reader, max_steps - steps)
            for xs, reader in tail
        )
    member = target.membership
    for state, rng, budget in walks:
        for moved, _, _ in _walk(state, model, rng, budget):
            if member(moved):
                hits += 1
                break
    return hits


def hitting_estimate(
    initial: Configuration,
    target: TargetSet,
    model: RateModel,
    max_steps: int,
    replicas: int,
    seed: int | np.random.SeedSequence | None,
) -> HittingEstimate:
    """Estimate the probability of reaching ``target`` within ``max_steps``.

    Runs independent replicas, each on its own stream derived from the
    seed by replica index (the seed itself is left untouched), and
    wraps the hit count in a Wilson 95% interval.  A block's streams
    are derived in one batch, bit-identical to ``_replica_seed`` and
    self-checked against it.  Truncation at ``max_steps`` makes this a
    lower-bound proxy for the untruncated hitting probability.
    ``max_steps`` and ``replicas`` must be integers of at least 1, and
    a start or target piece of another dimension than the model's raises
    ``ValueError`` before any replica runs.

    Replicas run in blocks of at most 512, one after another in this
    process.  For a :class:`~birthdeath.rates.ContactModel` in d=1
    without crowding and a target made of empty-singleton and ball
    :class:`LayerSet` pieces, a block advances in lockstep as NumPy
    arrays; every other input runs the scalar kernel one replica at a
    time.  Each replica reads its stream in the scalar kernel's order,
    so both backends give bit-identical hit counts, which do not depend
    on where the blocks split.
    """
    _check_start(initial, model)
    _check_target(target.pieces, model)
    max_steps = _whole_number(max_steps, "max_steps", 1)
    replicas = _whole_number(replicas, "replicas", 1)
    root = _root_seed(seed)
    hits = sum(
        _count_hits(initial, model, target, max_steps,
                    _replica_rngs(root, range(k, min(k + _BLOCK, replicas))))
        for k in range(0, replicas, _BLOCK)
    )
    return HittingEstimate.from_counts(hits, replicas, max_steps)
