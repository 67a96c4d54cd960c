"""Admissible single-change paths and certified corridor bounds.

A path is a finite sequence of configurations.  It is valid under a
model when consecutive entries differ by exactly one point, an added
point falls within half the model's interaction radius of some point
of the previous entry, and the only exit from the empty configuration
is the model's immigration center; :func:`check_path` judges a path
against the model it is certified for.  :func:`build_path` constructs
such a path from empty to any goal configuration by walking evenly
spaced waypoints out from the anchor and deleting the scaffold
afterwards, with a certified length cap.  The corridor machinery turns
a valid path into an explicit lower bound on the probability that the
chain tracks it inside bottleneck balls of a chosen radius, which is
what makes reachability claims quantitative rather than anecdotal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    HittingEstimate,
    TargetSet,
    _check_start,
    _check_target,
    _count,
    _root_seed,
)
from .configurations import (
    EMPTY,
    Configuration,
    Point,
    RhoBall,
    _real,
    _whole_number,
    as_point,
    unit_ball_volume,
)
from .measure import BallSet, EmptySingleton, LayerSet
from .rates import RateModel

__all__ = [
    "Path",
    "check_path",
    "build_path",
    "path_length_cap",
    "corridor_step_bound",
    "corridor_prob_lower_bound",
    "corridor_event_frequency",
]


@dataclass(frozen=True)
class Path:
    """A sequence of configurations meant to differ by one point per step."""

    vertices: tuple[Configuration, ...]

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        object.__setattr__(self, "vertices", vertices)

    @property
    def length(self) -> int:
        """Number of steps, one less than the number of vertices."""
        return len(self.vertices) - 1

    @property
    def start(self) -> Configuration:
        return self.vertices[0]

    @property
    def final(self) -> Configuration:
        return self.vertices[-1]


def check_path(path: Path, model: RateModel) -> None:
    """Raise ``ValueError`` at the first step that breaks a single-change rule of ``model``.

    The error names the later vertex of the first bad transition.
    Rules: consecutive vertices differ by exactly one point; an added
    point lies within half the model's interaction radius of some point
    of the previous vertex; the empty configuration exits only to the
    singleton at the model's immigration center.
    """
    half = model.interaction_radius / 2.0
    anchor = model.immigration_region.center
    for k in range(1, len(path.vertices)):
        before, after = set(path.vertices[k - 1].points), set(path.vertices[k].points)
        added = after - before
        if not before:
            if after == {anchor}:
                continue
            reason = "empty state must exit to the immigration center"
        elif len(added) + len(before - after) != 1:
            reason = "consecutive vertices must differ by exactly one point"
        elif any(min(math.dist(p, q) for q in before) > half for p in added):
            reason = "added point sits farther than half the interaction radius from the previous vertex"
        else:
            continue
        raise ValueError(f"path is invalid at vertex {k}: {reason}")


def path_length_cap(goal: Configuration, interaction_radius: float, anchor: Point) -> int:
    """Certified cap on the length of the constructed path to ``goal``.

    Twice the sum over goal points of the waypoint count (distance to
    the anchor divided by a quarter radius, rounded up) plus the goal
    size.
    """
    anchor = as_point(anchor)
    quarter = interaction_radius / 4.0
    total = sum(math.ceil(math.dist(p, anchor) / quarter) for p in goal)
    return 2 * (total + len(goal))


# The most quarter radii build_path walks: its vertices hold O(length**2)
# points, and past 1074 steps a corridor bound (at most 1/2 a step) is 0.0.
_MAX_QUARTERS = 4096


def build_path(
    goal: Configuration, interaction_radius: float, anchor: Sequence[float]
) -> Path:
    """Construct a valid path from the empty configuration to ``goal``.

    Starting at the anchor, the builder walks a chain of waypoints
    spaced at most a quarter of the interaction radius toward each goal
    point (so every insertion stays well within the half-radius rule),
    then deletes the scaffold in reverse insertion order.  The result
    always validates and its length never exceeds
    :func:`path_length_cap`.  A goal whose distances from the anchor sum
    to more than 4096 quarter radii raises ``ValueError``.
    """
    anchor_pt = as_point(anchor)
    radius = _real(interaction_radius, "interaction_radius", 0.0, strict=True)
    if len(goal) and len(anchor_pt) != goal.dimension:
        raise ValueError("anchor dimension must match the goal configuration")
    if len(goal) == 0:
        return Path((EMPTY,))
    quarter = radius / 4.0
    reach = sum(math.dist(p, anchor_pt) for p in goal) / quarter if quarter else math.inf
    if not reach <= _MAX_QUARTERS:
        raise ValueError(f"the goal lies {reach:.6g} quarter radii from the anchor, more than {_MAX_QUARTERS}")

    vertices = [EMPTY]
    current: list[Point] = []
    present: set[Point] = set()

    def insert(point: Point) -> None:
        current.append(point)
        present.add(point)
        vertices.append(Configuration(current))

    insert(anchor_pt)
    for target in goal.points:
        if target in present:
            continue
        span = math.dist(target, anchor_pt)
        count = max(1, math.ceil(span / quarter))
        for i in range(1, count + 1):
            if i == count:
                waypoint = target
            else:
                t = i / count
                waypoint = tuple(
                    a + t * (b - a) for a, b in zip(anchor_pt, target)
                )
            if waypoint in present:
                continue
            insert(waypoint)

    goal_set = set(goal.points)
    # ``current`` is in insertion order, so the scaffold leaves in reverse.
    scaffold = [p for p in current if p not in goal_set]
    for point in reversed(scaffold):
        current.remove(point)
        vertices.append(Configuration(current))
    return Path(tuple(vertices))


def corridor_step_bound(model: RateModel, ball_radius: float, max_size: int) -> float:
    """Uniform per-step lower bound on tracking a valid path.

    For any transition of a valid path, the chain moves from anywhere
    in the bottleneck ball of radius ``ball_radius`` around one vertex
    into the ball around the next with probability at least this
    value: the smaller of the guaranteed birth mass into a matching
    ball and the death-rate floor, both normalized by the largest jump
    mass over states of size at most ``max_size``.  Requires the ball
    radius to stay below a quarter of the interaction radius, which is
    what keeps newborn points within reach of the birth-rate floor.
    The birth ball is capped by the immigration radius so that the exit
    step from the empty configuration is covered as well.
    """
    radius = _real(ball_radius, "ball_radius")
    if not 0 < radius < model.interaction_radius / 4.0:
        raise ValueError("ball_radius must sit strictly between 0 and a quarter radius")
    sup = _real(model.jump_rate_sup(max_size), "the jump-rate bound", 0.0, strict=True)
    effective = min(radius, model.immigration_region.radius)
    birth_branch = (
        model.birth_floor * unit_ball_volume(model.dimension) * effective ** model.dimension
    )
    death_branch = model.death_rate_inf()
    return min(birth_branch, death_branch) / sup


def corridor_prob_lower_bound(path: Path, ball_radius: float, model: RateModel) -> float:
    """Certified lower bound on the corridor event along a path valid under ``model``.

    The corridor event keeps the chain inside the bottleneck ball of
    ``ball_radius`` around vertex k after step k, for every step.  The
    bound is the per-step bound raised to the path length, with the
    population cap set to one more than the largest vertex size.  A
    bound that is not positive (a zero death floor, or underflow)
    certifies nothing and raises ``ValueError``, and so does a path of
    another dimension than the model or one that :func:`check_path`
    refuses.
    """
    for vertex in path.vertices:
        _check_start(vertex, model)
    check_path(path, model)
    max_size = 1 + max(len(v) for v in path.vertices)
    bound = corridor_step_bound(model, ball_radius, max_size) ** path.length
    if not bound > 0:
        raise ValueError(f"the corridor bound {bound!r} is not positive and certifies nothing")
    return bound


def corridor_event_frequency(
    path: Path,
    ball_radius: float,
    model: RateModel,
    replicas: int,
    seed: int | np.random.SeedSequence | None,
) -> HittingEstimate:
    """Empirical frequency of the corridor event along a path.

    Starts replicas at the path's first vertex and counts the runs that
    stay inside the per-step bottleneck balls the whole way, whether or
    not the path obeys the single-change rules; the count
    is wrapped in a Wilson 95% interval.  Lower bounds certified by
    :func:`corridor_prob_lower_bound` should land at or below this
    frequency up to Monte Carlo error.  A path of another dimension than
    the model raises ``ValueError`` before any replica runs.

    ``ball_radius`` must be a finite number above 0, checked before any
    replica runs, even on a path with no ball cell.

    Replicas run on :func:`~birthdeath.chain._count`, the replica loop
    of :func:`~birthdeath.chain.hitting_estimate`, which stops a replica
    once it leaves the ball of its step and picks the backend; a path of
    one vertex takes no step and counts every replica.
    """
    _check_start(path.start, model)
    radius = _real(ball_radius, "ball_radius", 0.0, strict=True)
    replicas = _whole_number(replicas, "replicas", 1)
    cells = [
        LayerSet(len(vertex), BallSet(RhoBall(vertex, radius)) if len(vertex) else EmptySingleton())
        for vertex in path.vertices[1:]
    ]
    _check_target(cells, model)
    hits = _count(path.start, model, [TargetSet((cell,)) for cell in cells], False, len(cells),
                  _root_seed(seed), replicas)
    return HittingEstimate.from_counts(hits, replicas, len(cells))
