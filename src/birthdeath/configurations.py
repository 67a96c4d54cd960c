"""Finite point configurations and the bottleneck matching metric.

A configuration is a finite set of pairwise distinct points in R^d.
Points are plain tuples of floats, and a configuration keeps them in
lexicographic order, so two configurations holding the same point set
compare equal, hash equal, and serialize identically.  The distance
between two configurations of the same size is the bottleneck matching
cost: the smallest achievable worst-case displacement over all pairings
of the two point sets.  Configurations of different sizes are
infinitely far apart, and metric balls therefore never cross between
cardinality layers.
"""

from __future__ import annotations

import contextlib
import math
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

Point = tuple[float, ...]

__all__ = [
    "EMPTY",
    "Point",
    "Configuration",
    "RhoBall",
    "as_point",
    "distance_rho",
    "in_ball",
    "unit_ball_volume",
]


def _real(value: object, name: str, lower: float | None = None, strict: bool = False) -> float:
    """``float(value)``, finite, not from a boolean (NumPy's neither), and at least ``lower``
    (above it when ``strict``); anything else raises ``ValueError`` naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a boolean, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if lower is not None and not (number > lower if strict else number >= lower):
        raise ValueError(f"{name} must be {'above' if strict else 'at least'} {lower!r}, got {value!r}")
    return number


def _whole_number(value: object, name: str, minimum: int) -> int:
    """``value`` as a Python int of at least ``minimum``; booleans and fractional numbers raise."""
    boolean = isinstance(value, (bool, np.bool_))
    if not boolean:
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            number = int(value)
            if number == value and number >= minimum:
                return number
    wanted = "a nonnegative integer" if minimum == 0 else f"an integer of at least {minimum}"
    raise ValueError(f"{name} must be {wanted}{', not a boolean' if boolean else ''}, got {value!r}")


def as_point(coords: Iterable[float]) -> Point:
    """Coerce ``coords`` into a point, a tuple of finite floats (not booleans)."""
    point = tuple([_real(c, "a point coordinate") for c in coords])
    if not point:
        raise ValueError("a point needs at least one coordinate")
    return point


class Configuration:
    """An unordered finite set of distinct points in R^d.

    Distinctness means exact coordinate equality, so ``(0.0, 1.0)`` and
    ``(0.0, 1.0 + 1e-16)`` count as different points.  All points of a
    nonempty configuration must share one dimension.  Instances are
    immutable; the mutating-sounding methods return new configurations.
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[Iterable[float]] = ()):
        pts = sorted(as_point(p) for p in points)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"configuration points must be distinct, got {a!r} twice")
            if len(a) != len(b):
                raise ValueError("all points of a configuration must share one dimension")
        self._points = tuple(pts)

    @classmethod
    def _wrap(cls, sorted_points: tuple[Point, ...]) -> "Configuration":
        # Trusted fast path for internal callers that already hold a
        # sorted tuple of valid distinct points.
        cfg = object.__new__(cls)
        cfg._points = sorted_points
        return cfg

    def to_coord_lists(self) -> list[list[float]]:
        """Serialize as a plain list of coordinate lists (canonical order)."""
        return [list(p) for p in self._points]

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    @property
    def dimension(self) -> int | None:
        """Dimension of the ambient space, or None for the empty configuration."""
        return len(self._points[0]) if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __contains__(self, point: object) -> bool:
        try:
            return tuple(point) in self._points  # type: ignore[arg-type]
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._points == other._points
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"Configuration({list(self._points)!r})"

    def with_point(self, point: Iterable[float]) -> "Configuration":
        """Return a copy with ``point`` added.

        Raises ValueError if the point is already present or its
        dimension disagrees.
        """
        pt = as_point(point)
        if self._points:
            if len(pt) != len(self._points[0]):
                raise ValueError("added point has a different dimension")
            if pt in self._points:
                raise ValueError(f"point {pt!r} is already present")
        pts = list(self._points)
        insort(pts, pt)
        return Configuration._wrap(tuple(pts))

    def without_point(self, point: Iterable[float]) -> "Configuration":
        """Return a copy with ``point`` removed; the point must be present."""
        pt = as_point(point)
        try:
            idx = self._points.index(pt)
        except ValueError:
            raise ValueError(f"point {pt!r} is not in the configuration") from None
        return self.without_index(idx)

    def without_index(self, index: int) -> "Configuration":
        """Return a copy with the point at ``index`` (canonical order) removed."""
        pts = self._points
        if not 0 <= index < len(pts):
            raise IndexError(index)
        return Configuration._wrap(pts[:index] + pts[index + 1:])


EMPTY = Configuration()


@dataclass(frozen=True)
class RhoBall:
    """Closed bottleneck-metric ball around a nonempty configuration.

    Membership is restricted to configurations of the same cardinality
    as the center; see :func:`in_ball`.
    """

    center: Configuration
    radius: float

    def __post_init__(self) -> None:
        if not isinstance(self.center, Configuration):
            raise TypeError("center must be a Configuration")
        if len(self.center) == 0:
            raise ValueError("ball center must be a nonempty configuration")
        object.__setattr__(self, "radius", _real(self.radius, "ball radius", 0.0, strict=True))

    @property
    def layer(self) -> int:
        return len(self.center)


def _perfect_matching_exists(adjacency: list[list[int]]) -> bool:
    """Whether the bipartite graph in which left vertex i neighbours the
    right vertices ``adjacency[i]`` matches all n left vertices to the n
    right ones (classic augmenting-path search)."""
    n = len(adjacency)
    if not all(adjacency):
        return False
    match_of = [-1] * n

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adjacency[i]:
            if not seen[j]:
                seen[j] = True
                if match_of[j] < 0 or augment(match_of[j], seen):
                    match_of[j] = i
                    return True
        return False

    for i in range(n):
        if not augment(i, [False] * n):
            return False
    return True


def _check_same_dimension(first: Configuration, second: Configuration) -> None:
    if first.dimension != second.dimension:
        raise ValueError(
            f"configurations live in different spaces "
            f"(dimensions {first.dimension} and {second.dimension})"
        )


def distance_rho(first: Configuration, second: Configuration) -> float:
    """Bottleneck matching distance between two configurations.

    The distance is the minimum over all pairings of the two point sets
    of the largest single-point displacement, computed exactly.  In d=1
    the sorted pairing is an optimal one, and ``math.dist`` on 1-tuples
    is ``abs(x - y)`` with monotone rounding, so the distance is the
    largest ``abs(x - y)`` over the sorted points.  In d >= 2 the
    optimum is one of the pairwise Euclidean distances and at least the
    floor, the largest distance from a point of either set to the
    nearest point of the other.  The floor is tested first with a
    perfect-matching feasibility test; if it fails, a threshold binary
    search runs over the larger distances.

    Configurations of different sizes are at distance ``inf``; two empty
    configurations are at distance ``0.0``.  Two nonempty configurations
    from different spaces raise ``ValueError``, whatever their sizes.
    """
    n = len(first)
    if n and len(second):
        _check_same_dimension(first, second)
    if n != len(second):
        return math.inf
    if n == 0:
        return 0.0
    a = first.points
    b = second.points
    if len(a[0]) == 1:
        return max([abs(x - y) for (x,), (y,) in zip(a, b)])
    dist = math.dist
    rows = [[dist(x, y) for y in b] for x in a]
    floor = max(max(map(min, rows)), max(map(min, zip(*rows))))
    candidates = sorted({v for row in rows for v in row if v >= floor})
    lo, hi, mid = 0, len(candidates) - 1, 0
    while lo < hi:
        threshold = candidates[mid]
        if _perfect_matching_exists([[j for j, v in enumerate(row) if v <= threshold] for row in rows]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return candidates[lo]


def in_ball(candidate: Configuration, ball: RhoBall) -> bool:
    """Whether ``candidate`` lies in the closed bottleneck ball.

    Equivalent to ``distance_rho(candidate, ball.center) <= ball.radius``
    and decided from the same ``math.dist(x, y) <= radius`` comparisons,
    exact necessary conditions first.  The sorted points pair the sorted
    first coordinates, an optimal pairing of the projections onto the
    first axis, and ``math.dist(x, y) >= abs(x[0] - y[0])``, so one pass
    rejects at the first gap above the radius; in d=1 it is the whole
    test.  In d >= 2 a two-point ball is decided from its two pairings.
    Otherwise each candidate point scans the centers and stops at the
    first one within the radius, and a point with none rejects; a
    one-point candidate that passes is a member.  For more points each
    center then scans the candidate points the same way, and only then
    does a perfect matching of the points to their near centers decide.
    A candidate of a different cardinality is never a member.
    """
    a = candidate._points
    b = ball.center._points
    n = len(b)
    if len(a) != n:
        return False
    d = len(b[0])
    if len(a[0]) != d:
        _check_same_dimension(candidate, ball.center)
    radius = ball.radius
    for x, y in zip(a, b):
        if abs(x[0] - y[0]) > radius:
            return False
    if d == 1:
        return True
    dist = math.dist
    if n == 2:
        (x, u), (y, v) = a, b
        return ((dist(x, y) <= radius and dist(u, v) <= radius)
                or (dist(x, v) <= radius and dist(u, y) <= radius))
    for x in a:
        for y in b:
            if dist(x, y) <= radius:
                break
        else:
            return False
    if n == 1:
        return True
    for y in b:
        for x in a:
            if dist(x, y) <= radius:
                break
        else:
            return False
    # The scans stop at the first near partner, which rejects most
    # candidates early, so the near-center lists are built only here.
    return _perfect_matching_exists(
        [[j for j, y in enumerate(b) if dist(x, y) <= radius] for x in a]
    )


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit Euclidean ball in R^d.

    Examples: 2.0 in d=1, pi in d=2, 4*pi/3 in d=3.
    """
    d = _whole_number(dimension, "dimension", 1)
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)
