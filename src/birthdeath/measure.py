"""The layered reference measure on finite configurations.

The measure weighs the layer of n-point configurations by the n-fold
product Lebesgue measure of ordered tuples divided by n!, and gives the
single empty configuration unit mass.  Summed over all layers it is an
infinite measure, so nothing here tries to sample from it directly.
Bounded sets are evaluated exactly where the geometry allows
(:func:`lp_measure_exact`) and by Monte Carlo otherwise
(:func:`lp_measure_estimate`); :func:`lp_measure` picks between them
for a layer set.  The Poisson point process restricted to
a bounded window acts as the normalized companion distribution and is
what :func:`sample_poisson_config` draws from.

Consistency with the ordered-tuple picture: for a purely symmetric set
``A`` on layer n, the ordered-tuple Lebesgue measure of its preimage
under the order-forgetting projection equals ``n!`` times the value
returned here.
"""

from __future__ import annotations

import abc
import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configurations import (
    EMPTY,
    Configuration,
    Point,
    RhoBall,
    _perfect_matching_exists,
    _real,
    _whole_number,
    as_point,
    in_ball,
    unit_ball_volume,
)

__all__ = [
    "TargetPiece",
    "BoxRegion",
    "BallRegion",
    "Shape",
    "EmptySingleton",
    "AllInRegion",
    "ProductOfDisjointBoxes",
    "BallSet",
    "LayerSet",
    "MeasureEstimate",
    "UnsupportedExactEvaluation",
    "lp_measure",
    "lp_measure_exact",
    "lp_measure_estimate",
    "sample_poisson_config",
    "sample_in_ball",
    "ball_window",
]


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box with positive volume."""

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        lower = as_point(self.lower)
        upper = as_point(self.upper)
        if len(lower) != len(upper):
            raise ValueError("box corners must share one dimension")
        if not all(lo < up for lo, up in zip(lower, upper)):
            raise ValueError("box needs lower < upper on every axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return math.prod(up - lo for lo, up in zip(self.lower, self.upper))

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies in the closed box; a point of another dimension raises."""
        if len(point) != len(self.lower):
            raise ValueError(
                f"point and box live in different spaces "
                f"(dimensions {len(point)} and {len(self.lower)})"
            )
        for lo, c, up in zip(self.lower, point, self.upper):
            if not lo <= c <= up:
                return False
        return True


@dataclass(frozen=True)
class BallRegion:
    """Closed Euclidean ball used as an integration region."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", _real(self.radius, "ball radius", 0.0, strict=True))

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dimension) * self.radius ** self.dimension

    def contains(self, point: Sequence[float]) -> bool:
        return math.dist(self.center, point) <= self.radius


def sample_in_ball(center: Sequence[float], radius: float, rng: np.random.Generator) -> Point:
    """Draw a uniform point in the closed Euclidean ball from ``rng.random()`` calls alone.

    d=1: one offset.  d=2: an angle ``2 pi u``, then a distance
    ``radius * sqrt(u')``.  d >= 3: Box-Muller pairs (magnitude
    ``sqrt(-2 log(1-u))``, angle ``2 pi u'``) cut to d coordinates and
    normalised, redrawn if all zero, then a distance ``radius * u'' ** (1/d)``.
    """
    d = len(center)
    random = rng.random
    if d == 1:
        return (float(center[0] + radius * (2.0 * random() - 1.0)),)
    if d == 2:
        angle, scale = math.tau * random(), radius * math.sqrt(random())
        return (center[0] + scale * math.cos(angle), center[1] + scale * math.sin(angle))
    while True:
        direction = []
        for _ in range((d + 1) // 2):
            magnitude, angle = math.sqrt(-2.0 * math.log(1.0 - random())), math.tau * random()
            direction += (magnitude * math.cos(angle), magnitude * math.sin(angle))
        del direction[d:]
        norm = math.hypot(*direction)
        if norm > 0.0:
            break
    scale = radius * random() ** (1.0 / d) / norm
    return tuple([c + scale * v for c, v in zip(center, direction)])


# --- layer sets -------------------------------------------------------


class TargetPiece(abc.ABC):
    """One membership test a target set is built from."""

    # The least and greatest dimension the piece fits; a greatest of None fits every one above.
    dimensions: tuple[int, int | None]

    @abc.abstractmethod
    def contains(self, state: Configuration) -> bool: ...

    @abc.abstractmethod
    def label(self) -> str: ...


class UnsupportedExactEvaluation(Exception):
    """Raised when a layer set has no closed-form measure."""


class Shape(abc.ABC):
    """The geometry of a layer set: its membership, label and exact measure on a layer."""

    # The one layer the shape fits, or None when it fits every layer.
    fixed_layer: int | None
    # The dimension of the shape's points, or None when it has none and fits every dimension.
    dimension: int | None

    @abc.abstractmethod
    def contains(self, config: Configuration) -> bool:
        """Membership of ``config``, which :class:`LayerSet` passes only when it is on the set's layer."""

    @abc.abstractmethod
    def label(self, layer: int) -> str: ...

    @abc.abstractmethod
    def exact_measure(self, layer: int) -> float:
        """The closed-form measure; raises :class:`UnsupportedExactEvaluation` without one."""


@dataclass(frozen=True)
class EmptySingleton(Shape):
    """The one-member set holding only the empty configuration."""

    fixed_layer = 0
    dimension = None

    def contains(self, config: Configuration) -> bool:
        return True

    def label(self, layer: int) -> str:
        return "empty"

    def exact_measure(self, layer: int) -> float:
        return 1.0


@dataclass(frozen=True)
class AllInRegion(Shape):
    """All configurations of the layer's size with every point in ``region``."""

    region: BoxRegion
    fixed_layer = None

    @property
    def dimension(self) -> int:
        return self.region.dimension

    def contains(self, config: Configuration) -> bool:
        return all(map(self.region.contains, config.points))

    def label(self, layer: int) -> str:
        lower, upper = list(self.region.lower), list(self.region.upper)
        return f"all_in_region(layer={layer}, lower={lower!r}, upper={upper!r})"

    def exact_measure(self, layer: int) -> float:
        """``vol(region)**layer / layer!``.

        Where the power or the factorial leaves the float range, the
        quotient is taken in log space: 0.0 below the range, inf above.
        """
        volume = self.region.volume
        with contextlib.suppress(OverflowError):
            return volume ** layer / math.factorial(layer)
        log_volume = math.log(volume) if volume else -math.inf
        try:
            return math.exp(layer * log_volume - math.lgamma(layer + 1))
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ProductOfDisjointBoxes(Shape):
    """Configurations with exactly one point in each of n disjoint boxes."""

    boxes: tuple[BoxRegion, ...]

    def __post_init__(self) -> None:
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("need at least one box")
        dim = boxes[0].dimension
        for box in boxes:
            if box.dimension != dim:
                raise ValueError("all boxes must share one dimension")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _boxes_overlap(boxes[i], boxes[j]):
                    raise ValueError(f"boxes {i} and {j} overlap with positive volume")
        object.__setattr__(self, "boxes", boxes)

    @property
    def fixed_layer(self) -> int:
        return len(self.boxes)

    @property
    def dimension(self) -> int:
        return self.boxes[0].dimension

    def contains(self, config: Configuration) -> bool:
        # A point on a face two boxes share lies in both, so a perfect
        # matching of points to the boxes that hold them decides.
        return _perfect_matching_exists(
            [[j for j, box in enumerate(self.boxes) if box.contains(p)] for p in config.points]
        )

    def label(self, layer: int) -> str:
        boxes = ";".join(f"{list(box.lower)!r}..{list(box.upper)!r}" for box in self.boxes)
        return f"product_boxes({boxes})"

    def exact_measure(self, layer: int) -> float:
        return math.prod(box.volume for box in self.boxes)


def _boxes_overlap(a: BoxRegion, b: BoxRegion) -> bool:
    return all(
        min(ua, ub) - max(la, lb) > 0
        for la, ua, lb, ub in zip(a.lower, a.upper, b.lower, b.upper)
    )


@dataclass(frozen=True)
class BallSet(Shape):
    """A bottleneck-metric ball viewed as a subset of its layer."""

    ball: RhoBall

    @property
    def fixed_layer(self) -> int:
        return self.ball.layer

    @property
    def dimension(self) -> int:
        return self.ball.center.dimension

    def contains(self, config: Configuration) -> bool:
        return in_ball(config, self.ball)

    def label(self, layer: int) -> str:
        coords = ";".join(repr(list(p)) for p in self.ball.center.points)
        return f"ball(center=[{coords}], radius={self.ball.radius!r})"

    def exact_measure(self, layer: int) -> float:
        raise UnsupportedExactEvaluation(
            "metric balls have no closed-form measure; use lp_measure_estimate"
        )


@dataclass(frozen=True)
class LayerSet(TargetPiece):
    """A measurable set of configurations confined to one cardinality layer.

    Its shape decides membership and gives its label and exact measure.
    """

    layer: int
    shape: Shape

    def __post_init__(self) -> None:
        layer = _whole_number(self.layer, "layer", 0)
        object.__setattr__(self, "layer", layer)
        if not isinstance(self.shape, Shape):
            raise TypeError(f"unsupported shape: {self.shape!r}")
        fixed = self.shape.fixed_layer
        if fixed is not None and fixed != layer:
            raise ValueError(f"layer {layer} does not fit the shape, which sits on layer {fixed}")

    def contains(self, config: Configuration) -> bool:
        """Set membership for a concrete configuration; only one on the layer reaches the shape."""
        return len(config.points) == self.layer and self.shape.contains(config)

    @property
    def dimensions(self) -> tuple[int, int | None]:
        d = self.shape.dimension
        return (1, None) if d is None else (d, d)

    def label(self) -> str:
        return self.shape.label(self.layer)


def lp_measure_exact(layer_set: LayerSet) -> float:
    """Closed-form measure of a layer set.

    The empty singleton has measure 1.  A layer-n all-in-region set has
    measure ``vol(region)**n / n!``.  A product of n disjoint boxes has
    measure equal to the product of the box volumes.  Metric balls have
    no closed form here and raise :class:`UnsupportedExactEvaluation`;
    use :func:`lp_measure_estimate` for those.
    """
    return layer_set.shape.exact_measure(layer_set.layer)


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte Carlo measure estimate with its standard error."""

    value: float
    std_error: float
    samples: int
    hits: int


def ball_window(ball: RhoBall) -> BoxRegion:
    """The bounding box of the ball's center, padded by the radius: it holds every member."""
    center, pad = ball.center, ball.radius
    axes = range(center.dimension)
    return BoxRegion(
        tuple(min(p[k] for p in center) - pad for k in axes),
        tuple(max(p[k] for p in center) + pad for k in axes),
    )


# Samples sorted, checked and turned into Python points per pass, which
# bounds the Python objects alive at once.
_SAMPLE_BLOCK = 4096
# Draws in a row that repeat a point (a sample's, or a newborn on an
# occupied one) before the window or the model is refused.
_REDRAWS = 1000


def _distinct_draw(rng: np.random.Generator, window: BoxRegion, count: int) -> tuple[Point, ...]:
    """``count`` window-uniform points, sorted, drawn again while two coincide, at most 1000 times."""
    for _ in range(_REDRAWS):
        rows = rng.uniform(window.lower, window.upper, size=(count, window.dimension)).tolist()
        pts = tuple(sorted(map(tuple, rows)))
        if all(a != b for a, b in zip(pts, pts[1:])):
            return pts
    raise ValueError(f"window {window} cannot hold {count} distinct points: {_REDRAWS} draws repeated one")


def lp_measure_estimate(
    layer: int,
    window: BoxRegion,
    predicate: Callable[[Configuration], bool],
    samples: int,
    seed: int | np.random.SeedSequence | None = None,
) -> MeasureEstimate:
    """Monte Carlo estimate of the measure of a predicate-defined set.

    The target set is ``{config : |config| = layer, all points in
    window, predicate(config)}``.  The estimator draws ``samples``
    configurations of ``layer`` window-uniform points, scales the hit
    fraction by ``vol(window)**layer / layer!``, and reports the
    matching standard error.  Layer 0 is evaluated exactly.

    All draws come from one generator seeded with ``seed``, which is
    left untouched, so a fixed seed (or the same seed sequence passed
    twice) gives the same estimate.  All samples are drawn at once, then
    sorted lexicographically and checked for repeated points in NumPy,
    one block of samples at a time, and each block is streamed to the
    predicate with its point and sample tuples built lazily by ``zip``.
    A sample with a repeated point is redrawn, in sample order, until its
    points are distinct, before its block's predicate calls; after 1000
    redraws in a row, ``ValueError`` says the window cannot hold ``layer``
    distinct points.  The
    predicate is called once per sample, in sample order, on
    configurations bit-identical to sorting each sample's points in
    Python.  ``layer`` and ``samples`` are whole numbers, at least 0 and 1.
    """
    layer = _whole_number(layer, "layer", 0)
    samples = _whole_number(samples, "samples", 1)
    if layer == 0:
        hit = bool(predicate(EMPTY))
        return MeasureEstimate(1.0 if hit else 0.0, 0.0, samples, samples if hit else 0)
    scale = lp_measure_exact(LayerSet(layer, AllInRegion(window)))
    rng = np.random.default_rng(seed)
    d = window.dimension
    drawn = rng.uniform(window.lower, window.upper, size=(samples, layer, d))
    hits = 0
    for start in range(0, samples, _SAMPLE_BLOCK):
        block = drawn[start:start + _SAMPLE_BLOCK]
        # np.lexsort takes its primary key last: axis 0 of the points.
        order = np.lexsort(block[:, :, ::-1].transpose(2, 0, 1), axis=-1)
        block = np.take_along_axis(block, order[:, :, None], axis=1)
        repeated = (block[:, 1:] == block[:, :-1]).all(axis=2).any(axis=1)
        flat = block.reshape(-1, d)
        # zip builds the points and groups them into samples lazily, in C.
        points = zip(*[flat[:, k].tolist() for k in range(d)])
        configs = zip(*[points] * layer)
        if repeated.any():
            configs = list(configs)
            for i in np.flatnonzero(repeated).tolist():
                configs[i] = _distinct_draw(rng, window, layer)
        for pts in configs:
            if predicate(Configuration._wrap(pts)):
                hits += 1
    frac = hits / samples
    # Where every sample or none hits, the error is zero even for an
    # infinite scale, and so is the value where none does.
    std_error = scale * math.sqrt(frac * (1.0 - frac) / samples) if 0 < hits < samples else 0.0
    return MeasureEstimate(scale * frac if hits else 0.0, std_error, samples, hits)


def lp_measure(layer_set: LayerSet, samples: int,
               seed: int | np.random.SeedSequence | None = None) -> MeasureEstimate:
    """The measure of a layer set: its closed form where one exists, else an estimate.

    A closed form comes back with 0 samples and a 0.0 error.  A ball is
    estimated by :func:`lp_measure_estimate` from ``samples`` draws over
    its :func:`ball_window`, the tightest box that holds the whole set.
    """
    samples = _whole_number(samples, "samples", 1)
    try:
        return MeasureEstimate(lp_measure_exact(layer_set), 0.0, 0, 0)
    except UnsupportedExactEvaluation:
        window = ball_window(layer_set.shape.ball)
    return lp_measure_estimate(layer_set.layer, window, layer_set.contains, samples, seed)


def sample_poisson_config(
    intensity: float,
    window: BoxRegion,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
) -> Configuration:
    """Draw one configuration from the Poisson point process on a window.

    The point count is Poisson with mean ``intensity * window.volume``
    and the points are independent uniforms in the window.  This is the
    normalized stand-in for the (infinite) reference measure when test
    states are needed.  A draw with a repeated point is redrawn, at most
    1000 times.
    """
    intensity = _real(intensity, "intensity", 0.0, strict=True)
    rng = np.random.default_rng(rng)
    count = int(rng.poisson(intensity * window.volume))
    if count == 0:
        return EMPTY
    return Configuration._wrap(_distinct_draw(rng, window, count))
