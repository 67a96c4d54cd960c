"""Birth and death rate models driving the jump chain.

A rate model assigns each configuration a birth intensity over
locations and a death rate per occupied point.  The jump chain picks
its next move by normalizing those masses, so a model must expose the
exact total birth mass, a sampler for the normalized birth density,
and per-point death rates.  Models also declare the constants behind
the four standing assumptions:

1. the total birth mass grows at most linearly in the population,
2. death rates stay bounded on bounded populations,
3. death rates stay above a positive floor,
4. the birth rate strictly exceeds a positive floor anywhere within
   the interaction radius of an occupied point, and on a fixed
   immigration ball when the configuration is empty.

:meth:`ContactModel.conditions` proves them from its parameters.
:func:`validate_conditions` probes them on sampled states of any model,
so its pass is evidence of conformance, not a proof.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configurations import (
    EMPTY,
    Configuration,
    Point,
    _real,
    _whole_number,
    as_point,
    unit_ball_volume,
)
from .measure import _REDRAWS, BallRegion, BoxRegion, UnsupportedExactEvaluation, sample_in_ball

__all__ = [
    "DegenerateStateError",
    "RateModel",
    "ContactModel",
    "ConditionCheck",
    "ConditionReport",
    "validate_conditions",
]


class DegenerateStateError(RuntimeError):
    """Raised when the chain cannot move: a total jump rate of 0 or not finite, or no free birth location."""


def _stuck_state(model: RateModel, size: int, total: float) -> DegenerateStateError:
    """The error for a state of ``size`` points whose total jump rate ``total`` is 0 or not finite."""
    return DegenerateStateError(f"a state of {size} points has total jump rate {total!r} under {model.describe()}")


def _crowded_birth(model: RateModel) -> DegenerateStateError:
    """The error for a birth whose ``_REDRAWS`` draws in a row all landed on occupied points."""
    return DegenerateStateError(
        f"{_REDRAWS} birth draws in a row landed on occupied points under {model.describe()}: "
        "its birth balls hold too few doubles for a new point"
    )


class RateModel(abc.ABC):
    """Interface for birth and death rates over finite configurations.

    Concrete models fix the ambient ``dimension``, the ``interaction_radius``
    within which occupied points boost the birth rate, the ``immigration_region``
    (a ball) where births stay available even from the empty state, and the
    declared condition constants ``birth_mass_slope``/``birth_mass_offset``
    (linear growth bound on the total birth mass) and ``birth_floor``
    (strict lower bound on birth rates near occupied points and on the
    immigration ball at the empty state).
    """

    dimension: int
    interaction_radius: float
    immigration_region: BallRegion
    birth_floor: float
    birth_mass_slope: float
    birth_mass_offset: float

    @abc.abstractmethod
    def birth_rate(self, location: Sequence[float], state: Configuration) -> float:
        """Birth intensity at ``location`` given the current ``state``."""

    @abc.abstractmethod
    def death_rate(self, point: Sequence[float], state: Configuration) -> float:
        """Death rate of the occupied ``point`` in ``state``."""

    @abc.abstractmethod
    def total_birth_mass(self, state: Configuration) -> float:
        """Integral of the birth rate over all locations, exactly."""

    @abc.abstractmethod
    def sample_birth_location(self, state: Configuration, rng: np.random.Generator) -> Point:
        """Draw a location from the normalized birth density of ``state``."""

    @abc.abstractmethod
    def death_rate_inf(self) -> float:
        """Declared positive lower bound on death rates (condition 3)."""

    @abc.abstractmethod
    def death_rate_sup(self, max_size: int) -> float:
        """Declared upper bound on death rates over states of size <= max_size."""

    def death_rates(self, state: Configuration) -> list[float]:
        """Per-point death rates in the canonical point order."""
        return [self.death_rate(p, state) for p in state]

    def total_death_mass(self, state: Configuration) -> float:
        return sum(self.death_rates(state))

    def jump_rate(self, state: Configuration) -> float:
        """Total jump mass, births plus deaths, of ``state``."""
        return self.total_birth_mass(state) + self.total_death_mass(state)

    def jump_rate_sup(self, max_size: int) -> float:
        """Upper bound on the jump rate over states of size <= max_size.

        Uses the declared linear birth bound plus the declared death cap;
        both grow with the population, so the bound is tight at max_size.
        """
        m = _whole_number(max_size, "max_size", 0)
        return (
            self.birth_mass_slope * m
            + self.birth_mass_offset
            + m * self.death_rate_sup(m)
        )

    def birth_mass_in_region(self, state: Configuration, region: BoxRegion | BallRegion | None) -> float:
        """Integral of the birth rate over ``region``, exactly.

        ``None`` means the whole space.  A region gets the closed form of
        :meth:`_exact_birth_mass_in_region`; where the model has none,
        :class:`~birthdeath.measure.UnsupportedExactEvaluation` is raised.
        A region of another dimension than the model raises ``ValueError``.
        """
        if region is None:
            return self.total_birth_mass(state)
        if region.dimension != self.dimension:
            raise ValueError(f"region and model live in different spaces "
                             f"(dimensions {region.dimension} and {self.dimension})")
        exact = self._exact_birth_mass_in_region(state, region)
        if exact is None:
            raise UnsupportedExactEvaluation(f"no closed-form birth mass over {region} under {self.describe()}")
        return exact

    def _exact_birth_mass_in_region(
        self, state: Configuration, region: BoxRegion | BallRegion
    ) -> float | None:
        """The birth mass over ``region`` in closed form, or None where the model has none."""
        return None

    @abc.abstractmethod
    def describe(self) -> str:
        """Stable one-line fingerprint of the model and its parameters."""


def _ball_region_relation(component: BallRegion, region: BoxRegion | BallRegion) -> str:
    """Classify a rate-component ball against an integration region.

    Returns "inside" when the ball is contained in the region,
    "disjoint" when they cannot intersect, and "partial" otherwise.
    The tests are conservative on the boundary, which only matters on
    null sets of locations.
    """
    c = component.center
    if isinstance(region, BallRegion):
        gap = math.dist(c, region.center)
        if gap + component.radius <= region.radius:
            return "inside"
        if gap > component.radius + region.radius:
            return "disjoint"
        return "partial"
    nearest_sq = 0.0
    inside = True
    for lo, up, x in zip(region.lower, region.upper, c):
        if x < lo:
            nearest_sq += (lo - x) ** 2
            inside = False
        elif x > up:
            nearest_sq += (x - up) ** 2
            inside = False
        else:
            inside = inside and (lo + component.radius <= x <= up - component.radius)
    if inside:
        return "inside"
    return "disjoint" if math.sqrt(nearest_sq) > component.radius else "partial"


class ContactModel(RateModel):
    """Nearest-neighbor contact rates with constant immigration.

    Births arrive with intensity ``immigration_intensity`` anywhere in
    the immigration ball, plus ``neighbor_intensity`` for every occupied
    point within ``interaction_radius`` of the location.  Each occupied
    point dies at ``baseline_death`` plus ``crowding_death`` per
    neighbor within the same radius.  All masses have closed forms, so
    simulation and the probability bounds stay exact.
    """

    def __init__(
        self,
        dimension: int = 1,
        interaction_radius: float = 1.0,
        immigration_intensity: float = 0.8,
        neighbor_intensity: float = 0.1,
        baseline_death: float = 1.0,
        crowding_death: float = 0.0,
        immigration_center: Sequence[float] | None = None,
        immigration_radius: float = 0.5,
        birth_floor: float | None = None,
    ) -> None:
        self.dimension = _whole_number(dimension, "dimension", 1)
        self.interaction_radius = _real(interaction_radius, "interaction_radius", 0.0, strict=True)
        self.immigration_intensity = _real(immigration_intensity, "immigration_intensity", 0.0, strict=True)
        self.neighbor_intensity = _real(neighbor_intensity, "neighbor_intensity", 0.0, strict=True)
        self.baseline_death = _real(baseline_death, "baseline_death", 0.0)
        self.crowding_death = _real(crowding_death, "crowding_death", 0.0)
        if immigration_center is None:
            immigration_center = (0.0,) * self.dimension
        center = as_point(immigration_center)
        if len(center) != self.dimension:
            raise ValueError("immigration_center dimension mismatch")
        radius = _real(immigration_radius, "immigration_radius", 0.0, strict=True)
        if any(c - radius == c + radius for c in center):
            raise ValueError(f"immigration_radius {radius!r} is below the spacing of doubles at immigration_center")
        self.immigration_region = BallRegion(center, radius)
        if birth_floor is None:
            birth_floor = 0.5 * min(self.immigration_intensity, self.neighbor_intensity)
        self.birth_floor = _real(birth_floor, "birth_floor")
        if not 0 < self.birth_floor < min(self.immigration_intensity, self.neighbor_intensity):
            raise ValueError(
                "birth_floor must sit strictly between zero and the smaller intensity"
            )
        # Both masses must be positive and finite, so every state has a
        # positive total jump mass and the chain can always move.
        try:
            ball = unit_ball_volume(self.dimension)
            immigration = self.immigration_intensity * ball * radius ** self.dimension
            per_neighbor = self.neighbor_intensity * ball * self.interaction_radius ** self.dimension
        except OverflowError as err:
            raise ValueError(f"birth masses overflow in dimension {self.dimension}") from err
        self._immigration_mass = _real(immigration, "the immigration birth mass", 0.0, strict=True)
        self._per_neighbor_mass = _real(per_neighbor, "the per-neighbor birth mass", 0.0, strict=True)
        self.birth_mass_slope = self._per_neighbor_mass
        self.birth_mass_offset = self._immigration_mass

    def birth_rate(self, location: Sequence[float], state: Configuration) -> float:
        rate = 0.0
        if self.immigration_region.contains(location):
            rate += self.immigration_intensity
        radius = self.interaction_radius
        near = sum(1 for p in state if math.dist(location, p) <= radius)
        return rate + self.neighbor_intensity * near

    def death_rate(self, point: Sequence[float], state: Configuration) -> float:
        pt = tuple(point)
        if pt not in state.points:
            raise ValueError(f"point {pt!r} is not in the state")
        return self.death_rates(state)[state.points.index(pt)]

    def death_rates(self, state: Configuration) -> list[float]:
        pts = state.points
        n = len(pts)
        if self.crowding_death == 0.0 or n <= 1:
            return [self.baseline_death] * n
        radius = self.interaction_radius
        dist = math.dist
        near = [0] * n
        for i in range(1, n):
            x = pts[i]
            for j in range(i):
                if dist(x, pts[j]) <= radius:
                    near[i] += 1
                    near[j] += 1
        return [self.baseline_death + self.crowding_death * c for c in near]

    def total_birth_mass(self, state: Configuration) -> float:
        return self._immigration_mass + self._per_neighbor_mass * len(state)

    def sample_birth_location(self, state: Configuration, rng: np.random.Generator) -> Point:
        # chain._contact_walk repeats this component choice inline, draw
        # for draw; a change here must be made there too.
        mass = self.total_birth_mass(state)
        u = rng.random() * mass
        if u < self._immigration_mass or not len(state):
            return sample_in_ball(
                self.immigration_region.center, self.immigration_region.radius, rng
            )
        index = int((u - self._immigration_mass) / self._per_neighbor_mass)
        if index >= len(state):
            index = len(state) - 1
        return sample_in_ball(state.points[index], self.interaction_radius, rng)

    def death_rate_inf(self) -> float:
        return self.baseline_death

    def death_rate_sup(self, max_size: int) -> float:
        m = _whole_number(max_size, "max_size", 0)
        return self.baseline_death + self.crowding_death * max(0, m - 1)

    def conditions(self, max_size: int) -> ConditionReport:
        """The four standing assumptions on states of at most ``max_size`` points, proved from the parameters.

        The witnesses are the proved extremes: margin, death cap, death floor, least birth rate near mass."""
        m = _whole_number(max_size, "max_size", 0)
        bound, cap = self.birth_mass_slope * m + self.birth_mass_offset, self.death_rate_sup(m)
        floor, least_birth = self.baseline_death, min(self.immigration_intensity, self.neighbor_intensity)
        return ConditionReport(self.describe(), m, None, (
            ConditionCheck(1, "linear bound on total birth mass", math.isfinite(bound), 0.0,
                           f"total birth mass = immigration + per-neighbor mass * n, the declared bound "
                           f"exactly ({bound:.6g} at size {m})"),
            ConditionCheck(2, "bounded death rates", math.isfinite(cap), cap,
                           f"a point has at most n - 1 neighbors, so baseline_death + crowding_death * (n - 1) "
                           f"caps every death rate ({cap:.6g} at size {m})"),
            ConditionCheck(3, "positive death-rate floor", floor > 0, floor,
                           f"every death rate is at least baseline_death {floor:.6g}"),
            ConditionCheck(4, "birth rates above the floor near mass", True, least_birth,
                           f"near mass the birth rate is at least neighbor_intensity or immigration_intensity, "
                           f"and the constructor holds birth_floor {self.birth_floor:.6g} below both"),
        ))

    def _exact_birth_mass_in_region(
        self, state: Configuration, region: BoxRegion | BallRegion
    ) -> float | None:
        components = [(self.immigration_intensity, self.immigration_region)] + [
            (self.neighbor_intensity, BallRegion(p, self.interaction_radius)) for p in state
        ]
        total = 0.0
        for intensity, ball in components:
            relation = _ball_region_relation(ball, region)
            if relation == "inside":
                total += intensity * ball.volume
            elif relation == "partial":
                if self.dimension != 1:
                    return None
                if isinstance(region, BallRegion):
                    lo, up = region.center[0] - region.radius, region.center[0] + region.radius
                else:
                    lo, up = region.lower[0], region.upper[0]
                ball_lo, ball_up = ball.center[0] - ball.radius, ball.center[0] + ball.radius
                total += intensity * max(0.0, min(ball_up, up) - max(ball_lo, lo))
        return total

    def describe(self) -> str:
        return (
            "contact(d={d}, r={r!r}, imm={imm!r}, nb={nb!r}, death={dd!r}, "
            "crowd={cr!r}, center={c!r}, imm_r={ir!r}, floor={fl!r})"
        ).format(
            d=self.dimension,
            r=self.interaction_radius,
            imm=self.immigration_intensity,
            nb=self.neighbor_intensity,
            dd=self.baseline_death,
            cr=self.crowding_death,
            c=self.immigration_region.center,
            ir=self.immigration_region.radius,
            fl=self.birth_floor,
        )


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of proving or probing one standing assumption."""

    index: int
    name: str
    passed: bool
    witness: float
    detail: str


@dataclass(frozen=True)
class ConditionReport:
    """Conformance report on states of at most ``max_size`` points.

    ``states_checked`` is None for a proof (:meth:`ContactModel.conditions`).
    Otherwise it counts the states :func:`validate_conditions` sampled, and a
    pass is evidence that every probe landed on the right side, not a proof.
    """

    model: str
    max_size: int
    states_checked: int | None
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        basis = "proved for all states" if self.states_checked is None else f"states checked: {self.states_checked}"
        lines = [f"condition report for {self.model}", f"  {basis} (size <= {self.max_size})"]
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{verdict}] {c.index}. {c.name}: {c.detail}")
        return "\n".join(lines)

    def to_csv_rows(self) -> list[dict[str, object]]:
        return [
            {
                "condition": c.index,
                "name": c.name,
                "verdict": "PASS" if c.passed else "FAIL",
                "witness": repr(c.witness),
                "detail": c.detail,
            }
            for c in self.checks
        ]


def validate_conditions(
    model: RateModel,
    max_size: int,
    trial_states: Sequence[Configuration],
    probe_points: int = 16,
    seed: int | np.random.SeedSequence | None = None,
) -> ConditionReport:
    """Probe the four standing assumptions on sampled states.

    Checks, over every trial state of size at most ``max_size``: the
    linear bound on the total birth mass, finiteness and boundedness of
    death rates, the positive death-rate floor, and strict positivity
    of birth rates above the declared floor near occupied points (and
    on the immigration ball at the empty state).  A trial state larger
    than ``max_size``, or no probe points, is rejected up front.
    """
    probe_points = _whole_number(probe_points, "probe_points", 1)
    max_size = _whole_number(max_size, "max_size", 0)
    for state in trial_states:
        if len(state) > max_size:
            raise ValueError("trial state exceeds max_size")
    rng = np.random.default_rng(seed)
    radius = model.interaction_radius

    # 1. sublinear total birth mass
    worst_margin = math.inf
    worst_size = 0
    for state in trial_states:
        bound = model.birth_mass_slope * len(state) + model.birth_mass_offset
        margin = bound - model.total_birth_mass(state)
        if margin < worst_margin:
            worst_margin = margin
            worst_size = len(state)
    tolerance = 1e-9 * max(1.0, abs(model.birth_mass_offset))
    growth_ok = worst_margin >= -tolerance
    checks = [
        ConditionCheck(
            1,
            "linear bound on total birth mass",
            growth_ok,
            worst_margin,
            f"worst margin {worst_margin:.6g} at size {worst_size}",
        )
    ]

    # 2. bounded death rates on bounded populations
    # Checks 2 and 3 read this one list; each fold starts from a number, so a NaN never wins.
    rates = [value for state in trial_states for value in model.death_rates(state)]
    max_rate = max([0.0, *rates])
    finite = all(map(math.isfinite, rates))
    declared_sup = model.death_rate_sup(max_size)
    sup_ok = finite and max_rate <= declared_sup * (1 + 1e-12) + 1e-12
    checks.append(
        ConditionCheck(
            2,
            "bounded death rates",
            sup_ok,
            max_rate,
            f"max observed {max_rate:.6g}, declared cap {declared_sup:.6g}",
        )
    )

    # 3. positive death-rate floor
    min_rate = min([math.inf, *rates])
    declared_inf = model.death_rate_inf()
    observed = min_rate if min_rate < math.inf else declared_inf
    floor_ok = declared_inf > 0 and observed > 0 and observed >= declared_inf * (1 - 1e-12)
    checks.append(
        ConditionCheck(
            3,
            "positive death-rate floor",
            floor_ok,
            observed,
            f"min observed {observed:.6g}, declared floor {declared_inf:.6g}",
        )
    )

    # 4. birth rates strictly above the floor near occupied points,
    #    and on the immigration ball at the empty state
    floor = model.birth_floor
    min_birth = math.inf
    birth_ok = floor > 0
    for state in trial_states:
        if not len(state):
            continue
        pts = state.points
        for _ in range(probe_points):
            anchor = pts[int(rng.random() * len(pts))]
            location = sample_in_ball(anchor, radius, rng)
            value = model.birth_rate(location, state)
            min_birth = min(min_birth, value)
            birth_ok = birth_ok and value > floor
    immigration = model.immigration_region
    for _ in range(probe_points):
        location = sample_in_ball(immigration.center, immigration.radius, rng)
        value = model.birth_rate(location, EMPTY)
        min_birth = min(min_birth, value)
        birth_ok = birth_ok and value > floor
    witness = min_birth if min_birth < math.inf else 0.0
    checks.append(
        ConditionCheck(
            4,
            "birth rates above the floor near mass",
            birth_ok,
            witness,
            f"min probed {witness:.6g}, floor {floor:.6g}",
        )
    )

    return ConditionReport(
        model=model.describe(),
        max_size=max_size,
        states_checked=len(trial_states),
        checks=tuple(checks),
    )
