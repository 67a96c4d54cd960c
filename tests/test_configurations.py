"""Configuration container and bottleneck metric tests.

The metric oracle below recomputes the distance by brute force over
all point pairings, using the same math.dist() arithmetic as the
implementation, so equality assertions can be exact.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birthdeath import (
    EMPTY,
    BallRegion,
    BoxRegion,
    Configuration,
    ContactModel,
    ExactPointTarget,
    Path,
    RhoBall,
    SuiteSizes,
    build_path,
    configurations,
    corridor_prob_lower_bound,
    corridor_step_bound,
    death_probability,
    distance_rho,
    in_ball,
    sample_poisson_config,
    theorem_pipeline,
    unit_ball_volume,
    validate_conditions,
    wilson_interval,
)


def brute_force_rho(first, second):
    """Minimax assignment cost over every bijection of the point sets."""
    if len(first) != len(second):
        return math.inf
    if len(first) == 0:
        return 0.0
    a, b = first.points, second.points
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(math.dist(a[i], b[j]) for i, j in enumerate(perm))
        if worst < best:
            best = worst
    return best


def count_matchings(monkeypatch):
    """A list that gains one entry per ``_perfect_matching_exists`` call."""
    calls = []
    matching = configurations._perfect_matching_exists

    def counted(adjacency):
        calls.append(adjacency)
        return matching(adjacency)

    monkeypatch.setattr(configurations, "_perfect_matching_exists", counted)
    return calls


def random_config(rng, n, d, low=-2.0, high=2.0):
    while True:
        pts = [tuple(float(c) for c in rng.uniform(low, high, size=d)) for _ in range(n)]
        if len(set(pts)) == n:
            return Configuration(pts)


class TestConfiguration:
    def test_points_sorted_and_deduplicated_rejected(self):
        cfg = Configuration([[1.0], [-1.0], [0.0]])
        assert cfg.points == ((-1.0,), (0.0,), (1.0,))
        with pytest.raises(ValueError):
            Configuration([[0.0], [0.0]])

    def test_equality_is_order_free(self):
        assert Configuration([[0.0, 1.0], [2.0, 3.0]]) == Configuration([[2.0, 3.0], [0.0, 1.0]])
        assert hash(Configuration([[5.0]])) == hash(Configuration([[5.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Configuration([[0.0], [1.0, 2.0]])

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Configuration([[math.nan]])
        with pytest.raises(ValueError):
            Configuration([[math.inf, 0.0]])

    def test_with_point_and_without_point_roundtrip(self):
        cfg = Configuration([[0.0], [1.0]])
        grown = cfg.with_point([0.5])
        assert len(grown) == 3 and (0.5,) in grown
        assert grown.without_point([0.5]) == cfg
        with pytest.raises(ValueError):
            cfg.with_point([1.0])
        with pytest.raises(ValueError):
            cfg.without_point([7.0])

    def test_without_index_uses_canonical_order(self):
        cfg = Configuration([[3.0], [1.0], [2.0]])
        assert cfg.without_index(0) == Configuration([[2.0], [3.0]])

    def test_empty_properties(self):
        assert len(EMPTY) == 0
        assert EMPTY.dimension is None
        assert EMPTY == Configuration()

    def test_serialization_roundtrip(self):
        cfg = Configuration([[0.25, -1.0], [1.5, 2.0]])
        assert Configuration(cfg.to_coord_lists()) == cfg

    def test_contains_handles_non_point_garbage(self):
        assert 42 not in Configuration([[1.0]])


class TestDistanceRho:
    def test_frozen_values_d1(self):
        # brute-force values computed by hand: singleton pairs measure the
        # plain euclidean gap; for {0,10} vs {1,12} the identity pairing
        # costs max(1, 2) = 2 and the crossed one max(12, 9) = 12.
        assert distance_rho(Configuration([[0.0]]), Configuration([[3.0], ])) == 3.0
        assert distance_rho(Configuration([[3.0], [4.0]]), Configuration([[0.0], [8.0]])) == 4.0
        assert distance_rho(Configuration([[0.0], [10.0]]), Configuration([[1.0], [12.0]])) == 2.0

    def test_cross_layer_and_empty_conventions(self):
        assert distance_rho(EMPTY, Configuration([[0.0]])) == math.inf
        assert distance_rho(EMPTY, EMPTY) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_rho(Configuration([[0.0]]), Configuration([[0.0, 0.0]]))
        # Of different sizes too: the pair has no distance, not an infinite one.
        with pytest.raises(ValueError):
            distance_rho(Configuration([[0.0]]), Configuration([[0.0, 0.0], [1.0, 1.0]]))

    def test_matches_brute_force_oracle_small(self):
        rng = np.random.default_rng(20240811)
        for _ in range(150):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            a = random_config(rng, n, d)
            b = random_config(rng, n, d)
            assert distance_rho(a, b) == brute_force_rho(a, b)

    def test_crossing_pairing_beats_identity(self):
        # identity pairing costs 11, swapping costs 6; the metric must find it
        a = Configuration([[0.0], [5.0]])
        b = Configuration([[11.0], [4.0]])
        assert distance_rho(a, b) == brute_force_rho(a, b) == 6.0

    def test_symmetry_and_triangle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            a, b, c = (random_config(rng, n, d) for _ in range(3))
            ab, ba = distance_rho(a, b), distance_rho(b, a)
            assert abs(ab - ba) <= 1e-12
            assert distance_rho(a, c) <= ab + distance_rho(b, c) + 1e-12

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(1, 5), d=st.integers(1, 3))
    def test_triangle_inequality(self, data, n, d):
        point = st.tuples(*[st.floats(-10, 10)] * d)
        a, b, c = (
            Configuration(data.draw(st.lists(point, min_size=n, max_size=n, unique=True)))
            for _ in range(3)
        )
        ab, bc = distance_rho(a, b), distance_rho(b, c)
        # Each distance is rounded once, so the sum may sit a few ulps low.
        assert distance_rho(a, c) <= ab + bc + 4 * math.ulp(ab + bc)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(11)
        cfg = random_config(rng, 4, 2)
        assert distance_rho(cfg, cfg) == 0.0
        assert distance_rho(cfg, random_config(rng, 4, 2)) > 0.0


class TestInBall:
    def test_agrees_with_distance(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            center = random_config(rng, n, d)
            probe = random_config(rng, n, d)
            rho = distance_rho(probe, center)
            assert in_ball(probe, RhoBall(center, rho)) is True
            if rho > 0:
                shrunk = rho * (1 - 1e-9)
                if shrunk > 0:
                    assert in_ball(probe, RhoBall(center, shrunk)) is False
            assert in_ball(probe, RhoBall(center, rho + 1e-9)) is True

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(1, 5), d=st.integers(1, 3))
    def test_ball_at_the_distance_is_exactly_closed(self, data, n, d):
        point = st.tuples(*[st.floats(-10, 10)] * d)
        a, b = (
            Configuration(data.draw(st.lists(point, min_size=n, max_size=n, unique=True)))
            for _ in range(2)
        )
        r = distance_rho(a, b)
        assert distance_rho(b, a) == r
        if r > 0:
            assert in_ball(a, RhoBall(b, r))
            below = math.nextafter(r, 0)
            if below > 0:
                assert not in_ball(a, RhoBall(b, below))

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(1, 3))
    def test_fast_paths_match_the_permutation_reference(self, data, n, d):
        # Quarter-grid coordinates make equal gaps, and in d=1 tied
        # pairings, common; the reference takes math.dist over every pairing.
        coord = st.integers(-12, 12).map(lambda k: k / 4) | st.floats(-10, 10)
        point = st.tuples(*[coord] * d)
        a, b = (
            Configuration(data.draw(st.lists(point, min_size=n, max_size=n, unique=True)))
            for _ in range(2)
        )
        reference = min(
            max(math.dist(x, y) for x, y in zip(a.points, pairing))
            for pairing in itertools.permutations(b.points)
        )
        assert distance_rho(a, b) == reference
        if reference > 0:
            assert in_ball(a, RhoBall(b, reference))
            below = math.nextafter(reference, 0)
            if below > 0:
                assert not in_ball(a, RhoBall(b, below))

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(2, 3))
    def test_membership_at_every_pairwise_distance(self, data, n, d):
        # Every threshold at which membership can change is a pairwise
        # math.dist value, so probing each one and its float neighbours
        # reaches every branch of the d >= 2 path.
        coord = st.integers(-12, 12).map(lambda k: k / 4) | st.floats(-10, 10)
        point = st.tuples(*[coord] * d)
        a, b = (
            Configuration(data.draw(st.lists(point, min_size=n, max_size=n, unique=True)))
            for _ in range(2)
        )
        reference = min(
            max(math.dist(x, y) for x, y in zip(a.points, pairing))
            for pairing in itertools.permutations(b.points)
        )
        # The first-axis gaps are probed too, where the gap test decides.
        gaps = {abs(x[0] - y[0]) for x in a.points for y in b.points}
        for value in {math.dist(x, y) for x in a.points for y in b.points} | gaps:
            for r in (math.nextafter(value, 0), value, math.nextafter(value, math.inf)):
                if r > 0:
                    assert in_ball(a, RhoBall(b, r)) == (reference <= r), r

    def test_two_points_fitting_only_the_cross_pairing(self):
        # Sorted order pairs (0, 0) with (0, 10): the identity pairing is
        # 10 away, the cross pairing 1.
        a = Configuration([[0.0, 0.0], [1.0, 10.0]])
        b = Configuration([[0.0, 10.0], [1.0, 0.0]])
        assert in_ball(a, RhoBall(b, 1.0))
        assert not in_ball(a, RhoBall(b, math.nextafter(1.0, 0)))
        assert distance_rho(a, b) == 1.0

    def test_every_point_near_a_center_without_a_matching(self):
        # Both points near the origin have only that center within 0.5.
        # Sorted, the second of them pairs with (10, 0), so the first-axis
        # gap test rejects before any scan or matching.
        b = Configuration([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        a = Configuration([[0.0, 0.1], [0.0, -0.1], [20.0, 0.1]])
        assert all(min(math.dist(x, y) for y in b.points) <= 0.5 for x in a.points)
        assert not in_ball(a, RhoBall(b, 0.5))
        assert in_ball(a, RhoBall(b, distance_rho(a, b)))

    @settings(max_examples=500)
    @given(data=st.data(), d=st.integers(2, 4))
    def test_distance_is_never_below_an_axis_gap(self, data, d):
        # The gap test is exact only because math.dist never rounds below
        # a coordinate difference, which bounds the true distance below.
        coord = (
            st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(-1e-300, 1e-300)
            | st.floats(1e300, 1.7e308)
            | st.floats(-1.7e308, -1e300)
        )
        x, y = (data.draw(st.tuples(*[coord] * d)) for _ in range(2))
        for k in range(d):
            assert math.dist(x, y) >= abs(x[k] - y[k])

    def test_first_axis_gap_at_the_radius_is_inside(self):
        ball = RhoBall(Configuration([[0.0, 0.0]]), 1.0)
        assert in_ball(Configuration([[1.0, 0.0]]), ball)
        assert not in_ball(Configuration([[math.nextafter(1.0, 2.0), 0.0]]), ball)

    def test_only_the_matching_rejects(self, monkeypatch):
        a = Configuration([[0.5, 1.25], [0.75, 1.25], [1.5, 0.0]])
        b = Configuration([[0.25, 0.5], [0.75, 0.0], [2.0, 0.25]])
        assert all(abs(x[0] - y[0]) <= 1.0 for x, y in zip(a.points, b.points))
        rows = [[math.dist(x, y) for y in b.points] for x in a.points]
        assert all(min(row) <= 1.0 for row in rows)
        assert all(min(column) <= 1.0 for column in zip(*rows))
        # (0.5, 1.25) and (0.75, 1.25) have only (0.25, 0.5) within 1.
        assert [[v <= 1.0 for v in row] for row in rows] == [
            [True, False, False], [True, False, False], [False, True, True]
        ]
        calls = count_matchings(monkeypatch)
        assert not in_ball(a, RhoBall(b, 1.0))
        assert len(calls) == 1
        # The floor, the largest nearest-partner distance, is infeasible,
        # so the search goes on above it.
        floor = max(max(map(min, rows)), max(map(min, zip(*rows))))
        assert 0.9 < floor < 1.0
        assert distance_rho(a, b) == brute_force_rho(a, b) > floor

    def test_matchings_run_only_for_members_of_far_apart_balls(self, monkeypatch):
        # The centers are more than 2r apart, so a point is near at most
        # one center, and once both scans pass the near centers already
        # pair the points off: no non-member reaches the matching.
        ball = RhoBall(Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 0.45)
        calls = count_matchings(monkeypatch)
        members = 0
        for points in np.random.default_rng(20).uniform(-0.5, 1.5, size=(4000, 4, 2)):
            candidate = Configuration(points)
            calls.clear()
            member = in_ball(candidate, ball)
            assert len(calls) == member
            assert member == (brute_force_rho(candidate, ball.center) <= 0.45)
            members += member
        assert members >= 20

    def test_d2_point_exactly_at_the_radius(self):
        ball = RhoBall(Configuration([[0.0, 0.0]]), 5.0)
        assert math.dist((3.0, 4.0), (0.0, 0.0)) == 5.0
        assert in_ball(Configuration([[3.0, 4.0]]), ball)
        assert not in_ball(Configuration([[3.0, 4.0]]), RhoBall(ball.center, math.nextafter(5.0, 0)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            in_ball(Configuration([[0.0, 0.0]]), RhoBall(Configuration([[0.0]]), 1.0))
        with pytest.raises(ValueError):
            in_ball(Configuration([[0.0]]), RhoBall(Configuration([[0.0, 0.0]]), 1.0))

    def test_layer_mismatch_is_outside(self):
        ball = RhoBall(Configuration([[0.0]]), 5.0)
        assert not in_ball(EMPTY, ball)
        assert not in_ball(Configuration([[0.0], [1.0]]), ball)

    def test_ball_validation(self):
        with pytest.raises(ValueError):
            RhoBall(EMPTY, 1.0)
        with pytest.raises(ValueError):
            RhoBall(Configuration([[0.0]]), 0.0)
        with pytest.raises(ValueError):
            RhoBall(Configuration([[0.0]]), math.inf)

    def test_boundary_membership_is_closed(self):
        ball = RhoBall(Configuration([[0.0]]), 1.0)
        assert in_ball(Configuration([[1.0]]), ball)


class TestSymAndVolume:
    def test_configuration_forgets_order(self):
        assert Configuration([(1.0,), (0.0,)]) == Configuration([(0.0,), (1.0,)])
        with pytest.raises(ValueError):
            Configuration([(0.0,), (0.0,)])

    def test_unit_ball_volume_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        with pytest.raises(ValueError):
            unit_ball_volume(0)


# --- one number rule at every entry point ------------------------------

_MODEL = ContactModel()
_POINT = Configuration([[0.0]])
_BOX = BoxRegion((0.0,), (1.0,))
_PATH = build_path(_POINT, _MODEL.interaction_radius, _MODEL.immigration_region.center)

# Entry points that read a finite real, each a factory of the value and the field its error names.
_REALS = [
    ("RhoBall", lambda v: RhoBall(_POINT, v), "radius"),
    ("BallRegion", lambda v: BallRegion((0.0,), v), "radius"),
    ("BallRegion-center", lambda v: BallRegion((v,), 1.0), "point coordinate"),
    ("Configuration", lambda v: Configuration([[0.0], [v]]), "point coordinate"),
    ("Path", lambda v: Path((EMPTY, _POINT), v, (0.0,)), "interaction_radius"),
    ("build_path", lambda v: build_path(_POINT, v, (0.0,)), "interaction_radius"),
    ("corridor_step_bound", lambda v: corridor_step_bound(_MODEL, v, 3), "ball_radius"),
    ("corridor_prob_lower_bound", lambda v: corridor_prob_lower_bound(_PATH, v, _MODEL), "ball_radius"),
    ("sample_poisson_config", lambda v: sample_poisson_config(v, _BOX, 1), "intensity"),
    ("ExactPointTarget", lambda v: ExactPointTarget((v,)), "point coordinate"),
    ("death_probability", lambda v: death_probability(_POINT, (v,), _MODEL), "point coordinate"),
] + [
    (f"ContactModel-{name}", lambda v, name=name: ContactModel(**{name: v}), name)
    for name in ("interaction_radius", "immigration_intensity", "neighbor_intensity", "baseline_death",
                 "crowding_death", "immigration_radius")
]

# Entry points that read a whole number.
_COUNTS = [
    ("unit_ball_volume", unit_ball_volume, "dimension"),
    ("ContactModel-dimension", lambda v: ContactModel(dimension=v), "dimension"),
    ("jump_rate_sup", _MODEL.jump_rate_sup, "max_size"),
    ("death_rate_sup", _MODEL.death_rate_sup, "max_size"),
    ("conditions", _MODEL.conditions, "max_size"),
    ("validate_conditions-max_size", lambda v: validate_conditions(_MODEL, v, [EMPTY]), "max_size"),
    ("validate_conditions-probe_points",
     lambda v: validate_conditions(_MODEL, 2, [EMPTY], probe_points=v), "probe_points"),
    ("corridor_step_bound-max_size", lambda v: corridor_step_bound(_MODEL, 0.1, v), "max_size"),
    ("theorem_pipeline-extra_steps", lambda v: theorem_pipeline(_MODEL, _POINT, extra_steps=v, replicas=1),
     "extra_steps"),
    ("wilson_interval-hits", lambda v: wilson_interval(v, 3), "hits"),
    ("wilson_interval-total", lambda v: wilson_interval(1, v), "total"),
    ("SuiteSizes-replicas", lambda v: SuiteSizes(replicas=v), "replicas"),
]


def _refusals():
    # Every value in the rule's history: booleans, which float() and int()
    # read as 0 or 1, fractional counts, NaN and the infinities.
    for label, factory, field in _REALS:
        for value in (True, np.True_, math.nan, math.inf, -math.inf):
            yield pytest.param(lambda f=factory, v=value: f(v), field, id=f"{label}-{value!r}")
    for label, factory, field in _COUNTS:
        for value in (True, np.False_, 1.5, 2.5, math.nan, math.inf):
            yield pytest.param(lambda f=factory, v=value: f(v), field, id=f"{label}-{value!r}")


class TestNumberRule:
    """Every number the package reads goes through ``_real`` or ``_whole_number``."""

    @pytest.mark.parametrize("call, field", list(_refusals()))
    def test_refused_with_the_field_named(self, call, field):
        with pytest.raises(ValueError, match=field):
            call()

    def test_booleans_are_named_as_booleans(self):
        for call in (lambda: RhoBall(_POINT, np.False_), lambda: ContactModel(dimension=True)):
            with pytest.raises(ValueError, match="boolean"):
                call()

    def test_integral_floats_and_numpy_scalars_read_as_before(self):
        assert RhoBall(_POINT, np.float64(0.5)) == RhoBall(_POINT, 0.5)
        assert type(RhoBall(_POINT, 1).radius) is float
        assert Configuration([[np.float32(0.5)]]).points == ((0.5,),)
        for dimension in (2.0, np.int64(2)):
            model = ContactModel(dimension=dimension)
            assert model.dimension == 2 and type(model.dimension) is int
            assert unit_ball_volume(dimension) == unit_ball_volume(2)
        assert _MODEL.jump_rate_sup(np.int64(3)) == _MODEL.jump_rate_sup(3.0) == _MODEL.jump_rate_sup(3)
        assert wilson_interval(np.int64(1), 4.0) == wilson_interval(1, 4)
        assert corridor_step_bound(_MODEL, np.float64(0.1), 3.0) == corridor_step_bound(_MODEL, 0.1, 3)
        assert sample_poisson_config(np.float64(2.0), _BOX, 5) == sample_poisson_config(2, _BOX, 5)
        states = [EMPTY, _POINT]
        assert (validate_conditions(_MODEL, 3.0, states, probe_points=np.int64(4), seed=1)
                == validate_conditions(_MODEL, 3, states, probe_points=4, seed=1))
