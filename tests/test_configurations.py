"""Configuration container and bottleneck metric tests.

The metric oracle below recomputes the distance by brute force over
all point pairings, using the same euclidean() arithmetic as the
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
    Configuration,
    RhoBall,
    distance_rho,
    euclidean,
    in_ball,
    symmetric_difference_size,
    unit_ball_volume,
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
        worst = max(euclidean(a[i], b[j]) for i, j in enumerate(perm))
        if worst < best:
            best = worst
    return best


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
        for value in {math.dist(x, y) for x in a.points for y in b.points}:
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
        b = Configuration([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        a = Configuration([[0.0, 0.1], [0.0, -0.1], [20.0, 0.1]])
        assert all(min(math.dist(x, y) for y in b.points) <= 0.5 for x in a.points)
        assert not in_ball(a, RhoBall(b, 0.5))
        assert in_ball(a, RhoBall(b, distance_rho(a, b)))

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

    def test_symmetric_difference_size(self):
        a = Configuration([[0.0], [1.0]])
        b = Configuration([[1.0], [2.0]])
        assert symmetric_difference_size(a, b) == 2
        assert symmetric_difference_size(a, a) == 0
        assert symmetric_difference_size(a, EMPTY) == 2

    def test_unit_ball_volume_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        with pytest.raises(ValueError):
            unit_ball_volume(0)
