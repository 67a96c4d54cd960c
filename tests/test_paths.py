"""Constructive path and corridor-bound tests."""

import math

import numpy as np
import pytest

from birthdeath import (
    EMPTY,
    Configuration,
    ContactModel,
    Path,
    build_path,
    corridor_event_frequency,
    corridor_prob_lower_bound,
    corridor_step_bound,
    is_valid_path,
    path_length_cap,
)


def random_goal(rng, n, d, spread=1.5):
    while True:
        pts = [tuple(float(c) for c in rng.uniform(-spread, spread, size=d)) for _ in range(n)]
        if len(set(pts)) == n:
            return Configuration(pts)


class TestPathValidation:
    def test_empty_exit_to_anchor_is_valid(self):
        p = Path((EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        assert is_valid_path(p).valid

    def test_empty_exit_elsewhere_is_flagged(self):
        p = Path((EMPTY, Configuration([[0.3]])), 1.0, (0.0,))
        verdict = is_valid_path(p)
        assert not verdict.valid
        assert verdict.violation_index == 1
        assert "anchor" in verdict.reason

    def test_half_radius_rule_is_inclusive(self):
        base = Configuration([[0.0]])
        at_half = Path((base, base.with_point([0.5])), 1.0, (0.0,))
        assert is_valid_path(at_half).valid
        beyond = Path((base, base.with_point([0.5 + 1e-9])), 1.0, (0.0,))
        verdict = is_valid_path(beyond)
        assert not verdict.valid and verdict.violation_index == 1

    def test_two_point_change_is_flagged(self):
        a = Configuration([[0.0]])
        b = Configuration([[0.1], [0.2]])
        verdict = is_valid_path(Path((a, b), 1.0, (0.0,)))
        assert not verdict.valid and verdict.violation_index == 1

    def test_deletions_are_always_allowed(self):
        a = Configuration([[0.0], [0.4]])
        p = Path((a, a.without_point([0.4]), EMPTY), 1.0, (0.0,))
        assert is_valid_path(p).valid

    def test_violation_reports_first_offender(self):
        a = Configuration([[0.0]])
        good = a.with_point([0.3])
        bad = good.with_point([5.0])
        verdict = is_valid_path(Path((a, good, bad), 1.0, (0.0,)))
        assert not verdict.valid and verdict.violation_index == 2

    def test_path_requires_vertices(self):
        with pytest.raises(ValueError):
            Path((), 1.0, (0.0,))


class TestBuildPath:
    def test_frozen_two_point_example(self):
        goal = Configuration([[0.2], [0.45]])
        path = build_path(goal, 1.0, (0.0,))
        assert path.start == EMPTY and path.final == goal
        assert is_valid_path(path).valid
        # distances 0.2 and 0.45 against quarter spacing 0.25: 1 + 2
        # waypoints, so the cap is 2 * (3 + 2) = 10
        assert path_length_cap(goal, 1.0, (0.0,)) == 10
        assert path.length <= 10

    def test_empty_goal_gives_trivial_path(self):
        path = build_path(EMPTY, 1.0, (0.0,))
        assert path.vertices == (EMPTY,) and path.length == 0

    def test_goal_containing_anchor(self):
        goal = Configuration([[0.0], [1.0]])
        path = build_path(goal, 1.0, (0.0,))
        assert is_valid_path(path).valid
        assert path.final == goal
        assert path.length <= path_length_cap(goal, 1.0, (0.0,))

    def test_random_goals_valid_and_capped(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            goal = random_goal(rng, n, d)
            path = build_path(goal, 1.0, (0.0,) * d)
            assert is_valid_path(path).valid
            assert path.final == goal
            assert path.length <= path_length_cap(goal, 1.0, (0.0,) * d)

    def test_anchor_dimension_checked(self):
        with pytest.raises(ValueError):
            build_path(Configuration([[0.0, 0.0]]), 1.0, (0.0,))

    def test_waypoints_respect_quarter_spacing(self):
        goal = Configuration([[1.3]])
        path = build_path(goal, 1.0, (0.0,))
        assert is_valid_path(path).valid
        # every addition along the outward walk stays within r/4 of the
        # previous front, tighter than the r/2 the rules require
        for prev, cur in zip(path.vertices, path.vertices[1:]):
            added = set(cur.points) - set(prev.points)
            if added and len(prev):
                (p,) = added
                assert min(math.dist(p, q) for q in prev.points) <= 0.25 + 1e-12


class TestCorridorBound:
    def test_step_bound_closed_form(self):
        m = ContactModel()
        a = 0.125
        bound = corridor_step_bound(m, a, max_size=3)
        sup = 0.2 * 3 + 0.8 + 3 * 1.0
        expected = min(0.05 * 2 * a, 1.0) / sup
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_step_bound_radius_domain(self):
        m = ContactModel()
        with pytest.raises(ValueError):
            corridor_step_bound(m, 0.25, 3)  # quarter radius exactly
        with pytest.raises(ValueError):
            corridor_step_bound(m, 0.0, 3)
        assert corridor_step_bound(m, 0.2499, 3) > 0

    def test_step_bound_monotone_in_population_cap(self):
        m = ContactModel()
        bounds = [corridor_step_bound(m, 0.1, k) for k in (1, 3, 9, 27)]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))

    def test_prob_bound_is_per_step_power(self):
        m = ContactModel()
        goal = Configuration([[0.2], [0.45]])
        path = build_path(goal, m.interaction_radius, (0.0,))
        a = 0.1
        bound = corridor_prob_lower_bound(path, a, m)
        per = corridor_step_bound(m, a, 1 + max(len(v) for v in path.vertices))
        assert bound == pytest.approx(per ** path.length, rel=1e-12)
        assert bound > 0

    def test_prob_bound_rejects_invalid_path(self):
        m = ContactModel()
        bad = Path((EMPTY, Configuration([[0.4]])), 1.0, (0.0,))
        with pytest.raises(ValueError):
            corridor_prob_lower_bound(bad, 0.1, m)

    def test_prob_bound_rejects_foreign_anchor_on_empty_exit(self):
        m = ContactModel()  # immigration center (0.0,)
        path = Path((EMPTY, Configuration([[0.4]])), 1.0, (0.4,))
        assert is_valid_path(path).valid
        with pytest.raises(ValueError):
            corridor_prob_lower_bound(path, 0.1, m)
        # the same geometry without an empty exit certifies fine
        tail = Path(path.vertices[1:], 1.0, (0.4,))
        assert corridor_prob_lower_bound(tail, 0.1, m) == 1.0  # zero steps


class TestCorridorFrequency:
    def test_single_birth_step_matches_closed_form(self):
        # from empty, the first move is a birth uniform on the
        # immigration ball, so it lands within a of the anchor with
        # probability 2a / (2 * 0.5)
        m = ContactModel()
        a = 0.125
        path = Path((EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        freq = corridor_event_frequency(path, a, m, replicas=20_000, seed=71)
        expected = 2 * a / 1.0
        sigma = math.sqrt(expected * (1 - expected) / 20_000)
        assert abs(freq.estimate - expected) <= 4 * sigma
        assert freq.max_steps == path.length == 1

    def test_frequency_dominates_certified_bound(self):
        m = ContactModel()
        goal = Configuration([[0.15]])
        path = build_path(goal, m.interaction_radius, (0.0,))
        a = 0.12
        bound = corridor_prob_lower_bound(path, a, m)
        freq = corridor_event_frequency(path, a, m, replicas=4_000, seed=73)
        assert bound <= freq.ci_high

    def test_deterministic_for_fixed_seed(self):
        m = ContactModel()
        path = Path((EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        one = corridor_event_frequency(path, 0.1, m, replicas=500, seed=79)
        two = corridor_event_frequency(path, 0.1, m, replicas=500, seed=79)
        assert one == two

    def test_reused_seed_sequence_gives_the_same_frequency(self):
        m = ContactModel()
        path = Path((EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        root = np.random.SeedSequence(79)
        one = corridor_event_frequency(path, 0.1, m, replicas=300, seed=root)
        two = corridor_event_frequency(path, 0.1, m, replicas=300, seed=root)
        assert one == two == corridor_event_frequency(path, 0.1, m, replicas=300, seed=79)

    def test_corridor_with_empty_cell(self):
        # a path that dives back to empty: the cell test for the empty
        # vertex is exact emptiness
        start = Configuration([[0.0]])
        path = Path((start, EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        assert is_valid_path(path).valid
        freq = corridor_event_frequency(path, 0.1, m := ContactModel(), replicas=3_000, seed=83)
        # step 1: the singleton dies with probability 1/(1+B) = 0.5;
        # step 2: rebirth within a of the anchor, probability 0.2
        expected = 0.5 * 0.2
        sigma = math.sqrt(expected * (1 - expected) / 3_000)
        assert abs(freq.estimate - expected) <= 4.5 * sigma

    def test_a_start_of_another_dimension_raises(self):
        path = Path((Configuration([[0.0, 0.0]]), EMPTY), 1.0, (0.0, 0.0))
        assert is_valid_path(path).valid
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            corridor_event_frequency(path, 0.1, ContactModel(), replicas=10, seed=1)

    def test_replica_validation(self):
        m = ContactModel()
        path = Path((EMPTY, Configuration([[0.0]])), 1.0, (0.0,))
        with pytest.raises(ValueError):
            corridor_event_frequency(path, 0.1, m, replicas=0, seed=1)
        for bad in (True, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="replicas"):
                corridor_event_frequency(path, 0.1, m, replicas=bad, seed=1)
