"""Constructive path and corridor-bound tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birthdeath import (
    EMPTY,
    Configuration,
    ContactModel,
    Path,
    build_path,
    check_path,
    corridor_event_frequency,
    corridor_prob_lower_bound,
    corridor_step_bound,
    path_length_cap,
    theorem_pipeline,
)
from birthdeath import _lockstep, paths


def random_goal(rng, n, d, spread=1.5):
    while True:
        pts = [tuple(float(c) for c in rng.uniform(-spread, spread, size=d)) for _ in range(n)]
        if len(set(pts)) == n:
            return Configuration(pts)


class TestPathValidation:
    def test_empty_exit_to_anchor_is_valid(self):
        check_path(Path((EMPTY, Configuration([[0.0]]))), ContactModel())

    def test_empty_exit_elsewhere_is_flagged(self):
        p = Path((EMPTY, Configuration([[0.3]])))
        with pytest.raises(ValueError, match="vertex 1: empty state must exit to the immigration center"):
            check_path(p, ContactModel())

    def test_the_empty_exit_follows_the_model_center(self):
        p = Path((EMPTY, Configuration([[0.3]])))
        check_path(p, ContactModel(immigration_center=[0.3]))
        with pytest.raises(ValueError, match="vertex 1"):
            check_path(Path((EMPTY, Configuration([[0.0]]))), ContactModel(immigration_center=[0.3]))

    def test_half_radius_rule_is_inclusive(self):
        base = Configuration([[0.0]])
        check_path(Path((base, base.with_point([0.5]))), ContactModel())
        beyond = Path((base, base.with_point([0.5 + 1e-9])))
        with pytest.raises(ValueError, match="vertex 1: added point sits farther"):
            check_path(beyond, ContactModel())

    def test_the_half_radius_is_the_model_radius(self):
        base = Configuration([[0.0]])
        step = Path((base, base.with_point([0.9])))
        check_path(step, ContactModel(interaction_radius=1.8))
        with pytest.raises(ValueError, match="vertex 1"):
            check_path(step, ContactModel())

    def test_two_point_change_is_flagged(self):
        a = Configuration([[0.0]])
        b = Configuration([[0.1], [0.2]])
        with pytest.raises(ValueError, match="vertex 1: consecutive vertices must differ by exactly one point"):
            check_path(Path((a, b)), ContactModel())

    def test_deletions_are_always_allowed(self):
        a = Configuration([[0.0], [0.4]])
        check_path(Path((a, a.without_point([0.4]), EMPTY)), ContactModel())

    def test_violation_reports_first_offender(self):
        a = Configuration([[0.0]])
        good = a.with_point([0.3])
        bad = good.with_point([5.0])
        with pytest.raises(ValueError, match="vertex 2"):
            check_path(Path((a, good, bad)), ContactModel())

    def test_path_requires_vertices(self):
        with pytest.raises(ValueError):
            Path(())


class TestBuildPath:
    def test_frozen_two_point_example(self):
        goal = Configuration([[0.2], [0.45]])
        path = build_path(goal, 1.0, (0.0,))
        assert path.start == EMPTY and path.final == goal
        check_path(path, ContactModel())
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
        check_path(path, ContactModel())
        assert path.final == goal
        assert path.length <= path_length_cap(goal, 1.0, (0.0,))

    def test_random_goals_valid_and_capped(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            goal = random_goal(rng, n, d)
            path = build_path(goal, 1.0, (0.0,) * d)
            check_path(path, ContactModel(dimension=d))
            assert path.final == goal
            assert path.length <= path_length_cap(goal, 1.0, (0.0,) * d)

    def test_anchor_dimension_checked(self):
        with pytest.raises(ValueError):
            build_path(Configuration([[0.0, 0.0]]), 1.0, (0.0,))

    def test_waypoints_respect_quarter_spacing(self):
        goal = Configuration([[1.3]])
        path = build_path(goal, 1.0, (0.0,))
        check_path(path, ContactModel())
        # every addition along the outward walk stays within r/4 of the
        # previous front, tighter than the r/2 the rules require
        for prev, cur in zip(path.vertices, path.vertices[1:]):
            added = set(cur.points) - set(prev.points)
            if added and len(prev):
                (p,) = added
                assert min(math.dist(p, q) for q in prev.points) <= 0.25 + 1e-12


class TestCorridorBound:
    def test_a_path_of_another_dimension_raises(self):
        # It certified 0.00227 for a 2-D path that no state of the 1-D model follows.
        path = Path((Configuration([[0.0, 0.0]]), Configuration([[0.0, 0.0], [0.1, 0.0]])))
        check_path(path, ContactModel(dimension=2))
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            corridor_prob_lower_bound(path, 0.1, ContactModel())

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
        base = Configuration([[0.0]])
        bad = Path((base, base.with_point([0.3]), base.with_point([0.3]).with_point([1.0])))
        with pytest.raises(ValueError, match="vertex 2"):
            corridor_prob_lower_bound(bad, 0.1, m)

    def test_prob_bound_rejects_foreign_anchor_on_empty_exit(self):
        m = ContactModel()  # immigration center (0.0,)
        path = Path((EMPTY, Configuration([[0.4]])))
        with pytest.raises(ValueError, match="vertex 1: empty state must exit to the immigration center"):
            corridor_prob_lower_bound(path, 0.1, m)
        # the same vertices without the empty one certify fine
        tail = Path(path.vertices[1:])
        assert corridor_prob_lower_bound(tail, 0.1, m) == 1.0  # zero steps

    def test_a_path_built_at_a_wider_radius_is_refused(self):
        # It certified 5.8e-13, yet from {0.0} the birth rate at 1.8, 2.0 and 2.2 is 0.0:
        # no replica follows the path.
        path = build_path(Configuration([[4.0]]), 8.0, (0.0,))
        with pytest.raises(ValueError, match="vertex 2: added point sits farther"):
            corridor_prob_lower_bound(path, 0.2, ContactModel())

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(goal=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3, unique=True),
           radius=st.floats(0.25, 4.0))
    def test_a_certified_path_has_births_of_positive_rate(self, goal, radius):
        # Each newborn point's corridor ball lies where the previous vertex's birth rate
        # is above the floor, so the certificate covers a move the chain can make.
        m = ContactModel()
        rho = m.interaction_radius / 8.0
        path = build_path(Configuration([[x] for x in goal]), radius, m.immigration_region.center)
        try:
            corridor_prob_lower_bound(path, rho, m)
        except ValueError:
            return
        for before, after in zip(path.vertices, path.vertices[1:]):
            for (p,) in set(after.points) - set(before.points):
                for y in (p - rho, p + rho):
                    assert m.birth_rate((y,), before) > m.birth_floor, (p, y, before)


class TestCorridorFrequency:
    def test_single_birth_step_matches_closed_form(self):
        # from empty, the first move is a birth uniform on the
        # immigration ball, so it lands within a of the anchor with
        # probability 2a / (2 * 0.5)
        m = ContactModel()
        a = 0.125
        path = Path((EMPTY, Configuration([[0.0]])))
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
        path = Path((EMPTY, Configuration([[0.0]])))
        one = corridor_event_frequency(path, 0.1, m, replicas=500, seed=79)
        two = corridor_event_frequency(path, 0.1, m, replicas=500, seed=79)
        assert one == two

    def test_reused_seed_sequence_gives_the_same_frequency(self):
        m = ContactModel()
        path = Path((EMPTY, Configuration([[0.0]])))
        root = np.random.SeedSequence(79)
        one = corridor_event_frequency(path, 0.1, m, replicas=300, seed=root)
        two = corridor_event_frequency(path, 0.1, m, replicas=300, seed=root)
        assert one == two == corridor_event_frequency(path, 0.1, m, replicas=300, seed=79)

    def test_corridor_with_empty_cell(self):
        # a path that dives back to empty: the cell test for the empty
        # vertex is exact emptiness
        start = Configuration([[0.0]])
        path = Path((start, EMPTY, Configuration([[0.0]])))
        check_path(path, ContactModel())
        freq = corridor_event_frequency(path, 0.1, m := ContactModel(), replicas=3_000, seed=83)
        # step 1: the singleton dies with probability 1/(1+B) = 0.5;
        # step 2: rebirth within a of the anchor, probability 0.2
        expected = 0.5 * 0.2
        sigma = math.sqrt(expected * (1 - expected) / 3_000)
        assert abs(freq.estimate - expected) <= 4.5 * sigma

    def test_a_path_the_certificate_refuses_still_runs(self):
        # The frequency counts how often the chain follows any sequence of cells.
        path = Path((EMPTY, Configuration([[0.3]])))
        with pytest.raises(ValueError):
            check_path(path, ContactModel())
        freq = corridor_event_frequency(path, 0.1, ContactModel(), replicas=2_000, seed=89)
        # from empty, a birth uniform on [-0.5, 0.5] lands in [0.2, 0.4] with probability 0.2
        sigma = math.sqrt(0.2 * 0.8 / 2_000)
        assert abs(freq.estimate - 0.2) <= 4 * sigma

    def test_a_start_of_another_dimension_raises(self):
        path = Path((Configuration([[0.0, 0.0]]), EMPTY))
        check_path(path, ContactModel(dimension=2))
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            corridor_event_frequency(path, 0.1, ContactModel(), replicas=10, seed=1)

    def test_a_path_of_another_dimension_is_refused_before_any_replica(self, monkeypatch):
        # The path starts empty, so only its corridor cells show the 2-D points.
        path = build_path(Configuration([[0.1, 0.1], [0.2, 0.1]]), 1.0, (0.0, 0.0))
        monkeypatch.setattr(paths, "_count", lambda *args: pytest.fail("a replica ran"))
        with pytest.raises(ValueError, match="is 2-D, the model is 1-D"):
            corridor_event_frequency(path, 0.1, ContactModel(), replicas=10, seed=1)

    def test_replica_validation(self):
        m = ContactModel()
        path = Path((EMPTY, Configuration([[0.0]])))
        with pytest.raises(ValueError):
            corridor_event_frequency(path, 0.1, m, replicas=0, seed=1)
        for bad in (True, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="replicas"):
                corridor_event_frequency(path, 0.1, m, replicas=bad, seed=1)

    @pytest.mark.parametrize("radius", [0, 0.0, -1, "x"])
    def test_ball_radius_is_read_on_every_path(self, radius, monkeypatch):
        # Paths with no ball cell too, and before any replica runs.
        monkeypatch.setattr(paths, "_count", lambda *args: pytest.fail("a replica ran"))
        for path in (Path((EMPTY,)), Path((EMPTY, EMPTY)), Path((EMPTY, Configuration([[0.0]])))):
            with pytest.raises(ValueError, match="ball_radius"):
                corridor_event_frequency(path, radius, ContactModel(), replicas=10, seed=1)

    def test_a_one_vertex_path_counts_every_replica_on_the_scalar_loop(self, monkeypatch):
        class ScalarContact(ContactModel):
            """The contact model under another type, which keeps it off the lockstep backend."""

        monkeypatch.setattr(_lockstep, "count_hits", lambda *args: pytest.fail("a lockstep block ran"))
        for model in (ContactModel(), ScalarContact()):
            for start in (EMPTY, Configuration([[0.1]])):
                freq = corridor_event_frequency(Path((start,)), 0.1, model, replicas=600, seed=1)
                assert (freq.hits, freq.replicas, freq.max_steps) == (600, 600, 0)

    def test_a_one_vertex_path_builds_no_stream(self, monkeypatch):
        # No step runs, so no replica needs a generator.
        monkeypatch.setattr(np.random, "PCG64", lambda *args: pytest.fail("a replica stream was built"))
        freq = corridor_event_frequency(Path((EMPTY,)), 0.1, ContactModel(), replicas=600, seed=1)
        assert (freq.hits, freq.replicas) == (600, 600)


class TestPinnedReplicaCounts:
    """Exact hit counts recorded on seeded runs that no output digest covers.

    Any change to the replica streams, the moves or the cell tests
    changes these counts.
    """

    @pytest.mark.parametrize("dimension, goal, radius, seed, length, hits", [
        (2, [(0.2, 0.1)], 0.24, 101, 3, 42),
        (2, [(0.15, -0.1), (-0.1, 0.2)], 0.4, 103, 4, 83),
        (1, [(0.3,), (-0.2,)], 0.3, 107, 6, 13),
    ])
    def test_corridor_hit_count_is_unchanged(self, dimension, goal, radius, seed, length, hits):
        m = ContactModel(dimension=dimension, crowding_death=0.3 if dimension == 2 else 0.0)
        path = build_path(Configuration(goal), m.interaction_radius, m.immigration_region.center)
        freq = corridor_event_frequency(path, radius, m, replicas=4_000, seed=seed)
        assert (path.length, freq.hits, freq.replicas) == (length, hits, 4_000)

    def test_d2_pipeline_hit_count_is_unchanged(self):
        m = ContactModel(dimension=2, crowding_death=0.3)
        goal = Configuration([(0.1, 0.0), (-0.1, 0.1)])
        row = theorem_pipeline(m, goal, extra_steps=20, replicas=500, seed=109).rows[0]
        assert (row.max_steps, row.hits, row.replicas, row.verdict) == (28, 188, 500, "PASS")
