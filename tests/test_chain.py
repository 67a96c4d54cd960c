"""Jump-chain kernel, target-set, and hitting-estimate tests."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from birthdeath import _lockstep, chain
from birthdeath import (
    EMPTY,
    AllInRegion,
    BallRegion,
    BallSet,
    BoxRegion,
    Configuration,
    ContactModel,
    DegenerateStateError,
    EmptySingleton,
    ExactPointTarget,
    HyperplaneTarget,
    LayerSet,
    PairDistanceTarget,
    ProductOfDisjointBoxes,
    RhoBall,
    TargetPiece,
    TargetSet,
    UnsupportedExactEvaluation,
    birth_probability_region,
    death_probability,
    hitting_estimate,
    in_ball,
    sample_poisson_config,
    simulate,
    step,
    wilson_interval,
)
from conftest import MISFITS, TARGET_KINDS, alarm, points


class TestKernelNormalization:
    @pytest.mark.parametrize("crowding", [0.0, 0.35])
    def test_probabilities_sum_to_one(self, crowding):
        m = ContactModel(crowding_death=crowding)
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            pts = [(float(x),) for x in rng.uniform(-1.5, 1.5, size=n)]
            if len(set(pts)) < n:
                continue
            state = Configuration(pts)
            death_sum = sum(death_probability(state, p, m) for p in state)
            birth = birth_probability_region(state, None, m)
            assert type(birth) is float
            assert death_sum + birth == pytest.approx(1.0, abs=1e-9)

    def test_empty_state_is_pure_birth(self):
        m = ContactModel()
        birth = birth_probability_region(EMPTY, None, m)
        assert birth == pytest.approx(1.0, abs=1e-12)

    def test_death_probability_requires_membership(self):
        m = ContactModel()
        with pytest.raises(ValueError):
            death_probability(Configuration([[0.0]]), (1.0,), m)


class TestBirthProbabilityRegion:
    def test_superset_region_equals_total_birth_share(self):
        m = ContactModel()
        state = Configuration([[0.2]])
        region = BoxRegion((-2.0,), (2.0,))  # contains every birth component
        p = birth_probability_region(state, region, m)
        expected = m.total_birth_mass(state) / m.jump_rate(state)
        assert p == pytest.approx(expected, rel=1e-12)

    def test_disjoint_region_is_zero(self):
        m = ContactModel()
        p = birth_probability_region(Configuration([[0.0]]), BallRegion((9.0,), 0.3), m)
        assert p == 0.0

    def test_empty_state_immigration_ball_is_certain(self):
        m = ContactModel()
        p = birth_probability_region(EMPTY, BallRegion((0.0,), 0.5), m)
        assert p == pytest.approx(1.0, rel=1e-12)

    def test_a_region_without_a_closed_form_raises(self):
        # The box cuts the d=2 immigration disc.
        with pytest.raises(UnsupportedExactEvaluation):
            birth_probability_region(EMPTY, BoxRegion((0.0, 0.0), (1.0, 1.0)), ContactModel(dimension=2))


class TestStartDimension:
    """Every chain entry point refuses a start whose points have another dimension than the model."""

    start = Configuration([[0.3, 0.0]])
    target = TargetSet((LayerSet(0, EmptySingleton()),))

    @pytest.mark.parametrize("run", [
        lambda m, s, t: step(s, m, 1),
        lambda m, s, t: simulate(s, m, None, 5, 1),
        lambda m, s, t: hitting_estimate(s, t, m, 5, 10, 1),
    ], ids=["step", "simulate", "hitting_estimate"])
    def test_a_start_of_another_dimension_raises(self, run):
        # Run on, the chain would put 1-D newborns beside the 2-D point.
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            run(ContactModel(), self.start, self.target)
        # The empty start fits every model.
        run(ContactModel(), EMPTY, self.target)

    def test_the_one_step_probabilities_refuse_a_state_of_another_dimension(self):
        # Each read 0.5, for a state no chain of the model holds.
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            death_probability(self.start, (0.3, 0.0), ContactModel())
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            birth_probability_region(self.start, None, ContactModel())


class TestTargetDimension:
    """Every chain entry point refuses a target piece that the model's states cannot meet, before any walk."""

    @pytest.mark.parametrize("kind", MISFITS)
    @pytest.mark.parametrize("run", [
        lambda t: simulate(EMPTY, ContactModel(), t, 20, 1),
        lambda t: hitting_estimate(EMPTY, t, ContactModel(), 20, 10, 1),
    ], ids=["simulate", "hitting_estimate"])
    def test_a_piece_of_another_dimension_is_refused_before_any_walk(self, monkeypatch, run, kind):
        # Run on, a walk would index past the model's axes, or miss the piece and report no hit.
        piece, message = MISFITS[kind]
        for name in ("_walk", "_replica_rngs"):
            monkeypatch.setattr(chain, name, lambda *args: pytest.fail("a walk started"))
        with pytest.raises(ValueError, match=message):
            run(TargetSet((LayerSet(0, EmptySingleton()), piece)))

    @settings(max_examples=400)
    @given(data=st.data())
    def test_the_rule_accepts_exactly_the_pieces_that_fit(self, data):
        kind = data.draw(st.sampled_from(list(TARGET_KINDS)))
        piece, fits = data.draw(TARGET_KINDS[kind](data.draw(st.integers(1, 3))))
        d = data.draw(st.integers(1, 3))
        model = ContactModel(dimension=d)
        if not fits(d):
            with pytest.raises(ValueError, match=f"the model is {d}-D"):
                chain._check_target([piece], model)
            return
        chain._check_target([piece], model)
        # An accepted piece decides membership of every state of the model's dimension.
        for coords in data.draw(st.lists(points(d), min_size=1, max_size=4)):
            assert piece.contains(Configuration(coords)) in (True, False)


class TestStepAndSimulate:
    def test_step_returns_event_consistent_state(self):
        m = ContactModel()
        state = Configuration([[0.0], [0.4]])
        new_state, event = step(state, m, 7)
        if event.kind == "birth":
            assert new_state == state.with_point(event.point)
        else:
            assert new_state == state.without_point(event.point)

    def test_singleton_death_frequency_matches_closed_form(self):
        m = ContactModel()
        state = Configuration([[0.0]])
        expected = m.total_death_mass(state) / m.jump_rate(state)  # 1/(1+1) = 0.5
        assert expected == pytest.approx(0.5)
        rng = np.random.default_rng(43)
        draws = 20_000
        deaths = 0
        for _ in range(draws):
            _, event = step(state, m, rng)
            if event.kind == "death":
                deaths += 1
        sigma = math.sqrt(expected * (1 - expected) / draws)
        assert abs(deaths / draws - expected) <= 4 * sigma

    def test_move_kind_depends_only_on_current_size(self):
        # along one long run, the death share at population n must match
        # n*delta / (n*delta + B(n)) regardless of history
        m = ContactModel()
        rng = np.random.default_rng(47)
        visits = {}
        deaths = {}
        state = EMPTY
        for _ in range(30_000):
            n = len(state)
            state, event = step(state, m, rng)
            visits[n] = visits.get(n, 0) + 1
            if event.kind == "death":
                deaths[n] = deaths.get(n, 0) + 1
        for n, count in visits.items():
            if count < 500:
                continue
            b = m.birth_mass_offset + m.birth_mass_slope * n
            expected = n * 1.0 / (n * 1.0 + b)
            freq = deaths.get(n, 0) / count
            sigma = math.sqrt(expected * (1 - expected) / count)
            assert abs(freq - expected) <= 4.5 * sigma, f"size {n}"

    def test_simulate_deterministic_and_replayable(self):
        m = ContactModel()
        first = simulate(EMPTY, m, None, 120, seed=99)
        second = simulate(EMPTY, m, None, 120, seed=99)
        assert first.events == second.events
        assert first.seed == 99
        states = list(first.states())
        assert len(states) == len(first.events) + 1
        assert states[-1] == first.final_state()
        assert len(first) == 120 and first.terminal_reason == "max_steps"

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 80),
        dimension=st.integers(1, 2),
        crowding=st.sampled_from([0.0, 0.35]),
    )
    def test_event_replay_matches_the_kernel(self, seed, steps, dimension, crowding):
        model = ContactModel(dimension=dimension, crowding_death=crowding)
        traj = simulate(EMPTY, model, None, steps, seed)
        states = list(traj.states())
        assert len(states) == len(traj.events) + 1 == steps + 1
        for before, after, event in zip(states, states[1:], traj.events):
            added = set(after.points) - set(before.points)
            removed = set(before.points) - set(after.points)
            if event.kind == "birth":
                assert (added, removed) == ({event.point}, set())
            else:
                assert (added, removed) == (set(), {event.point})
        walked = chain._walk(EMPTY, model, np.random.default_rng(seed), steps)
        assert [state for state, _, _ in walked] == states[1:]

    def test_simulate_first_return_semantics(self):
        m = ContactModel()
        traj = simulate(EMPTY, m, TargetSet((LayerSet(0, EmptySingleton()),)), 500, seed=5)
        assert traj.terminal_reason == "hit_target"
        # leaving and re-entering the empty state takes an even step count
        assert traj.hit_step is not None and traj.hit_step >= 2
        assert traj.hit_step % 2 == 0
        assert len(traj.events) == traj.hit_step
        assert traj.final_state() == EMPTY

    def test_simulate_zero_steps(self):
        m = ContactModel()
        traj = simulate(EMPTY, m, None, 0, seed=1)
        assert traj.events == () and traj.terminal_reason == "max_steps"

    def test_trajectory_event_steps_are_one_based(self):
        m = ContactModel()
        traj = simulate(EMPTY, m, None, 5, seed=2)
        assert [e.step_index for e in traj.events] == [1, 2, 3, 4, 5]


class TestTargets:
    def test_target_set_union_membership_and_label(self):
        pieces = (LayerSet(0, EmptySingleton()), LayerSet(1, BallSet(RhoBall(Configuration([[0.0]]), 0.5))))
        ts = TargetSet(pieces)
        assert ts.membership(EMPTY)
        assert ts.membership(Configuration([[0.3]]))
        assert not ts.membership(Configuration([[2.0]]))
        assert "empty" in ts.label() and "|" in ts.label()
        with pytest.raises(ValueError):
            TargetSet(())

    def test_predicate_target_always_true_hits_immediately(self):
        class Anything(TargetPiece):
            dimensions = (1, None)

            def contains(self, state):
                return True

            def label(self):
                return "anything"

        m = ContactModel()
        target = TargetSet((Anything(),))
        est = hitting_estimate(EMPTY, target, m, 10, 50, seed=3)
        assert est.hits == 50 and est.estimate == 1.0 and est.ci_high == 1.0
        traj = simulate(EMPTY, m, target, 10, seed=3)
        assert traj.hit_step == 1

    def test_exact_point_target_membership(self):
        t = ExactPointTarget((0.5,))
        assert t.contains(Configuration([[0.5], [1.0]]))
        assert not t.contains(Configuration([[0.5 + 1e-12]]))
        assert not t.contains(EMPTY)

    def test_hyperplane_target_membership(self):
        t = HyperplaneTarget(1, 2.0)
        assert t.contains(Configuration([[0.0, 2.0]]))
        assert not t.contains(Configuration([[2.0, 0.0]]))

    def test_pair_distance_target_membership(self):
        t = PairDistanceTarget(1.0)
        assert t.contains(Configuration([[0.0], [1.0], [5.0]]))
        assert not t.contains(Configuration([[0.0], [1.0 + 1e-9]]))
        assert not t.contains(Configuration([[0.0]]))

    @pytest.mark.parametrize("axis", [True, -1, 1.5])
    def test_hyperplane_axis_must_be_a_whole_number(self, axis):
        # True read axis 1, -1 the last axis, and 1.5 died mid-walk.
        with pytest.raises(ValueError, match="axis"):
            HyperplaneTarget(axis, 7.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_hyperplane_value_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="value"):
            HyperplaneTarget(0, value)

    @pytest.mark.parametrize("distance", [math.nan, -1.0, 0.0, math.inf])
    def test_pair_distance_must_be_positive_and_finite(self, distance):
        # A distance no pair can have made an audit that could only pass.
        with pytest.raises(ValueError, match="distance"):
            PairDistanceTarget(distance)

    def test_null_one_step_detector(self):
        p0 = (1.0,)
        t = ExactPointTarget(p0)
        witness = Configuration([p0, (3.0,)])
        assert t.contains(witness)
        assert t.contains(Configuration([p0]))
        assert not t.contains(Configuration([[0.9], [3.0]]))
        assert not t.contains(EMPTY)

    @settings(max_examples=300)
    @given(
        xs=st.lists(st.integers(-8, 8).map(lambda k: k / 4), max_size=6, unique=True),
        point=st.integers(-8, 8).map(lambda k: k / 4),
        distance=st.integers(1, 16).map(lambda k: k / 4),
    )
    def test_one_step_positive_is_the_brute_force_definition(self, xs, point, distance):
        # Inside already, or one death lands inside: the definition before
        # monotonicity reduced it to membership.  Quarter-grid points make
        # exact hits on the point, the hyperplane and the pair distance common.
        state = Configuration([(x,) for x in xs])
        for target in (ExactPointTarget((point,)), HyperplaneTarget(0, point),
                       PairDistanceTarget(distance)):
            brute = target.contains(state) or any(
                target.contains(state.without_index(i)) for i in range(len(state))
            )
            assert target.contains(state) == brute

    @settings(max_examples=300)
    @given(
        data=st.data(),
        dimension=st.integers(1, 2),
        distance=st.sampled_from([0.25, 0.5, 1.0, math.sqrt(0.125), math.sqrt(1.25), 1.25]),
    )
    def test_membership_is_the_brute_force_definition(self, data, dimension, distance):
        # Written from each predicate's definition alone, independently of
        # entered_by_birth; quarter-grid points make exact hits common.
        coord = st.integers(-4, 4).map(lambda k: k / 4)
        point = st.tuples(*[coord] * dimension)
        state = Configuration(data.draw(st.lists(point, max_size=6, unique=True)))
        exact = data.draw(point)
        axis = data.draw(st.integers(0, dimension - 1))
        value = data.draw(coord)
        pts = state.points
        assert ExactPointTarget(exact).contains(state) == any(p == exact for p in pts)
        assert HyperplaneTarget(axis, value).contains(state) == any(p[axis] == value for p in pts)
        assert PairDistanceTarget(distance).contains(state) == any(
            math.dist(pts[i], pts[j]) == distance
            for i in range(len(pts)) for j in range(i + 1, len(pts))
        )

    def test_ball_target_tracks_metric(self):
        ball = RhoBall(Configuration([[0.0], [1.0]]), 0.25)
        t = LayerSet(ball.layer, BallSet(ball))
        assert t.contains(Configuration([[0.1], [1.2]]))
        assert not t.contains(Configuration([[0.1], [1.3]]))
        assert not t.contains(Configuration([[0.1]]))


class TestWilsonInterval:
    def test_matches_scipy_reference(self):
        for hits, total in [(1, 10), (5, 10), (9, 10), (50, 1000), (997, 1000)]:
            low, high = wilson_interval(hits, total)
            ref = stats.binomtest(hits, total).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert low == pytest.approx(ref.low, abs=1e-10)
            assert high == pytest.approx(ref.high, abs=1e-10)

    def test_boundary_counts_are_exact(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_interval_contains_point_estimate(self):
        for hits, total in [(0, 7), (3, 7), (7, 7), (123, 456)]:
            low, high = wilson_interval(hits, total)
            assert low <= hits / total <= high


# Moves recorded with the uniform-only ball draw (angle and radius in
# d=2, Box-Muller pairs in d >= 3) and with every layer set testing its
# own size; any change to the draws, the crowding rates or the step
# kernel shows here.
GOLDEN_D2 = (
    ("birth", (-0.5262864792420119, 1.2324681556904655)),
    ("birth", (-0.1520227519420308, 1.4343356273751826)),
    ("birth", (-1.1926574177724167, 0.816827341878966)),
    ("death", (-0.1520227519420308, 1.4343356273751826)),
    ("birth", (-0.48205456036474914, 0.10737294928743862)),
    ("birth", (-0.40711430411254446, 0.8042865028881211)),
    ("birth", (-0.1999090782914829, 0.9059177952822348)),
    ("death", (0.3, 0.1)),
    ("birth", (-0.5564374438824542, 1.4969916963468834)),
    ("birth", (-0.1464220300887793, 1.153181177319009)),
    ("birth", (-1.3696578307701563, 1.0003481451591298)),
    ("birth", (-1.3567067917991436, 1.4300216831693269)),
    ("birth", (-1.1140737760746566, 0.7665002070323961)),
    ("birth", (-0.17904762678960043, 0.5530793493090683)),
    ("birth", (-0.8433863275500264, 1.9368794163038974)),
    ("death", (-0.2, 0.4)),
)
# The d=1 stream: a crowded and an uncrowded trajectory, and a lockstep
# hit count; the d >= 2 ball draw never touches them.
GOLDEN_D1 = {
    "crowding": (
        ("birth", (-0.1905479691183083,)),
        ("birth", (-0.4155363694398964,)),
        ("death", (-0.2,)),
        ("death", (0.0,)),
        ("birth", (0.08875931553973015,)),
        ("birth", (0.06573105102583054,)),
        ("death", (-0.4155363694398964,)),
        ("birth", (0.8988568769029939,)),
        ("birth", (-0.7778601463472476,)),
        ("birth", (-0.027944466094799836,)),
        ("death", (0.08875931553973015,)),
        ("death", (0.8988568769029939,)),
        ("birth", (-1.2417344072119891,)),
        ("death", (-0.7778601463472476,)),
        ("birth", (-0.46385033114900454,)),
        ("death", (0.3,)),
    ),
    "plain": (
        ("birth", (-0.28093446449271703,)),
        ("birth", (-0.17168086786139541,)),
        ("birth", (-0.33289682361127304,)),
        ("birth", (-0.20658338617530703,)),
        ("birth", (-0.6675652281611042,)),
        ("birth", (0.004614745338774651,)),
        ("birth", (-0.2013444041154393,)),
        ("birth", (0.3428381603113149,)),
        ("birth", (-0.06473685930919273,)),
        ("birth", (-0.15362969761360676,)),
        ("birth", (-0.24795430804844432,)),
        ("death", (0.2,)),
    ),
    "lockstep_hits": (258, 500),
}
GOLDEN_D3 = (
    ("birth", (0.35849437667674094, -0.06329549685918723, -0.38183864476518176)),
    ("birth", (0.7197767260732646, -0.5428255339001824, -0.014579317457994068)),
    ("birth", (-0.11355359144513072, 0.002390197483396861, 0.41015594969551006)),
    ("birth", (-0.3374126431876711, -0.06784169865901807, -0.23486293783601445)),
    ("birth", (0.2533361645336467, 0.11720939452776387, 0.267928432146872)),
    ("birth", (0.2502540309051157, -0.5842584367451548, -0.30159571947013764)),
    ("birth", (-0.20743695761572623, -0.9976640551196347, -0.05440865750189508)),
    ("birth", (0.2584630407356066, -1.1272600944191118, 0.014851145304729918)),
    ("birth", (-0.39376287325475495, -1.2731947112049364, 0.004921580263389354)),
    ("death", (0.7197767260732646, -0.5428255339001824, -0.014579317457994068)),
    ("birth", (-0.6335633016741817, 0.395074646889231, 0.362644696229168)),
    ("birth", (0.25122447241182266, -0.6781003138516769, -0.7048599184945061)),
)


class TestGoldenMoves:
    def test_d1_crowding_trajectory(self):
        m = ContactModel(crowding_death=0.3, immigration_intensity=3.0,
                         neighbor_intensity=1.5, baseline_death=0.4)
        traj = simulate(Configuration([[0.0], [0.3], [-0.2]]), m, None, 16, 2024)
        assert tuple((e.kind, e.point) for e in traj.events) == GOLDEN_D1["crowding"]

    def test_d1_trajectory(self):
        m = ContactModel(interaction_radius=0.8, immigration_intensity=3.0,
                         neighbor_intensity=2.0, baseline_death=0.4)
        traj = simulate(Configuration([[0.2], [-0.3]]), m, None, 12, 99)
        assert tuple((e.kind, e.point) for e in traj.events) == GOLDEN_D1["plain"]

    def test_d1_lockstep_hit_count(self):
        start, model = Configuration([[0.1]]), ContactModel()
        target = TargetSet((LayerSet(2, BallSet(RhoBall(Configuration([[-1 / 6], [1 / 6]]), 0.25))),))
        assert chain._lockstep_target(model, target, 1 + 6) is not None
        est = hitting_estimate(start, target, model, 6, 500, 77)
        assert (est.hits, est.replicas) == GOLDEN_D1["lockstep_hits"]

    def test_d2_crowding_trajectory(self):
        m = ContactModel(dimension=2, crowding_death=0.3, immigration_intensity=3.0,
                         neighbor_intensity=1.5, baseline_death=0.4)
        start = Configuration([(0.0, 0.0), (0.3, 0.1), (-0.2, 0.4)])
        traj = simulate(start, m, None, 16, 2024)
        assert tuple((e.kind, e.point) for e in traj.events) == GOLDEN_D2

    def test_d3_crowding_trajectory(self):
        m = ContactModel(dimension=3, crowding_death=0.25, interaction_radius=0.8,
                         immigration_intensity=3.0, neighbor_intensity=2.0, baseline_death=0.4)
        start = Configuration([(0.0, 0.0, 0.0), (0.2, -0.3, 0.1)])
        traj = simulate(start, m, None, 12, 99)
        assert tuple((e.kind, e.point) for e in traj.events) == GOLDEN_D3


class TestHittingEstimate:
    def test_deterministic_for_fixed_seed(self, monkeypatch):
        m = ContactModel()
        target = TargetSet((LayerSet(0, EmptySingleton()),))
        a = hitting_estimate(Configuration([[0.1]]), target, m, 60, 200, seed=13)
        # Counts do not depend on where the replica blocks split.
        monkeypatch.setattr(chain, "_BLOCK", 7)
        b = hitting_estimate(Configuration([[0.1]]), target, m, 60, 200, seed=13)
        assert a == b

    def test_truncation_monotone_in_steps(self):
        m = ContactModel()
        target = TargetSet((LayerSet(0, EmptySingleton()),))
        short = hitting_estimate(Configuration([[0.1]]), target, m, 4, 300, seed=19)
        long = hitting_estimate(Configuration([[0.1]]), target, m, 80, 300, seed=19)
        assert short.hits <= long.hits

    def test_input_validation(self):
        m = ContactModel()
        target = TargetSet((LayerSet(0, EmptySingleton()),))
        with pytest.raises(ValueError):
            hitting_estimate(EMPTY, target, m, 0, 10, seed=0)
        with pytest.raises(ValueError):
            hitting_estimate(EMPTY, target, m, 10, 0, seed=0)
        # Counts must be integers, not booleans, floats with a fraction or non-finite floats.
        for bad in (True, 2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="replicas"):
                hitting_estimate(EMPTY, target, m, 10, bad, seed=0)
            with pytest.raises(ValueError, match="max_steps"):
                hitting_estimate(EMPTY, target, m, bad, 10, seed=0)
            with pytest.raises(ValueError, match="max_steps"):
                simulate(EMPTY, m, target, bad, seed=0)
        with pytest.raises(ValueError, match="max_steps"):
            simulate(EMPTY, m, target, -1, seed=0)
        # An integral float counts as its integer.
        assert hitting_estimate(EMPTY, target, m, 10.0, 10.0, seed=0) == hitting_estimate(
            EMPTY, target, m, 10, 10, seed=0)


class TestNullEntryByBirth:
    # Points on a quarter grid, so exact distances and coordinates recur.
    grid = st.integers(-4, 8).map(lambda k: k / 4)

    @given(
        dimension=st.integers(1, 2),
        coords=st.lists(st.tuples(grid, grid), min_size=1, max_size=7, unique=True),
        pick=st.integers(0, 6),
    )
    def test_entered_by_birth_matches_membership_change(self, dimension, coords, pick):
        state = Configuration({c[:dimension] for c in coords})
        index = pick % len(state)
        newborn = state.points[index]
        before = state.without_index(index)
        pieces = [ExactPointTarget((1.0,) * dimension), HyperplaneTarget(0, 0.25), PairDistanceTarget(1.0)]
        for piece in pieces:
            entered = piece.entered_by_birth(state, newborn)
            assert piece.contains(state) == (piece.contains(before) or entered)
            if not piece.contains(before):
                assert entered == (piece.contains(state) and not piece.contains(before))


class _ScalarContact(ContactModel):
    """The contact model under another type, which keeps it on ``_advance``, the reference."""


class _Lattice:
    """Generator stand-in whose uniforms are multiples of 1/8.

    Births then land on a lattice and often on occupied points, which
    exercises the collision redraw.  It counts the uniforms it hands out.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.used = 0

    def random(self, size=None):
        self.used += 1 if size is None else size
        values = np.floor(self._rng.random(size) * 8.0) / 8.0
        return float(values) if size is None else values


def _spec(target):
    return chain._lockstep_target(ContactModel(), target, 2**53)


class TestLockstepBackend:
    starts = [
        EMPTY,
        Configuration([[0.0]]),
        sample_poisson_config(1.0, BoxRegion((-1.5,), (1.5,)), np.random.default_rng(5)),
        Configuration([[-0.1], [0.2]]),  # inside the two-point ball
    ]
    two_point = LayerSet(2, BallSet(RhoBall(Configuration([[-1 / 6], [1 / 6]]), 0.25)))
    targets = [
        TargetSet((LayerSet(0, EmptySingleton()),)),
        TargetSet((LayerSet(1, BallSet(RhoBall(Configuration([[0.1]]), 0.25))),)),
        TargetSet((two_point,)),
        TargetSet((LayerSet(0, EmptySingleton()), LayerSet(1, BallSet(RhoBall(Configuration([[1 / 3]]), 0.25))), two_point)),
    ]

    # Box shapes, alone and beside lockstep pieces, run on the scalar kernel.
    box_targets = [
        TargetSet((LayerSet(1, AllInRegion(BoxRegion((-0.2,), (0.3,)))),)),
        TargetSet((LayerSet(0, EmptySingleton()),
                   LayerSet(2, ProductOfDisjointBoxes((BoxRegion((-0.5,), (0.0,)), BoxRegion((0.0,), (0.5,))))))),
    ]

    def test_backend_choice_follows_the_input(self):
        assert all(_spec(t) is not None for t in self.targets)
        assert all(_spec(t) is None for t in self.box_targets)
        empty = self.targets[0]
        assert chain._lockstep_target(_ScalarContact(), empty, 100) is None
        assert chain._lockstep_target(ContactModel(dimension=2), empty, 100) is None
        assert chain._lockstep_target(ContactModel(crowding_death=0.3), empty, 100) is None
        mixed = TargetSet((LayerSet(0, EmptySingleton()), ExactPointTarget((0.0,))))
        assert chain._lockstep_target(ContactModel(), mixed, 100) is None

    # Live rows below which a block hands its tail to the scalar kernel:
    # never (pure lockstep arithmetic), the default, and from the start.
    tails = [0, _lockstep._TAIL, 10**9]

    @pytest.mark.parametrize("split", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hit_counts_equal_the_scalar_kernel(self, seed, split, monkeypatch):
        # Small blocks, so every estimate spans several of them; splitting
        # each block in two must not change the counts either.
        monkeypatch.setattr(chain, "_BLOCK", 16 // split)
        lockstep, scalar = ContactModel(), _ScalarContact()
        assert len(self.starts[2]) > 1
        cases = itertools.product(self.tails, self.starts, self.targets + self.box_targets, [1, 7, 400])
        for tail, start, target, max_steps in cases:
            monkeypatch.setattr(_lockstep, "_TAIL", tail)
            fast = hitting_estimate(start, target, lockstep, max_steps, 50, seed)
            slow = hitting_estimate(start, target, scalar, max_steps, 50, seed)
            assert fast == slow, (tail, start, target.label(), max_steps)

    def test_collision_redraws_match_the_scalar_kernel(self, monkeypatch):
        # Dyadic masses (immigration 2, per neighbor 1) make move draws hit
        # partial death sums exactly, which pins the dying-index tie rule.
        model = ContactModel(immigration_intensity=2.0, neighbor_intensity=0.5)
        start = Configuration([[0.0], [0.5]])
        target = TargetSet((LayerSet(2, BallSet(RhoBall(Configuration([[0.25], [0.75]]), 0.3))),))
        member = target.membership
        hits = redrawn = 0
        for seed in range(40):
            # The scalar first-hit step of this replica, if any, within 60 steps.
            rng, state, first = _Lattice(seed), start, None
            births = deaths = 0
            for step_index in range(1, 61):
                state, kind, _ = chain._advance(state, model, rng)
                births += kind == "birth"
                deaths += kind == "death"
                if member(state):
                    first = step_index
                    break
            redrawn += rng.used > deaths + 3 * births
            for tail, max_steps in itertools.product(self.tails, (1, 2, 10, 45, 60)):
                monkeypatch.setattr(_lockstep, "_TAIL", tail)
                lockstep = chain._count_hits(start, model, target, max_steps, [_Lattice(seed)])
                assert lockstep == int(first is not None and first <= max_steps), (seed, tail)
            hits += first is not None
        assert 0 < hits < 40 and redrawn >= 10

    # Eighths keep the arithmetic exact, so candidates land on the sphere.
    eighths = st.integers(-16, 16).map(lambda k: k / 8)

    @settings(max_examples=200)
    @given(
        center=st.lists(st.floats(-2, 2) | eighths, min_size=1, max_size=4, unique=True),
        radius=st.floats(0.01, 1.0) | st.integers(1, 8).map(lambda k: k / 8),
        moves=st.lists(st.lists(st.floats(-1.5, 1.5) | eighths, max_size=5), min_size=1, max_size=6),
    )
    def test_batched_ball_membership_matches_in_ball(self, center, radius, moves):
        ball = RhoBall(Configuration([[c] for c in center]), radius)
        near = [{p[0] + radius * m for p, m in zip(ball.center.points, ms)} for ms in moves]
        configs = [Configuration([[x] for x in xs]) for xs in near]
        width = max(len(c) for c in configs) + 1
        rows = np.full((len(configs), width), np.inf)
        for k, config in enumerate(configs):
            rows[k, : len(config)] = [p[0] for p in config.points]
        counts = np.array([len(c) for c in configs])
        center_xs = np.array([p[0] for p in ball.center.points])
        got = _lockstep.ball_members(rows, counts, center_xs, ball.radius)
        assert got.tolist() == [in_ball(c, ball) for c in configs]

    def test_reused_seed_sequence_gives_the_same_estimate(self):
        target = TargetSet((LayerSet(0, EmptySingleton()),))
        for model in (ContactModel(), _ScalarContact()):
            root = np.random.SeedSequence(23)
            first = hitting_estimate(Configuration([[0.1]]), target, model, 40, 80, root)
            second = hitting_estimate(Configuration([[0.1]]), target, model, 40, 80, root)
            assert first == second
            assert first == hitting_estimate(Configuration([[0.1]]), target, model, 40, 80, 23)

    def test_replica_seed_equals_spawn_of_a_fresh_root(self):
        fresh = np.random.SeedSequence(23, spawn_key=(4,))
        spawned = np.random.SeedSequence(23, spawn_key=(4,)).spawn(3)
        for index, child in enumerate(spawned):
            derived = chain._replica_seed(fresh, index)
            assert derived.spawn_key == child.spawn_key
            assert (derived.generate_state(4) == child.generate_state(4)).all()
        assert fresh.n_children_spawned == 0


# The immigration ball holds two doubles and a neighbour's ball only the
# neighbour, and deaths are all but impossible: once both doubles are
# occupied, every birth draw lands on an occupied point.
CROWDED = dict(immigration_center=[1.0], immigration_radius=1e-16, interaction_radius=1e-300,
               baseline_death=1e-300)


class TestBirthRedrawLimit:
    """A birth that keeps landing on occupied points raises after 1000 draws instead of hanging."""

    @pytest.mark.parametrize("model_type", [ContactModel, _ScalarContact], ids=["fused", "advance"])
    def test_simulate_and_scalar_hitting_raise(self, model_type):
        model = model_type(**CROWDED)
        # A box target keeps the hitting estimate on the scalar kernel.
        box = TargetSet((LayerSet(1, AllInRegion(BoxRegion((5.0,), (6.0,)))),))
        assert chain._lockstep_target(model, box, 50) is None
        with alarm(5):
            with pytest.raises(DegenerateStateError, match="1000 birth draws in a row"):
                simulate(EMPTY, model, None, 50, 1)
            with pytest.raises(DegenerateStateError, match=r"contact\(d=1, r=1e-300"):
                hitting_estimate(EMPTY, box, model, 50, 4, 1)

    def test_lockstep_hitting_raises(self, monkeypatch):
        model = ContactModel(**CROWDED)
        empty = TargetSet((LayerSet(0, EmptySingleton()),))
        assert chain._lockstep_target(model, empty, 50) is not None
        # Every row stays in the lockstep block to the end.
        monkeypatch.setattr(_lockstep, "_TAIL", 0)
        with alarm(5), pytest.raises(DegenerateStateError, match="1000 birth draws in a row"):
            hitting_estimate(EMPTY, empty, model, 50, 64, 1)


class TestJumpMassOverflow:
    """A total jump rate past the float range raises DegenerateStateError naming the model, in every kernel."""

    # Per neighbour, 1.6e308 in d=1 and 1.57e308 in d=2: two points' birth mass is inf.
    @pytest.mark.parametrize("d, intensity", [(1, 8e307), (2, 5e307)])
    @pytest.mark.parametrize("model_type", [ContactModel, _ScalarContact], ids=["fused", "advance"])
    def test_step_and_simulate_raise(self, model_type, d, intensity):
        model = model_type(dimension=d, neighbor_intensity=intensity)
        start = Configuration([(0.1,) + (0.0,) * (d - 1), (0.2,) + (0.0,) * (d - 1)])
        message = rf"a state of 2 points has total jump rate inf under contact\(d={d}"
        with pytest.raises(DegenerateStateError, match=message):
            step(start, model, 1)
        with pytest.raises(DegenerateStateError, match=message):
            simulate(start, model, None, 5, 1)

    def test_one_step_probabilities_raise(self):
        # They read 0.0 and nan, not probabilities of a chain that cannot move.
        model, start = ContactModel(neighbor_intensity=8e307), Configuration([[0.1], [0.2]])
        for probability in (lambda: death_probability(start, (0.1,), model),
                            lambda: birth_probability_region(start, None, model)):
            with pytest.raises(DegenerateStateError, match="2 points has total jump rate inf"):
                probability()

    def test_lockstep_hitting_raises(self):
        # The model could leave the float range within the budget, so the scalar kernel runs it.
        model = ContactModel(neighbor_intensity=8e307)
        empty = TargetSet((LayerSet(0, EmptySingleton()),))
        assert chain._lockstep_target(model, empty, 2 + 20) is None
        with pytest.raises(DegenerateStateError, match=r"2 points has total jump rate inf under contact"):
            hitting_estimate(Configuration([[0.1], [0.2]]), empty, model, 20, 600, 1)

    def test_a_runaway_model_never_enters_the_lockstep_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the lockstep block ran a model whose jump rate overflows")

        monkeypatch.setattr(_lockstep, "count_hits", refuse)
        model = ContactModel(neighbor_intensity=8e307)
        empty = TargetSet((LayerSet(0, EmptySingleton()),))
        with pytest.raises(DegenerateStateError, match=r"a state of 2 points has total jump rate inf under contact"):
            hitting_estimate(Configuration([[0.1], [0.2]]), empty, model, 20, 600, 1)

    @pytest.mark.parametrize("max_steps", [1, 4, 5, 12])
    def test_lockstep_raises_exactly_where_the_scalar_kernel_does(self, max_steps):
        # 4e307 per neighbour: the total jump rate is finite up to 4 points and inf at 5, and
        # deaths are all but impossible, so every replica from one point steps from 5 at step 5.
        start, empty = Configuration([[0.1]]), TargetSet((LayerSet(0, EmptySingleton()),))
        results = []
        for model in (ContactModel(neighbor_intensity=2e307), _ScalarContact(neighbor_intensity=2e307)):
            try:
                results.append(hitting_estimate(start, empty, model, max_steps, 64, 3))
            except DegenerateStateError as err:
                results.append(str(err))
        assert results[0] == results[1]
        assert isinstance(results[0], str) == (max_steps >= 5)


class TestChunkedReads:
    # Contact walks take the fused kernel, and walks that own their
    # generator (scalar hitting and the null audit) read uniforms in
    # chunks in every dimension; simulate on _ScalarContact steps with
    # _advance and reads draw by draw, the reference.
    @pytest.mark.parametrize("crowding", [0.0, 0.4])
    def test_simulate_equals_per_draw_reads(self, crowding):
        rng = np.random.default_rng(0)
        for dimension in (1, 2, 3):
            chunked = ContactModel(dimension=dimension, crowding_death=crowding)
            per_draw = _ScalarContact(dimension=dimension, crowding_death=crowding)
            pad = [0.0] * (dimension - 1)
            start = Configuration([[0.0] + pad, [0.5] + pad])
            assert isinstance(chain._own_stream(rng, chunked), _lockstep.Reader)
            assert chain._own_stream(rng, per_draw) is rng
            for seed, max_steps in itertools.product(range(200), [1, 2, 3, 80]):
                for initial in (EMPTY, start):
                    reader = chain._own_stream(np.random.default_rng(seed), chunked)
                    fast = [(kind, point) for _, kind, point in chain._walk(initial, chunked, reader, max_steps)]
                    slow = simulate(initial, per_draw, None, max_steps, seed)
                    assert fast == [(e.kind, e.point) for e in slow.events], (dimension, seed, max_steps)

    def test_birth_component_is_clamped_like_sample_birth_location(self):
        # A component uniform just below one rounds to the index n = 17
        # of the default model, one past the last point, and both
        # kernels clamp it to the last point.
        model = ContactModel()
        state = Configuration([[10.0 * k] for k in range(17)])
        draws = [0.9, 1.0 - 2.0**-53, 0.25]
        imm, per = model._immigration_mass, model._per_neighbor_mass
        assert int((draws[1] * (imm + per * 17) - imm) / per) == 17
        moves = []
        for kernel_model in (model, _ScalarContact()):
            scripted = SimpleNamespace(random=iter(draws).__next__)
            moves.append(next(chain._walk(state, kernel_model, scripted, 1)))
        assert moves[0] == moves[1]
        assert moves[0][1:] == ("birth", (159.5,))

    def test_collision_redraws_across_a_chunk_boundary(self):
        # A birth without a redraw reads the move, the component and the
        # ball draw: one uniform in d=1, an angle and a radius in d=2.
        # In d=2 a radius uniform of 0 puts the newborn on its parent.
        for dimension in (1, 2):
            model = ContactModel(dimension=dimension, immigration_intensity=2.0, neighbor_intensity=0.5)
            start = Configuration([[0.0] * dimension, [0.5] * dimension])
            birth_reads = 2 + dimension
            straddled = 0
            for seed in range(20):
                rng, state, moves = _Lattice(seed), start, []
                for _ in range(200):
                    before = rng.used
                    state, kind, point = chain._advance(state, model, rng)
                    moves.append((state, kind, point))
                    # A redrawn birth that reads on both sides of a chunk
                    # edge straddles it.
                    edges = range(_lockstep._CHUNK, rng.used, _lockstep._CHUNK)
                    straddled += kind == "birth" and rng.used - before > birth_reads and any(
                        before < edge < rng.used for edge in edges
                    )
                reader = chain._own_stream(_Lattice(seed), model)
                assert isinstance(reader, _lockstep.Reader)
                assert list(chain._walk(start, model, reader, 200)) == moves, (dimension, seed)
            assert straddled >= 10, dimension

    def test_a_callers_generator_is_read_draw_by_draw(self):
        d1 = (ContactModel(), _ScalarContact(), Configuration([[0.0], [0.3]]))
        d2 = (ContactModel(dimension=2, crowding_death=0.4),
              _ScalarContact(dimension=2, crowding_death=0.4),
              Configuration([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]]))
        for chunked, per_draw, state in (d1, d2):
            for seed in range(20):
                mine, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                assert step(state, chunked, mine) == step(state, per_draw, twin)
                assert mine.bit_generator.state == twin.bit_generator.state
                first = simulate(state, chunked, None, 30, mine)
                second = simulate(state, per_draw, None, 30, twin)
                assert first.events == second.events
                assert mine.bit_generator.state == twin.bit_generator.state
                assert mine.random() == twin.random()


class TestBatchSeeding:
    words = st.integers(0, 2**32 - 1)
    wide = st.integers(2**32, 2**64)

    @settings(max_examples=60)
    @given(
        entropy=words | st.integers(2**64, 2**128 - 1) | st.lists(words | wide, max_size=9) | st.none(),
        spawn_key=st.lists(words | wide, max_size=3),
        pool_size=st.sampled_from([4, 8]),
        extra=words,
    )
    def test_batch_generators_equal_default_rng_of_replica_seed(self, entropy, spawn_key, pool_size, extra):
        root = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key), pool_size=pool_size)
        indices = [0, 2**31, 2**32 - 1, extra]
        for index, rng in zip(indices, chain._replica_rngs(root, indices), strict=True):
            reference = np.random.default_rng(chain._replica_seed(root, index))
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random(3).tolist() == reference.random(3).tolist()
            assert rng.integers(2**63, size=2).tolist() == reference.integers(2**63, size=2).tolist()

    def test_streams_cross_batch_boundaries_unchanged(self):
        root = np.random.SeedSequence(31, spawn_key=(2,))
        indices = range(5, 5 + 2 * chain._BLOCK + 3)
        for index, rng in zip(indices, chain._replica_rngs(root, indices), strict=True):
            assert rng.random() == np.random.default_rng(chain._replica_seed(root, index)).random()

    @pytest.mark.parametrize("index", [2**32, -1])
    def test_index_outside_one_word_raises(self, index):
        with pytest.raises(ValueError):
            next(chain._replica_rngs(np.random.SeedSequence(1), [0, index]))

    def test_self_check_catches_a_wrong_pool(self):
        root = np.random.SeedSequence(7)
        wrong = SimpleNamespace(entropy=root.entropy, spawn_key=root.spawn_key,
                                pool_size=root.pool_size, pool=root.pool ^ np.uint32(1))
        with pytest.raises(RuntimeError):
            next(chain._replica_rngs(wrong, range(3)))
