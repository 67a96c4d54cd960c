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
    PredicateTarget,
    ProductOfDisjointBoxes,
    RhoBall,
    TargetSet,
    birth_probability_region,
    death_probability,
    hitting_estimate,
    in_ball,
    sample_poisson_config,
    simulate,
    step,
    wilson_interval,
)
from conftest import alarm


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
            assert birth.std_error == 0.0
            assert death_sum + birth.value == pytest.approx(1.0, abs=1e-9)

    def test_empty_state_is_pure_birth(self):
        m = ContactModel()
        birth = birth_probability_region(EMPTY, None, m)
        assert birth.value == pytest.approx(1.0, abs=1e-12)

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
        assert p.std_error == 0.0
        assert p.value == pytest.approx(expected, rel=1e-12)

    def test_disjoint_region_is_zero(self):
        m = ContactModel()
        p = birth_probability_region(Configuration([[0.0]]), BallRegion((9.0,), 0.3), m)
        assert p.value == 0.0 and p.std_error == 0.0

    def test_empty_state_immigration_ball_is_certain(self):
        m = ContactModel()
        p = birth_probability_region(EMPTY, BallRegion((0.0,), 0.5), m)
        assert p.value == pytest.approx(1.0, rel=1e-12)
        assert p.std_error == 0.0


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
        m = ContactModel()
        target = TargetSet((PredicateTarget(lambda s: True, name="anything"),))
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

    def test_null_one_step_detector(self):
        p0 = (1.0,)
        t = ExactPointTarget(p0)
        witness = Configuration([p0, (3.0,)])
        assert t.one_step_positive(witness)
        assert t.one_step_positive(Configuration([p0]))
        assert not t.one_step_positive(Configuration([[0.9], [3.0]]))
        assert not t.one_step_positive(EMPTY)

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
            assert target.one_step_positive(state) == brute

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


# Moves recorded with the ball draw's norm taken as ``direction @ direction``
# and with every layer set testing its own size; any change to the draws,
# the crowding rates or the step kernel shows here.
GOLDEN_D2 = (
    ("birth", (0.5608397580136064, -0.2456972676814292)),
    ("death", (0.3, 0.1)),
    ("death", (0.0, 0.0)),
    ("birth", (0.397798509007626, 0.9093569047848842)),
    ("death", (0.5608397580136064, -0.2456972676814292)),
    ("birth", (0.22705170931446628, -0.3851034028806462)),
    ("birth", (0.07457412343077713, -0.05016713616637497)),
    ("birth", (-0.07671659513978814, -0.10315656416373176)),
    ("birth", (-0.3986253619046763, 0.251661141923498)),
    ("birth", (1.1389880300310562, -0.7502093535831327)),
    ("birth", (0.4958686642749674, -0.0729237332168387)),
    ("birth", (0.31801183199560573, -0.8283072525006685)),
    ("death", (0.4958686642749674, -0.0729237332168387)),
    ("death", (-0.3986253619046763, 0.251661141923498)),
    ("birth", (0.5486967637452896, -0.21311331764571756)),
    ("birth", (0.5250650331860021, -0.599910359116665)),
)
GOLDEN_D3 = (
    ("birth", (0.01774139698682003, 0.24101114953907904, -0.6170024532643117)),
    ("birth", (-0.31956810783791306, 0.5412136745565292, -0.3995388556469691)),
    ("birth", (0.14351629207388458, 0.4085705167980243, -0.38339397148863613)),
    ("birth", (0.33129518422779863, -0.161667893036407, 0.3088613841156158)),
    ("birth", (-0.19912649135396723, 0.9440908018454235, -0.3124650320092772)),
    ("death", (0.2, -0.3, 0.1)),
    ("death", (-0.19912649135396723, 0.9440908018454235, -0.3124650320092772)),
    ("birth", (0.10182879166029501, 0.6896466836170569, -0.7373670896910792)),
    ("birth", (0.17338813978116016, 0.41356491180536353, 0.01642295379225811)),
    ("birth", (-0.09613559698050383, 0.8380461703739068, 0.13760273347855884)),
    ("birth", (0.1845602967950851, 0.0019118489993820154, 0.4912637114100267)),
    ("birth", (-0.4545953704423922, 0.42029199068701256, -0.8456776929427736)),
)


class TestGoldenMoves:
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
    return chain._lockstep_target(EMPTY, ContactModel(), target)


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
        assert chain._lockstep_target(EMPTY, _ScalarContact(), empty) is None
        assert chain._lockstep_target(EMPTY, ContactModel(dimension=2), empty) is None
        assert chain._lockstep_target(EMPTY, ContactModel(crowding_death=0.3), empty) is None
        assert chain._lockstep_target(Configuration([[0.0, 1.0]]), ContactModel(), empty) is None
        mixed = TargetSet((LayerSet(0, EmptySingleton()), ExactPointTarget((0.0,))))
        assert chain._lockstep_target(EMPTY, ContactModel(), mixed) is None

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
        assert chain._lockstep_target(EMPTY, model, box) is None
        with alarm(5):
            with pytest.raises(DegenerateStateError, match="1000 birth draws in a row"):
                simulate(EMPTY, model, None, 50, 1)
            with pytest.raises(DegenerateStateError, match=r"contact\(d=1, r=1e-300"):
                hitting_estimate(EMPTY, box, model, 50, 4, 1)

    def test_lockstep_hitting_raises(self, monkeypatch):
        model = ContactModel(**CROWDED)
        empty = TargetSet((LayerSet(0, EmptySingleton()),))
        assert chain._lockstep_target(EMPTY, model, empty) is not None
        # Every row stays in the lockstep block to the end.
        monkeypatch.setattr(_lockstep, "_TAIL", 0)
        with alarm(5), pytest.raises(DegenerateStateError, match="1000 birth draws in a row"):
            hitting_estimate(EMPTY, empty, model, 50, 64, 1)


class TestChunkedReads:
    # Contact walks take the fused kernel, and d=1 walks that own their
    # generator read uniforms in chunks; _ScalarContact steps with
    # _advance and reads draw by draw, the reference.
    @pytest.mark.parametrize("crowding", [0.0, 0.4])
    def test_simulate_equals_per_draw_reads(self, crowding):
        rng = np.random.default_rng(0)
        for dimension in (1, 2, 3):
            chunked = ContactModel(dimension=dimension, crowding_death=crowding)
            per_draw = _ScalarContact(dimension=dimension, crowding_death=crowding)
            pad = [0.0] * (dimension - 1)
            start = Configuration([[0.0] + pad, [0.5] + pad])
            center = Configuration([[-0.4] + pad, [0.6] + pad])
            target = TargetSet((LayerSet(len(center), BallSet(RhoBall(center, 0.2))),))
            reads_chunks = isinstance(chain._own_stream(rng, chunked), _lockstep.Reader)
            assert reads_chunks == (dimension == 1)
            assert chain._own_stream(rng, per_draw) is rng
            for seed, max_steps in itertools.product(range(200), [1, 2, 3, 80]):
                for initial, goal in ((EMPTY, None), (start, target)):
                    fast = simulate(initial, chunked, goal, max_steps, seed)
                    slow = simulate(initial, per_draw, goal, max_steps, seed)
                    assert fast == slow, (dimension, seed, max_steps)

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
        model = ContactModel(immigration_intensity=2.0, neighbor_intensity=0.5)
        start = Configuration([[0.0], [0.5]])
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
                straddled += kind == "birth" and rng.used - before > 3 and any(
                    before < edge < rng.used for edge in edges
                )
            reader = chain._own_stream(_Lattice(seed), model)
            assert isinstance(reader, _lockstep.Reader)
            assert list(chain._walk(start, model, reader, 200)) == moves, seed
        assert straddled >= 10

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
        indices = range(5, 5 + 2 * chain._SEED_BATCH + 3)
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
