"""Experiment-layer tests: reports, verdicts, determinism, rejections."""

import csv
import math

import numpy as np
import pytest

from birthdeath import (
    EMPTY,
    AllInRegion,
    BallSet,
    BoxRegion,
    CaseRow,
    Configuration,
    ContactModel,
    EmptySingleton,
    ExactPointTarget,
    ExperimentSetupError,
    HyperplaneTarget,
    LayerSet,
    PairDistanceTarget,
    ProductOfDisjointBoxes,
    RhoBall,
    SuiteSizes,
    null_set_experiment,
    one_step_null_preservation,
    positive_measure_experiment,
    run_default_suite,
    sample_poisson_config,
    simulate,
    step,
    TargetSet,
    build_path,
    corridor_prob_lower_bound,
    theorem_pipeline,
    validate_conditions,
)
from birthdeath import chain, lab
from birthdeath.chain import HittingEstimate
from birthdeath.lab import describe_configuration
from birthdeath.measure import sample_in_ball
from conftest import MISFITS

SMALL = SuiteSizes(
    max_steps=120,
    replicas=60,
    null_max_steps=40,
    null_replicas=40,
    preservation_draws=50,
    pipeline_replicas=200,
    extinction_replicas=50,
    extinction_max_steps=300,
    measure_samples=2_000,
)

# Null predicates that no state of the default 1-D model can meet, and the refusal naming both dimensions.
_MISFIT_NULLS = [(HyperplaneTarget(3, 0.0), "needs 4 or more dimensions, the model is 1-D"),
                 (ExactPointTarget((0.1, 0.2)), "is 2-D, the model is 1-D")]
_MISFIT_IDS = ["hyperplane-axis-3", "2-d-exact-point"]


def poisson_states(model, count, seed):
    center = model.immigration_region.center
    reach = model.immigration_region.radius + model.interaction_radius
    window = BoxRegion(tuple(c - reach for c in center), tuple(c + reach for c in center))
    rng = np.random.default_rng(seed)
    return [sample_poisson_config(1.0, window, rng) for _ in range(count)]


class TestPositiveMeasureExperiment:
    def test_small_run_passes_with_positive_lower_bounds(self):
        m = ContactModel()
        targets = [LayerSet(0, EmptySingleton()), LayerSet(1, BallSet(RhoBall(Configuration([[0.0]]), 0.25)))]
        starts = [EMPTY, Configuration([[0.3]])]
        report = positive_measure_experiment(
            m, targets, starts, max_steps=150, replicas=50, seed=3, measure_samples=2_000
        )
        assert report.passed
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.ci_low > 0 and row.hits > 0
            assert row.target_measure is not None and row.target_measure > 0
            assert row.case_seed == f"3:{row.case}"
        # the empty singleton carries exact unit mass
        assert report.rows[0].target_measure == 1.0

    def test_box_targets_are_certified_exactly_and_hit(self):
        m = ContactModel()
        inner, right = BoxRegion((-0.25,), (0.25,)), BoxRegion((0.25,), (0.5,))
        targets = [LayerSet(1, AllInRegion(inner)), LayerSet(2, ProductOfDisjointBoxes((inner, right)))]
        report = positive_measure_experiment(
            m, targets, [EMPTY], max_steps=150, replicas=50, seed=3, measure_samples=2_000
        )
        assert report.passed
        assert [row.target_measure for row in report.rows] == [0.5, 0.125]
        assert [row.target for row in report.rows] == [t.label() for t in targets]

    def test_box_target_of_no_measure_is_refused(self):
        # (unit volume)**200 / 200! is below the float range.
        vanishing = LayerSet(200, AllInRegion(BoxRegion((0.0,), (1.0,))))
        with pytest.raises(ExperimentSetupError, match="exactly"):
            positive_measure_experiment(ContactModel(), [vanishing], [EMPTY], max_steps=10, replicas=5, seed=1)

    def test_apparently_null_ball_is_refused(self):
        m = ContactModel()
        tiny = LayerSet(2, BallSet(RhoBall(Configuration([[0.0], [1.0]]), 1e-7)))
        with pytest.raises(ExperimentSetupError, match="in 3000 draws"):
            positive_measure_experiment(
                m, [tiny], [EMPTY], max_steps=10, replicas=5, seed=1, measure_samples=3_000
            )

    @pytest.mark.parametrize("kind", ["all-in-region", "product-boxes", "ball"])
    def test_a_target_of_another_dimension_is_refused_before_any_sample(self, monkeypatch, kind):
        # Run on, a 2-D box's exact measure certified a target no 1-D state can meet, and its row read FAIL.
        piece, message = MISFITS[kind]
        monkeypatch.setattr(lab, "_certify_positive", lambda *args: pytest.fail("a measure was taken"))
        with pytest.raises(ValueError, match=message):
            positive_measure_experiment(ContactModel(), [LayerSet(0, EmptySingleton()), piece], [EMPTY], 1, 50, 1)

    def test_a_start_of_another_dimension_is_refused_before_any_sample(self, monkeypatch):
        monkeypatch.setattr(lab, "_certify_positive", lambda *args: pytest.fail("a measure was taken"))
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            positive_measure_experiment(ContactModel(), [LayerSet(0, EmptySingleton())],
                                        [EMPTY, Configuration([[0.3, 0.0]])], 5, 5, 1)

    def test_predicate_targets_are_rejected(self):
        m = ContactModel()
        with pytest.raises(ExperimentSetupError):
            positive_measure_experiment(
                m, [PairDistanceTarget(1.0)], [EMPTY],
                max_steps=10, replicas=5, seed=1,
            )

    def test_needs_targets_and_starts(self):
        m = ContactModel()
        with pytest.raises(ExperimentSetupError):
            positive_measure_experiment(m, [], [EMPTY], max_steps=10, replicas=5, seed=1)
        with pytest.raises(ExperimentSetupError):
            positive_measure_experiment(
                m, [LayerSet(0, EmptySingleton())], [], max_steps=10, replicas=5, seed=1
            )

    def test_rows_reproducible_for_fixed_seed(self):
        m = ContactModel()
        args = dict(max_steps=80, replicas=40, seed=11, measure_samples=1_000)
        first = positive_measure_experiment(m, [LayerSet(0, EmptySingleton())], [EMPTY], **args)
        second = positive_measure_experiment(m, [LayerSet(0, EmptySingleton())], [EMPTY], **args)
        assert first.rows == second.rows


class _QuarterGridContact(ContactModel):
    """Contact rates whose newborns are rounded to a quarter grid."""

    def sample_birth_location(self, state, rng):
        (x,) = super().sample_birth_location(state, rng)
        return (round(4.0 * x) / 4.0,)


def _full_check_hits(model, pieces, start, start_index, max_steps, replicas, seed):
    """Replicas visiting each piece, testing full membership after every step."""
    counts = [0] * len(pieces)
    for replica in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(start_index, replica)))
        state, seen = start, [False] * len(pieces)
        for _ in range(max_steps):
            state, _ = step(state, model, rng)
            for k, piece in enumerate(pieces):
                if not seen[k] and piece.contains(state):
                    seen[k] = True
                    counts[k] += 1
    return counts


def _reference_audit(model, null_targets, starts, max_steps, replicas, seed):
    """The audit loop before births-only checks, on per-draw generator reads.

    Every piece not yet hit is checked after every step: in full while
    the replica is inside it, through the newborn after a birth.
    """
    hit_counts = [[0] * len(null_targets) for _ in starts]
    failures = []
    for start_index, start in enumerate(starts):
        case_seed = chain._replica_seed(seed, start_index)
        start_inside = [piece.contains(start) for piece in null_targets]
        for replica in range(replicas):
            rng = np.random.default_rng(chain._replica_seed(case_seed, replica))
            seen = [False] * len(null_targets)
            inside = list(start_inside)
            state = start
            for _ in range(max_steps):
                state, kind, point = chain._advance(state, model, rng)
                for t_index, piece in enumerate(null_targets):
                    if seen[t_index]:
                        continue
                    if inside[t_index]:
                        hit = inside[t_index] = piece.contains(state)
                    else:
                        hit = kind == "birth" and piece.entered_by_birth(state, point)
                    if hit:
                        seen[t_index] = True
                        hit_counts[start_index][t_index] += 1
                        failures.append(simulate(start, model, TargetSet((piece,)), max_steps,
                                                 chain._replica_seed(case_seed, replica)))
    rows = []
    for start_index, start in enumerate(starts):
        for t_index, piece in enumerate(null_targets):
            hits = hit_counts[start_index][t_index]
            rows.append(lab._row(
                "null_set", len(rows), describe_configuration(start), piece.label(),
                HittingEstimate.from_counts(hits, replicas, max_steps),
                "PASS" if hits == 0 else "FAIL", f"{seed}:{start_index}", target_measure=0.0,
            ))
    return tuple(rows), tuple(failures)


def _replay_key(trajectory):
    # SeedSequence compares by identity, so compare what it is built from.
    seed = trajectory.seed
    return (trajectory.initial, trajectory.events, trajectory.terminal_reason,
            trajectory.hit_step, seed.entropy, seed.spawn_key)


class TestNullSetExperiment:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_rows_and_failures_equal_the_reference_audit(self, seed):
        predicates = [ExactPointTarget((1.0,)), HyperplaneTarget(0, 0.25), PairDistanceTarget(1.0)]
        # The second start sits inside the point and pair sets, the third inside all three.
        starts = [EMPTY, Configuration([[0.0], [1.0]]), Configuration([[0.25], [1.0], [2.0]])]
        for model, max_steps in ((ContactModel(), 30), (_QuarterGridContact(), 12)):
            report = null_set_experiment(model, predicates, starts, max_steps, replicas=25, seed=seed)
            rows, failures = _reference_audit(model, predicates, starts, max_steps, 25, seed)
            assert report.rows == rows
            assert [_replay_key(t) for t in report.failures] == [_replay_key(t) for t in failures]
            # Rows 3 and 5 are the second start's sets, 6-8 the third's.
            assert all(rows[k].hits > 0 for k in (3, 5, 6, 7, 8))
            if isinstance(model, _QuarterGridContact):
                # Quarter-grid newborns force hits from the empty start too.
                assert sum(row.hits for row in rows[:3]) > 0

    def test_clean_run_records_zero_hits(self):
        m = ContactModel()
        predicates = [
            ExactPointTarget((1.0,)),
            HyperplaneTarget(0, 0.25),
            PairDistanceTarget(1.0),
        ]
        report = null_set_experiment(
            m, predicates, [EMPTY], max_steps=40, replicas=50, seed=5
        )
        assert report.passed
        assert all(row.hits == 0 and row.target_measure == 0.0 for row in report.rows)
        assert report.failures == ()

    def test_seeded_start_inside_null_set_is_caught(self):
        # the start itself satisfies the pair predicate, so the very
        # first step lands in the set (births keep the pair, one death
        # keeps it too) and the experiment must fail with a replayable
        # trajectory attached
        m = ContactModel()
        predicate = PairDistanceTarget(1.0)
        start = Configuration([[0.0], [1.0], [5.0]])
        report = null_set_experiment(m, [predicate], [start], max_steps=5, replicas=20, seed=7)
        assert not report.passed
        assert report.rows[0].hits > 0
        assert len(report.failures) == report.rows[0].hits
        for traj in report.failures:
            assert traj.terminal_reason == "hit_target"
            assert predicate.contains(traj.final_state())

    @pytest.mark.parametrize("piece, message", _MISFIT_NULLS, ids=_MISFIT_IDS)
    def test_a_predicate_of_another_dimension_is_refused_before_any_replica(self, monkeypatch, piece, message):
        # A walk would index past the model's axes, or audit a point no newborn can equal and pass vacuously.
        monkeypatch.setattr(lab, "_walk", lambda *args: pytest.fail("a replica ran"))
        with pytest.raises(ValueError, match=message):
            null_set_experiment(ContactModel(), [PairDistanceTarget(0.5), piece], [EMPTY], 5, 3, 1)

    def test_non_null_pieces_are_rejected(self):
        m = ContactModel()
        with pytest.raises(ExperimentSetupError):
            null_set_experiment(m, [LayerSet(0, EmptySingleton())], [EMPTY], max_steps=5, replicas=5, seed=1)
        # A run that audits no step, or a count that is no integer, is refused.
        null = [ExactPointTarget((1.0,))]
        for field, bad in [("max_steps", 0), ("max_steps", 2.5), ("max_steps", True),
                           ("replicas", 0), ("replicas", math.nan), ("replicas", True)]:
            counts = {"max_steps": 5, "replicas": 5, field: bad}
            with pytest.raises(ValueError, match=field):
                null_set_experiment(m, null, [EMPTY], seed=1, **counts)

    def test_a_start_of_another_dimension_raises(self):
        starts = [EMPTY, Configuration([[0.3, 0.0]])]
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            null_set_experiment(ContactModel(), [ExactPointTarget((1.0,))], starts, max_steps=5, replicas=5, seed=1)

    def test_birth_entry_check_counts_what_a_full_check_counts(self):
        # Newborns on a quarter grid visit the null sets often; the audit
        # must count every visit a membership test after each step finds.
        m = _QuarterGridContact()
        predicates = [ExactPointTarget((1.0,)), HyperplaneTarget(0, 0.25), PairDistanceTarget(1.0)]
        starts = [EMPTY, Configuration([[0.0], [1.0]])]
        report = null_set_experiment(m, predicates, starts, max_steps=20, replicas=30, seed=3)
        expected = [
            hits
            for index, start in enumerate(starts)
            for hits in _full_check_hits(m, predicates, start, index, 20, 30, seed=3)
        ]
        assert [row.hits for row in report.rows] == expected
        assert all(hits > 0 for hits in expected)
        assert len(report.failures) == sum(expected)

    def test_failures_are_written_one_csv_each(self, tmp_path):
        predicates = [ExactPointTarget((1.0,)), HyperplaneTarget(0, 0.25)]
        report = null_set_experiment(
            _QuarterGridContact(), predicates, [EMPTY], max_steps=20, replicas=10, seed=3
        )
        assert report.failures
        directory = tmp_path / "failures"
        paths = report.write_failures(str(directory))
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            f"null_set_{k}.csv" for k in range(len(report.failures))
        )
        for path, trajectory in zip(paths, report.failures):
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == ["step_index", "kind", "x0"]
            assert rows[1:] == [
                [str(e.step_index), e.kind, repr(e.point[0])] for e in trajectory.events
            ]
            state = EMPTY
            for _, kind, x0 in rows[1:]:
                point = (float(x0),)
                state = state.with_point(point) if kind == "birth" else state.without_point(point)
            assert any(piece.contains(state) for piece in predicates)

    def test_start_points_lead_a_failure_csv_and_a_pass_writes_nothing(self, tmp_path):
        start = Configuration([[0.0], [1.0], [5.0]])
        report = null_set_experiment(
            ContactModel(), [PairDistanceTarget(1.0)], [start], max_steps=5, replicas=5, seed=7
        )
        (path, *_) = report.write_failures(str(tmp_path / "failures"))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:4] == [["0", "initial", repr(x)] for x in (0.0, 1.0, 5.0)]
        clean = null_set_experiment(
            ContactModel(), [ExactPointTarget((1.0,))], [EMPTY], max_steps=5, replicas=5, seed=7
        )
        assert clean.write_failures(str(tmp_path / "none")) == []
        assert not (tmp_path / "none").exists()

    def test_deterministic_rows(self):
        m = ContactModel()
        predicates = [ExactPointTarget((1.0,))]
        a = null_set_experiment(m, predicates, [EMPTY], max_steps=20, replicas=30, seed=9)
        b = null_set_experiment(m, predicates, [EMPTY], max_steps=20, replicas=30, seed=9)
        assert a.rows == b.rows


class TestOneStepNullPreservation:
    def test_poisson_states_are_never_flagged(self):
        m = ContactModel()
        states = poisson_states(m, 80, seed=13)
        report = one_step_null_preservation(m, ExactPointTarget((1.0,)), states, seed=13)
        assert report.passed
        assert report.rows[0].hits == 0
        assert report.rows[0].replicas == 80

    def test_constructed_witness_is_flagged(self):
        m = ContactModel()
        witness = Configuration([[1.0], [0.3]])
        states = poisson_states(m, 10, seed=17) + [witness]
        report = one_step_null_preservation(m, ExactPointTarget((1.0,)), states, seed=17)
        assert not report.passed
        assert report.rows[0].hits == 1

    @pytest.mark.parametrize("piece, message", _MISFIT_NULLS, ids=_MISFIT_IDS)
    def test_a_predicate_of_another_dimension_is_refused(self, piece, message):
        with pytest.raises(ValueError, match=message):
            one_step_null_preservation(ContactModel(), piece, [Configuration([[0.1]])])

    def test_a_state_of_another_dimension_is_refused(self):
        # A 2-D state never holds the 1-D point, so the check passed whatever the states were.
        states = [Configuration([[0.1]]), Configuration([[1.0, 0.0]])]
        with pytest.raises(ValueError, match="the start has 2-D points, the model is 1-D"):
            one_step_null_preservation(ContactModel(), ExactPointTarget((1.0,)), states)

    def test_rejects_non_null_predicates_and_empty_input(self):
        m = ContactModel()
        with pytest.raises(ExperimentSetupError):
            one_step_null_preservation(m, LayerSet(0, EmptySingleton()), [EMPTY])
        with pytest.raises(ExperimentSetupError):
            one_step_null_preservation(m, ExactPointTarget((1.0,)), [])


class TestTheoremPipeline:
    def test_two_point_goal_passes(self):
        m = ContactModel()
        goal = Configuration([[-1.0 / 6.0], [1.0 / 6.0]])
        report = theorem_pipeline(m, goal, replicas=300, seed=19)
        assert report.passed
        row = report.rows[0]
        assert row.certified_bound is not None and row.certified_bound > 0
        assert row.ci_high >= row.certified_bound
        assert row.ci_low > 0

    def test_rejects_empty_goal(self):
        with pytest.raises(ExperimentSetupError):
            theorem_pipeline(ContactModel(), EMPTY, replicas=10, seed=1)
        # The step budget may not fall below the path's span.
        goal = Configuration([[0.1]])
        for bad in (-2, 1.5, True):
            with pytest.raises(ValueError, match="extra_steps"):
                theorem_pipeline(ContactModel(), goal, extra_steps=bad, replicas=10, seed=1)

    def test_d2_crowding_hit_count_is_unchanged(self):
        # Recorded with the uniform-only ball draw, read in chunks; any
        # later change to the d=2 moves or hits must show here.
        m = ContactModel(dimension=2, crowding_death=0.3)
        goal = Configuration([(-0.15, 0.05), (0.1, -0.1), (0.05, 0.2)])
        row = theorem_pipeline(m, goal, extra_steps=3, replicas=300, seed=41).rows[0]
        assert (row.max_steps, row.hits, row.replicas, row.verdict) == (14, 14, 300, "PASS")

    def test_the_target_is_the_quarter_ball_and_the_bound_its_eighth(self):
        m = ContactModel()
        goal = Configuration([[0.1]])
        row = theorem_pipeline(m, goal, extra_steps=3, replicas=50, seed=23).rows[0]
        assert row.target == LayerSet(1, BallSet(RhoBall(goal, 0.25))).label()
        path = build_path(goal, m.interaction_radius, m.immigration_region.center)
        assert row.certified_bound == corridor_prob_lower_bound(path, 0.125, m)


class _ImmigrationOnlyModel(ContactModel):
    """The contact model with neighbour births switched off: condition 4 broken.

    Births land only in the immigration ball, so a point never spawns
    another near itself.  As a subclass it steps through ``_advance``.
    """

    def birth_rate(self, location, state):
        return self.immigration_intensity if self.immigration_region.contains(location) else 0.0

    def total_birth_mass(self, state):
        return self._immigration_mass

    def sample_birth_location(self, state, rng):
        return sample_in_ball(self.immigration_region.center, self.immigration_region.radius, rng)


class TestNegativeControls:
    """A model outside the standing conditions must FAIL where the paper's conclusion fails."""

    def test_no_neighbour_births_leave_a_far_ball_unreached(self):
        # Condition 4 broken: births stay in [-0.5, 0.5], so the ball around
        # 1.5 (of positive measure) is never reached, while a ball inside the
        # immigration ball still is, and the contact model reaches both.
        m = _ImmigrationOnlyModel()
        states = [EMPTY, Configuration([[0.0]]), Configuration([[0.0], [0.3]])]
        report = validate_conditions(m, 4, states, seed=3)
        assert [c.index for c in report.checks if not c.passed] == [4]
        near, far = (LayerSet(1, BallSet(RhoBall(Configuration([[x]]), 0.25))) for x in (0.0, 1.5))
        verdicts = {}
        for model in (m, ContactModel()):
            rows = positive_measure_experiment(
                model, [near, far], [EMPTY], max_steps=400, replicas=40, seed=6, measure_samples=500,
            ).rows
            assert [r.target for r in rows] == [near.label(), far.label()]
            verdicts[type(model)] = [r.verdict for r in rows]
        assert verdicts == {_ImmigrationOnlyModel: ["PASS", "FAIL"], ContactModel: ["PASS", "PASS"]}

    def test_a_subclass_gets_no_proof(self):
        # The proof reads the contact rates, which a subclass may override; this one breaks
        # condition 4, and the proof used to report it PASS.
        with pytest.raises(NotImplementedError, match="_ImmigrationOnlyModel"):
            _ImmigrationOnlyModel().conditions(4)

    def test_zero_death_floor_certifies_nothing_and_fails(self):
        # Condition 3 broken: no point ever dies, so no positive corridor
        # bound exists and the empty configuration is never reached again.
        m = ContactModel(baseline_death=0.0)
        states = [EMPTY, Configuration([[0.0]]), Configuration([[0.0], [0.3]])]
        report = validate_conditions(m, 4, states, seed=3)
        assert [c.index for c in report.checks if not c.passed] == [3]
        goal = Configuration([[-1.0 / 6.0], [1.0 / 6.0]])
        path = build_path(goal, m.interaction_radius, m.immigration_region.center)
        with pytest.raises(ValueError, match="not positive"):
            corridor_prob_lower_bound(path, 0.1, m)
        # It used to PASS with bound 0.0 and 135/300 hits.
        row = theorem_pipeline(m, goal, replicas=300, seed=5).rows[0]
        assert (row.verdict, row.certified_bound, row.hits) == ("FAIL", 0.0, 135)
        extinction = positive_measure_experiment(
            m, [LayerSet(0, EmptySingleton())], [lab.default_extinction_start(m)],
            max_steps=200, replicas=30, seed=4,
        )
        assert [(r.verdict, r.hits) for r in extinction.rows] == [("FAIL", 0)]


class TestSuiteAndReports:
    def test_describe_configuration_formats(self):
        assert describe_configuration(EMPTY) == "empty"
        label = describe_configuration(Configuration([[0.5], [1.0]]))
        assert label.startswith("n=2[") and "0.5" in label

    def test_case_row_csv_dict_handles_optionals(self):
        row = CaseRow(
            experiment="x", case=0, start="empty", target="t", max_steps=1,
            replicas=2, hits=1, estimate=0.5, ci_low=0.1, ci_high=0.9,
            verdict="PASS", case_seed="0:0",
        )
        csv_dict = row.as_csv_dict()
        assert csv_dict["target_measure"] == ""
        assert csv_dict["certified_bound"] == ""
        assert csv_dict["estimate"] == "0.5"

    def test_csv_columns_are_the_case_row_fields_in_order(self, tmp_path):
        row = lab._row("x", 0, "empty", "t", HittingEstimate.from_counts(1, 4, 9), "PASS", "0:0",
                       certified_bound=0.125)
        report = lab.ExperimentReport("x", "m", "0", (row,))
        report.write_csv(tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_text().splitlines() == [
            "experiment,case,start,target,max_steps,replicas,hits,estimate,ci_low,ci_high,"
            "target_measure,certified_bound,verdict,case_seed",
            f"x,0,empty,t,9,4,1,0.25,{row.ci_low!r},{row.ci_high!r},,0.125,PASS,0:0",
        ]
        with pytest.raises(TypeError):
            CaseRow("x", 0, "empty", "t", 9, 4, 1, 0.25, 0.0, 1.0, "PASS", "0:0")

    def test_suite_points_keep_distinct_offsets_apart(self):
        # 1.0 + 1e-300 / 3 == 1.0, so the extinction start's points would coincide.
        tiny = ContactModel(interaction_radius=1e-300, immigration_center=[1.0])
        with pytest.raises(ExperimentSetupError, match="interaction_radius 1e-300 .*immigration_center"):
            lab.default_extinction_start(tiny)
        # One point never coincides with itself: the null target may sit on the center.
        assert lab._along_first_axis(tiny, 1e-300) == [(1.0,)]
        # Shifted points take c + 0.0 on the other axes, so a -0.0 coordinate
        # prints as 0.0; the first ball keeps the center as given.
        signed = ContactModel(dimension=2, immigration_center=[0.0, -0.0])
        assert not any("-0.0" in target.label() for target in lab.default_ball_targets(signed)[2:])

    def test_default_suite_shape_and_determinism(self):
        m = ContactModel()
        first = run_default_suite(m, seed=29, sizes=SMALL)
        names = [r.experiment for r in first]
        assert names == [
            "positive_measure",
            "null_set",
            "one_step_null_preservation",
            "theorem_pipeline",
            "extinction",
        ]
        assert all(report.passed for report in first)
        second = run_default_suite(m, seed=29, sizes=SMALL)
        for a, b in zip(first, second):
            assert a.rows == b.rows

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_steps", 0),
            ("replicas", 0),
            ("null_max_steps", 0),
            ("null_replicas", -1),
            ("preservation_draws", 0),
            ("pipeline_replicas", 0),
            ("extinction_replicas", 0),
            ("extinction_max_steps", 0),
            ("measure_samples", 0),
            ("replicas", True),
            ("null_max_steps", 2.5),
            ("extinction_max_steps", math.inf),
            ("preservation_draws", 1.5),
            ("measure_samples", math.nan),
        ],
    )
    def test_suite_sizes_reject_budgets_no_experiment_can_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            SuiteSizes(**{field: value})

    def test_suite_sizes_read_integral_counts_as_ints(self):
        sizes = SuiteSizes(replicas=np.int64(7), preservation_draws=2.0, measure_samples=np.float64(30.0))
        assert (sizes.replicas, sizes.preservation_draws, sizes.measure_samples) == (7, 2, 30)
        assert all(type(getattr(sizes, name)) is int
                   for name in ("replicas", "preservation_draws", "measure_samples"))

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda: ContactModel(birth_floor=0.05), "birth_floor", id="ContactModel-birth_floor"),
            pytest.param(lambda: theorem_pipeline(ContactModel(), Configuration([[0.1]]), ball_radius=0.05,
                                                  replicas=1), "ball_radius", id="theorem_pipeline-ball_radius"),
            pytest.param(lambda: SuiteSizes(poisson_intensity=1.0), "poisson_intensity",
                         id="SuiteSizes-poisson_intensity"),
            pytest.param(lambda: SuiteSizes(pipeline_extra_steps=2), "pipeline_extra_steps",
                         id="SuiteSizes-pipeline_extra_steps"),
            pytest.param(lambda: lab.default_starts(ContactModel(), 1, intensity=1.0), "intensity",
                         id="default_starts-intensity"),
        ],
    )
    def test_a_retired_setting_is_refused(self, call, name):
        # The floor, the pipeline's balls, the Poisson intensity and the lab's pipeline budget are fixed.
        with pytest.raises(TypeError, match=name):
            call()

    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        m = ContactModel()
        report = run_default_suite(m, seed=31, sizes=SMALL)[0]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        report.write_csv(path_a)
        report.write_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        header = path_a.read_text().splitlines()[0]
        assert header.startswith("experiment,case,start,target")
