"""Reachability and null-set experiments for the jump chain.

Two empirical directions back the chain's communication structure
relative to the layered reference measure.  The positive direction
runs hitting experiments: from a spread of starting states, every
target of positive measure must be reached with a Wilson lower
confidence bound above zero.  The negative direction checks that
curated zero-measure predicate sets are never visited in large runs,
and that, analytically, a single step from almost any sampled state
has zero probability of landing in them.  A pipeline ties the
constructive path machinery to an observed hitting frequency so the
certified corridor bound can be compared against reality.

Every report row is reproducible from the model fingerprint, the
master seed, and the row's case index; replica streams are derived per
case and per replica, so results do not depend on how replicas are
grouped or ordered when they run.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .chain import (
    ExactPointTarget,
    HittingEstimate,
    HyperplaneTarget,
    NullTarget,
    PairDistanceTarget,
    TargetSet,
    Trajectory,
    _check_start,
    _check_target,
    _own_stream,
    _replica_rngs,
    _replica_seed,
    _walk,
    hitting_estimate,
    simulate,
)
from .configurations import EMPTY, Configuration, Point, RhoBall, _whole_number
from .measure import (
    BallSet,
    BoxRegion,
    EmptySingleton,
    LayerSet,
    TargetPiece,
    ball_window,
    lp_measure,
    sample_poisson_config,
)
from .paths import build_path, corridor_prob_lower_bound
from .rates import RateModel

__all__ = [
    "CaseRow",
    "ExperimentReport",
    "ExperimentSetupError",
    "SuiteSizes",
    "positive_measure_experiment",
    "null_set_experiment",
    "one_step_null_preservation",
    "theorem_pipeline",
    "run_default_suite",
    "describe_configuration",
]

def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under a ``columns`` header with ``\\n`` line ends, making the directory."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


class ExperimentSetupError(ValueError):
    """Raised when an experiment is configured outside its domain."""


def describe_configuration(state: Configuration) -> str:
    """Compact deterministic label for a starting state."""
    if len(state) == 0:
        return "empty"
    coords = ";".join(",".join(repr(c) for c in p) for p in state.points)
    return f"n={len(state)}[{coords}]"


@dataclass(frozen=True, kw_only=True)
class CaseRow:
    """One (start, target) cell of an experiment; the fields are the CSV columns, in order."""

    experiment: str
    case: int
    start: str
    target: str
    max_steps: int
    replicas: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    target_measure: float | None = None
    certified_bound: float | None = None
    verdict: str
    case_seed: str

    def as_csv_dict(self) -> dict[str, str]:
        return {column: "" if value is None else str(value) for column, value in asdict(self).items()}


_CSV_COLUMNS = [column.name for column in fields(CaseRow)]


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: per-case rows plus an overall verdict."""

    experiment: str
    model: str
    master_seed: str
    rows: tuple[CaseRow, ...]
    failures: tuple[Trajectory, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(row.verdict == "PASS" for row in self.rows)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.experiment} ({len(self.rows)} cases, seed {self.master_seed})"]
        for row in self.rows:
            lines.append(
                f"  [{row.verdict}] case {row.case}: start={row.start} target={row.target} "
                f"hits={row.hits}/{row.replicas} est={row.estimate:.6g} "
                f"ci=[{row.ci_low:.6g}, {row.ci_high:.6g}]"
                + (
                    f" bound={row.certified_bound:.6g}"
                    if row.certified_bound is not None
                    else ""
                )
            )
        return "\n".join(lines)

    def write_csv(self, path: str) -> None:
        """Write the rows as CSV; identical reports give identical bytes."""
        _write_csv(path, _CSV_COLUMNS, [row.as_csv_dict() for row in self.rows])

    def write_failures(self, directory: str) -> list[str]:
        """Write failure ``k`` to ``<directory>/<experiment>_<k>.csv``; return the paths.

        Columns are ``step_index,kind,x0,...``: the start's points come
        first as step 0 of kind "initial", then every event up to the
        hit.  Without failures nothing is written and no directory made.
        """
        paths = []
        for k, trajectory in enumerate(self.failures):
            steps = [(0, "initial", p) for p in trajectory.initial.points]
            steps += [(e.step_index, e.kind, e.point) for e in trajectory.events]
            columns = ["step_index", "kind"] + [f"x{i}" for i in range(len(steps[0][2]))]
            rows = [dict(zip(columns, (i, kind, *point))) for i, kind, point in steps]
            path = os.path.join(directory, f"{self.experiment}_{k}.csv")
            _write_csv(path, columns, rows)
            paths.append(path)
        return paths


def _row(
    experiment: str,
    case: int,
    start: str,
    target: str,
    counts: HittingEstimate,
    verdict: str,
    case_seed: str,
    **extra: float,
) -> CaseRow:
    """A report row carrying the hit count and Wilson interval of ``counts``."""
    return CaseRow(experiment=experiment, case=case, start=start, target=target, verdict=verdict,
                   case_seed=case_seed, **asdict(counts), **extra)


def _report(experiment: str, model: RateModel, seed: int | None, rows: Sequence[CaseRow],
            failures: Sequence[Trajectory] = ()) -> ExperimentReport:
    """The report of ``experiment``, with the model's description and the seed as text."""
    return ExperimentReport(
        experiment, model.describe(), "" if seed is None else str(seed), tuple(rows), tuple(failures)
    )


def _certify_positive(piece: TargetPiece, samples: int, seed: np.random.SeedSequence) -> float:
    """Reference measure of a layer-set target by :func:`lp_measure`; a zero measure rejects it."""
    if not isinstance(piece, LayerSet):
        raise ExperimentSetupError(f"positive-measure targets must be layer sets, got {piece.label()}")
    measured = lp_measure(piece, samples, seed)
    if measured.value > 0.0:
        return measured.value
    if measured.hits:
        cause = (f"is hit by {measured.hits} of {measured.samples} draws, but its measure underflows "
                 "to 0.0 in doubles; refusing to test a target whose measure cannot be reported")
    else:
        how = f"in {measured.samples} draws" if measured.samples else "exactly"
        cause = f"shows no mass {how}; refusing to test an apparently null target"
    raise ExperimentSetupError(f"target {piece.label()} {cause}")


def positive_measure_experiment(
    model: RateModel,
    targets: Sequence[TargetPiece],
    starts: Sequence[Configuration],
    max_steps: int,
    replicas: int,
    seed: int,
    measure_samples: int = 10_000,
) -> ExperimentReport:
    """Hitting experiment over every (start, target) pair.

    Each target is a :class:`~birthdeath.measure.LayerSet`, first
    certified to carry positive reference measure (exact where a closed
    form exists, Monte Carlo for balls).  A case
    passes when its Wilson 95% lower confidence bound on the hitting
    probability within ``max_steps`` steps is strictly positive.
    Starts sitting inside their target still need a first return.  A
    start or target of another dimension than the model raises
    ``ValueError`` before any measure sample is drawn.
    """
    if not targets or not starts:
        raise ExperimentSetupError("need at least one target and one start")
    _check_target(targets, model)
    for start in starts:
        _check_start(start, model)
    rows: list[CaseRow] = []
    case = 0
    measures: list[float] = []
    for index, piece in enumerate(targets):
        cert_seed = _replica_seed(seed, 10_000 + index)
        measures.append(_certify_positive(piece, measure_samples, cert_seed))
    for target_index, piece in enumerate(targets):
        target = TargetSet((piece,))
        for start in starts:
            case_seed = _replica_seed(seed, case)
            estimate = hitting_estimate(start, target, model, max_steps, replicas, case_seed)
            verdict = "PASS" if estimate.ci_low > 0.0 else "FAIL"
            rows.append(
                _row("positive_measure", case, describe_configuration(start), piece.label(),
                     estimate, verdict, f"{seed}:{case}", target_measure=measures[target_index])
            )
            case += 1
    return _report("positive_measure", model, seed, rows)


def _check_null_targets(pieces: Sequence[object], model: RateModel) -> None:
    """Refuse anything but curated null predicates that fit the model."""
    for piece in pieces:
        if not isinstance(piece, NullTarget):
            raise ExperimentSetupError(f"null-set experiments take curated null predicates, got {piece!r}")
    _check_target(pieces, model)


def null_set_experiment(
    model: RateModel,
    null_targets: Sequence[NullTarget],
    starts: Sequence[Configuration],
    max_steps: int,
    replicas: int,
    seed: int,
) -> ExperimentReport:
    """Count visits to curated null predicate sets; zero is a pass.

    Every start runs ``replicas`` trajectories of ``max_steps`` steps,
    and each visited state is checked against every predicate, so each
    predicate is audited on the full trajectory budget.  Any hit fails
    the row and the offending trajectory is replayed from its replica
    seed and attached to the report.  A start or null predicate of another
    dimension than the model raises ``ValueError`` before any replica runs.

    The predicates are monotone under adding points, so a death never
    enters a set and a birth enters it only through the newborn point.
    A start inside a set gets the full membership test after the first
    step; a replica inside after it has hit, so from then on only
    births are checked, with ``entered_by_birth`` on the sets not yet
    hit.
    """
    _check_null_targets(null_targets, model)
    if not null_targets or not starts:
        raise ExperimentSetupError("need at least one null target and one start")
    for start in starts:
        _check_start(start, model)
    max_steps = _whole_number(max_steps, "max_steps", 1)
    replicas = _whole_number(replicas, "replicas", 1)
    hit_counts = [[0] * len(null_targets) for _ in starts]
    failures: list[Trajectory] = []
    for start_index, start in enumerate(starts):
        case_seed = _replica_seed(seed, start_index)
        start_inside = tuple(piece for piece in null_targets if piece.contains(start))
        for replica, rng in enumerate(_replica_rngs(case_seed, range(replicas))):
            unseen = list(enumerate(null_targets))
            recheck = start_inside
            for state, kind, point in _walk(start, model, _own_stream(rng, model), max_steps):
                if kind != "birth" and not recheck:
                    continue
                entered = []
                for t_index, piece in unseen:
                    if (piece.contains(state) if piece in recheck
                            else kind == "birth" and piece.entered_by_birth(state, point)):
                        entered.append((t_index, piece))
                recheck = ()
                for t_index, piece in entered:
                    unseen.remove((t_index, piece))
                    hit_counts[start_index][t_index] += 1
                    failures.append(
                        simulate(
                            start,
                            model,
                            TargetSet((piece,)),
                            max_steps,
                            _replica_seed(case_seed, replica),
                        )
                    )
    rows: list[CaseRow] = []
    case = 0
    for start_index, start in enumerate(starts):
        for t_index, piece in enumerate(null_targets):
            hits = hit_counts[start_index][t_index]
            rows.append(
                _row("null_set", case, describe_configuration(start), piece.label(),
                     HittingEstimate.from_counts(hits, replicas, max_steps),
                     "PASS" if hits == 0 else "FAIL", f"{seed}:{start_index}", target_measure=0.0)
            )
            case += 1
    return _report("null_set", model, seed, rows, failures)


def one_step_null_preservation(
    model: RateModel,
    null_target: NullTarget,
    states: Sequence[Configuration],
    seed: int | None = None,
) -> ExperimentReport:
    """Analytic one-step check that a null set stays unreachable.

    For each sampled state the detector decides exactly whether one
    chain step reaches the predicate set with positive probability.
    The predicates are monotone under added points, so births only
    enter from states already inside (the completing locations form a
    Lebesgue null set), and a death lands inside only from a state that
    was inside already; a state is flagged exactly when it is in the
    set.  A pass means zero flagged states, the sampled counterpart of
    the set being preserved as null by one step of the chain.  A
    predicate or state of another dimension than the model raises
    ``ValueError``.
    """
    _check_null_targets([null_target], model)
    for state in states:
        _check_start(state, model)
    if not states:
        raise ExperimentSetupError("need at least one sampled state")
    flagged = sum(1 for state in states if null_target.contains(state))
    total = len(states)
    row = _row(
        "one_step_null_preservation", 0, f"{total} sampled states", null_target.label(),
        HittingEstimate.from_counts(flagged, total, 1), "PASS" if flagged == 0 else "FAIL",
        "" if seed is None else str(seed), target_measure=0.0,
    )
    return _report("one_step_null_preservation", model, seed, [row])


def theorem_pipeline(
    model: RateModel,
    goal: Configuration,
    extra_steps: int | None = None,
    replicas: int = 10_000,
    seed: int = 0,
) -> ExperimentReport:
    """End-to-end reachability check for one goal configuration.

    Builds the constructive path from empty to ``goal``, certifies a
    corridor lower bound on following it, then measures the hitting
    frequency of the bottleneck ball around ``goal`` from the empty
    state.  The run passes when the observed Wilson interval is
    consistent with the bound: upper limit at or above it and lower
    limit above zero.  Where no positive bound can be certified (a
    zero death floor, or underflow) the row FAILs with bound 0.0.  The
    target ball has a quarter interaction radius, and the bound is
    certified for the ball of an eighth inside it, which only makes it
    more conservative.  The step budget is the path's span plus
    ``extra_steps``, a nonnegative integer that defaults to 50 spans.
    """
    if len(goal) == 0:
        raise ExperimentSetupError("the pipeline needs a nonempty goal configuration")
    if extra_steps is not None:
        extra_steps = _whole_number(extra_steps, "extra_steps", 0)
    radius = model.interaction_radius
    path = build_path(goal, radius, model.immigration_region.center)
    try:
        bound = corridor_prob_lower_bound(path, radius / 8.0, model)
    except ValueError:
        bound = 0.0
    span = path.length + 2 * len(goal)
    max_steps = span + (50 * span if extra_steps is None else extra_steps)
    target_piece = LayerSet(len(goal), BallSet(RhoBall(goal, radius / 4.0)))
    case_seed = _replica_seed(seed, 0)
    estimate = hitting_estimate(
        EMPTY, TargetSet((target_piece,)), model, max_steps, replicas, case_seed
    )
    passed = bound > 0.0 and estimate.ci_high >= bound and estimate.ci_low > 0.0
    row = _row(
        "theorem_pipeline", 0, "empty", target_piece.label(), estimate,
        "PASS" if passed else "FAIL", f"{seed}:0", certified_bound=bound,
    )
    return _report("theorem_pipeline", model, seed, [row])


@dataclass(frozen=True)
class SuiteSizes:
    """Replica and step budgets for the default experiment suite."""

    max_steps: int = 400
    replicas: int = 1_500
    null_max_steps: int = 50
    null_replicas: int = 5_000
    preservation_draws: int = 2_000
    pipeline_replicas: int = 4_000
    extinction_replicas: int = 400
    extinction_max_steps: int = 4_000
    measure_samples: int = 10_000

    def __post_init__(self) -> None:
        """Read every budget as a whole number of at least 1, so one no experiment can run fails first."""
        for name, value in asdict(self).items():
            object.__setattr__(self, name, _whole_number(value, name, 1))


# Intensity of the suite's Poisson starts and of the one-step audit's states.
POISSON_INTENSITY = 1.0


def default_window(model: RateModel) -> BoxRegion:
    """The box around the immigration ball, widened by the interaction radius."""
    reach = model.immigration_region.radius + model.interaction_radius
    return ball_window(RhoBall(Configuration([model.immigration_region.center]), reach))


def default_starts(model: RateModel, seed: int) -> list[Configuration]:
    """The default spread of starting states: empty, the anchor singleton,
    and three Poisson draws of intensity ``POISSON_INTENSITY`` from :func:`default_window`."""
    center = model.immigration_region.center
    window = default_window(model)
    starts = [EMPTY, Configuration([center])]
    for index in range(3):
        rng = np.random.default_rng(_replica_seed(seed, 20_000 + index))
        starts.append(sample_poisson_config(POISSON_INTENSITY, window, rng))
    return starts


def _along_first_axis(model: RateModel, *offsets: float) -> list[Point]:
    """The immigration center moved by each offset along the first axis (``c + 0.0`` on the others).

    Points at different offsets must stay different doubles; an interaction radius that
    vanishes next to the center makes them coincide, and the suite refuses the model.
    """
    center = model.immigration_region.center
    points = [(center[0] + offset, *[c + 0.0 for c in center[1:]]) for offset in offsets]
    if len(set(points)) < len(points):
        raise ExperimentSetupError(
            f"interaction_radius {model.interaction_radius!r} vanishes next to immigration_center "
            f"{list(center)!r}: the suite's points along the first axis coincide"
        )
    return points


def default_ball_targets(model: RateModel) -> list[LayerSet]:
    """The default positive-measure targets: the empty singleton plus
    three bottleneck balls of a quarter interaction radius."""
    radius = model.interaction_radius
    _, shift, left, right = _along_first_axis(model, 0.0, radius / 3.0, -radius / 6.0, radius / 6.0)
    balls = [RhoBall(Configuration(points), radius / 4.0)
             for points in ([model.immigration_region.center], [shift], [left, right])]
    return [LayerSet(0, EmptySingleton())] + [LayerSet(ball.layer, BallSet(ball)) for ball in balls]


def default_extinction_start(model: RateModel) -> Configuration:
    """Five occupied points strung along the first axis near the anchor."""
    gap = model.interaction_radius / 3.0
    return Configuration(_along_first_axis(model, *(k * gap for k in range(-2, 3))))


def run_default_suite(
    model: RateModel,
    seed: int,
    sizes: SuiteSizes = SuiteSizes(),
) -> list[ExperimentReport]:
    """Run the whole default experiment suite and return its reports.

    Covers the positive direction (hitting every default target from
    every default start, plus extinction from a five-point state), the
    negative direction (null-set trajectories and the analytic one-step
    detector on Poisson draws), and the path pipeline for a two-point
    goal.  Deterministic for a fixed (model, seed, sizes) triple.
    """
    center = model.immigration_region.center
    starts = default_starts(model, seed)
    reports = [
        positive_measure_experiment(
            model,
            default_ball_targets(model),
            starts,
            max_steps=sizes.max_steps,
            replicas=sizes.replicas,
            seed=seed,
            measure_samples=sizes.measure_samples,
        )
    ]

    null_targets = [
        ExactPointTarget(_along_first_axis(model, 1.0)[0]),
        HyperplaneTarget(0, center[0] + 0.25),
        PairDistanceTarget(1.0),
    ]
    null_starts = [EMPTY, starts[2]]
    reports.append(
        null_set_experiment(
            model,
            null_targets,
            null_starts,
            max_steps=sizes.null_max_steps,
            replicas=sizes.null_replicas,
            seed=seed + 1,
        )
    )

    window = default_window(model)
    draw_rng = np.random.default_rng(_replica_seed(seed, 30_000))
    preservation_states = [
        sample_poisson_config(POISSON_INTENSITY, window, draw_rng)
        for _ in range(sizes.preservation_draws)
    ]
    reports.append(
        one_step_null_preservation(model, null_targets[0], preservation_states, seed=seed)
    )

    gap = model.interaction_radius / 6.0
    goal = Configuration(_along_first_axis(model, -gap, gap))
    reports.append(
        theorem_pipeline(
            model,
            goal,
            replicas=sizes.pipeline_replicas,
            seed=seed + 2,
        )
    )

    extinction = positive_measure_experiment(
        model,
        [LayerSet(0, EmptySingleton())],
        [default_extinction_start(model)],
        max_steps=sizes.extinction_max_steps,
        replicas=sizes.extinction_replicas,
        seed=seed + 3,
        measure_samples=sizes.measure_samples,
    )
    reports.append(_report(
        "extinction", model, seed + 3, [replace(row, experiment="extinction") for row in extinction.rows]
    ))
    return reports
