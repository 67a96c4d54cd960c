"""Spatial birth-and-death jump chains on finite point configurations.

The package is organized around five pieces:

- ``configurations``: immutable finite point configurations, the
  bottleneck matching distance between them, and balls in that metric.
- ``measure``: the layered reference measure on configuration space
  (exact on boxes and products, Monte Carlo elsewhere) and Poisson
  point process sampling.
- ``rates``: birth/death rate models, the built-in contact model, and
  evidence-based validation of the standing conditions.
- ``chain``: the embedded jump chain, one-step probabilities, target
  sets, and replica-based hitting estimates with Wilson intervals.
- ``paths``: constructive one-point-change paths between
  configurations and certified lower bounds on following them.

``lab`` wires these into reproducible experiments with CSV reports,
and ``cli`` exposes everything as the ``bdlab`` command.
"""

from .chain import (
    ChainEvent,
    ExactPointTarget,
    HittingEstimate,
    HyperplaneTarget,
    NullTarget,
    PairDistanceTarget,
    PredicateTarget,
    RegionProbability,
    TargetPiece,
    TargetSet,
    Trajectory,
    birth_probability_region,
    death_probability,
    hitting_estimate,
    simulate,
    step,
    wilson_interval,
)
from .configurations import (
    EMPTY,
    Configuration,
    RhoBall,
    distance_rho,
    euclidean,
    in_ball,
    symmetric_difference_size,
    unit_ball_volume,
)
from .lab import (
    CaseRow,
    ExperimentReport,
    ExperimentSetupError,
    SuiteSizes,
    null_set_experiment,
    one_step_null_preservation,
    positive_measure_experiment,
    run_default_suite,
    theorem_pipeline,
)
from .measure import (
    AllInRegion,
    BallRegion,
    BallSet,
    BoxRegion,
    EmptySingleton,
    LayerSet,
    MeasureEstimate,
    ProductOfDisjointBoxes,
    UnsupportedExactEvaluation,
    lp_measure,
    lp_measure_estimate,
    lp_measure_exact,
    sample_in_ball,
    sample_poisson_config,
)
from .paths import (
    Path,
    PathValidation,
    build_path,
    corridor_event_frequency,
    corridor_prob_lower_bound,
    corridor_step_bound,
    is_valid_path,
    path_length_cap,
)
from .rates import (
    ConditionCheck,
    ConditionReport,
    ContactModel,
    DegenerateStateError,
    RateModel,
    validate_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "AllInRegion",
    "BallRegion",
    "BallSet",
    "BoxRegion",
    "CaseRow",
    "ChainEvent",
    "ConditionCheck",
    "ConditionReport",
    "Configuration",
    "ContactModel",
    "DegenerateStateError",
    "EMPTY",
    "EmptySingleton",
    "ExactPointTarget",
    "ExperimentReport",
    "ExperimentSetupError",
    "HittingEstimate",
    "HyperplaneTarget",
    "LayerSet",
    "MeasureEstimate",
    "NullTarget",
    "PairDistanceTarget",
    "Path",
    "PathValidation",
    "PredicateTarget",
    "ProductOfDisjointBoxes",
    "RateModel",
    "RegionProbability",
    "RhoBall",
    "SuiteSizes",
    "TargetPiece",
    "TargetSet",
    "Trajectory",
    "UnsupportedExactEvaluation",
    "birth_probability_region",
    "build_path",
    "corridor_event_frequency",
    "corridor_prob_lower_bound",
    "corridor_step_bound",
    "death_probability",
    "distance_rho",
    "euclidean",
    "hitting_estimate",
    "in_ball",
    "is_valid_path",
    "lp_measure",
    "lp_measure_estimate",
    "lp_measure_exact",
    "null_set_experiment",
    "one_step_null_preservation",
    "path_length_cap",
    "positive_measure_experiment",
    "run_default_suite",
    "sample_in_ball",
    "sample_poisson_config",
    "simulate",
    "step",
    "symmetric_difference_size",
    "theorem_pipeline",
    "unit_ball_volume",
    "validate_conditions",
    "wilson_interval",
]
