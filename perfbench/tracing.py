"""Traced runs: spans at the program's module boundaries, from outside the program.

Only a traced run installs the wrappers, by replacing module attributes
(every module that imported the function by name) and class attributes
(``ContactModel`` and ``TargetSet`` methods).  Nothing under ``src/``
changes, and an untraced run executes the program untouched.

Two kinds of wrapper keep memory bounded.  A *span* wraps a coarse call
(an experiment, a hitting estimate, a measure estimate) and gets its own
node in the span tree.  A *leaf* wraps a hot call (``in_ball``,
``death_rates``) that runs millions of times per job; it only adds a
count and times to its enclosing span's table.  Every wrapped call
measures its total time and the time of wrapped calls nested inside it;
the difference is its self time, charged to the module in its name.  The
job's own root span keeps what no wrapper covers, so the module self
times plus ``trace.unattributed_s`` add up to the traced job's wall time.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Iterator

from birthdeath import chain, cli, configurations, lab, measure, paths, rates
import birthdeath

MODULES = ("configurations", "rates", "chain", "measure", "paths", "lab", "cli")
PROGRAM = (birthdeath, configurations, measure, rates, chain, paths, lab, cli)

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER: dict[str, str] = {
    "configurations.in_ball.calls": "count",
    "configurations.in_ball_s": "s",
    "configurations.in_ball.us_per_call": "us",
    "configurations.in_ball.member_frac": "ratio",
    "configurations.distance_rho.calls": "count",
    "configurations.distance_rho_s": "s",
    "configurations.self_s": "s",
    "rates.death_rates.calls": "count",
    "rates.death_rates_s": "s",
    "rates.total_birth_mass.calls": "count",
    "rates.total_birth_mass_s": "s",
    "rates.sample_birth_location.calls": "count",
    "rates.sample_birth_location_s": "s",
    "rates.birth_accept_frac": "ratio",
    "rates.validate_conditions_s": "s",
    "rates.self_s": "s",
    "chain.hitting_estimate.calls": "count",
    "chain.hitting_estimate_s": "s",
    "chain.replicas": "count",
    "chain.replica_steps": "count",
    "chain.steps_per_replica": "steps",
    "chain.step_budget_frac": "ratio",
    "chain.hit_frac": "ratio",
    "chain.membership.calls": "count",
    "chain.membership_s": "s",
    "chain.self_s": "s",
    "chain.us_per_step": "us",
    "measure.lp_measure_estimate.calls": "count",
    "measure.lp_measure_estimate_s": "s",
    "measure.samples": "count",
    "measure.predicate.calls": "count",
    "measure.predicate_s": "s",
    "measure.self_s": "s",
    "measure.sample_poisson_config.calls": "count",
    "measure.sample_poisson_config_s": "s",
    "paths.build_path_s": "s",
    "paths.corridor_event_frequency_s": "s",
    "paths.corridor.replicas": "count",
    "paths.corridor.steps": "count",
    "paths.corridor.steps_per_replica": "steps",
    "paths.corridor.follow_frac": "ratio",
    "paths.self_s": "s",
    "lab.positive_measure_s": "s",
    "lab.null_set_s": "s",
    "lab.null_set.replica_steps": "count",
    "lab.one_step_null_preservation_s": "s",
    "lab.theorem_pipeline_s": "s",
    "lab.extinction_s": "s",
    "lab.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class Span:
    """One coarse call: its time, its children and its leaf-call table."""

    __slots__ = ("name", "elapsed", "self_s", "children", "leaves", "attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed = 0.0
        self.self_s = 0.0
        self.children: list[Span] = []
        # leaf name -> [calls, total seconds, self seconds, useful outcomes]
        self.leaves: dict[str, list] = {}
        self.attrs: dict[str, float] = {}

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Span tree of one traced job."""

    def __init__(self) -> None:
        self.root = Span("benchmark.job")
        self.current = self.root
        # One cell per open wrapped call: the time its wrapped callees took.
        self.nested: list[list[float]] = [[0.0]]

    def run(self, job: Callable[[], Any]) -> Any:
        """Run ``job`` as the root span."""
        start = time.perf_counter()
        try:
            return job()
        finally:
            self.root.elapsed = time.perf_counter() - start
            self.root.self_s = self.root.elapsed - self.nested[0][0]

    def span(self, fn: Callable, name: str | Callable[[dict], str],
             enter: Callable[[dict], None] | None = None,
             leave: Callable[[Span, dict, Any], None] | None = None) -> Callable:
        signature = inspect.signature(fn)
        clock = time.perf_counter
        nested = self.nested

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            node = Span(name(bound.arguments) if callable(name) else name)
            if enter is not None:
                enter(bound.arguments)
            parent = self.current
            parent.children.append(node)
            self.current = node
            cell = [0.0]
            nested.append(cell)
            start = clock()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                node.elapsed = clock() - start
                nested.pop()
                nested[-1][0] += node.elapsed
                node.self_s = node.elapsed - cell[0]
                self.current = parent
            if leave is not None:
                leave(node, bound.arguments, result)
            return result

        return wrapper

    def leaf(self, fn: Callable, name: str,
             useful: Callable[[tuple, Any], bool] | None = None) -> Callable:
        clock = time.perf_counter
        nested = self.nested

        def wrapper(*args, **kwargs):
            cell = [0.0]
            nested.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested.pop()
                nested[-1][0] += elapsed
                stat = self.current.leaves.get(name)
                if stat is None:
                    stat = self.current.leaves[name] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - cell[0]
            if useful is not None and useful(args, result):
                stat[3] += 1
            return result

        return wrapper


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every program module that holds it by name."""
        for module in PROGRAM:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def _note_hitting(node: Span, args: dict, result: Any) -> None:
    node.attrs["replicas"] = args["replicas"]
    node.attrs["budget"] = args["replicas"] * args["max_steps"]
    node.attrs["hits"] = result.hits


def _note_corridor(node: Span, args: dict, result: Any) -> None:
    node.attrs["replicas"] = args["replicas"]
    node.attrs["hits"] = result.hits


def _note_samples(node: Span, args: dict, result: Any) -> None:
    node.attrs["samples"] = args["samples"]


def install(tracer: Tracer) -> Patches:
    """Wrap the program's public entry points for one traced job."""
    patches = Patches()
    leaf, span = tracer.leaf, tracer.span

    patches.function(configurations.in_ball, leaf(
        configurations.in_ball, "configurations.in_ball", lambda args, result: bool(result)))
    patches.function(configurations.distance_rho, leaf(
        configurations.distance_rho, "configurations.distance_rho"))

    model = rates.ContactModel
    patches.set(model, "death_rates", leaf(model.death_rates, "rates.death_rates"))
    patches.set(model, "total_birth_mass", leaf(model.total_birth_mass, "rates.total_birth_mass"))
    patches.set(model, "sample_birth_location", leaf(
        model.sample_birth_location, "rates.sample_birth_location",
        lambda args, location: location not in args[1]))
    patches.function(rates.validate_conditions, span(
        rates.validate_conditions, "rates.validate_conditions"))

    patches.set(chain.TargetSet, "membership", leaf(chain.TargetSet.membership, "chain.membership"))
    patches.function(chain.hitting_estimate, span(
        chain.hitting_estimate, "chain.hitting_estimate", leave=_note_hitting))

    def wrap_predicate(args: dict) -> None:
        args["predicate"] = leaf(args["predicate"], "measure.predicate")

    patches.function(measure.lp_measure_estimate, span(
        measure.lp_measure_estimate, "measure.lp_measure_estimate",
        enter=wrap_predicate, leave=_note_samples))
    patches.function(measure.sample_poisson_config, leaf(
        measure.sample_poisson_config, "measure.sample_poisson_config"))

    patches.function(paths.build_path, span(paths.build_path, "paths.build_path"))
    patches.function(paths.corridor_prob_lower_bound, span(
        paths.corridor_prob_lower_bound, "paths.corridor_prob_lower_bound"))
    patches.function(paths.corridor_event_frequency, span(
        paths.corridor_event_frequency, "paths.corridor_event_frequency", leave=_note_corridor))

    # run_default_suite reuses positive_measure_experiment for its extinction
    # check; only the single five-point start tells the two calls apart.
    def positive_or_extinction(args: dict) -> str:
        starts = list(args["starts"])
        if len(starts) == 1 and starts[0] == lab.default_extinction_start(args["model"]):
            return "lab.extinction"
        return "lab.positive_measure"

    patches.function(lab.positive_measure_experiment, span(
        lab.positive_measure_experiment, positive_or_extinction))
    patches.function(lab.null_set_experiment, span(lab.null_set_experiment, "lab.null_set"))
    patches.function(lab.one_step_null_preservation, span(
        lab.one_step_null_preservation, "lab.one_step_null_preservation"))
    patches.function(lab.theorem_pipeline, span(lab.theorem_pipeline, "lab.theorem_pipeline"))
    patches.function(lab.run_default_suite, span(lab.run_default_suite, "lab.run_default_suite"))
    patches.function(cli.main, span(cli.main, "cli.main"))
    return patches


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced job, keyed as in PER_LAYER."""
    spans = list(tracer.root.walk())

    def named(prefix: str) -> list[Span]:
        return [s for s in spans if s.name == prefix]

    def leaf(name: str, within: list[Span] | None = None) -> list:
        total = [0, 0.0, 0.0, 0]
        for node in spans if within is None else within:
            stat = node.leaves.get(name)
            if stat is not None:
                total = [a + b for a, b in zip(total, stat)]
        return total

    def span_s(name: str) -> float:
        return sum(s.elapsed for s in named(name))

    def attr(nodes: list[Span], key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in nodes)

    self_s = {module: 0.0 for module in MODULES}
    for node in spans:
        if node is not tracer.root:
            self_s[node.name.split(".")[0]] += node.self_s
        for name, stat in node.leaves.items():
            self_s[name.split(".")[0]] += stat[2]

    in_ball = leaf("configurations.in_ball")
    distance = leaf("configurations.distance_rho")
    deaths = leaf("rates.death_rates")
    births = leaf("rates.sample_birth_location")
    hitting = named("chain.hitting_estimate")
    hitting_steps = leaf("rates.death_rates", hitting)[0]
    corridors = named("paths.corridor_event_frequency")
    corridor_steps = leaf("rates.death_rates", corridors)[0]
    membership = leaf("chain.membership")
    predicate = leaf("measure.predicate")
    poisson = leaf("measure.sample_poisson_config")
    traced_wall = tracer.root.elapsed

    metrics = {
        "configurations.in_ball.calls": in_ball[0],
        "configurations.in_ball_s": in_ball[1],
        "configurations.in_ball.us_per_call": 1e6 * _ratio(in_ball[1], in_ball[0]),
        "configurations.in_ball.member_frac": _ratio(in_ball[3], in_ball[0]),
        "configurations.distance_rho.calls": distance[0],
        "configurations.distance_rho_s": distance[1],
        "rates.death_rates.calls": deaths[0],
        "rates.death_rates_s": deaths[1],
        "rates.total_birth_mass.calls": leaf("rates.total_birth_mass")[0],
        "rates.total_birth_mass_s": leaf("rates.total_birth_mass")[1],
        "rates.sample_birth_location.calls": births[0],
        "rates.sample_birth_location_s": births[1],
        "rates.birth_accept_frac": _ratio(births[3], births[0]),
        "rates.validate_conditions_s": span_s("rates.validate_conditions"),
        "chain.hitting_estimate.calls": len(hitting),
        "chain.hitting_estimate_s": span_s("chain.hitting_estimate"),
        "chain.replicas": attr(hitting, "replicas"),
        "chain.replica_steps": hitting_steps,
        "chain.steps_per_replica": _ratio(hitting_steps, attr(hitting, "replicas")),
        "chain.step_budget_frac": _ratio(hitting_steps, attr(hitting, "budget")),
        "chain.hit_frac": _ratio(attr(hitting, "hits"), attr(hitting, "replicas")),
        "chain.membership.calls": membership[0],
        "chain.membership_s": membership[1],
        "chain.us_per_step": 1e6 * _ratio(span_s("chain.hitting_estimate"), hitting_steps),
        "measure.lp_measure_estimate.calls": len(named("measure.lp_measure_estimate")),
        "measure.lp_measure_estimate_s": span_s("measure.lp_measure_estimate"),
        "measure.samples": attr(named("measure.lp_measure_estimate"), "samples"),
        "measure.predicate.calls": predicate[0],
        "measure.predicate_s": predicate[1],
        "measure.sample_poisson_config.calls": poisson[0],
        "measure.sample_poisson_config_s": poisson[1],
        "paths.build_path_s": span_s("paths.build_path"),
        "paths.corridor_event_frequency_s": span_s("paths.corridor_event_frequency"),
        "paths.corridor.replicas": attr(corridors, "replicas"),
        "paths.corridor.steps": corridor_steps,
        "paths.corridor.steps_per_replica": _ratio(corridor_steps, attr(corridors, "replicas")),
        "paths.corridor.follow_frac": _ratio(attr(corridors, "hits"), attr(corridors, "replicas")),
        "lab.positive_measure_s": span_s("lab.positive_measure"),
        "lab.null_set_s": span_s("lab.null_set"),
        "lab.null_set.replica_steps": leaf("rates.death_rates", named("lab.null_set"))[0],
        "lab.one_step_null_preservation_s": span_s("lab.one_step_null_preservation"),
        "lab.theorem_pipeline_s": span_s("lab.theorem_pipeline"),
        "lab.extinction_s": span_s("lab.extinction"),
        "cli.main_s": span_s("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.unattributed_s": tracer.root.self_s,
    }
    for module, seconds in self_s.items():
        metrics[f"{module}.self_s"] = seconds
    return metrics
