"""The benchmark workloads: seeded inputs, one timed job, and oracle checks.

Each workload has three parts.  ``setup`` turns the benchmark seed into
the inputs the program receives (model, goals, balls, a config file);
this is what ``setup_s`` times.  ``job`` is the unit of timed work and
returns the program's outputs.  ``checks`` compares those outputs with
oracles that do not depend on the program's random streams: closed-form
measures, exact metric values, certified bounds and PASS verdicts, so a
backend that draws different numbers still passes.

Program functions are always reached through their module
(``paths.build_path``, not a name bound at import time), so the traced
run's patches see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from birthdeath import cli, configurations, lab, measure, paths, rates

Configuration = configurations.Configuration


@dataclass(frozen=True)
class Check:
    """One oracle verdict; every failed check counts once in ``failed``."""

    name: str
    ok: bool
    detail: str = ""


# --- lab-readme -----------------------------------------------------------

# The config block of the README, verbatim apart from the seed, which the
# benchmark sets on the command line.
README_CONFIG: dict[str, Any] = {
    "seed": 11,
    "workers": 1,
    "model": {
        "name": "contact",
        "dimension": 1,
        "interaction_radius": 1.0,
        "immigration_intensity": 0.8,
        "neighbor_intensity": 0.1,
        "baseline_death": 1.0,
    },
    "simulate": {"initial": [], "max_steps": 30, "target": [{"kind": "empty"}]},
    "hitprob": {
        "initial": [[0.1]],
        "target": [{"kind": "empty"}],
        "max_steps": 60,
        "replicas": 2000,
    },
    "path": {"goal": [[0.2], [0.45]]},
    "measure": {
        "samples": 20000,
        "sets": [
            {
                "id": "pairs-in-unit-box",
                "layer": 2,
                "shape": {"kind": "all_in_region", "lower": [0.0], "upper": [1.0]},
            },
            {
                "id": "singleton-ball",
                "layer": 1,
                "shape": {"kind": "ball", "center": [[0.0]], "radius": 0.1},
                "window": {"lower": [-0.5], "upper": [0.5]},
            },
        ],
    },
    "lab": {"replicas": 1500, "null_replicas": 5000},
}

# Tiny suite sizes for the smoke test, from the small suite the lab tests use.
LAB_SMOKE = {
    "max_steps": 120,
    "replicas": 60,
    "null_max_steps": 40,
    "null_replicas": 40,
    "preservation_draws": 50,
    "pipeline_replicas": 200,
    "extinction_replicas": 50,
    "extinction_max_steps": 300,
    "measure_samples": 2000,
}

LAB_EXPERIMENTS = (
    "positive_measure",
    "null_set",
    "one_step_null_preservation",
    "theorem_pipeline",
    "extinction",
)

# Starts audited by the lab's null-set experiment (empty and one Poisson draw).
NULL_AUDIT_STARTS = 2


def lab_csv_checks(returncode: int, outdir: Path) -> list[Check]:
    """Exit code 0, all five lab CSVs present, and every row PASS."""
    checks = [Check("lab exit code 0", returncode == 0, f"exit code {returncode}")]
    for experiment in LAB_EXPERIMENTS:
        path = outdir / f"lab_{experiment}.csv"
        if not path.is_file():
            checks.append(Check(f"lab_{experiment}.csv all PASS", False, "missing"))
            continue
        with open(path, newline="") as handle:
            verdicts = [row.get("verdict") for row in csv.DictReader(handle)]
        bad = sum(1 for v in verdicts if v != "PASS")
        checks.append(
            Check(
                f"lab_{experiment}.csv all PASS",
                bool(verdicts) and bad == 0,
                f"{len(verdicts)} rows, {bad} not PASS",
            )
        )
    return checks


class LabReadme:
    """``bdlab lab`` on the README config, CSVs written to a scratch directory."""

    name = "lab-readme"

    def budgets(self, smoke: bool) -> dict[str, Any]:
        sizes = dataclasses.asdict(lab.SuiteSizes())
        sizes.update(README_CONFIG["lab"])
        if smoke:
            sizes.update(LAB_SMOKE)
        return sizes

    def setup(self, seed: int, smoke: bool, workdir: Path) -> dict[str, Any]:
        config = copy.deepcopy(README_CONFIG)
        config["seed"] = seed
        if smoke:
            config["lab"].update(LAB_SMOKE)
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "lab-readme.json"
        config_path.write_text(json.dumps(config, indent=2))
        return {"seed": seed, "config": config_path, "out": workdir / "lab-out",
                "sizes": self.budgets(smoke)}

    def job(self, inputs: dict[str, Any]) -> dict[str, Any]:
        argv = ["lab", "--config", str(inputs["config"]), "--seed", str(inputs["seed"]),
                "--workers", "1", "--out", str(inputs["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            returncode = cli.main(argv)
        return {"returncode": returncode}

    def reset(self, inputs: dict[str, Any]) -> None:
        """Remove the previous job's CSVs, so a missing CSV cannot pass."""
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def checks(self, inputs: dict[str, Any], outputs: dict[str, Any]) -> list[Check]:
        return lab_csv_checks(outputs["returncode"], inputs["out"])

    def trace_checks(self, inputs: dict[str, Any], metrics: dict[str, float]) -> list[Check]:
        """Every null-audit replica runs its full step budget, one death_rates call a step."""
        sizes = inputs["sizes"]
        expected = sizes["null_replicas"] * sizes["null_max_steps"] * NULL_AUDIT_STARTS
        seen = metrics["lab.null_set.replica_steps"]
        return [Check("null audit steps counted exactly", seen == expected,
                      f"{seen} death_rates calls in lab.null_set, expected {expected}")]


# --- reach-d2 -------------------------------------------------------------

REACH_MODEL = {"dimension": 2, "crowding_death": 0.3}
REACH_BUDGETS = {"corridor_goals": 6, "corridor_replicas": 4000,
                 "pipeline_goals": 2, "pipeline_replicas": 600}
REACH_SMOKE = {"corridor_goals": 2, "corridor_replicas": 200,
               "pipeline_goals": 1, "pipeline_replicas": 100}


def corridor_check(index: int, bound: float, ci_high: float) -> Check:
    """The certified corridor bound is positive and under the empirical 95% upper limit."""
    return Check(f"corridor {index} bound <= ci_high", 0.0 < bound <= ci_high,
                 f"bound {bound:.6g}, ci_high {ci_high:.6g}")


def pipeline_check(index: int, verdict: str) -> Check:
    return Check(f"theorem pipeline {index} PASS", verdict == "PASS", f"verdict {verdict}")


def _disk_point(rng: np.random.Generator, center, radius: float) -> tuple[float, float]:
    rho = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return (center[0] + rho * math.cos(theta), center[1] + rho * math.sin(theta))


class ReachD2:
    """Paths, corridor bounds and frequencies, and the theorem pipeline in d=2 with crowding."""

    name = "reach-d2"

    def budgets(self, smoke: bool) -> dict[str, Any]:
        return dict(REACH_SMOKE if smoke else REACH_BUDGETS)

    def setup(self, seed: int, smoke: bool, workdir: Path) -> dict[str, Any]:
        budgets = self.budgets(smoke)
        model = rates.ContactModel(**REACH_MODEL)
        center = model.immigration_region.center
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        goals = []
        for _ in range(budgets["corridor_goals"]):
            size = int(rng.integers(1, 4))
            goals.append(Configuration([_disk_point(rng, center, 0.7) for _ in range(size)]))
        # Two points a third of a radius apart, at a seeded angle: the
        # lab's default goal turned in the plane, so every seed hits it.
        gap = model.interaction_radius / 6.0
        pipeline_goals = []
        for _ in range(budgets["pipeline_goals"]):
            theta = 2.0 * math.pi * rng.random()
            dx, dy = gap * math.cos(theta), gap * math.sin(theta)
            pipeline_goals.append(Configuration(
                [(center[0] - dx, center[1] - dy), (center[0] + dx, center[1] + dy)]))
        return {"seed": seed, "model": model, "ball_radius": model.interaction_radius / 5.0,
                "goals": goals, "pipeline_goals": pipeline_goals, "budgets": budgets}

    def job(self, inputs: dict[str, Any]) -> dict[str, Any]:
        model = inputs["model"]
        radius = inputs["ball_radius"]
        seed = inputs["seed"]
        corridors = []
        for k, goal in enumerate(inputs["goals"]):
            path = paths.build_path(goal, model.interaction_radius, model.immigration_region.center)
            bound = paths.corridor_prob_lower_bound(path, radius, model)
            freq = paths.corridor_event_frequency(
                path, radius, model, inputs["budgets"]["corridor_replicas"],
                np.random.SeedSequence(seed, spawn_key=(2, k)),
            )
            corridors.append((bound, freq.ci_high))
        verdicts = []
        for k, goal in enumerate(inputs["pipeline_goals"]):
            report = lab.theorem_pipeline(model, goal, replicas=inputs["budgets"]["pipeline_replicas"],
                                          seed=seed + k)
            verdicts.append(report.rows[0].verdict)
        return {"corridors": corridors, "verdicts": verdicts}

    def reset(self, inputs: dict[str, Any]) -> None:
        pass

    def checks(self, inputs: dict[str, Any], outputs: dict[str, Any]) -> list[Check]:
        checks = [corridor_check(k, bound, high)
                  for k, (bound, high) in enumerate(outputs["corridors"])]
        checks += [pipeline_check(k, v) for k, v in enumerate(outputs["verdicts"])]
        return checks

    def trace_checks(self, inputs: dict[str, Any], metrics: dict[str, float]) -> list[Check]:
        return []


# --- measure-balls --------------------------------------------------------

BALL_RADIUS = 0.1
# Centers sit on a grid of this spacing (in ball radii), jittered by at
# most BALL_JITTER per coordinate, so distinct centers stay more than
# 2.15 radii apart: the balls are disjoint and the exact measure of the
# bottleneck ball is (V_d r^d)^n.
BALL_SPACING = 2.3
BALL_JITTER = 0.05
# Metric candidates move each center point by at most this many radii.
# Since 2.15 - 1.05 > 1.05, the identity pairing is the optimal one and
# the exact distance is the largest single displacement.
CANDIDATE_REACH = 1.05
# Samples per (dimension, layer); sized so every set expects 50 or more hits.
MEASURE_SAMPLES = {
    1: {1: 2000, 2: 4000, 3: 6000, 4: 8000, 5: 10000, 6: 15000},
    2: {1: 2000, 2: 4000, 3: 6000, 4: 10000, 5: 30000, 6: 40000},
}
MEASURE_CANDIDATES = 100
MEASURE_SIGMAS = 5.0
GRID_COLUMNS = {1: 6, 2: 2, 3: 3, 4: 2, 5: 3, 6: 3}


def measure_check(label: str, value: float, exact: float, scale: float, samples: int,
                  window_is_ball: bool = False) -> Check:
    """The estimate is within MEASURE_SIGMAS standard errors of the exact measure.

    The standard error is that of the exact hit probability, so the check
    is defined even when no sample hits.  A set whose window is the ball
    itself hits on every draw and must be exact.
    """
    if window_is_ball:
        return Check(f"{label} exact", abs(value - exact) <= 1e-12 * exact,
                     f"estimate {value!r}, exact {exact!r}")
    p = exact / scale
    sigma = scale * math.sqrt(p * (1.0 - p) / samples)
    return Check(f"{label} within {MEASURE_SIGMAS:g} se", abs(value - exact) <= MEASURE_SIGMAS * sigma,
                 f"estimate {value:.6g}, exact {exact:.6g}, se {sigma:.3g}")


def metric_check(label: str, radius: float, expected: list[float],
                 distances: list[float], members: list[bool]) -> Check:
    """distance_rho equals the largest displacement, and in_ball agrees with it."""
    wrong_distance = sum(1 for e, d in zip(expected, distances) if d != e)
    wrong_member = sum(1 for e, m in zip(expected, members) if m != (e <= radius))
    ok = wrong_distance == 0 and wrong_member == 0 and len(distances) == len(expected)
    return Check(f"{label} metric", ok,
                 f"{len(expected)} candidates, {wrong_distance} wrong distances, "
                 f"{wrong_member} wrong memberships")


def _ball_centers(rng: np.random.Generator, dimension: int, layer: int) -> list[tuple]:
    step = BALL_SPACING * BALL_RADIUS
    jitter = BALL_JITTER * BALL_RADIUS
    columns = layer if dimension == 1 else GRID_COLUMNS[layer]
    centers = []
    for k in range(layer):
        cell = (k % columns, k // columns)[:dimension]
        centers.append(tuple(step * c + jitter * (2.0 * rng.random() - 1.0) for c in cell))
    return centers


def _displaced(rng: np.random.Generator, point: tuple, reach: float) -> tuple:
    d = len(point)
    norm = reach * rng.random()
    if d == 1:
        return (point[0] + (norm if rng.random() < 0.5 else -norm),)
    direction = rng.standard_normal(d)
    direction /= math.sqrt(float(direction @ direction))
    return tuple(float(c + norm * v) for c, v in zip(point, direction))


class MeasureBalls:
    """Monte Carlo measure of disjoint-ball bottleneck sets, layers 1-6, d=1 and d=2."""

    name = "measure-balls"

    def budgets(self, smoke: bool) -> dict[str, Any]:
        divisor = 50 if smoke else 1
        return {
            "ball_radius": BALL_RADIUS,
            "samples": {d: {n: max(20, s // divisor) for n, s in per.items()}
                        for d, per in MEASURE_SAMPLES.items()},
            "candidates": max(5, MEASURE_CANDIDATES // divisor),
        }

    def setup(self, seed: int, smoke: bool, workdir: Path) -> dict[str, Any]:
        budgets = self.budgets(smoke)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
        r = BALL_RADIUS
        sets = []
        for dimension in (1, 2):
            for layer in range(1, 7):
                offset = tuple(rng.uniform(-1.0, 1.0, size=dimension))
                centers = [tuple(o + c for o, c in zip(offset, p))
                           for p in _ball_centers(rng, dimension, layer)]
                center = Configuration(centers)
                ball = configurations.RhoBall(center, r)
                window = measure.BoxRegion(
                    tuple(min(p[k] for p in centers) - r for k in range(dimension)),
                    tuple(max(p[k] for p in centers) + r for k in range(dimension)),
                )
                pairs = []
                for _ in range(budgets["candidates"]):
                    moved = [(_displaced(rng, p, CANDIDATE_REACH * r), p) for p in centers]
                    pairs.append((Configuration([m for m, _ in moved]),
                                  max(math.dist(m, p) for m, p in moved)))
                sets.append({
                    "label": f"d{dimension} n{layer}",
                    "layer_set": measure.LayerSet(layer, measure.BallSet(ball)),
                    "window": window,
                    "samples": budgets["samples"][dimension][layer],
                    "exact": (configurations.unit_ball_volume(dimension) * r ** dimension) ** layer,
                    "scale": window.volume ** layer / math.factorial(layer),
                    "window_is_ball": dimension == 1 and layer == 1,
                    "candidates": [c for c, _ in pairs],
                    "expected": [e for _, e in pairs],
                })
        return {"seed": seed, "sets": sets}

    def job(self, inputs: dict[str, Any]) -> dict[str, Any]:
        results = []
        for index, spec in enumerate(inputs["sets"]):
            layer_set = spec["layer_set"]
            estimate = measure.lp_measure_estimate(
                layer_set.layer, spec["window"], layer_set.contains, spec["samples"],
                seed=np.random.SeedSequence(inputs["seed"], spawn_key=(4, index)),
            )
            ball = layer_set.shape.ball
            distances = [configurations.distance_rho(c, ball.center) for c in spec["candidates"]]
            members = [configurations.in_ball(c, ball) for c in spec["candidates"]]
            results.append((estimate.value, distances, members))
        return {"results": results}

    def reset(self, inputs: dict[str, Any]) -> None:
        pass

    def checks(self, inputs: dict[str, Any], outputs: dict[str, Any]) -> list[Check]:
        checks = []
        for spec, (value, distances, members) in zip(inputs["sets"], outputs["results"]):
            checks.append(measure_check(spec["label"], value, spec["exact"], spec["scale"],
                                        spec["samples"], spec["window_is_ball"]))
            checks.append(metric_check(spec["label"], BALL_RADIUS, spec["expected"],
                                       distances, members))
        if len(outputs["results"]) != len(inputs["sets"]):
            checks.append(Check("every set estimated", False,
                                f"{len(outputs['results'])} of {len(inputs['sets'])}"))
        return checks

    def trace_checks(self, inputs: dict[str, Any], metrics: dict[str, float]) -> list[Check]:
        """One predicate call per sample, and one in_ball call per predicate call and candidate."""
        samples = sum(spec["samples"] for spec in inputs["sets"])
        candidates = sum(len(spec["candidates"]) for spec in inputs["sets"])
        counts = (metrics["measure.predicate.calls"], metrics["configurations.in_ball.calls"],
                  metrics["configurations.distance_rho.calls"])
        expected = (samples, samples + candidates, candidates)
        return [Check("measure calls counted exactly", counts == expected,
                      f"predicate, in_ball, distance_rho calls {counts}, expected {expected}")]


WORKLOADS = {w.name: w for w in (LabReadme(), ReachD2(), MeasureBalls())}
