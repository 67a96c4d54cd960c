"""Command-line front end.

Runs simulations and experiments described by a single JSON config.
Every run is deterministic for a fixed config and seed, and CSV
outputs are byte-identical across repeats.  Exit codes: 0 on success,
1 when an experiment reports FAIL, 2 on malformed configs,
non-conforming models, or a model whose chain cannot move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Sequence

from .chain import (
    ExactPointTarget,
    HyperplaneTarget,
    PairDistanceTarget,
    TargetSet,
    _check_start,
    _check_target,
    _replica_seed,
    hitting_estimate,
    simulate,
)
from .configurations import Configuration, RhoBall, _real, _whole_number, distance_rho
from .lab import SuiteSizes, _write_csv, run_default_suite
from .measure import (
    AllInRegion,
    BallSet,
    BoxRegion,
    EmptySingleton,
    LayerSet,
    ProductOfDisjointBoxes,
    lp_measure,
)
from .paths import build_path, corridor_prob_lower_bound, path_length_cap
from .rates import ConditionReport, ContactModel, DegenerateStateError, RateModel


class ConfigError(Exception):
    """Anything wrong with the config document or CLI usage."""


# Default of a ``_number`` field that must be present.
_REQUIRED = object()


def _name(context: str | None, key: str) -> str:
    return f"{context}.{key}" if context else key


def _require(mapping: dict, key: str, context: str | None = None) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing key '{_name(context, key)}'")
    return mapping[key]


@contextlib.contextmanager
def _config_error(prefix: str):
    """Re-raise a library refusal (``TypeError``, ``ValueError``, ``OverflowError``) as a ``ConfigError``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{prefix}{err}") from err


def _read_json(path: str, what: str) -> Any:
    """The JSON document at ``path``; ``what`` names it in errors."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read {what}: {err}") from err
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from err


def _settings(mapping: dict, keys: tuple[str, ...], context: str | None) -> dict:
    """``mapping``, every key of which must be one of ``keys``."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{_name(context, key)} is not a setting: {context or 'the config'} "
                              f"takes {', '.join(keys)}")
    return mapping


def _section(mapping: dict, key: str, keys: tuple[str, ...] | None, context: str | None = None) -> dict:
    """``mapping[key]``, an object of settings among ``keys``, or ``{}`` when absent.

    ``keys`` None leaves the keys to the constructor that the section feeds."""
    section = mapping.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{_name(context, key)} must be an object, got {section!r}")
    return section if keys is None else _settings(section, keys, _name(context, key))


def _json_number(value: Any) -> Any:
    """The integer a JSON string spells (``"120"``), or ``value`` itself; the readers parse the rest."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    return value


def _number(section: dict, key: str, default: Any, context: str | None,
            kind: type = int, minimum: float | None = None) -> Any:
    """``section[key]``, or ``default`` when absent, read by the library's number rule as ``context.key``.

    ``int`` reads a whole number of at least ``minimum``, and ``float`` a finite real, above
    ``minimum`` when one is given.  Numeric strings count as numbers, integers never pass through
    a float, so huge ones stay exact, and ``None`` is kept where the default is ``None``.
    """
    name = _name(context, key)
    value = _require(section, key, context) if default is _REQUIRED else section.get(key, default)
    if value is None and default is None:
        return None
    with _config_error(""):
        if kind is int:
            return _whole_number(_json_number(value), name, minimum)
        return _real(_json_number(value), name, minimum, strict=True)


def build_model(config: dict) -> ContactModel:
    _require(config, "model")
    # ContactModel refuses a parameter it does not take.
    section = _section(config, "model", None)
    name = section.get("name", "contact")
    if name != "contact":
        raise ConfigError(f"unknown model '{name}' (only 'contact' is built in)")
    kwargs = {k: v for k, v in section.items() if k != "name"}
    with _config_error("bad model parameters: "):
        return ContactModel(**kwargs)


def _parse_configuration(raw: Any, context: str, model: RateModel | None = None) -> Configuration:
    """A configuration; given a model, the library's start rule refuses one of another dimension."""
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise ConfigError(f"{context} must be a list of points")
    with _config_error(f"bad {context}: "):
        config = Configuration(raw)
        if model is not None:
            _check_start(config, model)
    return config


def _parse_box(raw: Any, context: str) -> BoxRegion:
    """A box from ``raw['lower']`` and ``raw['upper']``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object with 'lower' and 'upper'")
    with _config_error(f"bad {context}: "):
        return BoxRegion(tuple(_require(raw, "lower", context)), tuple(_require(raw, "upper", context)))


def _parse_layer_set(raw: dict, context: str, layer: int | None) -> LayerSet:
    """The layer set of ``raw['kind']`` on ``layer``; None takes the layer the shape fixes."""
    kind = _require(raw, "kind", context)
    with _config_error(f"bad {context}: "):
        if kind == "empty":
            shape = EmptySingleton()
        elif kind == "all_in_region":
            shape = AllInRegion(_parse_box(raw, context))
        elif kind == "product_boxes":
            boxes = _require(raw, "boxes", context)
            shape = ProductOfDisjointBoxes(tuple(_parse_box(b, f"{context}.boxes") for b in boxes))
        elif kind == "ball":
            center = _parse_configuration(_require(raw, "center", context), context)
            shape = BallSet(RhoBall(center, _number(raw, "radius", _REQUIRED, context, float)))
        else:
            raise ConfigError(f"unknown kind '{kind}' in {context}")
        if layer is None and shape.fixed_layer is None:
            raise ConfigError(f"missing key '{context}.layer'")
        return LayerSet(shape.fixed_layer if layer is None else layer, shape)


def _parse_target(raw: Any, context: str, model: RateModel) -> TargetSet:
    """A union of pieces that fit the model: layer sets, with an optional ``layer``, and null predicates."""
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context} must be a piece object or nonempty list of pieces")
    pieces = []
    for item in raw:
        if not isinstance(item, dict):
            raise ConfigError(f"every piece of {context} must be an object")
        kind = _require(item, "kind", context)
        with _config_error(f"bad piece in {context}: "):
            if kind == "exact_point":
                point = _parse_configuration([_require(item, "point", context)], context)
                piece = ExactPointTarget(point.points[0])
            elif kind == "hyperplane":
                axis = _number(item, "axis", _REQUIRED, context, minimum=0)
                piece = HyperplaneTarget(axis, _number(item, "value", _REQUIRED, context, float))
            elif kind == "pair_distance":
                piece = PairDistanceTarget(_number(item, "distance", _REQUIRED, context, float))
            else:
                layer = _number(item, "layer", None, context, minimum=0)
                piece = _parse_layer_set(item, context, layer)
            _check_target([piece], model)
        pieces.append(piece)
    return TargetSet(tuple(pieces))


def _parse_measure_set(raw: Any, context: str, model: RateModel) -> tuple[str, LayerSet]:
    """A measure set that fits the model: its id and its layer set."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object")
    _settings(raw, ("id", "layer", "shape"), context)
    set_id = str(raw.get("id", "set"))
    layer = _number(raw, "layer", _REQUIRED, context, minimum=0)
    shape = _section(raw, "shape", None, context)
    layer_set = _parse_layer_set(shape, f"{context}.shape", layer)
    with _config_error(f"bad {context}: "):
        _check_target([layer_set], model)
    return set_id, layer_set


def _conditions(model: ContactModel, config: dict) -> ConditionReport:
    """The standing conditions, proved on states of at most ``validate.max_size`` points."""
    section = _section(config, "validate", ("max_size",))
    # Every chain leaves the empty state by a birth, so a cap below 1 would cover no move.
    return model.conditions(_number(section, "max_size", 12, "validate", minimum=1))


# --- subcommands ------------------------------------------------------


def _cmd_simulate(config: dict, model: RateModel, seed: int, outdir: str) -> int:
    section = _section(config, "simulate", ("initial", "max_steps", "target"))
    initial = _parse_configuration(section.get("initial"), "simulate.initial", model)
    max_steps = _number(section, "max_steps", 200, "simulate", minimum=0)
    target = _parse_target(section["target"], "simulate.target", model) if section.get("target") else None
    trajectory = simulate(initial, model, target, max_steps, _replica_seed(seed, 3))
    dimension = model.dimension
    columns = ["step", "kind"] + [f"x{k}" for k in range(dimension)]
    rows = [
        {"step": e.step_index, "kind": e.kind, **{f"x{k}": c for k, c in enumerate(e.point)}}
        for e in trajectory.events
    ]
    out = os.path.join(outdir, "trajectory.csv")
    _write_csv(out, columns, rows)
    final = trajectory.final_state()
    print(
        f"simulate: {len(trajectory.events)} steps, terminal={trajectory.terminal_reason}, "
        f"final size={len(final)}, wrote {out}"
    )
    return 0


def _cmd_hitprob(config: dict, model: RateModel, seed: int, outdir: str) -> int:
    section = _section(config, "hitprob", ("initial", "target", "max_steps", "replicas"))
    initial = _parse_configuration(section.get("initial"), "hitprob.initial", model)
    target = _parse_target(_require(section, "target", "hitprob"), "hitprob.target", model)
    max_steps = _number(section, "max_steps", 500, "hitprob", minimum=1)
    replicas = _number(section, "replicas", 2_000, "hitprob", minimum=1)
    estimate = hitting_estimate(initial, target, model, max_steps, replicas, _replica_seed(seed, 4))
    row = {
        "start": json.dumps(initial.to_coord_lists()),
        "target": target.label(),
        "max_steps": max_steps,
        "replicas": replicas,
        "hits": estimate.hits,
        "estimate": estimate.estimate,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "seed": seed,
    }
    out = os.path.join(outdir, "hitprob.csv")
    _write_csv(out, list(row), [row])
    print(
        f"hitprob: {estimate.hits}/{replicas} hits, estimate={estimate.estimate:.6g}, "
        f"wilson95=[{estimate.ci_low:.6g}, {estimate.ci_high:.6g}], wrote {out}"
    )
    return 0


def _cmd_path(config: dict, model: RateModel, seed: int, outdir: str) -> int:
    section = _section(config, "path", ("goal",))
    goal = _parse_configuration(_require(section, "goal", "path"), "path.goal", model)
    radius = model.interaction_radius
    # The bound is certified for the ball of an eighth radius inside the pipeline's quarter-radius target.
    ball_radius = radius / 8.0
    with _config_error("path: "):
        path = build_path(goal, radius, model.immigration_region.center)
        bound = corridor_prob_lower_bound(path, ball_radius, model)
    cap = path_length_cap(goal, radius, model.immigration_region.center)
    out = os.path.join(outdir, "path.jsonl")
    with open(out, "w") as handle:
        for vertex in path.vertices:
            handle.write(json.dumps(vertex.to_coord_lists()) + "\n")
    print(
        f"path: length={path.length} (cap {cap}), corridor bound at radius "
        f"{ball_radius!r}: {bound:.6g}, wrote {out}"
    )
    return 0


def _cmd_validate(config: dict, model: ContactModel, seed: int, outdir: str) -> int:
    report = _conditions(model, config)
    out = os.path.join(outdir, "conditions.csv")
    _write_csv(out, ["condition", "name", "verdict", "witness", "detail"], report.to_csv_rows())
    print(report.summary())
    print(f"wrote {out}")
    return 0 if report.passed else 1


def _cmd_measure(config: dict, model: RateModel, seed: int, outdir: str) -> int:
    section = _section(config, "measure", ("samples", "sets"))
    samples = _number(section, "samples", 20_000, "measure", minimum=1)
    raw_sets = _require(section, "sets", "measure")
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ConfigError("measure.sets must be a nonempty list")
    rows = []
    for index, raw in enumerate(raw_sets):
        set_id, layer_set = _parse_measure_set(raw, f"measure.sets[{index}]", model)
        with _config_error(f"measure.sets[{index}]: "):
            result = lp_measure(layer_set, samples, _replica_seed(seed, 5, index))
        rows.append(
            {
                "set_id": set_id,
                "method": "estimate" if result.samples else "exact",
                "value": result.value,
                "std_error": result.std_error,
                "samples": result.samples,
                "seed": seed,
            }
        )
    out = os.path.join(outdir, "measure.csv")
    _write_csv(out, ["set_id", "method", "value", "std_error", "samples", "seed"], rows)
    for row in rows:
        print(
            f"measure[{row['set_id']}]: {row['method']} value={row['value']}"
            + (f" +- {row['std_error']}" if row["method"] == "estimate" else "")
        )
    print(f"wrote {out}")
    return 0


def _cmd_lab(config: dict, model: RateModel, seed: int, outdir: str) -> int:
    section = _section(config, "lab", None)
    # SuiteSizes declares the budgets, refuses any other key, and names the field first in each of its errors.
    with _config_error("lab."):
        sizes = SuiteSizes(**{name: _json_number(value) for name, value in section.items()})
    # A start, target or goal that the suite builds from the model and the library refuses.
    with _config_error("lab: "):
        reports = run_default_suite(model, seed, sizes)
    all_passed = True
    for report in reports:
        out = os.path.join(outdir, f"lab_{report.experiment}.csv")
        report.write_csv(out)
        print(report.summary())
        print(f"wrote {out}")
        for failure in report.write_failures(os.path.join(outdir, "failures")):
            print(f"wrote {failure}")
        all_passed = all_passed and report.passed
    print("lab: PASS" if all_passed else "lab: FAIL")
    return 0 if all_passed else 1


def _cmd_metric(args: argparse.Namespace) -> int:
    first = _parse_configuration(_read_json(args.first, args.first), args.first)
    second = _parse_configuration(_read_json(args.second, args.second), args.second)
    with _config_error("metric: "):
        print(repr(distance_rho(first, second)))
    return 0


# Every command: its handler and its help.  Each handler but ``_cmd_metric`` runs on a config.
_COMMANDS = {
    "simulate": (_cmd_simulate, "run one trajectory and write its events"),
    "hitprob": (_cmd_hitprob, "estimate a hitting probability with a Wilson interval"),
    "path": (_cmd_path, "build the constructive path to a goal configuration"),
    "validate": (_cmd_validate, "prove the standing conditions for the model"),
    "measure": (_cmd_measure, "evaluate reference-measure values for configured sets"),
    "lab": (_cmd_lab, "run the default experiment suite"),
    "metric": (_cmd_metric, "bottleneck distance between two configuration files"),
}

# Commands that run the chain, so refuse a model failing the standing conditions.
_GATED = {_cmd_simulate, _cmd_hitprob, _cmd_lab}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdlab",
        description="Spatial birth-and-death jump chain toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if handler is _cmd_metric:
            cmd.add_argument("first")
            cmd.add_argument("second")
            continue
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--workers", type=int, default=None,
            help="accepted and checked (an integer of at least 1) but has no effect",
        )
        cmd.add_argument("--out", default=None, help="output directory (default: config 'out' or ./out)")
        cmd.add_argument(
            "--skip-validation", action="store_true",
            help="skip the conformance gate on the model",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.handler is _cmd_metric:
            return _cmd_metric(args)
        config = _read_json(args.config, "config")
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _settings(config, ("seed", "workers", "out", "model", "simulate", "hitprob", "path", "validate",
                           "measure", "lab"), None)
        model = build_model(config)
        flags = {key: value for key in ("seed", "workers", "out") if (value := getattr(args, key)) is not None}
        settings = {**config, **flags}
        seed = _number(settings, "seed", 0, None, minimum=0)
        # Still read so that a malformed value exits 2; replicas always run in one process.
        _number(settings, "workers", 1, None, minimum=1)
        outdir = settings.get("out", "out")
        if not isinstance(outdir, str) or not outdir:
            raise ConfigError(f"out must be a nonempty string, got {outdir!r}")
        if args.handler in _GATED and not args.skip_validation:
            report = _conditions(model, config)
            if not report.passed:
                raise ConfigError("model fails the standing conditions:\n" + report.summary())
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"out {outdir!r} cannot be made a directory: {err}") from err
        return args.handler(config, model, seed, outdir)
    # A chain that cannot move is a property of the configured model.
    except (ConfigError, DegenerateStateError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
