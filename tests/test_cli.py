"""Command-line interface tests, driven through main() for speed."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birthdeath import ContactModel, LayerSet
from birthdeath.cli import _KIND_KEYS, _parse_measure_set, _parse_target, main
from conftest import alarm

BASE_CONFIG = {
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
        "replicas": 120,
    },
    "path": {"goal": [[0.2], [0.45]]},
    "measure": {
        "samples": 2000,
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
            },
        ],
    },
    "lab": {
        "max_steps": 100,
        "replicas": 40,
        "null_max_steps": 30,
        "null_replicas": 25,
        "preservation_draws": 30,
        "pipeline_replicas": 120,
        "extinction_replicas": 30,
        "extinction_max_steps": 200,
        "measure_samples": 1000,
    },
    "validate": {"max_size": 10},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    config = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestConfigErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        # Bytes that are not UTF-8, and nesting deeper than the decoder's recursion limit.
        for text in (b"\xff{}", b"[" * 100_000):
            path.write_bytes(text)
            assert main(["validate", "--config", str(path)]) == 2

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"name": "mystery"}})
        assert main(["validate", "--config", path]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_model_params_exit_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"model": {"name": "contact", "immigration_intensity": -1.0}}
        )
        assert main(["validate", "--config", path]) == 2

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("simulate", '"interaction_radius": 1e400'),
            ("simulate", '"immigration_intensity": 1e400'),
            ("hitprob", '"immigration_intensity": 1e400'),
            ("simulate", '"dimension": 1e400'),
            ("simulate", '"dimension": 1.5'),
            ("simulate", '"dimension": 3, "immigration_intensity": 1e-300, "immigration_radius": 1e-10'),
            ("path", '"interaction_radius": true'),
            ("simulate", '"dimension": true'),
            ("hitprob", '"immigration_radius": true'),
            ("simulate", '"immigration_center": [false]'),
        ],
        ids=["radius-inf", "immigration-inf", "hitprob-immigration-inf", "dimension-inf",
             "dimension-1.5", "immigration-mass-0", "radius-boolean", "dimension-boolean",
             "immigration-radius-boolean", "immigration-center-boolean"],
    )
    def test_degenerate_model_exits_2(self, tmp_path, capsys, command, fields):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"] = {"name": "contact"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('{"name": "contact"}', f'{{"name": "contact", {fields}}}'))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "bad model parameters" in err and "Traceback" not in err

    def test_sub_ulp_immigration_ball_exits_2(self, tmp_path, capsys):
        # 1.0 +- 1e-300 == 1.0: simulate used to raise "box needs lower < upper"
        # from the zero-width default window of the validation gate.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"].update(interaction_radius=1e-300, immigration_center=[1.0], immigration_radius=1e-300)
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "immigration_radius" in err and "immigration_center" in err

    def test_birth_with_no_free_location_exits_2(self, tmp_path, capsys):
        # The immigration ball holds two doubles and deaths all but never
        # happen, so every birth collides once both are occupied; this hung.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"].update(immigration_center=[1.0], immigration_radius=1e-16,
                               interaction_radius=1e-300, baseline_death=1e-300)
        config["simulate"] = {"initial": [], "max_steps": 50}
        path = write_config(tmp_path, config)
        with alarm(5):
            code = main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--skip-validation"])
        err = capsys.readouterr().err
        assert code == 2 and "config error" in err and "1000 birth draws in a row" in err

    def test_missing_section_exits_2(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        del config["hitprob"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["hitprob", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("hitprob", "max_steps", "ten"),
            ("hitprob", "replicas", 0),
            ("measure", "samples", None),
            ("hitprob", "replicas", 2.5),
            ("lab", "replicas", 40.7),
            ("lab", "replicas", 0),
            ("lab", "max_steps", 0),
            ("lab", "measure_samples", 0),
            ("lab", "preservation_draws", 0),
            ("lab", "null_max_steps", 0),
        ],
    )
    def test_bad_number_exits_2(self, tmp_path, capsys, command, key, value):
        config = json.loads(json.dumps(BASE_CONFIG))
        config[command][key] = value
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"{command}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, keys, value, field",
        [
            pytest.param("lab", ("lab",), [1], "lab", id="lab-list"),
            pytest.param("simulate", ("simulate",), 5, "simulate", id="simulate-number"),
            pytest.param("validate", ("validate",), [1], "validate", id="validate-list"),
            # Every chain leaves the empty state by a birth, so a size cap of 0 covers no move.
            pytest.param("validate", ("validate",), {"max_size": 0}, "validate.max_size", id="max-size-0"),
            pytest.param("measure", ("measure", "sets", 1, "shape"), ["kind"], "measure.sets[1].shape",
                         id="shape-list"),
            pytest.param("measure", ("measure", "sets", 1, "shape"), "kind", "measure.sets[1].shape",
                         id="shape-string"),
            pytest.param("simulate", ("out",), None, "out", id="out-null"),
            pytest.param("hitprob", ("seed",), -1, "seed", id="seed-negative"),
            pytest.param("hitprob", ("--seed",), "-1", "seed", id="seed-flag-negative"),
            pytest.param("hitprob", ("seed",), 1.9, "seed", id="seed-fraction"),
            pytest.param("hitprob", ("workers",), 1.5, "workers", id="workers-fraction"),
            # model.dimension is the only dimension setting.
            pytest.param("simulate", ("dimension",), 2, "dimension is not a setting", id="top-level-dimension"),
            pytest.param("measure", ("measure", "sets", 1, "layer"), 1.5, "measure.sets[1].layer",
                         id="layer-fraction"),
            pytest.param("measure", ("measure", "sets", 1, "layer"), True, "measure.sets[1].layer",
                         id="layer-boolean"),
            pytest.param("hitprob", ("hitprob", "target"), [{"kind": "hyperplane", "axis": 0.5, "value": 0.3}],
                         "hitprob.target.axis", id="axis-fraction"),
            pytest.param("hitprob", ("hitprob", "target"), [{"kind": "pair_distance", "distance": "nan"}],
                         "hitprob.target.distance", id="pair-distance-nan"),
            pytest.param("path", ("path", "goal"), [[True], [0.45]], "path.goal", id="goal-boolean"),
            pytest.param("hitprob", ("hitprob", "target"), [{"kind": "exact_point", "point": [False]}],
                         "hitprob.target", id="exact-point-boolean"),
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, monkeypatch, capsys, command, keys, value, field):
        # Outputs go to the working directory, so a config "out" is not overridden.
        monkeypatch.chdir(tmp_path)
        config = json.loads(json.dumps(BASE_CONFIG))
        argv = [command, "--config", str(tmp_path / "config.json")]
        if keys[0].startswith("--"):
            argv += [keys[0], value]
        else:
            node = config
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "Traceback" not in err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["existing-file", "below-a-file"])
    def test_unusable_out_directory_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("not a directory")
        path = write_config(tmp_path)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(tmp_path / out) in err and "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "not a directory"

    def test_numbers_read_as_before(self, tmp_path, capsys):
        """Huge integers stay exact, integral floats and numeric strings read as
        integers, and a zero-step simulation still runs."""
        plain = write_config(tmp_path, {"seed": 10**30}, name="plain.json")
        config = json.loads(json.dumps(BASE_CONFIG))
        config["seed"] = 10**30
        config["hitprob"].update(max_steps=60.0, replicas="120")
        config["simulate"]["max_steps"] = 0
        spelled = write_config(tmp_path, config, name="spelled.json")
        for name, path in (("plain", plain), ("spelled", spelled)):
            assert main(["hitprob", "--config", path, "--out", str(tmp_path / name)]) == 0
        written = (tmp_path / "spelled" / "hitprob.csv").read_bytes()
        assert written == (tmp_path / "plain" / "hitprob.csv").read_bytes()
        assert str(10**30).encode() in written
        assert main(["simulate", "--config", spelled, "--out", str(tmp_path / "zero")]) == 0
        assert (tmp_path / "zero" / "trajectory.csv").read_text() == "step,kind,x0\n"

    def test_bad_measure_layer_exits_2(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["measure"]["sets"][0]["layer"] = "two"
        path = write_config(tmp_path, config)
        assert main(["measure", "--config", path, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "shape",
        [
            {"kind": "ball", "center": [[0.0]], "radius": 0.1},
            {"kind": "all_in_region", "lower": [0.0], "upper": [1.0]},
            {"kind": "product_boxes", "boxes": [{"lower": [0.0], "upper": [1.0]}]},
        ],
        ids=["ball", "all_in_region", "product_boxes"],
    )
    def test_a_window_exits_2_naming_the_key(self, tmp_path, capsys, shape):
        # A ball is estimated over its own bounding box, so a stale window
        # that holds it, and one on a closed form, are refused alike.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["measure"]["sets"].append(
            {"id": "windowed", "layer": 1, "shape": shape, "window": {"lower": [-0.5], "upper": [0.5]}}
        )
        path = write_config(tmp_path, config)
        assert main(["measure", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: measure.sets[2].window is not a setting" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "measure.csv").exists()

    @pytest.mark.parametrize(
        "command, keys, value, name",
        [
            # A misspelling of every kind of object: the config, a section, and a measure set.
            pytest.param("hitprob", ("sead",), 5, "sead is not a setting", id="sead"),
            pytest.param("simulate", ("simulate", "max_step"), 5, "simulate.max_step is not a setting",
                         id="simulate.max_step"),
            pytest.param("hitprob", ("hitprob", "replica"), 5, "hitprob.replica is not a setting", id="hitprob.replica"),
            pytest.param("path", ("path", "ball_radus"), 0.1, "path.ball_radus is not a setting", id="path.ball_radus"),
            pytest.param("measure", ("measure", "sampels"), 20, "measure.sampels is not a setting",
                         id="measure.sampels"),
            pytest.param("measure", ("measure", "sets", 1, "colour"), "red", "measure.sets[1].colour is not a setting",
                         id="measure-set-colour"),
            # Target pieces, measure-set shapes and boxes: each kind declares its keys.
            pytest.param("hitprob", ("hitprob", "target"), [{"kind": "ball", "center": [[0.0]], "radius": 0.2,
                                                              "layr": 1}],
                         "hitprob.target[0].layr is not a setting", id="ball-piece-layr"),
            pytest.param("hitprob", ("hitprob", "target"), [{"kind": "hyperplane", "axis": 0, "value": 0.1,
                                                              "radius": 0.2}],
                         "hitprob.target[0].radius is not a setting", id="hyperplane-piece-radius"),
            pytest.param("hitprob", ("hitprob", "target"),
                         [{"kind": "empty"}, {"kind": "product_boxes", "boxes": [{"lower": [0.0], "uper": [0.5]}]}],
                         "hitprob.target.boxes[0].uper is not a setting", id="target-box-uper"),
            pytest.param("measure", ("measure", "sets", 1),
                         {"layer": 1, "shape": {"kind": "product_boxes",
                                                "boxes": [{"lower": [0.0], "upper": [0.5], "uper": [0.6]}]}},
                         "measure.sets[1].shape.boxes[0].uper is not a setting", id="measure-box-uper"),
            pytest.param("measure", ("measure", "sets", 1, "shape", "layer"), 5,
                         "measure.sets[1].shape.layer is not a setting", id="shape-layer"),
            # Retired settings: the floor, the path's ball and the lab's Poisson intensity are constants,
            # and the lab runs the pipeline at its default budget.
            pytest.param("validate", ("model", "birth_floor"), 0.05, "'birth_floor'", id="model.birth_floor"),
            pytest.param("path", ("path", "ball_radius"), 0.1, "path.ball_radius is not a setting",
                         id="path.ball_radius"),
            *(pytest.param("lab", ("lab", key), value, f"'{key}'", id=f"lab.{key}-{value!r}")
              for key, value in [("pipeline_extra_steps", "x"), ("poisson_intensity", [1.0]),
                                 ("pipeline_extra_steps", -1000), ("poisson_intensity", 0),
                                 ("poisson_intensity", math.nan), ("poisson_intensity", math.inf)]),
        ],
    )
    def test_a_key_the_cli_does_not_read_exits_2_naming_it(self, tmp_path, capsys, command, keys, value, name):
        config = json.loads(json.dumps(BASE_CONFIG))
        node = config
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err and "Traceback" not in err
        assert not any(p.is_file() for p in (tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize("command, keys", [
        ("simulate", ("simulate", "max_step")), ("hitprob", ("hitprob", "target", 0, "layer_")),
        ("measure", ("measure", "sets", 0, "shape", "layer")), ("path", ("path", "goal", 0, 0)),
    ])
    def test_a_refused_config_leaves_no_out_directory(self, tmp_path, capsys, command, keys):
        # The directory is made before the command reads its section; a refusal takes it away again.
        config = json.loads(json.dumps(BASE_CONFIG))
        node = config
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "x"
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # A directory the run did not make stays, empty as it was.
        (tmp_path / "out").mkdir()
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert (tmp_path / "out").is_dir() and not any((tmp_path / "out").iterdir())

    def test_a_refused_run_removes_the_parents_it_made(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["simulate"]["max_step"] = 3
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
        assert "simulate.max_step" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # A parent that already held something stays, with what it held.
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "kept.txt").write_text("x")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "a" / "b" / "c")]) == 2
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["kept.txt"]

    @pytest.mark.parametrize(
        "command, keys, takes",
        [
            pytest.param("validate", (), "the config takes seed, workers, out, model, simulate, hitprob, path, "
                         "validate, measure, lab", id="config"),
            pytest.param("simulate", ("simulate",), "simulate takes initial, max_steps, target", id="simulate"),
            pytest.param("hitprob", ("hitprob",), "hitprob takes initial, target, max_steps, replicas",
                         id="hitprob"),
            pytest.param("path", ("path",), "path takes goal", id="path"),
            pytest.param("validate", ("validate",), "validate takes max_size", id="validate"),
            pytest.param("measure", ("measure",), "measure takes samples, sets", id="measure"),
            pytest.param("measure", ("measure", "sets", 0), "measure.sets[0] takes id, layer, shape",
                         id="measure-set"),
        ],
    )
    def test_the_refusal_lists_the_keys_the_object_takes(self, tmp_path, capsys, command, keys, takes):
        config = json.loads(json.dumps(BASE_CONFIG))
        node = config
        for key in keys:
            node = node[key]
        node["extra"] = 1
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"extra is not a setting: {takes}\n" in err and "Traceback" not in err

    def test_a_lab_key_that_is_no_budget_exits_2_naming_it(self, tmp_path, capsys):
        # SuiteSizes declares the budgets, so a misspelt one is refused, not ignored.
        path = write_config(tmp_path, {"lab": {"replica": 5}})
        assert main(["lab", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'replica'" in err and "Traceback" not in err
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize(
        "key, value",
        [("trial_states", 40), ("probe_points", 16), ("intensity", 1.0),
         ("window", {"lower": [-1.5], "upper": [1.5]})],
    )
    def test_a_sampling_key_exits_2_naming_it(self, tmp_path, capsys, command, key, value):
        # The conditions are proved from the model, so the sampler's settings are refused, not ignored.
        path = write_config(tmp_path, {"validate": {"max_size": 10, key: value}})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: validate.{key} is not a setting" in err and "Traceback" not in err
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("hitprob", "hitprob", "initial", [[0.1, 0.2]]),
            ("hitprob", "hitprob", "target", [{"kind": "ball", "center": [[0.0, 0.0]], "radius": 0.2}]),
            ("simulate", "simulate", "initial", [[0.1, 0.2]]),
            ("path", "path", "goal", [[0.2, 0.1]]),
            ("hitprob", "hitprob", "target", [{"kind": "exact_point", "point": [0.1, 0.2]}]),
        ],
    )
    def test_wrong_dimension_exits_2(self, tmp_path, capsys, command, section, key, value):
        # The library's rule refuses the start or piece, and the message names the section.
        refusal = "is 2-D, the model is 1-D" if key == "target" else "2-D points, the model is 1-D"
        config = json.loads(json.dumps(BASE_CONFIG))
        config[section][key] = value
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and refusal in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "measure_set",
        [
            {"layer": 2, "shape": {"kind": "all_in_region", "lower": [0.0], "upper": [1.0]}},
            {"layer": 2, "shape": {"kind": "product_boxes",
                                   "boxes": [{"lower": [0.0, 0.0], "upper": [0.5, 0.5]},
                                             {"lower": [0.6], "upper": [1.0]}]}},
        ],
    )
    def test_measure_box_of_another_dimension_exits_2(self, tmp_path, capsys, measure_set):
        # The library refuses the set: the model's rule a 1-D box, the shape's own rule mixed boxes.
        mixed = measure_set["shape"]["kind"] == "product_boxes"
        refusal = "all boxes must share one dimension" if mixed else "is 1-D, the model is 2-D"
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"]["dimension"] = 2
        config["measure"]["sets"] = [measure_set]
        path = write_config(tmp_path, config)
        assert main(["measure", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "measure.sets[0]" in err and refusal in err and "Traceback" not in err

    @pytest.mark.parametrize("axis", [1, -1])
    def test_hyperplane_axis_outside_the_model_exits_2(self, tmp_path, capsys, axis):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hitprob"]["target"] = [{"kind": "hyperplane", "axis": axis, "value": 0.1}]
        path = write_config(tmp_path, config)
        assert main(["hitprob", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "axis" in capsys.readouterr().err

    def test_a_simulate_target_of_another_dimension_exits_2(self, tmp_path, capsys):
        # The library's rule refuses the piece, and the message names the section.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["simulate"]["target"] = [{"kind": "hyperplane", "axis": 1, "value": 0.1}]
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "simulate.target: null:hyperplane(axis=1, value=0.1) needs 2 or more dimensions, " \
               "the model is 1-D" in err and "Traceback" not in err

    def test_metric_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([[0.0]]))
        b.write_text(json.dumps([[1.0, 2.0]]))
        assert main(["metric", str(a), str(b)]) == 2

    @pytest.mark.parametrize(
        "piece, field",
        [
            pytest.param({"kind": "all_in_region", "lower": [0.0], "upper": [1.0]},
                         "hitprob.target.layer", id="all-in-region-without-layer"),
            pytest.param({"kind": "all_in_region", "layer": 1, "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                         "is 2-D, the model is 1-D", id="all-in-region-box-of-another-dimension"),
            pytest.param({"kind": "product_boxes", "boxes": [{"lower": [0.0], "upper": [0.5]},
                                                             {"lower": [0.6, 0.0], "upper": [1.0, 1.0]}]},
                         "all boxes must share one dimension", id="product-box-of-another-dimension"),
            pytest.param({"kind": "product_boxes", "layer": 3, "boxes": [{"lower": [0.0], "upper": [0.5]}]},
                         "layer 3", id="product-layer-contradicts-boxes"),
            pytest.param({"kind": "ball", "layer": 2, "center": [[0.0]], "radius": 0.2},
                         "layer 2", id="ball-layer-contradicts-center"),
            pytest.param({"kind": "empty", "layer": 1}, "layer 1", id="empty-off-layer-0"),
        ],
    )
    def test_malformed_layer_set_target_exits_2(self, tmp_path, capsys, piece, field):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hitprob"]["target"] = [piece]
        path = write_config(tmp_path, config)
        assert main(["hitprob", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "hitprob.target" in err
        assert "Traceback" not in err

    def test_a_target_object_is_one_piece(self, tmp_path, capsys):
        # A "pieces" key spells no list of pieces: the object itself is the piece.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hitprob"]["target"] = {"pieces": [{"kind": "empty"}]}
        path = write_config(tmp_path, config)
        assert main(["hitprob", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "missing key 'hitprob.target.kind'" in err and "Traceback" not in err
        # A piece takes only its kind's keys, so a "pieces" key beside a ball is refused, not read.
        config["hitprob"]["target"] = {"kind": "ball", "center": [[0.0]], "radius": 0.2, "pieces": [{"kind": "empty"}]}
        path = write_config(tmp_path, config)
        assert main(["hitprob", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "hitprob.target[0].pieces is not a setting" in capsys.readouterr().err

    def test_bad_target_kind_exits_2(self, tmp_path, capsys):
        overrides = {
            "hitprob": {"initial": [], "target": [{"kind": "wormhole"}], "replicas": 5}
        }
        path = write_config(tmp_path, overrides)
        assert main(["hitprob", "--config", path]) == 2


class TestValidateCommand:
    def test_writes_conditions_csv(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "conditions.csv")))
        assert [row["condition"] for row in rows] == ["1", "2", "3", "4"]
        assert all(row["verdict"] == "PASS" for row in rows)

    def test_failing_model_exits_1(self, tmp_path, capsys):
        overrides = {"model": {"name": "contact", "baseline_death": 0.0}}
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main(["validate", "--config", path, "--out", str(out)]) == 1

    def test_gate_blocks_simulate_unless_skipped(self, tmp_path, capsys):
        overrides = {"model": {"name": "contact", "baseline_death": 0.0}}
        path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert (
            main(["simulate", "--config", path, "--out", str(out), "--skip-validation"])
            == 0
        )

    @pytest.mark.parametrize("model", [{"dimension": 3}, {"dimension": 2, "interaction_radius": 2.0}],
                             ids=["default-d3", "d2-radius-2"])
    def test_a_sound_model_in_higher_dimension_passes_the_gate(self, tmp_path, capsys, model):
        # Poisson windows in d >= 2 rarely hold a state of at most 12 points; the proof needs none.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"] = {"name": "contact", **model}
        config["validate"] = {}
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "model, failed",
        [({"neighbor_intensity": 8e307}, 1), ({"crowding_death": 1e308}, 2)],
        ids=["birth-mass-overflow", "death-cap-overflow"],
    )
    def test_an_overflowing_bound_fails_the_gate(self, tmp_path, capsys, model, failed):
        # Each bound is inf at size 12; from two points, 8e307 per neighbour also overflows the walk itself.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"].update(model)
        config["simulate"]["initial"] = [[0.1], [0.2]]
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert "model fails the standing conditions" in err and f"[FAIL] {failed}." in err
        assert "Traceback" not in err and not (tmp_path / "sim").exists()
        assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 1
        rows = list(csv.DictReader(open(tmp_path / "out" / "conditions.csv")))
        assert [row["verdict"] for row in rows] == ["FAIL" if i == failed else "PASS" for i in (1, 2, 3, 4)]
        assert rows[failed - 1]["witness"] == ("0.0" if failed == 1 else "inf")

    @pytest.mark.parametrize("command", ["simulate", "hitprob"])
    def test_a_walk_past_the_float_range_exits_2_without_the_gate(self, tmp_path, capsys, command):
        # From two points the total jump rate is inf; the kernels refuse it, in d=1 hitprob the lockstep one.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"]["neighbor_intensity"] = 8e307
        config[command]["initial"] = [[0.1], [0.2]]
        path = write_config(tmp_path, config)
        assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--skip-validation"]) == 2
        err = capsys.readouterr().err
        assert "config error: a state of 2 points has total jump rate inf under contact(d=1" in err
        assert "Traceback" not in err


class TestRunCommands:
    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "trajectory.csv")))
        assert rows, "expected at least one event"
        assert set(rows[0]) == {"step", "kind", "x0"}
        assert rows[0]["step"] == "1"

    def test_hitprob_writes_estimate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["hitprob", "--config", path, "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(open(out / "hitprob.csv")))
        assert int(row["hits"]) > 0
        assert 0.0 < float(row["ci_low"]) <= float(row["ci_high"]) <= 1.0

    @pytest.mark.parametrize(
        "piece, label",
        [
            ({"kind": "all_in_region", "layer": 1, "lower": [-0.5], "upper": [0.0]},
             "all_in_region(layer=1, lower=[-0.5], upper=[0.0])"),
            ({"kind": "product_boxes", "boxes": [{"lower": [-0.5], "upper": [0.0]},
                                                 {"lower": [0.0], "upper": [0.5]}]},
             "product_boxes([-0.5]..[0.0];[0.0]..[0.5])"),
        ],
        ids=["all-in-region", "product-boxes"],
    )
    def test_hitprob_hits_box_targets(self, tmp_path, capsys, piece, label):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hitprob"]["target"] = [piece]
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["hitprob", "--config", path, "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(open(out / "hitprob.csv")))
        assert row["target"] == label
        assert int(row["hits"]) > 0 and float(row["ci_low"]) > 0.0

    def test_path_writes_jsonl_and_reports_bound(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["path", "--config", path, "--out", str(out)]) == 0
        lines = (out / "path.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == []  # starts at the empty configuration
        assert json.loads(lines[-1]) == [[0.2], [0.45]]
        printed = capsys.readouterr().out
        assert "corridor bound" in printed and "cap 10" in printed

    def test_measure_exact_and_estimate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["measure", "--config", path, "--out", str(out)]) == 0
        rows = {row["set_id"]: row for row in csv.DictReader(open(out / "measure.csv"))}
        assert rows["pairs-in-unit-box"]["method"] == "exact"
        assert float(rows["pairs-in-unit-box"]["value"]) == 0.5
        # The ball's bounding box is the ball itself, so every sample hits.
        assert rows["singleton-ball"]["method"] == "estimate"
        assert float(rows["singleton-ball"]["value"]) == 0.2
        assert float(rows["singleton-ball"]["std_error"]) == 0.0

    def test_measure_of_a_layer_past_the_float_range(self, tmp_path, capsys):
        # (unit volume)**200 / 200! underflows; 200! alone overflows a float.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["measure"]["sets"][0]["layer"] = 200
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["measure", "--config", path, "--out", str(out)]) == 0
        rows = {row["set_id"]: row for row in csv.DictReader(open(out / "measure.csv"))}
        assert rows["pairs-in-unit-box"]["method"] == "exact"
        assert rows["pairs-in-unit-box"]["value"] == "0.0"

    def test_metric_prints_frozen_distance(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([[0.0], [10.0]]))
        b.write_text(json.dumps([[1.0], [12.0]]))
        assert main(["metric", str(a), str(b)]) == 0
        assert capsys.readouterr().out.strip() == "2.0"

    def test_metric_bad_file_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("[[0.0]]")
        assert main(["metric", str(a), str(tmp_path / "missing.json")]) == 2


class TestLabCommand:
    def test_lab_runs_and_is_byte_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["lab", "--config", path, "--out", str(out_a)]) == 0
        assert main(["lab", "--config", path, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "lab_extinction.csv",
            "lab_null_set.csv",
            "lab_one_step_null_preservation.csv",
            "lab_positive_measure.csv",
            "lab_theorem_pipeline.csv",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert "lab: PASS" in capsys.readouterr().out

    def test_lab_csvs_do_not_depend_on_workers(self, tmp_path, capsys):
        path = write_config(tmp_path)
        outs = [tmp_path / f"workers{w}" for w in (1, 2)]
        for workers, out in zip((1, 2), outs):
            argv = ["lab", "--config", path, "--seed", "3", "--workers", str(workers)]
            assert main(argv + ["--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 5
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_underflowing_ball_measure_exits_2_naming_the_underflow(self, tmp_path, capsys):
        # The two-point ball's reference window has volume about 1e-300, so
        # vol**2 / 2 is 0.0 in doubles although draws land in the ball.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"]["interaction_radius"] = 1e-300
        assert main(["lab", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "underflows to 0.0" in err and "apparently null" not in err

    def test_coinciding_suite_points_exit_2_naming_the_fields(self, tmp_path, capsys):
        # A sixth of 1e-300 vanishes next to 1.0, so the goal's two points coincide.
        config = json.loads(json.dumps(BASE_CONFIG))
        config["model"].update(interaction_radius=1e-300, immigration_center=[1.0])
        assert main(["lab", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "interaction_radius" in err and "immigration_center" in err

    def test_seed_override_changes_rows(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["lab", "--config", path, "--out", str(out_a)]) == 0
        assert main(["lab", "--config", path, "--seed", "999", "--out", str(out_b)]) == 0
        assert (out_a / "lab_positive_measure.csv").read_bytes() != (
            out_b / "lab_positive_measure.csv"
        ).read_bytes()


class TestReadme:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    block = readme.split("A config that exercises every subcommand:")[1]
    config = json.loads(block.split("```json")[1].split("```")[0])

    def test_config_block_runs(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(self.config))
        for command in ("simulate", "hitprob", "path", "measure"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0, command

    # SHA-256 of every file the README config writes, the lab at --seed 1.  Any
    # change to these bytes changes what the README documents, so it must be deliberate.
    digests = {
        "lab/lab_extinction.csv": "1d9c98220253ec24f04c6b120e62442d3a5fbae856e9602575109c15d0c34b3e",
        "lab/lab_null_set.csv": "9d4cc4a04a3c6a2668684ae0697a41b20ae21a2171c0cb1474040d211465f895",
        "lab/lab_one_step_null_preservation.csv": "a00e876c1c3f8020f1b98524a51430b26f81a954fe2ffbfbe1d0cba15198feb8",
        "lab/lab_positive_measure.csv": "7928db21ddc1148ac742836a5a32510085bbe784e7e3d201cc57c99ba22adb90",
        "lab/lab_theorem_pipeline.csv": "7991e96339f67e9290319a298102f3e51de9888baaa675077f1c3fb15b60d073",
        "simulate/trajectory.csv": "a712e41b38a51a87c49152f6f984b4718c2ca249bc20cdb68e477a7bc680388a",
        "hitprob/hitprob.csv": "10c45be97ad236a215b84c4dd69426384586ecfe9688dfad7dbd01a97b9ed3ea",
        "path/path.jsonl": "f5926338bff60a034d532400099a51a4e53cf88ec2e761a21fb6203a8e6f2f71",
        "validate/conditions.csv": "233488adbbfa16437047683eb746ed058ca2cd46e8db4101caf3fb2f5d9d6479",
    }

    def test_outputs_match_their_recorded_digests(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(self.config))
        for command in ("lab", "simulate", "hitprob", "path", "validate"):
            seed = ["--seed", "1"] if command == "lab" else []
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)] + seed) == 0, command
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*"))
        assert written == sorted(self.digests)
        for name, digest in self.digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_hitprob_with_a_tiny_interaction_radius_prints_no_warning(self, tmp_path):
        # The immigration mass is then more than 2**63 per-neighbour masses,
        # so the lockstep kernel's discarded immigrant quotients exceed intp.
        config = copy.deepcopy(self.config)
        config["model"]["interaction_radius"] = 1e-300
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config))
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = f"import sys; sys.path.insert(0, {src!r}); from birthdeath.cli import main; sys.exit(main())"
        result = subprocess.run(
            [sys.executable, "-c", code, "hitprob", "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.startswith("hitprob:")

    # One piece of every kind, with the fields the README's kind list names.
    examples = {
        "empty": {},
        "ball": {"center": [[0.0]], "radius": 0.2},
        "all_in_region": {"layer": 2, "lower": [0.0], "upper": [1.0]},
        "product_boxes": {"boxes": [{"lower": [0.0], "upper": [0.5]}, {"lower": [0.5], "upper": [1.0]}]},
        "exact_point": {"point": [0.5]},
        "hyperplane": {"axis": 0, "value": 0.5},
        "pair_distance": {"distance": 0.5},
    }

    def test_every_listed_kind_is_parsed(self):
        kind_list = self.readme.split("share one kind list")[1].split("\n\n")[1]
        bullets = re.findall(r"^- `(\w+)`(?: \(([^)]*)\))?:", kind_list, re.M)
        listed = [kind for kind, _ in bullets]
        assert sorted(listed) == sorted(self.examples)
        # Each bullet names the keys the CLI's table declares for its kind.
        assert {kind: tuple(re.findall(r"`(\w+)`", keys)) for kind, keys in bullets} == _KIND_KEYS
        layer_sets = 0
        for kind in listed:
            (piece,) = _parse_target([{"kind": kind, **self.examples[kind]}], "target", ContactModel()).pieces
            if isinstance(piece, LayerSet):
                shape = {"kind": kind, **self.examples[kind]}
                shape.pop("layer", None)
                _, layer_set = _parse_measure_set({"layer": piece.layer, "shape": shape}, "set", ContactModel())
                assert layer_set == piece
                layer_sets += 1
        assert layer_sets == 4


# --- config fuzzer ------------------------------------------------------

# The README config with budgets small enough that every command runs in milliseconds.
FUZZ_BASE = {
    "seed": 3,
    "workers": 1,
    "model": {
        "name": "contact",
        "dimension": 1,
        "interaction_radius": 1.0,
        "immigration_intensity": 0.8,
        "neighbor_intensity": 0.1,
        "baseline_death": 1.0,
        "crowding_death": 0.0,
        "immigration_center": [0.0],
        "immigration_radius": 0.5,
    },
    "simulate": {"initial": [], "max_steps": 5, "target": [{"kind": "empty"}]},
    "hitprob": {"initial": [[0.1]], "target": [{"kind": "empty"}], "max_steps": 5, "replicas": 3},
    "path": {"goal": [[0.2], [0.45]]},
    "measure": {
        "samples": 20,
        "sets": [
            {"id": "box", "layer": 2, "shape": {"kind": "all_in_region", "lower": [0.0], "upper": [1.0]}},
            {"id": "ball", "layer": 1, "shape": {"kind": "ball", "center": [[0.0]], "radius": 0.1}},
            {"id": "boxes", "layer": 1, "shape": {"kind": "product_boxes", "boxes": [{"lower": [0.0], "upper": [0.5]}]}},
        ],
    },
    "lab": {"max_steps": 5, "replicas": 2, "null_max_steps": 2, "null_replicas": 2, "preservation_draws": 2,
            "pipeline_replicas": 2, "extinction_replicas": 2, "extinction_max_steps": 5, "measure_samples": 20},
    "validate": {"max_size": 10},
}


def _fuzz_paths(node, prefix=()):
    """Every key path into ``node``: sections, lists and leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _fuzz_paths(child, prefix + (key,))


# Budgets take small or malformed values only: a huge budget is a long run, not a defect.
_BUDGETS = {"seed", "workers", "dimension", "max_steps", "replicas", "samples", "layer", "max_size",
            "null_max_steps", "null_replicas", "preservation_draws", "pipeline_replicas", "extinction_replicas",
            "extinction_max_steps", "measure_samples"}
_MALFORMED = [True, False, None, math.nan, math.inf, -math.inf, "x", "nan", [], {}, [1.0], {"kind": "mystery"}]
_BUDGET_VALUES = st.sampled_from(_MALFORMED + [-1, 0.5, 2.5, "2"]) | st.integers(0, 3)
# Sub-ulp and huge radii, coordinates and intensities.
_REAL_VALUES = st.sampled_from([5e-324, 1e-300, 1e-16, 1e300, 1.7e308, -1e300, 0.0, -1.0, 1.0, "0.5"] + _MALFORMED)
# Type swaps, degenerate, reversed and mis-sized boxes, and unknown or incomplete pieces.
_STRUCTURE_VALUES = _REAL_VALUES | st.sampled_from([
    [[1e300]], [[5e-324], [1.0]], [[1.0, 1.0]], {"lower": [0.0], "upper": [0.0]}, {"lower": [1.0], "upper": [0.0]},
    {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, {"lower": [0.0], "upper": [5e-324]}, [{"kind": "nope"}],
    [{"kind": "ball", "center": [[0.0]]}], [{"kind": "hyperplane", "axis": 3, "value": 0.0}],
    [{"kind": "product_boxes", "boxes": []}],
])


@st.composite
def _fuzzed_runs(draw):
    command = draw(st.sampled_from(["simulate", "hitprob", "path", "validate", "measure", "lab"]))
    # Mutate only what the command reads (the validation gate reads ``validate``), so most mutations reach it.
    gate = "validate" if command in ("simulate", "hitprob", "lab") else command
    read = {"seed", "workers", "model", command, gate}
    config = json.loads(json.dumps(FUZZ_BASE))
    paths = [path for path in _fuzz_paths(FUZZ_BASE) if path[0] in read]
    for _ in range(draw(st.integers(1, 3))):
        *steps, last = draw(st.sampled_from(paths))
        node, base = config, FUZZ_BASE
        for key in steps:
            base = base[key]
        with contextlib.suppress(KeyError, IndexError, TypeError):
            # A step an earlier mutation replaced is skipped.
            for key in steps:
                node = node[key]
            if isinstance(node, dict) and isinstance(last, str) or isinstance(node, list) and last < len(node):
                kind = type(base[last])
                # A copy, so a later mutation cannot write into the shared sample value.
                node[last] = copy.deepcopy(draw(_BUDGET_VALUES if last in _BUDGETS else _REAL_VALUES
                                                if kind is float else _STRUCTURE_VALUES))
    return command, draw(st.booleans()), config


class TestConfigFuzzer:
    """Malformed configs exit 2 with a config error; nothing raises or hangs."""

    @settings(max_examples=300, derandomize=True, database=None)
    @given(run=_fuzzed_runs())
    def test_every_config_exits_0_1_or_2(self, run):
        command, skip_validation, config = run
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "config.json")
            with open(path, "w") as handle:
                json.dump(config, handle)
            argv = [command, "--config", path, "--out", os.path.join(directory, "out")]
            err = io.StringIO()
            with alarm(5), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--skip-validation"] * skip_validation)
        assert code in (0, 1, 2)
        if code == 2:
            assert "config error" in err.getvalue()


# Each object of FUZZ_BASE whose keys the CLI declares, with the commands that read it.
_DECLARED = [((), command) for command in ("simulate", "hitprob", "path", "validate", "measure", "lab")] + [
    (("simulate",), "simulate"), (("hitprob",), "hitprob"), (("path",), "path"), (("validate",), "validate"),
    (("measure",), "measure"), (("measure", "sets", 0), "measure"), (("measure", "sets", 1), "measure"),
    (("simulate", "target", 0), "simulate"), (("hitprob", "target", 0), "hitprob"),
    (("measure", "sets", 0, "shape"), "measure"), (("measure", "sets", 1, "shape"), "measure"),
    (("measure", "sets", 2, "shape"), "measure"), (("measure", "sets", 2, "shape", "boxes", 0), "measure"),
]


class TestUnknownKeys:
    """One rule: a key the CLI does not read, in the config, a section, a measure set, a target piece,
    a measure-set shape or a box, exits 2."""

    @settings(max_examples=100, derandomize=True, database=None)
    @given(place=st.sampled_from(_DECLARED), key=st.text(min_size=1, max_size=12), value=_STRUCTURE_VALUES)
    def test_an_unknown_key_exits_2_naming_it(self, place, key, value):
        steps, command = place
        config = json.loads(json.dumps(FUZZ_BASE))
        node = config
        for step in steps:
            node = node[step]
        # FUZZ_BASE leaves out two settings: the config's ``out`` and the ``layer`` of its empty target pieces.
        assume(key not in node and not (node is config and key == "out") and key != "layer")
        node[key] = copy.deepcopy(value)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "config.json")
            with open(path, "w") as handle:
                json.dump(config, handle)
            err = io.StringIO()
            with alarm(5), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", path, "--out", os.path.join(directory, "out")])
        assert code == 2
        assert "config error" in err.getvalue() and f"{key} is not a setting" in err.getvalue()
