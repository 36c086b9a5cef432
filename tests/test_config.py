import json

import pytest

from turbfuse.cli import main
from turbfuse.config import load_config
from turbfuse.errors import ConfigError


class TestTurbulenceSection:
    def test_retired_tilt_scale_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"turbulence": {"tilt_scale_px": 2.0}}))
        with pytest.raises(ConfigError, match="turbulence.tilt_scale_px"):
            load_config(path)
        with pytest.raises(ConfigError, match="turbulence.tilt_scale_px"):
            load_config(sets=["turbulence.tilt_scale_px=0.5"])


def _nested(key, value):
    node = value
    for part in reversed(key.split(".")):
        node = {part: node}
    return node


class TestIntegerKeys:
    @pytest.mark.parametrize("key,value", [("seed", 1.5), ("dataset.image_size", 32.0), ("train.epochs", True)])
    def test_non_integer_rejected_from_file_and_set(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_nested(key, value)))
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            load_config(path)
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            load_config(sets=[f"{key}={json.dumps(value)}"])

    def test_integer_accepted_for_integer_and_float_keys(self):
        cfg = load_config(sets=["seed=7", "turbulence.intensity_meters=30000"])
        assert cfg["seed"] == 7
        assert cfg["turbulence"]["intensity_meters"] == 30000

    def test_float_seed_exits_2_through_the_cli(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--set", "seed=1.5"]) == 2
        assert "seed: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "dataset").exists()



class TestListElements:
    def test_integers_accepted_in_float_lists(self):
        cfg = load_config(sets=["ablations.intensity_levels=[10000, 20000.5]"])
        assert cfg["ablations"]["intensity_levels"] == [10000, 20000.5]

    def test_set_is_checked_against_the_defaults_not_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"turbulence": {"intensity_meters": 20000}, "ablations": {"restore_ws": [0, 1]}}))
        cfg = load_config(path, sets=["turbulence.intensity_meters=1.5", "ablations.restore_ws=[0.25]"])
        assert cfg["turbulence"]["intensity_meters"] == 1.5
        assert cfg["ablations"]["restore_ws"] == [0.25]


def _bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "seed": ,\n}\n')
    return ["--config", str(path)], f"{path}:2:11: Expecting value"


def _missing_file(tmp_path):
    path = tmp_path / "missing.json"
    return ["--config", str(path)], f"config file not found: {path}"


_CLI_ERRORS = [
    ("file_not_found", "synth", _missing_file, None),
    ("bad_json", "synth", _bad_json, None),
    ("set_without_equals", "synth", ["--set", "seed"], "--set expects key=value, got 'seed'"),
    ("section_not_object", "synth", ["--set", "dataset=5"], "dataset: expected an object"),
    ("boolean", "synth", ["--set", "fusion.use_residual=1"], "fusion.use_residual: expected a boolean"),
    ("number", "synth", ["--set", "turbulence.intensity_meters=x"], "turbulence.intensity_meters: expected a number"),
    ("string", "synth", ["--set", "restore.mode=1"], "restore.mode: expected a string"),
    ("list", "synth", ["--set", "eval.top_ks=1"], "eval.top_ks: expected a list"),
    (
        "number_element",
        "ablate",
        ["--set", 'ablations.intensity_levels=["x"]'],
        "ablations.intensity_levels[0]: expected a number",
    ),
    ("integer_element", "pretrain", ["--set", "backbone.channels=[2.7,4]"], "backbone.channels[0]: expected an integer"),
    ("boolean_element", "ablate", ["--set", "ablations.residual=[true,1]"], "ablations.residual[1]: expected a boolean"),
    ("string_element", "ablate", ["--set", 'ablations.parts=["table3",3]'], "ablations.parts[1]: expected a string"),
]


@pytest.mark.parametrize("command,args,message", [c[1:] for c in _CLI_ERRORS], ids=[c[0] for c in _CLI_ERRORS])
def test_config_error_exits_2_through_the_cli(tmp_path, capsys, command, args, message):
    if callable(args):
        args, message = args(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *args]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
