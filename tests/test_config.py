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
