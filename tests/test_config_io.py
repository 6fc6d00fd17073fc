"""Tests for NetworkConfig serialization and CLI --config."""

import io
import json

import pytest

from repro.checkpoint import canonical_run_spec, config_hash
from repro.cli import main
from repro.core.chaining import ChainingScheme
from repro.network.config import NetworkConfig, fbfly_config, mesh_config
from repro.traffic import FixedLength


class TestConfigIO:
    def test_to_dict_serializes_enum(self):
        cfg = mesh_config(chaining="same_input")
        data = cfg.to_dict()
        assert data["chaining"] == "same_input"
        json.dumps(data)  # fully JSON-serializable

    def test_roundtrip(self):
        cfg = mesh_config(
            chaining="any_input", starvation_threshold=8,
            allocator="wavefront", vc_buf_depth=6, seed=77,
        )
        clone = NetworkConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.chaining is ChainingScheme.ANY_INPUT

    def test_fbfly_roundtrip_preserves_classes(self):
        clone = NetworkConfig.from_dict(fbfly_config().to_dict())
        assert clone.num_classes == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig.from_dict({"warp_factor": 9})

    def test_save_load_file(self, tmp_path):
        cfg = mesh_config(chaining="same_vc", mesh_k=4)
        path = tmp_path / "net.json"
        cfg.save(path)
        assert NetworkConfig.load(path) == cfg

    def test_cli_config_file(self, tmp_path):
        path = tmp_path / "net.json"
        mesh_config(mesh_k=4, chaining="any_input").save(path)
        out = io.StringIO()
        code = main(
            ["run", "--config", str(path), "--rate", "0.5",
             "--warmup", "100", "--measure", "200", "--drain", "0"],
            out=out,
        )
        assert code == 0
        assert "chains" in out.getvalue()  # chaining came from the file


class TestLegacyBackendKey:
    """Configs written while the simulator had two cores carry a
    ``"backend"`` key; they must load, and hash as they did then."""

    LEGACY = dict(mesh_config(mesh_k=4, seed=5, chaining="any_input")
                  .to_dict(), backend="reference")

    def test_legacy_backend_key_is_dropped(self):
        assert NetworkConfig.from_dict(self.LEGACY) == \
            mesh_config(mesh_k=4, seed=5, chaining="any_input")

    def test_other_unknown_keys_are_still_rejected(self):
        with pytest.raises(ValueError, match="warp_factor"):
            NetworkConfig.from_dict(dict(self.LEGACY, warp_factor=9))

    def test_config_hash_is_unchanged(self):
        # The value a checkpoint of this experiment recorded before the
        # field was retired (the hash never covered it).
        spec = canonical_run_spec("uniform", 0.3, FixedLength(1), 40, 80, 60)
        assert config_hash(NetworkConfig.from_dict(self.LEGACY), spec) == (
            "f51c8ff075a950e3ada3dad17f48efa586eb51e48d16e8b55b169af944e8c47a"
        )
