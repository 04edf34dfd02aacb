import dataclasses
import json

import pytest

from aimdalloc import ConfigError, ResourceParams, parse_config, serialize_config
from aimdalloc.cli import main
from aimdalloc.config import config_from_dict, config_hash
from aimdalloc.costs import sample_cost_functions

from conftest import BUNDLED_CONFIG
from _stand_ins import tiny_config
from test_golden import golden_config


def minimal_doc(**overrides):
    doc = {
        "n": 2,
        "m": 3,
        "steps": 10,
        "mode": "deterministic",
        "seed": 3,
        "resources": [
            {"capacity": 1.0, "alpha": 0.3, "beta": 0.5, "gamma_norm": 0.1},
            {"capacity": 0.8, "alpha": 0.25, "beta": 0.6, "gamma_norm": 0.1},
            {"capacity": 1.2, "alpha": 0.2, "beta": 0.5, "gamma_norm": 0.1},
        ],
        "cost_spec": {"kind": "sample"},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestBundledConfig:
    def test_reference_parameters(self, bundled_config):
        cfg = bundled_config
        assert cfg.n == 60
        assert cfg.m == 3
        caps = [r.capacity for r in cfg.resources]
        alphas = [r.alpha for r in cfg.resources]
        betas = [r.beta for r in cfg.resources]
        norms = [r.gamma_norm for r in cfg.resources]
        assert caps == [32.0, 20.0, 25.0]
        assert alphas == [0.025, 0.02, 0.0225]
        assert betas == [0.7, 0.85, 0.75]
        assert norms == [1 / 90] * 3

    def test_event_thresholds_default_to_capacity(self, bundled_config):
        assert all(r.gamma_cap == 1.0 for r in bundled_config.resources)


class TestValidation:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write_doc(tmp_path, minimal_doc()))
        assert cfg.n == 2
        assert cfg.resources[0].gamma_cap == 1.0

    def test_beta_out_of_range(self, tmp_path):
        doc = minimal_doc()
        doc["resources"][0]["beta"] = 1.2
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, doc))
        assert any("resources[0]" in f and "beta" in f for f in exc.value.fields)

    def test_missing_field_reported_with_path(self, tmp_path):
        doc = minimal_doc()
        del doc["resources"][0]["alpha"]
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, doc))
        assert any(f.startswith("resources[0].alpha") for f in exc.value.fields)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, minimal_doc(surprise=1)))
        assert any(f.startswith("surprise") for f in exc.value.fields)

    def test_unknown_resource_key_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["resources"][0]["color"] = "red"
        with pytest.raises(ConfigError):
            parse_config(write_doc(tmp_path, doc))

    def test_mode_checked(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_doc(tmp_path, minimal_doc(mode="mixed")))

    def test_resource_count_must_match_m(self, tmp_path):
        doc = minimal_doc()
        doc["resources"] = doc["resources"][:2]
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, doc))
        assert any(f.startswith("resources") for f in exc.value.fields)

    def test_resource_count_restricted_to_family(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, minimal_doc(m=1)))
        assert any(f.startswith("m:") for f in exc.value.fields)

    def test_explicit_cost_list_length_checked(self, tmp_path):
        doc = minimal_doc()
        doc["cost_spec"] = {
            "kind": "explicit",
            "functions": [{"case_id": 1, "a": 1, "b": 1, "c": 1, "d": 1}],
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(write_doc(tmp_path, doc))
        assert any("cost_spec.functions" in f for f in exc.value.fields)

    @pytest.mark.parametrize("value", ["32", True])
    def test_resource_values_must_be_numbers(self, value):
        doc = minimal_doc()
        doc["resources"][0]["capacity"] = value
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert exc.value.fields == ["resources[0].capacity: expected float"
                                    f", got {type(value).__name__}"]

    def test_integer_resource_values_widen_to_float(self):
        doc = minimal_doc()
        doc["resources"][0]["capacity"] = 32
        capacity = config_from_dict(doc).resources[0].capacity
        assert type(capacity) is float and capacity == 32.0
        doc["resources"][0]["capacity"] = 10**400
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert exc.value.fields == ["resources[0].capacity: integer too large for a float"]

    @pytest.mark.parametrize("key", ["capacity", "alpha", "gamma_norm"])
    def test_non_finite_resource_values_rejected(self, tmp_path, capsys, key):
        doc = minimal_doc()
        doc["resources"][0][key] = float("inf")
        path = write_doc(tmp_path, doc)
        assert f'"{key}": Infinity' in path.read_text()
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.fields == [f"resources[0].{key} must be positive and finite, got inf"]
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"resources[0].{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("case_id", 1.9), ("a", 5.7), ("b", "3"), ("c", True)])
    def test_explicit_cost_entries_not_coerced(self, key, value):
        entry = {"case_id": 1, "a": 5, "b": 3, "c": 1, "d": 1}
        doc = minimal_doc(cost_spec={"kind": "explicit", "functions": [{**entry, key: value}, entry]})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert len(exc.value.fields) == 1
        assert exc.value.fields[0].startswith("cost_spec.functions[0]: ")

    def test_explicit_cost_entry_must_be_object(self):
        entry = {"case_id": 1, "a": 5, "b": 3, "c": 1, "d": 1}
        doc = minimal_doc(cost_spec={"kind": "explicit", "functions": [entry, "abc"]})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert exc.value.fields == ["cost_spec.functions[1]: expected an object"]

    @pytest.mark.parametrize("overrides, message", [
        ({"resources": []}, "resources: expected a non-empty list"),
        ({"resources": ["abc", *minimal_doc()["resources"][1:]]}, "resources[0]: expected an object"),
        ({"cost_spec": ["sample"]}, "cost_spec: expected an object"),
        ({"cost_spec": {"kind": "explicit", "functions": {}}}, "cost_spec.functions: expected a list"),
        ({"cost_spec": {"kind": "given"}}, "cost_spec.kind: must be 'sample' or 'explicit'"),
    ], ids=["no-resources", "resource-entry", "cost-spec", "functions", "kind"])
    def test_malformed_sections(self, overrides, message):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(minimal_doc(**overrides))
        assert exc.value.fields == [message]

    @pytest.mark.parametrize("shape, message", [
        ({"resources": (ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1),)},
         "resources: length 1 does not match m=3"),
        ({"n": 8, "functions": sample_cost_functions(0, 5)},
         "cost_spec.functions: length 5 does not match n=8"),
    ], ids=["resources", "functions"])
    def test_config_refuses_a_shape_it_cannot_run(self, shape, message):
        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(tiny_config(), **shape)
        assert exc.value.fields == [message]

    def test_all_problems_reported_together(self):
        doc = minimal_doc(surprise=1)
        doc["resources"][1]["beta"] = 1.5
        doc["cost_spec"] = {
            "kind": "explicit",
            "functions": [{"case_id": 4, "a": 1, "b": 1, "c": 1, "d": 1},
                          {"case_id": 1, "a": 1, "b": 1, "c": 1, "d": 1}],
        }
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        fields = exc.value.fields
        assert len(fields) == 3
        assert fields[0] == "surprise: unknown field"
        assert fields[1].startswith("resources[1].beta must be in [0, 1)")
        assert fields[2].startswith("cost_spec.functions[0]: case_id")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.fields == ["<file>: top level must be a JSON object"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.json")


class TestRoundTrip:
    def test_parse_serialize_identity(self, tmp_path, bundled_config):
        doc = serialize_config(bundled_config)
        path = write_doc(tmp_path, doc)
        again = parse_config(path)
        assert again == bundled_config

    def test_explicit_cost_round_trip(self, tmp_path):
        doc = minimal_doc()
        doc["cost_spec"] = {
            "kind": "explicit",
            "functions": [
                {"case_id": 1, "a": 3, "b": 4, "c": 5, "d": 6},
                {"case_id": 2, "a": 1, "b": 2, "c": 3, "d": 4},
            ],
        }
        cfg = parse_config(write_doc(tmp_path, doc))
        again = parse_config(write_doc(tmp_path, serialize_config(cfg), name="again.json"))
        assert again == cfg

    @pytest.mark.parametrize("path", sorted(BUNDLED_CONFIG.parent.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_file_round_trips_byte_for_byte(self, path):
        text = path.read_text()
        cfg = parse_config(path)
        assert json.dumps(serialize_config(cfg), indent=2) + "\n" == text

    @pytest.mark.parametrize("name, digest", [
        pytest.param(name, digest, id=name) for name, digest in [
            ("tourist_center", "99590a7dc7dcd047cc4401ff19e37bdd6ae8e222eb1758202d1b095e4a0adde7"),
            ("quickstart", "7eccf3fbe24b76f39189dae7b800210f7678a80260adcb475153f6f95c9b5a50"),
        ]
    ])
    def test_bundled_config_hash_pinned(self, name, digest):
        assert config_hash(parse_config(BUNDLED_CONFIG.parent / f"{name}.json")) == digest

    def test_explicit_functions_config_hash_pinned(self):
        digest = "258e66f1ed7f28decf8ea77702d438a1d50d592a4057a9fe405f900a0143dfb2"
        assert config_hash(golden_config()) == digest


class TestOverrides:
    def test_seed_stride_out(self, bundled_config):
        cfg = bundled_config.with_overrides(seed=9, trace_stride=5, out_dir="x")
        assert (cfg.seed, cfg.trace_stride, cfg.out_dir) == (9, 5, "x")

    def test_overrides_reparse_serialized_doc(self, bundled_config):
        doc = serialize_config(bundled_config)
        doc.update(seed=9, trace_stride=5, out_dir="x")
        assert bundled_config.with_overrides(seed=9, trace_stride=5, out_dir="x") == config_from_dict(doc)

    def test_unset_overrides_keep_config(self, bundled_config):
        assert bundled_config.with_overrides() == bundled_config

    def test_override_validation(self, bundled_config):
        with pytest.raises(ConfigError) as exc:
            bundled_config.with_overrides(trace_stride=0)
        assert exc.value.fields == ["trace_stride: must be >= 1 (got 0)"]
