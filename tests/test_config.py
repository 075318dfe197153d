import inspect

import pytest

from answergen.config import RunConfig, load_config
from answergen.errors import ConfigError
from answergen.generate import generate


def test_full_profile_defaults():
    cfg = RunConfig().validate()
    assert cfg.model.emb_dim == 300
    assert cfg.model.hidden_dim == 256
    assert cfg.model.fact_dim == 500
    assert cfg.data.vocab_size == 50_000
    assert cfg.data.passage_limit == 800
    assert cfg.data.answer_limit == 120
    assert cfg.knowledge.max_facts == 1000
    assert cfg.training.batch_size == 16
    assert cfg.generation.beam_size == 4


def test_generate_default_length_limit_matches_answer_limit():
    assert inspect.signature(generate).parameters["max_len"].default == 120


def test_desk_profile_shrinks():
    cfg = RunConfig.desk().validate()
    assert cfg.data.vocab_size == 2000
    assert cfg.data.passage_limit == 120
    assert cfg.data.answer_limit == 30
    assert cfg.knowledge.max_facts == 64


def test_config_file_sections_comments_and_typed_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# top note\n[model]\nhidden_dim = 64  # trailing note\n[training]\n"
                    "lr = 0.01\nmc_samples = 2\n[knowledge]\nenabled = FALSE\n")
    cfg = load_config(path)
    assert cfg.model.hidden_dim == 64 and type(cfg.model.hidden_dim) is int
    assert cfg.training.lr == 0.01
    assert cfg.training.mc_samples == 2
    assert cfg.knowledge.enabled is False


def test_config_file_rejects_key_outside_section(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hidden_dim = 64\n")
    with pytest.raises(ConfigError, match="outside any"):
        load_config(path)


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[training]\nseed = 5\nlr = 0.5\n")
    cfg = load_config(path, profile="desk", overrides={"training.seed": "9"})
    assert cfg.training.seed == 9     # override beats file
    assert cfg.training.lr == 0.5     # file beats profile
    assert cfg.data.vocab_size == 2000  # profile default survives


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nwidth = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(None, overrides={"nosuch.key": "1"})


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        load_config(None, overrides={"training.lr": "0"})
    with pytest.raises(ConfigError):
        load_config(None, overrides={"model.hidden_dim": "0"})
    with pytest.raises(ConfigError):
        load_config(None, overrides={"training.tau_min": "-1"})


def test_roundtrip_through_dict():
    cfg = RunConfig.desk()
    cfg.training.seed = 123
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("payload", [{"validate": {"x": 1}}, {"model": 3}, {"to_dict": {}}])
def test_from_dict_rejects_non_sections(payload):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(payload)


@pytest.mark.parametrize("payload", [{"training": {"lr": True}}, {"model": {"emb_dim": 3.0}},
                                     {"knowledge": {"enabled": 1}}])
def test_from_dict_refuses_a_value_of_another_type(payload):
    """A checkpoint's config is typed JSON: a bool is not a number, a float
    is not an int and a number is not a bool."""
    (section, values), = payload.items()
    (key, _), = values.items()
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        RunConfig.from_dict(payload)
