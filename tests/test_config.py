"""The key=value config format and config validation; the override
precedence of defaults, file and flags is tested through ``tefal train`` in
``test_cli.py``."""

import numpy as np
import pytest

from tefal.config import (
    ConfigError,
    TrainConfig,
    config_to_text,
    parse_config_lines,
    parse_config_text,
)
from tefal.contrastive import TAU_MAX, TAU_MIN
from tefal.fusion import FusionKind


class TestParsing:
    def test_values_comments_and_blanks(self):
        text = """
        # optimizer
        learning_rate = 0.003
        batch_size = 24   # inline comment
        fusion = concat_fc
        cosine_decay = false
        """
        values = parse_config_text(text)
        assert values == {"learning_rate": 0.003, "batch_size": 24,
                          "fusion": "concat_fc", "cosine_decay": False}
        assert parse_config_lines(text) == {
            "learning_rate": (3, 0.003), "batch_size": (4, 24),
            "fusion": (5, "concat_fc"), "cosine_decay": (6, False)}

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*momentum"):
            parse_config_text("epochs = 3\nmomentum = 0.9\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("epochs: 3\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config_text("cosine_decay = maybe\n")

    def test_repeated_key_names_both_lines(self):
        # a second value used to replace the first silently
        with pytest.raises(ConfigError, match="line 3: config key 'epochs' repeats line 1"):
            parse_config_text("epochs = 3\nseed = 1\nepochs = 1\n")

    @pytest.mark.parametrize("text,pattern", [
        ("seed = 1\nepochs = abc\n", "line 2: epochs expects int, got 'abc'"),
        ("learning_rate = fast\n", "line 1: learning_rate expects float, got 'fast'"),
    ])
    def test_unparsable_value_names_line_and_key(self, text, pattern):
        with pytest.raises(ConfigError, match=pattern):
            parse_config_text(text)


class TestRoundTrip:
    def test_text_round_trips_every_field(self):
        config = TrainConfig(dim=48, proj_dim=48, learning_rate=2.5e-4,
                             fusion="xattn", cosine_decay=False, epochs=7)
        recovered = TrainConfig(**parse_config_text(config_to_text(config)))
        assert recovered == config

    @pytest.mark.parametrize("value", [np.float64(1e-3), np.float32(1e-3)])
    def test_a_numpy_float_round_trips_to_its_value(self, value):
        # np.float64 used to be written as "np.float64(0.001)", which the
        # parser refused, so a checkpoint saved with it could not be loaded
        config = TrainConfig(learning_rate=value, epochs=np.int64(3)).validate()
        recovered = TrainConfig(**parse_config_text(config_to_text(config))).validate()
        assert recovered.learning_rate == float(value) and recovered.epochs == 3


class TestValidation:
    def test_bad_modality(self):
        with pytest.raises(ConfigError, match="modality"):
            TrainConfig(modality="vision").validate()

    def test_bad_fusion(self):
        with pytest.raises(ConfigError):
            TrainConfig(fusion="gated").validate()

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=0).validate()

    @pytest.mark.parametrize("key,value", [("threads", "2"), ("output_affine", "true")])
    def test_retired_key_in_a_file_rejected(self, tmp_path, key, value):
        # the worker count and the output affine are no longer settings: a
        # file naming either fails rather than having the value ignored
        path = tmp_path / "train.cfg"
        path.write_text(f"epochs = 2\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"line 2: unknown config key '{key}'"):
            parse_config_text(path.read_text())
        with pytest.raises(TypeError, match=key):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("field", ["learning_rate", "temperature_init", "grad_clip",
                                       "adam_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TrainConfig(**{field: value}).validate()

    def test_non_finite_value_in_a_file_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rate = nan\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(**parse_config_text(path.read_text())).validate()

    @pytest.mark.parametrize("field,value", [
        ("cosine_decay", "false"), ("fusion", FusionKind.XATTN), ("seed", True),
        ("epochs", 2.5), ("batch_size", 4.0), ("learning_rate", "1e-3"),
        ("learning_rate", False)])
    def test_a_value_of_the_wrong_type_names_the_key(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be "):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_an_int_too_large_for_a_float_is_not_finite(self, value):
        # math.isfinite used to raise OverflowError
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=value).validate()

    @pytest.mark.parametrize("field,value", [
        ("epochs", np.array([1, 2])), ("seed", np.array(3)),
        ("learning_rate", np.array([1, 2]))])
    def test_an_integer_array_is_no_scalar(self, field, value):
        # epochs=np.array([1, 2]) used to raise numpy's ambiguous-truth ValueError
        with pytest.raises(ConfigError, match=f"{field} must be "):
            TrainConfig(**{field: value}).validate()

    def test_numpy_scalars_are_accepted(self):
        # guard: numpy integers and floats validate as before
        config = TrainConfig(epochs=np.int64(3), seed=np.int64(0),
                             learning_rate=np.float64(1e-3), grad_clip=np.int64(2))
        assert config.validate() is config

    @pytest.mark.parametrize("tau", [TAU_MIN / 2, TAU_MAX * 5])
    def test_temperature_init_outside_the_clamp_rejected(self, tau):
        with pytest.raises(ConfigError, match="temperature_init"):
            TrainConfig(temperature_init=tau).validate()

    def test_temperature_init_bounds_accepted(self):
        for tau in (TAU_MIN, TAU_MAX):
            assert TrainConfig(temperature_init=tau).validate().temperature_init == tau

    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.5), ("beta1", -0.1), ("beta2", 1.0), ("adam_eps", 0.0),
        ("adam_eps", -1e-8), ("weight_decay", -5.0), ("learning_rate", -1e-3),
        ("eval_every", -1), ("seed", -3), ("frames", -3), ("frames", 0),
        ("audio_tokens", 0), ("dim", 0), ("proj_dim", -1)])
    def test_optimizer_value_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_optimizer_range_ends_accepted(self):
        # learning_rate = 0 is a legal no-op run
        TrainConfig(beta1=0.0, beta2=0.0, learning_rate=0.0, weight_decay=0.0,
                    eval_every=0, adam_eps=1e-300).validate()
