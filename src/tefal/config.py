"""Training/evaluation configuration and the flat key=value config format.

Config files hold one ``key = value`` pair per line, each key at most once;
``#`` starts a comment.
Command-line flags override file values, which override the defaults below.
"""

import dataclasses
from dataclasses import dataclass

from .contrastive import TAU_INIT, TAU_MAX, TAU_MIN
from .fusion import FusionError, FusionKind
from .linalg import require_int, require_real

__all__ = ["TrainConfig", "ConfigError", "MODALITIES", "config_to_text",
           "parse_config_lines", "parse_config_text"]

# the input a model reads: both modalities, or one alone (an ablation)
MODALITIES = ("both", "video", "audio")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass
class TrainConfig:
    # data / model geometry
    dim: int = 32
    proj_dim: int = 32
    frames: int = 4
    audio_tokens: int = 8
    fusion: str = "addition"
    modality: str = "both"          # both | video | audio (ablations)
    temperature_init: float = TAU_INIT
    # optimization
    batch_size: int = 16
    epochs: int = 20
    learning_rate: float = 1e-4
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    cosine_decay: bool = True
    grad_clip: float = 1.0
    seed: int = 0
    # harness
    eval_every: int = 0             # epochs between R@1 probes; 0 disables

    def validate(self) -> "TrainConfig":
        """``self``, once every field has its type (an int or a float by
        :mod:`tefal.linalg`'s rules, the sizes from 1) and range."""
        for name, kind in _FIELDS.items():
            value = getattr(self, name)
            if kind is int:
                require_int(value, name, minimum=1 if name in _SIZES else 0,
                            error=ConfigError)
            elif kind is float:
                require_real(value, name, error=ConfigError)
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        if not TAU_MIN <= self.temperature_init <= TAU_MAX:
            raise ConfigError(f"temperature_init must lie in [{TAU_MIN}, {TAU_MAX}], "
                              f"got {self.temperature_init}")
        if self.modality not in MODALITIES:
            raise ConfigError(
                f"modality must be {'|'.join(MODALITIES)}, got {self.modality!r}")
        for name in ("grad_clip", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        try:
            FusionKind.parse(self.fusion)
        except FusionError as exc:
            raise ConfigError(str(exc)) from None
        return self


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# the int fields that count something, so start from 1; the others from 0
_SIZES = ("batch_size", "dim", "proj_dim", "frames", "audio_tokens")


def _coerce(name: str, raw: str):
    kind = _FIELDS[name]
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name} expects true/false, got {raw!r}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{name} expects {kind.__name__}, got {raw!r}") from None
    return raw


def config_to_text(config: TrainConfig) -> str:
    """One ``key = value`` line per :class:`TrainConfig` field, in field
    order; :func:`parse_config_text` reads a validated config's back to it."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif f.type is float and not isinstance(value, int):
            # as a float: a numpy float's own repr names its type, which the
            # parser refuses, and its str may round a float32
            value = repr(float(value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_lines(text: str) -> dict:
    """``{key: (line number, value)}`` for each ``key = value`` line."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: config key {key!r} repeats line "
                              f"{entries[key][0]}")
        try:
            entries[key] = lineno, _coerce(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return entries


def parse_config_text(text: str) -> dict:
    """``{key: value}`` for each ``key = value`` line."""
    return {key: value for key, (_, value) in parse_config_lines(text).items()}
