"""Every scalar argument of the library goes through one of linalg's two
rules: ``require_int`` for an integer, ``require_real`` for a number.  A bool,
a string, NaN, an infinity, an integer too large for int64 or a float, or an
array is refused with a ValueError subclass that names the argument; a
fraction is refused where an integer is due; numpy scalars are accepted."""

import re
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from tefal.audiofeat import (AudioFormatError, Waveform, adaptive_frame_shift,
                             compute_fbank, patch_grid, zero_fbank)
from tefal.config import ConfigError, TrainConfig
from tefal.corpus import synth_corpus
from tefal.linalg import ShapeError
from tefal.model import create_model, resolve_workers
from tefal.ranking import compute_metrics, dual_softmax_postprocess, rerank_two_stage
from tefal.storage import save_checkpoint
from tefal.verify import run_grad_checks

SMALL = {"n_items": 2, "dim": 2, "frames": 1, "audio_tokens": 1}


def with_env_cap(value, env):
    """``resolve_workers()`` under ``TEFAL_THREADS=str(value)``."""
    env.monkeypatch.setenv("TEFAL_THREADS", str(value))
    return resolve_workers()


# (argument as its message names it, error, call(value, env), a valid numpy value)
INTEGERS = [
    ("dim", ShapeError, lambda v, env: create_model(0, v), np.int64(4)),
    ("proj_dim", ShapeError, lambda v, env: create_model(0, 4, proj_dim=v), np.int64(4)),
    ("seed", ValueError, lambda v, env: create_model(v, 4), np.int64(3)),
    ("threads", ConfigError, lambda v, env: resolve_workers(v), np.int64(3)),
    ("TEFAL_THREADS", ConfigError, with_env_cap, np.int64(3)),
    ("shortlist size k", ValueError,
     lambda v, env: rerank_two_stage(env.model, env.corpus, k=v, workers=1), np.int64(2)),
    ("candidate_count", ValueError, lambda v, env: compute_metrics(np.array([1, 2]), v),
     np.int64(5)),
    ("step", ValueError,
     lambda v, env: save_checkpoint(env.path, env.model, v, env.config), np.int64(3)),
    *[(name, ValueError, lambda v, env, name=name: synth_corpus(0, **{**SMALL, name: v}),
       np.int64(2)) for name in SMALL],
    ("seed", ValueError, lambda v, env: synth_corpus(v, **SMALL), np.int64(3)),
    ("seed", ValueError, lambda v, env: run_grad_checks(v), None),
    ("sample_rate", AudioFormatError, lambda v, env: Waveform(np.zeros(4), v),
     np.int64(16_000)),
    ("target_length", ValueError,
     lambda v, env: compute_fbank(env.waveform, target_length=v), np.int64(4)),
    ("n_mels", ValueError, lambda v, env: compute_fbank(env.waveform, 4, n_mels=v),
     np.int64(4)),
    ("target_length", ValueError, lambda v, env: zero_fbank(v), np.int64(4)),
    ("n_mels", ValueError, lambda v, env: zero_fbank(4, v), np.int64(4)),
    ("n_frm", ValueError, lambda v, env: adaptive_frame_shift(v, 16_000, 10), np.int64(5)),
    ("sr", ValueError, lambda v, env: adaptive_frame_shift(5, v, 10), np.int64(5)),
    ("l_tar", ValueError, lambda v, env: adaptive_frame_shift(5, 16_000, v), np.int64(5)),
    *[(name, ValueError, lambda v, env, name=name: patch_grid(**{name: v}), np.int64(16))
      for name in ("l_tar", "n_mels", "patch", "stride")],
    *[(f.name, ConfigError, lambda v, env, name=f.name: TrainConfig(**{name: v}).validate(),
       np.int64(f.default or 1)) for f in fields(TrainConfig) if f.type is int],
]
REALS = [
    ("tau", ValueError, lambda v, env: create_model(0, 4, tau=v), np.float64(20.0)),
    ("dsl_temp", ValueError, lambda v, env: dual_softmax_postprocess(np.eye(2), v),
     np.float64(0.5)),
    ("noise", ValueError, lambda v, env: synth_corpus(0, **SMALL, noise=v), np.float64(0.5)),
    ("audio_informative", ValueError,
     lambda v, env: synth_corpus(0, **SMALL, audio_informative=v), np.float64(0.5)),
    # a float32 field value is accepted as a float64 one always was
    *[(f.name, ConfigError, lambda v, env, name=f.name: TrainConfig(**{name: v}).validate(),
       np.float32(f.default)) for f in fields(TrainConfig) if f.type is float],
]
NOT_NUMBERS = {"True": True, "str": "x", "nan": float("nan"), "inf": float("inf"),
               "float32-inf": np.float32("inf"), "1e400": 10**400,
               "array": np.array([1, 2])}
NOT_INTEGERS = {**NOT_NUMBERS, "fraction": 2.5}


@pytest.fixture(scope="module")
def small():
    return SimpleNamespace(model=create_model(0, 4),
                           corpus=synth_corpus(0, n_items=4, dim=4, frames=1, audio_tokens=1),
                           config=TrainConfig(dim=4, proj_dim=4),
                           waveform=Waveform(np.zeros(400), 16_000))


@pytest.fixture
def env(small, tmp_path, monkeypatch):
    monkeypatch.delenv("TEFAL_THREADS", raising=False)
    return SimpleNamespace(**vars(small), path=tmp_path / "c.tfck", monkeypatch=monkeypatch)


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("case", INTEGERS, ids=[f"{i}-{c[0]}" for i, c in enumerate(INTEGERS)])
def test_an_integer_argument_refuses_what_is_no_int64(case, value, env):
    name, error, call, _ = case
    with pytest.raises(error, match=re.escape(name)) as info:
        call(value, env)
    assert "truth value" not in str(info.value)


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("case", REALS, ids=[c[0] for c in REALS])
def test_a_number_argument_refuses_what_is_no_finite_number(case, value, env):
    name, error, call, _ = case
    with pytest.raises(error, match=re.escape(name)) as info:
        call(value, env)
    assert "truth value" not in str(info.value)


@pytest.mark.parametrize("case", [c for c in INTEGERS + REALS if c[3] is not None],
                         ids=[f"{i}-{c[0]}" for i, c in enumerate(INTEGERS + REALS)
                              if c[3] is not None])
def test_a_numpy_scalar_is_accepted(case, env):
    name, error, call, valid = case
    call(valid, env)


@pytest.mark.parametrize("error", [ShapeError, ConfigError, AudioFormatError])
def test_each_error_type_is_a_value_error(error):
    assert issubclass(error, ValueError)
