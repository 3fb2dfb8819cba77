"""Command-line harness: subcommands, exit codes, artifact reproducibility."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import tefal
from conftest import distinct_shortlisted_pairs, stage1_matrix
from tefal.audiofeat import LOG_FLOOR, SAMPLE_RATE
from tefal import cli
from tefal import model as model_module
from tefal.cli import build_parser, main
from tefal.config import MODALITIES, TrainConfig
from tefal.corpus import synth_corpus
from tefal.fusion import FusionKind
from tefal.linalg import PAD
from tefal.model import CANDIDATE_BLOCK, TILE_PAIRS, create_model, named_parameters
from tefal.storage import (load_checkpoint, load_corpus, read_fbank, save_checkpoint,
                           save_corpus, write_embeddings)
from tefal.verify import CheckResult


def run(*argv):
    return main(list(argv))


def synth_args(out_dir, seed=3):
    return ["synth", "--out", str(out_dir), "--seed", str(seed), "--items", "30",
            "--dim", "12", "--frames", "3", "--audio-tokens", "4"]


def write_wav(path, samples):
    data = (np.asarray(samples) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(data.tobytes())


@pytest.fixture()
def trained_setup(tmp_path):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert run(*synth_args(data)) == 0
    assert run("train", "--data", str(data / "manifest.json"), "--out", str(ckpt),
               "--epochs", "2", "--batch-size", "8", "--learning-rate", "3e-3",
               "--seed", "1") == 0
    return data / "manifest.json", ckpt


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("bogus") == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("gradcheck", "--wat") == 2
        capsys.readouterr()

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        assert run("eval", "--data", str(tmp_path / "missing.json"),
                   "--checkpoint", str(tmp_path / "missing.ckpt")) == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [["eval"], ["rerank", "--k", "2"]])
    @pytest.mark.parametrize("name", ["video.emb1", "audio.emb1"])
    def test_a_corpus_without_frames_or_audio_tokens_is_exit_one(self, trained_setup,
                                                                 capsys, command, name):
        manifest, ckpt = trained_setup
        write_embeddings(manifest.parent / name, np.zeros((30, 0, 12)))
        assert run(*command, "--data", str(manifest), "--checkpoint", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert f"error: {manifest}: each item needs a frame and an audio token" in err

    def test_non_finite_stored_values_are_exit_one(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = TrainConfig(dim=12, proj_dim=12, frames=3, audio_tokens=4)
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        model = create_model(seed=1, dim=12)
        save_checkpoint(good, model, step=0, config=config)
        model.video.w_q[0, 0] = np.inf
        save_checkpoint(bad, model, step=0, config=config)
        bad_data = tmp_path / "bad_data"
        corpus = load_corpus(data / "manifest.json")
        corpus.texts[3, 0] = np.nan
        save_corpus(corpus, bad_data)
        for command in (["eval"], ["rerank", "--k", "5"]):
            for manifest, ckpt, culprit in (
                    (data / "manifest.json", bad, "bad.ckpt"),
                    (bad_data / "manifest.json", good, "text.emb1")):
                assert run(*command, "--data", str(manifest),
                           "--checkpoint", str(ckpt)) == 1
                err = capsys.readouterr().err
                assert "non-finite" in err and culprit in err

    def test_bad_config_value_is_exit_one_and_names_the_key(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        capsys.readouterr()
        for key, value in (("epochs", "abc"), ("learning_rate", "nan"),
                           ("temperature_init", "500"), ("beta1", "1.5"),
                           ("beta2", "1.0"), ("adam_eps", "0"), ("weight_decay", "-5"),
                           ("eval_every", "-1")):
            config = tmp_path / "train.cfg"
            config.write_text(f"seed = 1\n{key} = {value}\n")
            assert run("train", "--data", str(data / "manifest.json"), "--out",
                       str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_repeated_config_key_is_exit_one(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 3\nepochs = 1\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
        assert "line 2: config key 'epochs' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_file_error_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "bad.cfg"
        config.write_text("epochs = 1\nthreads = 2\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
        assert (f"error: {config}: line 2: unknown config key 'threads'"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfeepochs = 1\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
        assert f"error: {config}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", [["eval"], ["rerank", "--k", "5"], ["export-attn"]])
    def test_checkpoint_dim_other_than_the_corpus_names_both_files(
            self, trained_setup, tmp_path, capsys, command):
        _, ckpt = trained_setup
        other = tmp_path / "other"
        assert run("synth", "--out", str(other), "--items", "20", "--dim", "8",
                   "--frames", "3", "--audio-tokens", "4") == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*command, "--data", str(other / "manifest.json"), "--checkpoint",
                   str(ckpt), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and str(other / "manifest.json") in err
        assert "dim 12" in err and "dim 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["eval"], ["rerank", "--k", "5"], ["export-attn"]])
    def test_stacking_checkpoint_without_summary_rows_names_both_files(
            self, tmp_path, capsys, command):
        data, ckpt = tmp_path / "data", tmp_path / "stacking.ckpt"
        assert run(*synth_args(data)) == 0
        assert run("train", "--data", str(data / "manifest.json"), "--out", str(ckpt),
                   "--epochs", "1", "--batch-size", "8", "--fusion", "stacking") == 0
        corpus = load_corpus(data / "manifest.json")
        corpus.summary_tokens = None
        save_corpus(corpus, tmp_path / "bare")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*command, "--data", str(tmp_path / "bare" / "manifest.json"),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and str(tmp_path / "bare" / "manifest.json") in err
        assert "audio_summary" in err
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("beta1 = 1.5", "beta1 must lie in [0, 1), got 1.5"),
        ("seed = -3", "seed must be >= 0, got -3"),
        ("fusion = gated", "fusion"),
        ("learning_rate = inf", "learning_rate must be finite, got inf")])
    def test_config_value_error_names_the_file_and_line(self, tmp_path, capsys,
                                                        line, message):
        # a value only validation rejects used to be reported without the file
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "bad.cfg"
        config.write_text(f"# optimizer\nepochs = 1\n\n{line}\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: line 4: ") and message in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_flag_overriding_a_bad_config_value_wins(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "bad.cfg"
        config.write_text("epochs = -1\nseed = -3\nfusion = gated\n")
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config), "--epochs", "1",
                   "--seed", "2", "--fusion", "late") == 0
        _model, _step, loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert (loaded.epochs, loaded.seed, loaded.fusion) == (1, 2, "late")

    def test_bad_flag_with_a_config_file_does_not_blame_the_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "good.cfg"
        config.write_text("epochs = 1\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config),
                   "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "error: seed must be >= 0, got -1" in err and str(config) not in err

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    @pytest.mark.parametrize("k", ["abc", "1e1", "abc%", ""])
    def test_bad_k_is_exit_one_and_names_it(self, trained_setup, tmp_path, capsys,
                                            command, k):
        # int()'s "invalid literal" message used to name neither flag nor form
        manifest, ckpt = trained_setup
        capsys.readouterr()
        assert run(command, "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--k", k, "--out", str(tmp_path / "m.json")) == 1
        assert (f"--k expects an item count or a percentage like 10%, got {k!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "train-config", "gradcheck"])
    def test_negative_seed_is_exit_one_and_names_it(self, tmp_path, capsys, command):
        # numpy's "expected non-negative integer" named no flag
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("seed = -3\n")
        train = ["train", "--data", str(data / "manifest.json"),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]
        argv = {"synth": synth_args(tmp_path / "other", seed=-1),
                "train": train + ["--seed", "-1"],
                "train-config": train + ["--config", str(config)],
                "gradcheck": ["gradcheck", "--seed", "-1"]}[command]
        capsys.readouterr()
        assert run(*argv) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "other").exists()

    @pytest.mark.parametrize("line", ["dim = 64", "proj_dim = 7", "frames = 99",
                                      "audio_tokens = 9"])
    def test_config_geometry_other_than_the_data_is_exit_one(self, tmp_path, capsys,
                                                             line):
        # the data (dim 12, 3 frames, 4 audio tokens) used to win silently
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text(f"epochs = 1\n{line}\n")
        capsys.readouterr()
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 1
        assert f"{config}: config file sets {line}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_geometry_equal_to_the_data_is_accepted(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\ndim = 12\nproj_dim = 12\nframes = 3\n"
                          "audio_tokens = 4\n")
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config)) == 0
        _model, _step, loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert (loaded.dim, loaded.proj_dim, loaded.frames, loaded.audio_tokens) \
            == (12, 12, 3, 4)


class TestParser:
    def test_train_choices_are_the_library_lists(self):
        train = build_parser()._subparsers._group_actions[0].choices["train"]
        choices = {a.dest: a.choices for a in train._actions}
        assert list(choices["fusion"]) == [kind.value for kind in FusionKind]
        assert tuple(choices["modality"]) == MODALITIES


class TestSynth:
    def test_same_seed_writes_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*synth_args(a)) == 0
        assert run(*synth_args(b)) == 0
        for name in ("manifest.json", "text.emb1", "video.emb1", "audio.emb1",
                     "audio_summary.emb1"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
    def test_non_finite_noise_is_exit_one_and_writes_nothing(self, tmp_path, capsys,
                                                             noise):
        # these used to exit 0 with a corpus that load_corpus then rejected
        out = tmp_path / "data"
        assert run(*synth_args(out), f"--noise={noise}") == 1
        assert "noise must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestTrainEval:
    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        outputs = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.ckpt"
            log = tmp_path / f"{tag}.json"
            assert run("train", "--data", str(data / "manifest.json"),
                       "--out", str(ckpt), "--log", str(log),
                       "--epochs", "2", "--batch-size", "8",
                       "--learning-rate", "3e-3", "--seed", "7") == 0
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_every_logs_are_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 2\nbatch_size = 8\neval_every = 1\n")
        logs = []
        for tag in ("x", "y"):
            log = tmp_path / f"{tag}.json"
            assert run("train", "--data", str(data / "manifest.json"), "--config",
                       str(config), "--out", str(tmp_path / f"{tag}.ckpt"),
                       "--log", str(log)) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        history = json.loads(logs[0])["history"]
        assert len(history) == 2 and all("r1_t2v" in entry for entry in history)

    def test_config_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nlearning_rate = 0.01\n")
        assert run("train", "--data", str(data / "manifest.json"), "--out",
                   str(tmp_path / "m.ckpt"), "--config", str(config),
                   "--learning-rate", "0.5", "--seed", "9") == 0
        _model, _step, loaded = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.epochs == 1              # from the file
        assert loaded.learning_rate == 0.5     # the flag wins
        assert loaded.seed == 9
        assert loaded.batch_size == 16         # default untouched

    def test_omitted_flags_keep_the_file_values_and_defaults(self, tmp_path):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\nseed = 4\nbatch_size = 8\n")
        geometry = {"dim": 12, "proj_dim": 12, "frames": 3, "audio_tokens": 4}
        for argv, want in ((["--config", str(config)],
                            TrainConfig(**geometry, epochs=1, seed=4, batch_size=8)),
                           (["--epochs", "1"], TrainConfig(**geometry, epochs=1))):
            assert run("train", "--data", str(data / "manifest.json"), "--out",
                       str(tmp_path / "m.ckpt"), *argv) == 0
            assert load_checkpoint(tmp_path / "m.ckpt")[2] == want

    @pytest.mark.parametrize("modality", ["video", "audio"])
    def test_single_modality_stacking_needs_no_summary_rows(self, tmp_path, modality):
        # neither block reads the summary rows, and neither fusion kind draws
        # parameters, so the run is the addition run's
        corpus = synth_corpus(seed=3, n_items=30, dim=12, frames=3, audio_tokens=4)
        corpus.summary_tokens = None
        save_corpus(corpus, tmp_path / "data")
        runs = []
        for fusion in ("stacking", "addition"):
            ckpt, log = tmp_path / f"{fusion}.ckpt", tmp_path / f"{fusion}.json"
            assert run("train", "--data", str(tmp_path / "data" / "manifest.json"),
                       "--out", str(ckpt), "--log", str(log), "--epochs", "2",
                       "--batch-size", "8", "--modality", modality,
                       "--fusion", fusion) == 0
            model, step, _config = load_checkpoint(ckpt)
            runs.append((log.read_bytes(), step,
                         named_parameters(model, trainable_only=False)))
        (log_s, step_s, params_s), (log_a, step_a, params_a) = runs
        assert (log_s, step_s) == (log_a, step_a)
        assert list(params_s) == list(params_a)
        for name, value in params_a.items():
            np.testing.assert_array_equal(params_s[name], value, err_msg=name)

    def test_eval_json_is_reproducible(self, trained_setup, tmp_path):
        manifest, ckpt = trained_setup
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--out", str(out1)) == 0
        assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert set(doc["metrics"]) == {"t2v", "v2t"}
        assert set(doc["metrics"]["t2v"]) == {"R1", "R5", "R10", "MdR", "MnR"}
        assert len(doc["ranks"]["t2v"]) == doc["items"]
        # exhaustive scoring: every pair once, reused for both directions
        assert doc["stats"] == {"stage1_comparisons": 0, "stage2_model_evals": 30 * 30}

    def test_full_shortlist_metrics_match_exhaustive(self, trained_setup, tmp_path):
        manifest, ckpt = trained_setup
        full, rerank = tmp_path / "full.json", tmp_path / "rr.json"
        assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--out", str(full)) == 0
        assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--k", "100%", "--out", str(rerank)) == 0
        a = json.loads(full.read_text())
        b = json.loads(rerank.read_text())
        assert a["metrics"] == b["metrics"]
        assert a["ranks"] == b["ranks"]

    def test_bad_dsl_temp_is_exit_one_and_names_it(self, trained_setup, capsys):
        manifest, ckpt = trained_setup
        for temp, message in (("nan", "dsl_temp must be finite, got nan"),
                              ("inf", "dsl_temp must be finite, got inf"),
                              ("0", "dsl_temp must be positive, got 0.0")):
            assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                       "--dsl-temp", temp) == 1
            assert message in capsys.readouterr().err

    def test_rerank_requires_k(self, trained_setup, capsys):
        manifest, ckpt = trained_setup
        assert run("rerank", "--data", str(manifest),
                   "--checkpoint", str(ckpt)) == 2
        capsys.readouterr()

    def test_rerank_with_shortlist(self, trained_setup, tmp_path):
        manifest, ckpt = trained_setup
        out = tmp_path / "rr10.json"
        assert run("rerank", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--k", "10%", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 3
        # both directions: a full stage-1 scan each, then one model score per
        # distinct (text, video) pair of the two directions' shortlists
        corpus = load_corpus(manifest)
        pairs = distinct_shortlisted_pairs(stage1_matrix(corpus), 3, corpus.ids)
        assert doc["stats"] == {"stage1_comparisons": 2 * 30 * 30,
                                "stage2_model_evals": len(pairs)}
        assert len(pairs) < 2 * 30 * 3

    def test_thread_count_below_one_is_exit_one_and_names_it(
            self, trained_setup, tmp_path, capsys, monkeypatch):
        manifest, ckpt = trained_setup
        capsys.readouterr()
        for command in (["eval"], ["rerank", "--k", "3"]):
            assert run(*command, "--data", str(manifest), "--checkpoint", str(ckpt),
                       "--threads", "-2") == 1
            assert "threads must be >= 1" in capsys.readouterr().err
        # train takes no worker count; eval's default is the usable CPUs and
        # 0 is an error
        assert run("train", "--data", str(manifest), "--out", str(tmp_path / "t.ckpt"),
                   "--epochs", "1", "--threads", "0") == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "t.ckpt").exists()
        assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                   "--threads", "0", "--out", str(tmp_path / "m.json")) == 1
        assert "threads must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        for cap in ("0", "-4"):
            monkeypatch.setenv("TEFAL_THREADS", cap)
            assert run("eval", "--data", str(manifest), "--checkpoint", str(ckpt)) == 1
            assert "TEFAL_THREADS must be >= 1" in capsys.readouterr().err


class TestFbank:
    def test_silence_yields_constant_log_floor_file(self, tmp_path, capsys):
        wav = tmp_path / "silence.wav"
        write_wav(wav, np.zeros(SAMPLE_RATE))
        out = tmp_path / "silence.fbank"
        assert run("fbank", "--in", str(wav), "--out", str(out),
                   "--target-length", "64", "--mels", "16") == 0
        fb = read_fbank(out)
        expected = np.float64(np.float32(math.log(LOG_FLOOR)))
        np.testing.assert_array_equal(fb.frames, np.full((64, 16), expected))
        capsys.readouterr()

    def test_stereo_input_fails_with_diagnostic(self, tmp_path, capsys):
        wav = tmp_path / "stereo.wav"
        data = np.zeros(200, dtype="<i2")
        with wave.open(str(wav), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(data.tobytes())
        assert run("fbank", "--in", str(wav), "--out", str(tmp_path / "x")) == 1
        assert "mono" in capsys.readouterr().err

    def test_wrong_rate_fails(self, tmp_path, capsys):
        wav = tmp_path / "slow.wav"
        data = np.zeros(8000, dtype="<i2")
        with wave.open(str(wav), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(data.tobytes())
        assert run("fbank", "--in", str(wav), "--out", str(tmp_path / "x")) == 1
        assert "resample" in capsys.readouterr().err

    @pytest.mark.parametrize("mels", ["0", "-2"])
    def test_mel_count_below_one_is_exit_one_and_names_it(self, tmp_path, capsys, mels):
        # these used to exit 0 and write a 1024 x 0 filter bank
        wav = tmp_path / "tone.wav"
        write_wav(wav, np.zeros(SAMPLE_RATE))
        out = tmp_path / "x.fbank"
        assert run("fbank", "--in", str(wav), "--out", str(out), "--mels", mels) == 1
        assert "n_mels" in capsys.readouterr().err
        assert not out.exists()


class TestExportAttn:
    def test_csv_rows_per_item_and_modality(self, trained_setup, tmp_path, capsys):
        manifest, ckpt = trained_setup
        out = tmp_path / "attn.csv"
        assert run("export-attn", "--data", str(manifest),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 * 30  # video + audio row per item
        first = lines[0].split(",")
        assert first[1] == "video"
        weights = [float(x) for x in first[2:]]
        assert len(weights) == 3  # one weight per frame
        assert sum(weights) == pytest.approx(1.0, abs=1e-5)
        capsys.readouterr()

    def test_json_format(self, trained_setup, tmp_path):
        manifest, ckpt = trained_setup
        out = tmp_path / "attn.json"
        assert run("export-attn", "--data", str(manifest), "--checkpoint",
                   str(ckpt), "--out", str(out), "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert doc["items"][1]["modality"] == "audio"
        assert len(doc["items"][1]["weights"]) == 4

    @pytest.mark.parametrize("fusion,context_rows", [("stacking", 4), ("late", 3)])
    def test_only_the_blocks_the_model_computes(self, tmp_path, fusion, context_rows):
        # neither model uses the audio block; stacking's video block attends
        # over the 3 frames plus the audio summary row
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        ckpt = tmp_path / f"{fusion}.ckpt"
        config = TrainConfig(dim=12, proj_dim=12, frames=3, audio_tokens=4, fusion=fusion)
        save_checkpoint(ckpt, create_model(seed=1, dim=12, fusion=fusion), step=0,
                        config=config)
        out = tmp_path / "attn.json"
        assert run("export-attn", "--data", str(data / "manifest.json"), "--checkpoint",
                   str(ckpt), "--out", str(out), "--format", "json") == 0
        items = json.loads(out.read_text())["items"]
        assert len(items) == 30
        for item in items:
            assert item["modality"] == "video"
            assert len(item["weights"]) == context_rows
            assert sum(item["weights"]) == pytest.approx(1.0, abs=1e-3)

    def test_reversed_frames_reverse_the_item_video_weights(self, trained_setup,
                                                             tmp_path, capsys):
        manifest, ckpt = trained_setup
        corpus = load_corpus(manifest)
        corpus.frames[5] = corpus.frames[5][::-1].copy()
        reversed_manifest = save_corpus(corpus, tmp_path / "reversed")
        rows = []
        for i, data in enumerate((manifest, reversed_manifest)):
            out = tmp_path / f"attn{i}.csv"
            assert run("export-attn", "--data", str(data), "--checkpoint", str(ckpt),
                       "--out", str(out)) == 0
            rows.append([line.split(",") for line in out.read_text().splitlines()])
        base, flipped = rows
        assert flipped[10][:2] == [corpus.ids[5], "video"]
        assert flipped[10][2:] == base[10][2:][::-1]
        assert base[10][2:] != flipped[10][2:]
        assert flipped[:10] + flipped[11:] == base[:10] + base[11:]
        capsys.readouterr()

    def test_no_tile_holds_more_than_tile_pairs_padded_slots(self, tmp_path, monkeypatch):
        # each item's one query pads to PAD columns; no tile holds more than
        # one candidate block, and one tile of all 300 items gives the same
        # bytes
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--seed", "3", "--items", "300",
                   "--dim", "4", "--frames", "2", "--audio-tokens", "2") == 0
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, create_model(seed=1, dim=4), step=0,
                        config=TrainConfig(dim=4, proj_dim=4, frames=2, audio_tokens=2))
        tiles = []
        score = cli.score_tile

        def spy(model, queries, corpus, cols, keep=False):
            tiles.append(len(cols))
            return score(model, queries, corpus, cols, keep)

        monkeypatch.setattr(cli, "score_tile", spy)
        outputs, counts = [], []
        for tile_pairs, block in ((TILE_PAIRS, CANDIDATE_BLOCK), (300 * PAD, 300)):
            monkeypatch.setattr(model_module, "TILE_PAIRS", tile_pairs)
            monkeypatch.setattr(model_module, "CANDIDATE_BLOCK", block)
            out = tmp_path / f"attn{tile_pairs}.csv"
            tiles.clear()
            assert run("export-attn", "--data", str(data / "manifest.json"),
                       "--checkpoint", str(ckpt), "--out", str(out)) == 0
            outputs.append(out.read_bytes())
            assert sum(tiles) == 300
            assert max(tiles) <= block and max(tiles) * PAD <= tile_pairs
            counts.append(len(tiles))
        assert counts == [math.ceil(300 / CANDIDATE_BLOCK), 1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("modality,context_rows", [("video", 3), ("audio", 4)])
    def test_single_modality_models_export_one_row_per_item(self, tmp_path, modality,
                                                            context_rows):
        data = tmp_path / "data"
        assert run(*synth_args(data)) == 0
        ckpt = tmp_path / f"{modality}.ckpt"
        config = TrainConfig(dim=12, proj_dim=12, frames=3, audio_tokens=4,
                             modality=modality)
        save_checkpoint(ckpt, create_model(seed=1, dim=12, modality=modality), step=0,
                        config=config)
        out = tmp_path / "attn.json"
        assert run("export-attn", "--data", str(data / "manifest.json"), "--checkpoint",
                   str(ckpt), "--out", str(out), "--format", "json") == 0
        items = json.loads(out.read_text())["items"]
        assert [item["id"] for item in items] == load_corpus(data / "manifest.json").ids
        for item in items:
            assert item["modality"] == modality
            assert len(item["weights"]) == context_rows


class TestGradcheckCommand:
    def test_passes_and_prints_max_error(self, capsys):
        assert run("gradcheck", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "FAIL" not in out


# Runs every artifact-writing subcommand in the working directory and prints
# one "name sha256" line per file written.
ARTIFACT_DIGESTS = """
import hashlib, io, sys, wave
from contextlib import redirect_stdout
from pathlib import Path
import numpy as np
from tefal.cli import main

def run(*argv):
    with redirect_stdout(io.StringIO()):
        if main([str(a) for a in argv]) != 0:
            sys.exit(f"failed: {argv}")

run("synth", "--out", "data", "--seed", 3, "--items", 30, "--dim", 12,
    "--frames", 3, "--audio-tokens", 4)
manifest = "data/manifest.json"
for fusion in ("addition", "xattn", "stacking"):
    ckpt = f"{fusion}.tfck"
    run("train", "--data", manifest, "--out", ckpt, "--log", f"{fusion}.log.json",
        "--fusion", fusion, "--epochs", 2, "--batch-size", 8,
        "--learning-rate", "3e-3", "--seed", 1)
    for threads in ([], ["--threads", 1], ["--threads", 2]):
        tag = threads[-1] if threads else "default"
        run("eval", "--data", manifest, "--checkpoint", ckpt, *threads,
            "--out", f"{fusion}.eval.{tag}.json")
        run("rerank", "--data", manifest, "--checkpoint", ckpt, "--k", "10%",
            *threads, "--out", f"{fusion}.rerank.{tag}.json")
    run("export-attn", "--data", manifest, "--checkpoint", ckpt,
        "--out", f"{fusion}.attn.json", "--format", "json")
# a clip shorter than one analysis window, and a 10 s clip
for name, length in (("short", 240), ("ten_s", 160_000)):
    pcm = np.random.default_rng(length).integers(-32768, 32768, length).astype("<i2")
    with wave.open(f"{name}.wav", "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(16_000)
        f.writeframes(pcm.tobytes())
    run("fbank", "--in", f"{name}.wav", "--out", f"{name}.fbank.emb1")
for path in sorted(Path(".").rglob("*")):
    if path.is_file():
        print(path, hashlib.sha256(path.read_bytes()).hexdigest())
"""


class TestEnvironments:
    def test_blas_and_worker_threads_change_no_artifact_byte(self, tmp_path):
        # one process per (OPENBLAS_NUM_THREADS, TEFAL_THREADS), the cap
        # unset in the last; eval and rerank run without --threads, which
        # asks for every usable CPU, and with 1 and 2
        src = str(Path(tefal.__file__).resolve().parents[1])
        procs = []
        for blas, workers in ((1, "1"), (2, "2"), (2, None)):
            work = tmp_path / f"blas{blas}_workers{workers}"
            work.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas),
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            env.pop("TEFAL_THREADS", None)
            if workers is not None:
                env["TEFAL_THREADS"] = workers
            procs.append(subprocess.Popen(
                [sys.executable, "-c", ARTIFACT_DIGESTS], cwd=work, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        try:
            outputs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        for proc, (_out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        digests = [dict(line.rsplit(" ", 1) for line in out.splitlines())
                   for out, _err in outputs]
        assert len(digests[0]) == 5 + 2 * 2 + 3 * 9
        assert digests[0] == digests[1] == digests[2]
        for fusion in ("addition", "xattn", "stacking"):
            for command in ("eval", "rerank"):
                assert len({digests[0][f"{fusion}.{command}.{tag}.json"]
                            for tag in ("default", "1", "2")}) == 1


class TestArtifactDigestsTool:
    def test_it_digests_every_artifact_of_every_kind(self, tmp_path, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
        spec = importlib.util.spec_from_file_location("artifact_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        # the gradient checks take seconds at any corpus size
        monkeypatch.setattr(cli, "run_grad_checks", lambda seed: [
            CheckResult(f"seed{seed}", 0.0, 1.0)])
        assert tool.main([str(tmp_path / "out"), "--seeds", "3", "--items", "48"]) == 0
        printed = capsys.readouterr().out
        digests = dict(line.split(" ") for line in printed.splitlines())
        kinds = ["both-addition", "both-late", "both-concat_fc", "both-xattn",
                 "both-stacking", "video-addition", "audio-addition"]
        per_kind = ["attn.csv", "attn.json", "checkpoint", "eval.json", "eval_dsl30.json",
                    "eval_threads1.json", "log.json", "rerank_k10pct.json",
                    "rerank_k40_threads1.json", "train.txt"]
        corpus = ["audio.emb1", "audio_summary.emb1", "manifest.json", "text.emb1",
                  "video.emb1"]
        assert sorted(digests) == sorted(
            [f"gradcheck_seed{seed}.txt" for seed in (0, 1)]
            + [f"seed3/corpus/{name}" for name in corpus]
            + [f"seed3/{kind}/{name}" for kind in kinds for name in per_kind])
        for name, digest in digests.items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert (tmp_path / "out" / "gradcheck_seed1.txt").read_text().startswith("seed1 ")
        train_log = (tmp_path / "out" / "seed3" / "both-xattn" / "train.txt").read_text()
        assert train_log.endswith("\nwrote checkpoint to checkpoint\n")
        # a relative OUT, which train's directory change must not re-root
        monkeypatch.chdir(tmp_path)
        assert tool.main(["relative", "--seeds", "3", "--items", "48"]) == 0
        assert capsys.readouterr().out == printed
