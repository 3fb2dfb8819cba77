"""On-disk formats: embedding container, manifest, filter bank, checkpoint."""

import json
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tefal.audiofeat import zero_fbank
from tefal.config import TrainConfig, config_to_text
from tefal.corpus import Corpus, synth_corpus
from tefal.model import create_model, named_parameters, similarity_matrix
from tefal.storage import (
    FormatError,
    _encode_entry,
    load_checkpoint,
    load_corpus,
    read_embeddings,
    read_fbank,
    save_checkpoint,
    save_corpus,
    write_embeddings,
    write_fbank,
)
from tefal.training import evaluate, train

from conftest import MODEL_KINDS


def corrupt_byte(path, offset, delta=1):
    data = bytearray(path.read_bytes())
    data[offset] = (data[offset] + delta) % 256
    path.write_bytes(bytes(data))


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def framed(head: bytes, *parts: bytes) -> bytes:
    """A framed file by its definition: the joined bytes and their CRC32."""
    return with_crc(b"".join((head, *parts)))


def tfck_bytes(entries: dict, config: bytes) -> bytes:
    """A version 2 checkpoint file holding ``entries`` and ``config``."""
    return framed(struct.pack("<4sIII", b"TFCK", 2, len(entries), len(config)), config,
                  *(struct.pack("<H", len(name.encode())) + name.encode()
                    + struct.pack("<II", *arr.shape) + arr.astype("<f4").tobytes()
                    for name, arr in entries.items()))


class TestEmbeddingContainer:
    @pytest.mark.parametrize("shape", [(5, 3, 8), (1, 1, 1), (0, 2, 3)])
    def test_bytes_equal_the_joined_framing(self, tmp_path, shape):
        # a transposed float64 view: the writer converts and copies it
        items = np.random.default_rng(1).standard_normal(shape[::-1]).T
        path = tmp_path / "x.emb1"
        write_embeddings(path, items)
        assert path.read_bytes() == framed(struct.pack("<4sIIII", b"EMB1", 1, *shape),
                                           items.astype("<f4").tobytes())

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        items = rng.standard_normal((5, 3, 8)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.emb1"
        write_embeddings(path, items)
        loaded = read_embeddings(path)
        np.testing.assert_array_equal(loaded, items)
        # writing what was read reproduces the file byte for byte
        path2 = tmp_path / "y.emb1"
        write_embeddings(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_float32_quantization_on_write(self, tmp_path):
        items = np.array([[[0.1]]])  # not representable in float32
        path = tmp_path / "q.emb1"
        write_embeddings(path, items)
        loaded = read_embeddings(path)
        assert loaded[0, 0, 0] == np.float64(np.float32(0.1))

    @pytest.mark.parametrize("offset", [0, 5, 25, -3, -1])
    def test_any_corrupted_byte_is_detected(self, tmp_path, offset):
        path = tmp_path / "c.emb1"
        write_embeddings(path, np.ones((2, 2, 2)))
        size = len(path.read_bytes())
        corrupt_byte(path, offset % size)
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.emb1"
        write_embeddings(path, np.ones((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="bytes"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb1"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(path)


@pytest.mark.parametrize("kind", ["emb1", "tfck"])
def test_framing_errors_keep_their_messages_and_order(tmp_path, kind):
    # each case also breaks the checks after its own, so the first check wins
    path = tmp_path / f"f.{kind}"
    if kind == "emb1":
        write_embeddings(path, np.ones((2, 2, 2)))
        read, name, version = read_embeddings, "an EMB1", "version"
    else:
        save_checkpoint(path, create_model(seed=0, dim=4), 0, TrainConfig(dim=4, proj_dim=4))
        read, name, version = load_checkpoint, "a checkpoint", "checkpoint version"
    good = path.read_bytes()
    cases = [(good[:15], f"file too short for {name} header"),
             (b"NOPE" + good[4:], "bad magic b'NOPE'"),
             (good[:4] + struct.pack("<I", 9) + good[8:], f"unsupported {version} 9"),
             (good[:-1] + bytes([good[-1] ^ 1]), "CRC mismatch")]
    for blob, message in cases:
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            read(path)


class TestNonFiniteValues:
    """CRC-valid files whose payload holds NaN or an infinity."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_embeddings_rejected_with_the_path_and_item(self, tmp_path, value):
        items = np.ones((3, 2, 4))
        items[2, 1, 3] = value
        path = tmp_path / "bad.emb1"
        write_embeddings(path, items)
        with pytest.raises(FormatError, match=r"bad\.emb1: item 2 .*non-finite"):
            read_embeddings(path)

    def test_fbank_rejected(self, tmp_path):
        frames = zero_fbank(target_length=8, n_mels=4).frames
        frames[5, 0] = np.nan
        path = tmp_path / "bad.fbank"
        write_embeddings(path, frames[None])
        with pytest.raises(FormatError, match=r"bad\.fbank"):
            read_fbank(path)

    def test_corpus_with_a_non_finite_frame_rejected(self, tmp_path):
        corpus = synth_corpus(seed=2, n_items=4, dim=6, frames=2, audio_tokens=2)
        corpus.frames[1, 0, 0] = np.inf
        manifest = save_corpus(corpus, tmp_path / "corpus")
        with pytest.raises(FormatError, match=r"video\.emb1: item 1 "):
            load_corpus(manifest)

    def test_checkpoint_rejected_naming_the_parameter(self, tmp_path):
        model = create_model(seed=1, dim=4)
        model.audio.w_v[0, 0] = np.nan
        path = tmp_path / "bad.tfck"
        save_checkpoint(path, model, step=0, config=TrainConfig(dim=4, proj_dim=4))
        with pytest.raises(FormatError, match=r"bad\.tfck: parameter 'audio\.w_v'"):
            load_checkpoint(path)


class TestFbankContainer:
    def test_round_trip(self, tmp_path):
        fb = zero_fbank(16, 8)
        path = tmp_path / "z.fbank"
        write_fbank(path, fb)
        loaded = read_fbank(path)
        np.testing.assert_array_equal(loaded.frames, fb.frames)
        assert loaded.missing is True

    def test_rejects_multi_item_files(self, tmp_path):
        path = tmp_path / "multi.emb1"
        write_embeddings(path, np.ones((2, 4, 4)))
        with pytest.raises(FormatError, match="one item"):
            read_fbank(path)


def manifest_by_json_dumps(corpus: Corpus) -> str:
    """The manifest text as ``json.dumps(manifest, indent=2)`` writes the
    manifest dict: the oracle for the writer, which lays out items itself."""
    files = {"text": "text.emb1", "video": "video.emb1"}
    with_audio = [i for i in range(len(corpus)) if corpus.has_audio[i]]
    if with_audio:
        files["audio"] = "audio.emb1"
    if corpus.summary_tokens is not None:
        files["audio_summary"] = "audio_summary.emb1"
    items = [{"id": item_id, "text": i, "video": i,
              "audio": with_audio.index(i) if i in with_audio else None,
              "has_audio": i in with_audio,
              "audio_summary": i if corpus.summary_tokens is not None else None}
             for i, item_id in enumerate(corpus.ids)]
    manifest = {"version": 1, "files": files, "items": items,
                "audio_tokens": corpus.audio.shape[1]}
    return json.dumps(manifest, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral code points
# and a lone surrogate, which ensure_ascii escapes as it escapes the rest
MANIFEST_ID_CHARS = st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800"])


class TestCorpusManifest:
    @given(st.lists(st.tuples(st.text(MANIFEST_ID_CHARS, max_size=6), st.booleans()),
                    min_size=1, max_size=5, unique_by=lambda item: item[0]),
           st.booleans())
    @example([('a"\\\x00\u00e9\U0001f600', True), ("b", False)], True)
    @example([("a", False)], False)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_manifest_bytes_equal_json_dumps(self, items, with_summary):
        n = len(items)
        corpus = Corpus(ids=[item_id for item_id, _ in items], texts=np.zeros((n, 2)),
                        frames=np.zeros((n, 1, 2)), audio=np.zeros((n, 3, 2)),
                        has_audio=np.array([has for _, has in items]),
                        summary_tokens=np.zeros((n, 2, 2)) if with_summary else None)
        with tempfile.TemporaryDirectory() as directory:
            manifest = save_corpus(corpus, directory)
            assert manifest.read_bytes() == manifest_by_json_dumps(corpus).encode()
            assert load_corpus(manifest).ids == corpus.ids

    def test_round_trip_preserves_everything(self, tmp_path):
        corpus = synth_corpus(seed=1, n_items=12, dim=8, frames=3, audio_tokens=4)
        corpus.has_audio[4] = False
        corpus.audio[4] = 0.0
        manifest = save_corpus(corpus, tmp_path)
        loaded = load_corpus(manifest)
        assert loaded.ids == corpus.ids
        f32 = lambda a: np.asarray(a, dtype=np.float32).astype(np.float64)
        np.testing.assert_array_equal(loaded.texts, f32(corpus.texts))
        np.testing.assert_array_equal(loaded.frames, f32(corpus.frames))
        np.testing.assert_array_equal(loaded.audio, f32(corpus.audio))
        np.testing.assert_array_equal(loaded.has_audio, corpus.has_audio)
        np.testing.assert_array_equal(loaded.summary_tokens,
                                      f32(corpus.summary_tokens))

    def test_missing_audio_materialized_as_flagged_zeros(self, tmp_path):
        corpus = synth_corpus(seed=2, n_items=6, dim=8, frames=2, audio_tokens=3)
        corpus.has_audio[1] = False
        manifest = save_corpus(corpus, tmp_path)
        loaded = load_corpus(manifest)
        assert not loaded.has_audio[1]
        np.testing.assert_array_equal(loaded.audio[1], np.zeros((3, 8)))
        assert loaded.n_audios == 5
        assert len(loaded) == 6

    def test_empty_manifest_rejected(self, tmp_path):
        corpus = synth_corpus(seed=3, n_items=2, dim=8, frames=2, audio_tokens=2)
        manifest = save_corpus(corpus, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["items"] = []
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="no items"):
            load_corpus(manifest)

    def test_index_out_of_range_rejected(self, tmp_path):
        corpus = synth_corpus(seed=4, n_items=3, dim=8, frames=2, audio_tokens=2)
        manifest = save_corpus(corpus, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["items"][0]["video"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="out of range"):
            load_corpus(manifest)

    def test_corrupt_referenced_file_detected(self, tmp_path):
        corpus = synth_corpus(seed=5, n_items=3, dim=8, frames=2, audio_tokens=2)
        manifest = save_corpus(corpus, tmp_path)
        corrupt_byte(tmp_path / "video.emb1", 30)
        with pytest.raises(FormatError, match="CRC"):
            load_corpus(manifest)

    def test_dim_disagreement_detected(self, tmp_path):
        corpus = synth_corpus(seed=6, n_items=3, dim=8, frames=2, audio_tokens=2)
        save_corpus(corpus, tmp_path)
        write_embeddings(tmp_path / "video.emb1", np.ones((3, 2, 9)))
        with pytest.raises(FormatError, match="dims disagree"):
            load_corpus(tmp_path / "manifest.json")


    @pytest.mark.parametrize("files", [
        {"video.emb1": (3, 0, 8)}, {"audio.emb1": (3, 0, 8)},
        {"text.emb1": (3, 1, 0), "video.emb1": (3, 2, 0), "audio.emb1": (3, 2, 0),
         "audio_summary.emb1": (3, 2, 0)}], ids=["frames", "audio tokens", "features"])
    def test_items_without_a_frame_audio_token_or_feature_rejected(self, tmp_path, files):
        corpus = synth_corpus(seed=6, n_items=3, dim=8, frames=2, audio_tokens=2)
        manifest = save_corpus(corpus, tmp_path)
        for name, shape in files.items():
            write_embeddings(tmp_path / name, np.zeros(shape))
        with pytest.raises(FormatError, match="manifest.json: each item needs a frame"):
            load_corpus(manifest)

    @pytest.mark.parametrize("name,shape,match", [
        ("audio.emb1", (3, 2, 9), "embedding dims disagree"),
        ("audio_summary.emb1", (3, 3, 8), r"summary tokens must be \(n, 2, 8\)"),
        ("audio_summary.emb1", (3, 2, 9), r"summary tokens must be \(n, 2, 8\)")])
    def test_the_corpus_rules_are_format_errors_naming_the_manifest(self, tmp_path, name,
                                                                     shape, match):
        corpus = synth_corpus(seed=6, n_items=3, dim=8, frames=2, audio_tokens=2)
        manifest = save_corpus(corpus, tmp_path)
        write_embeddings(tmp_path / name, np.ones(shape))
        with pytest.raises(FormatError, match=f"manifest.json: {match}"):
            load_corpus(manifest)

    def test_a_negative_audio_tokens_is_a_format_error(self, tmp_path):
        corpus = synth_corpus(seed=6, n_items=3, dim=8, frames=2, audio_tokens=2)
        corpus.has_audio[:] = False
        manifest = save_corpus(corpus, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["audio_tokens"] = -2
        write_manifest(manifest, doc)
        with pytest.raises(FormatError, match="audio_tokens must be positive, got -2"):
            load_corpus(manifest)


def write_manifest(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def pop(*keys):
    """Manifest edit that deletes the value at ``keys``."""
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return doc
    return edit


def put(value, *keys):
    """Manifest edit that sets the value at ``keys``, or the whole document."""
    def edit(doc):
        if not keys:
            return value
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc
    return edit


MALFORMED_MANIFESTS = {
    "no files": pop("files"),
    "no items": pop("items"),
    "no text file": pop("files", "text"),
    "no video file": pop("files", "video"),
    "item without id": pop("items", 1, "id"),
    "item without text": pop("items", 0, "text"),
    "item without video": pop("items", 2, "video"),
    "string index": put("0", "items", 0, "video"),
    "float index": put(1.0, "items", 0, "text"),
    "list manifest": put([1, 2]),
    "files not an object": put(["text.emb1"], "files"),
    "item not an object": put("item", "items", 0),
    "listed file missing": put("nope.emb1", "files", "video"),
    "listed file is a directory": put(".", "files", "text"),
    "non-string id": put(["a"], "items", 0, "id"),
    "duplicate id": put("item-1", "items", 0, "id"),
    "has_audio not a boolean": put("yes", "items", 0, "has_audio"),
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_raises_format_error_with_the_path(self, tmp_path, case):
        corpus = synth_corpus(seed=7, n_items=3, dim=4, frames=2, audio_tokens=2)
        corpus.ids = ["item-0", "item-1", "item-2"]
        manifest = save_corpus(corpus, tmp_path)
        doc = MALFORMED_MANIFESTS[case](json.loads(manifest.read_text()))
        write_manifest(manifest, doc)
        with pytest.raises(FormatError, match="manifest.json"):
            load_corpus(manifest)


@pytest.fixture(scope="module")
def checkpoint_body(tmp_path_factory):
    """A small valid checkpoint's bytes, without the trailing CRC."""
    path = tmp_path_factory.mktemp("ckpt") / "m.tfck"
    save_checkpoint(path, create_model(seed=1, dim=4), step=3,
                    config=TrainConfig(dim=4, proj_dim=4))
    return path.read_bytes()[:-4]


def with_count(body: bytes, delta: int) -> bytes:
    """``body`` with ``delta`` added to its entry count."""
    magic, version, count = struct.unpack_from("<4sII", body)
    return struct.pack("<4sII", magic, version, count + delta) + body[12:]


# written by the version 1 writer: save_checkpoint(path, create_model(seed=3,
# dim=4, fusion="xattn"), step=7, config=V1_CONFIG)
V1_CHECKPOINT = Path(__file__).parent / "fixtures" / "checkpoint_v1.tfck"
V1_CONFIG = TrainConfig(dim=4, proj_dim=4, fusion="xattn", seed=3)


def with_config(body: bytes, config: bytes) -> bytes:
    """A version 2 ``body`` with its config bytes replaced by ``config``."""
    (length,) = struct.unpack_from("<I", body, 12)
    return body[:12] + struct.pack("<I", len(config)) + config + body[16 + length:]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("delta", [1, 1000, -1])
    def test_crc_valid_entry_count_mismatch(self, tmp_path, checkpoint_body, delta):
        path = tmp_path / "count.tfck"
        path.write_bytes(with_crc(with_count(checkpoint_body, delta)))
        with pytest.raises(FormatError, match="count.tfck"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [b"dim = 4\n\xff\xfe", b"dim = four\n",
                                        b"width = 4\n", b"dim = 4"])
    def test_crc_valid_bad_config_bytes(self, tmp_path, checkpoint_body, config):
        path = tmp_path / "config.tfck"
        path.write_bytes(with_crc(with_config(checkpoint_body, config)))
        with pytest.raises(FormatError, match="config.tfck"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line", [b"epochs = abc", b"learning_rate = nan",
                                      b"temperature_init = 500", b"beta2 = 1.0",
                                      b"weight_decay = -5", b"eval_every = -1",
                                      b"frames = -3", b"audio_tokens = 0"])
    def test_crc_valid_config_bad_value_names_the_key(self, tmp_path, checkpoint_body,
                                                      line):
        key = line.split(b" ")[0]
        lines = config_to_text(TrainConfig(dim=4, proj_dim=4)).encode().splitlines()
        config = b"".join((line if old.split(b" ")[0] == key else old) + b"\n"
                          for old in lines)
        assert line in config.splitlines()
        path = tmp_path / "value.tfck"
        path.write_bytes(with_crc(with_config(checkpoint_body, config)))
        with pytest.raises(FormatError, match=f"value.tfck.*{key.decode()}"):
            load_checkpoint(path)

    def test_crc_valid_config_repeated_key_names_both_lines(self, tmp_path,
                                                            checkpoint_body):
        text = config_to_text(TrainConfig(dim=4, proj_dim=4))
        line = text.splitlines().index("epochs = 20") + 1
        config = (text + "epochs = 1\n").encode()
        path = tmp_path / "repeat.tfck"
        path.write_bytes(with_crc(with_config(checkpoint_body, config)))
        with pytest.raises(FormatError, match=f"repeat.tfck.*'epochs' repeats line {line}"):
            load_checkpoint(path)

    def test_crc_valid_snapshot_with_retired_keys_loads(self, tmp_path, checkpoint_body):
        # snapshots written while the worker count and the output affine
        # were settings hold both keys, whatever their values
        config = (config_to_text(TrainConfig(dim=4, proj_dim=4)).encode()
                  + b"threads = 0\noutput_affine = true\n")
        path = tmp_path / "retired.tfck"
        path.write_bytes(with_crc(with_config(checkpoint_body, config)))
        model, step, loaded = load_checkpoint(path)
        assert (step, loaded) == (3, TrainConfig(dim=4, proj_dim=4))
        got = named_parameters(model, trainable_only=False)
        for name, arr in named_parameters(create_model(seed=1, dim=4),
                                          trainable_only=False).items():
            np.testing.assert_array_equal(
                got[name], arr.astype(np.float32).astype(np.float64), err_msg=name)

    def test_crc_valid_snapshot_with_frozen_output_affine_rejected(self, tmp_path):
        # a model with a frozen output affine was saved without its
        # *.ln_o_* entries, which every model now has
        config = (config_to_text(TrainConfig(dim=4, proj_dim=4)).encode()
                  + b"output_affine = false\n")
        entries = {"__step__": np.array([[3.0]])}
        entries.update((name, arr) for name, arr in named_parameters(
            create_model(seed=1, dim=4), trainable_only=False).items()
            if ".ln_o_" not in name)
        body = (struct.pack("<4sIII", b"TFCK", 2, len(entries), len(config)) + config
                + b"".join(_encode_entry(name, arr) for name, arr in entries.items()))
        path = tmp_path / "frozen.tfck"
        path.write_bytes(with_crc(body))
        with pytest.raises(FormatError, match="frozen.tfck: parameter names do not "
                                              "match.*ln_o_"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,rows", [("video.w_q", 4), ("__step__", 1)])
    def test_crc_valid_repeated_entry_name(self, tmp_path, checkpoint_body, name, rows):
        # a second copy appended after the original used to load silently,
        # the last copy winning
        matrix = np.full((rows, rows), 7.0, dtype="<f4")
        entry = (struct.pack("<H", len(name)) + name.encode()
                 + struct.pack("<II", rows, rows) + matrix.tobytes())
        path = tmp_path / "repeat.tfck"
        path.write_bytes(with_crc(with_count(checkpoint_body, 1) + entry))
        with pytest.raises(FormatError, match=f"repeat.tfck: entry '{name}' appears"):
            load_checkpoint(path)

    def test_crc_valid_config_length_overruns_the_file(self, tmp_path, checkpoint_body):
        path = tmp_path / "overrun.tfck"
        path.write_bytes(with_crc(checkpoint_body[:12] + struct.pack("<I", 1 << 30)
                                  + checkpoint_body[16:]))
        with pytest.raises(FormatError, match="overrun.tfck"):
            load_checkpoint(path)


# Property tests.  JSON integers stay small: a manifest's audio_tokens sets
# the row count of the zero audio it materializes, so a huge value is a
# legitimately huge allocation, not a parse fault.
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
               | st.floats(allow_infinity=False) | st.text(max_size=6)
               | st.sampled_from(["text.emb1", "video.emb1", "audio.emb1",
                                  "audio_summary.emb1", "manifest.json", "", ".."]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=6)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, prefix + (i,))


@pytest.fixture(scope="module")
def stored_corpus(tmp_path_factory):
    corpus = synth_corpus(seed=8, n_items=4, dim=3, frames=2, audio_tokens=2)
    corpus.has_audio[1] = False
    corpus.audio[1] = 0.0
    return save_corpus(corpus, tmp_path_factory.mktemp("stored"))


class TestReaderProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_any_manifest_mutation_loads_or_raises_format_error(self, stored_corpus,
                                                                data):
        doc = json.loads(stored_corpus.read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            keys = data.draw(st.sampled_from(list(_node_paths(doc))))
            if keys and data.draw(st.booleans()):
                doc = pop(*keys)(doc)
            else:
                doc = put(data.draw(JSON_VALUES), *keys)(doc)
        mutated = write_manifest(stored_corpus.parent / "mutated.json", doc)
        try:
            corpus = load_corpus(mutated)
        except FormatError:
            return
        assert len(corpus) == len(corpus.texts) > 0

    @PROPERTY_SETTINGS
    @given(blob=st.binary(max_size=96)
           | st.builds(lambda head, body: with_crc(b"EMB1" + head + body),
                       st.binary(min_size=16, max_size=16), st.binary(max_size=64)))
    def test_any_emb1_bytes_load_or_raise_format_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.emb1"
        path.write_bytes(blob)
        try:
            items = read_embeddings(path)
        except FormatError:
            return
        assert items.ndim == 3

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_any_tfck_bytes_load_or_raise_format_error(self, tmp_path_factory,
                                                        checkpoint_body, data):
        # a version 2 body (config bytes) or the version 1 fixture's
        base = bytearray(data.draw(st.sampled_from(
            [checkpoint_body, V1_CHECKPOINT.read_bytes()[:-4]])))
        for _ in range(data.draw(st.integers(0, 3))):
            base[data.draw(st.integers(0, len(base) - 1))] = data.draw(st.integers(0, 255))
        blob = data.draw(st.sampled_from([with_crc(bytes(base)), bytes(base)])
                         | st.binary(max_size=96).map(lambda b: with_crc(b"TFCK" + b))
                         | st.binary(max_size=96))
        path = tmp_path_factory.getbasetemp() / "fuzz.tfck"
        path.write_bytes(blob)
        try:
            model, step, config = load_checkpoint(path)
        except FormatError:
            return
        assert step >= 0 and model.dim == config.dim


class TestCheckpoint:
    @pytest.mark.parametrize("modality,fusion", MODEL_KINDS)
    def test_bytes_equal_the_joined_framing(self, tmp_path, modality, fusion):
        model = create_model(seed=4, dim=4, fusion=fusion, modality=modality)
        config = TrainConfig(dim=4, proj_dim=4, fusion=fusion, modality=modality)
        path = tmp_path / "m.tfck"
        save_checkpoint(path, model, step=11, config=config)
        entries = {"__step__": np.array([[11.0]]),
                   **named_parameters(model, trainable_only=False)}
        assert path.read_bytes() == tfck_bytes(entries, config_to_text(config).encode())

    def test_version_1_file_loads_to_the_same_model_and_config(self, tmp_path):
        assert V1_CHECKPOINT.read_bytes()[4:8] == struct.pack("<I", 1)
        model, step, config = load_checkpoint(V1_CHECKPOINT)
        assert step == 7
        assert config == V1_CONFIG
        want = named_parameters(create_model(seed=3, dim=4, fusion="xattn"),
                                trainable_only=False)
        got = named_parameters(model, trainable_only=False)
        assert set(got) == set(want)
        for name, arr in want.items():
            np.testing.assert_array_equal(
                got[name], arr.astype(np.float32).astype(np.float64), err_msg=name)
        # saved again, it is a version 2 file holding the same model
        path = tmp_path / "v2.tfck"
        save_checkpoint(path, model, step, config)
        assert path.read_bytes()[4:8] == struct.pack("<I", 2)
        again, again_step, again_config = load_checkpoint(path)
        assert (again_step, again_config) == (step, config)
        for name, arr in named_parameters(again, trainable_only=False).items():
            np.testing.assert_array_equal(arr, got[name], err_msg=name)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = create_model(seed=7, dim=8, fusion="concat_fc")
        config = TrainConfig(dim=8, proj_dim=8, fusion="concat_fc")
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, model, step=123, config=config)
        loaded, step, loaded_config = load_checkpoint(path)
        assert step == 123
        assert loaded_config == config
        path2 = tmp_path / "b.ckpt"
        save_checkpoint(path2, loaded, step=step, config=loaded_config)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("step", [-1, 2.5, True, 2 ** 24 + 1, 123_456_789])
    def test_a_step_the_step_entry_cannot_hold_is_refused_before_writing(self, tmp_path,
                                                                        step):
        path = tmp_path / "s.ckpt"
        model, config = create_model(seed=0, dim=4), TrainConfig(dim=4, proj_dim=4)
        with pytest.raises(ValueError, match=f"got {step!r}"):
            save_checkpoint(path, model, step, config)
        assert not path.exists()
        save_checkpoint(path, model, np.int64(2 ** 24), config)
        assert load_checkpoint(path)[1] == 2 ** 24

    def test_parameters_survive_float32_quantization(self, tmp_path):
        model = create_model(seed=8, dim=8)
        config = TrainConfig(dim=8, proj_dim=8)
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, model, step=0, config=config)
        loaded, _, _ = load_checkpoint(path)
        for name, arr in named_parameters(model, trainable_only=False).items():
            expected = np.asarray(arr, dtype=np.float32).astype(np.float64)
            np.testing.assert_array_equal(
                named_parameters(loaded, trainable_only=False)[name], expected,
                err_msg=name)

    @pytest.mark.parametrize("offset", [0, 9, 60, -2])
    def test_corruption_detected(self, tmp_path, offset):
        model = create_model(seed=9, dim=8)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, model, step=5, config=TrainConfig(dim=8, proj_dim=8))
        size = len(path.read_bytes())
        corrupt_byte(path, offset % size)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trained_model_round_trips_through_checkpoint(self, tmp_path):
        corpus = synth_corpus(seed=10, n_items=24, dim=8, frames=2, audio_tokens=3)
        config = TrainConfig(dim=8, proj_dim=8, frames=2, audio_tokens=3,
                             batch_size=8, epochs=2, learning_rate=3e-3, seed=1)
        result = train(config, corpus)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, result.model, result.steps, result.config)
        loaded, steps, _ = load_checkpoint(path)
        assert steps == result.steps
        # float32 quantization moves scores a little; rankings must agree
        # exactly once both sides are quantized
        requantized = load_checkpoint(path)[0]
        np.testing.assert_array_equal(similarity_matrix(loaded, corpus),
                                      similarity_matrix(requantized, corpus))
        ev = evaluate(loaded, corpus)
        assert ev.t2v.r1 >= 0.0  # smoke: evaluable after reload