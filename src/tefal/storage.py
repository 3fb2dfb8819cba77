"""Binary containers and the corpus manifest.

Embedding container ("EMB1"):

    magic "EMB1" | u32 version | u32 item_count | u32 rows_per_item |
    u32 cols | item_count * rows * cols float32 little-endian | u32 CRC32

Checkpoint container ("TFCK", version 2):

    magic "TFCK" | u32 version | u32 param_count |
    u32 config length | UTF-8 config text |
    per parameter: u16 name length | UTF-8 name | u32 rows | u32 cols |
                   rows * cols float32 little-endian |
    u32 CRC32

Both CRCs cover every preceding byte.  Filter-bank features reuse the EMB1
container with one item of shape (target_length, n_mels).  The checkpoint's
step counter travels as the reserved entry ``__step__``; version 1 files
held the config as an entry of one code point per float32 cell.  All
arrays are float32 on disk and float64 in memory.
"""

import json
import struct
import zlib
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .audiofeat import MelFilterBank
from .config import TrainConfig, config_to_text, parse_config_text
from .corpus import Corpus
from .linalg import require_int
from .model import RetrievalModel, create_model, named_parameters

__all__ = [
    "FormatError", "write_embeddings", "read_embeddings",
    "write_fbank", "read_fbank", "save_corpus", "load_corpus",
    "save_checkpoint", "load_checkpoint",
]

EMB_MAGIC = b"EMB1"
CKPT_MAGIC = b"TFCK"
EMB_VERSION = 1
CKPT_VERSION = 2
MANIFEST_VERSION = 1
# float32, the type of the ``__step__`` entry, holds every integer up to 2**24
MAX_STEP = 2 ** 24

_EMB_HEADER = struct.Struct("<4sIIII")
_CKPT_HEADER = struct.Struct("<4sII")


class FormatError(ValueError):
    """Corrupt, truncated, or mismatched on-disk data."""


def _write_framed(path, head: bytes, *parts) -> None:
    """Write ``head`` (magic, version and header fields), ``parts`` (any
    C-contiguous buffers) and the CRC32 of all their bytes, streaming each
    part to the file as its CRC is updated."""
    crc = zlib.crc32(head)
    with open(path, "wb") as f:
        f.write(head)
        for part in parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


def _read_framed(path, header: struct.Struct, magic: bytes, versions: tuple,
                 header_name: str, version_name: str, size=None):
    """``(blob, header fields)`` of a file written by :func:`_write_framed`,
    after checking its length, magic, version, ``size(fields)`` (the whole
    file's length) if given, and CRC, in that order."""
    blob = Path(path).read_bytes()
    if len(blob) < header.size + 4:
        raise FormatError(f"{path}: file too short for {header_name}")
    fields = header.unpack_from(blob)
    if fields[0] != magic:
        raise FormatError(f"{path}: bad magic {fields[0]!r}, expected {magic!r}")
    if fields[1] not in versions:
        raise FormatError(f"{path}: unsupported {version_name} {fields[1]}")
    if size is not None and len(blob) != size(fields):
        raise FormatError(f"{path}: expected {size(fields)} bytes, found {len(blob)}")
    if zlib.crc32(memoryview(blob)[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise FormatError(f"{path}: CRC mismatch")
    return blob, fields


def write_embeddings(path, items: np.ndarray) -> None:
    """Write an (item_count, rows, cols) array as an EMB1 file."""
    items = np.asarray(items)
    if items.ndim != 3:
        raise FormatError(f"embedding payload must be 3-D, got shape {items.shape}")
    _write_framed(path, _EMB_HEADER.pack(EMB_MAGIC, EMB_VERSION, *items.shape),
                  np.ascontiguousarray(items, dtype="<f4"))


def read_embeddings(path) -> np.ndarray:
    """Read an EMB1 file into a float64 (item_count, rows, cols) array; a
    non-finite value raises :class:`FormatError` naming its item."""
    blob, (_, _, count, rows, cols) = _read_framed(
        path, _EMB_HEADER, EMB_MAGIC, (EMB_VERSION,), "an EMB1 header", "version",
        size=lambda fields: _EMB_HEADER.size + 4 * fields[2] * fields[3] * fields[4] + 4)
    data = np.frombuffer(blob, dtype="<f4", count=count * rows * cols,
                         offset=_EMB_HEADER.size)
    finite = np.isfinite(data)
    if not finite.all():
        item = int(np.argmin(finite)) // (rows * cols)
        raise FormatError(f"{path}: item {item} holds a non-finite value")
    return data.reshape(count, rows, cols).astype(np.float64)


def write_fbank(path, fbank: MelFilterBank) -> None:
    """Write a filter bank's frames as a one-item EMB1 file."""
    write_embeddings(path, fbank.frames[None, :, :])


def read_fbank(path) -> MelFilterBank:
    """The filter bank of a :func:`write_fbank` file, which must hold one
    item.  The file stores no frame shift: ``frame_shift_ms`` is NaN
    (unknown), except for an all-zero bank, which reads as
    :func:`tefal.audiofeat.zero_fbank` does, shift 0.0 and ``missing``."""
    items = read_embeddings(path)
    if items.shape[0] != 1:
        raise FormatError(f"{path}: filter-bank file must hold exactly one item")
    frames = items[0]
    missing = not np.any(frames)
    return MelFilterBank(frames=frames, frame_shift_ms=0.0 if missing else float("nan"),
                         missing=missing)


# ---------------------------------------------------------------------------
# corpus manifest
# ---------------------------------------------------------------------------

def save_corpus(corpus: Corpus, directory) -> Path:
    """Write a corpus as EMB1 files plus a manifest; returns the manifest
    path.  Items without audio get a null audio index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_embeddings(directory / "text.emb1", corpus.texts[:, None, :])
    write_embeddings(directory / "video.emb1", corpus.frames)

    files = {"text": "text.emb1", "video": "video.emb1"}
    audio_index = {}
    with_audio = np.flatnonzero(corpus.has_audio).tolist()
    if with_audio:
        write_embeddings(directory / "audio.emb1", corpus.audio[with_audio])
        files["audio"] = "audio.emb1"
        audio_index = {i: slot for slot, i in enumerate(with_audio)}
    if corpus.summary_tokens is not None:
        write_embeddings(directory / "audio_summary.emb1", corpus.summary_tokens)
        files["audio_summary"] = "audio_summary.emb1"

    head = json.dumps({"version": MANIFEST_VERSION, "files": files, "items": [],
                       "audio_tokens": int(corpus.audio_token_count)}, indent=2)
    path = directory / "manifest.json"
    path.write_text(head.replace('"items": []', _manifest_items(corpus, audio_index), 1)
                    + "\n", encoding="utf-8")
    return path


# one item as ``json.dumps(manifest, indent=2)`` lays it out
_MANIFEST_ITEM = ('\n    {\n      "id": %s,\n      "text": %d,\n      "video": %d,'
                  '\n      "audio": %s,\n      "has_audio": %s,'
                  '\n      "audio_summary": %s\n    }')


def _manifest_items(corpus: Corpus, audio_index: dict) -> str:
    """The manifest's ``"items"`` member, byte for byte as
    ``json.dumps(..., indent=2)`` writes it, without that call's pure-Python
    encoder.  Ids are escaped as ``ensure_ascii`` escapes them; an id that
    is not a string raises TypeError."""
    with_summary = corpus.summary_tokens is not None
    items = ",".join(
        _MANIFEST_ITEM % (encode_basestring_ascii(item_id), i, i,
                          audio_index.get(i, "null"), "true" if i in audio_index else "false",
                          i if with_summary else "null")
        for i, item_id in enumerate(corpus.ids))
    return f'"items": [{items}\n  ]' if items else '"items": []'


_REQUIRED = object()
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               bool: "boolean"}


def _get(mapping: dict, key: str, kind: type, path, where: str, default=_REQUIRED):
    """``mapping[key]``, which must be a ``kind`` (or ``None`` when
    ``default`` is); a missing or mistyped value is a FormatError."""
    if key not in mapping:
        if default is _REQUIRED:
            raise FormatError(f"{path}: {where} has no {key!r} key")
        return default
    value = mapping[key]
    if value is None and default is None:
        return None
    if type(value) is not kind:
        raise FormatError(f"{path}: {where} {key!r} must be a JSON "
                          f"{_JSON_NAMES[kind]}, got {value!r}")
    return value


def _field(path, items: list, key: str, kind: type, size: int | None = None,
           positions=None, values=None) -> list:
    """``item[key]`` of the items at ``positions`` (all by default), or
    ``values``: each must be a ``kind`` and, with ``size``, an index in
    [0, size).  The first bad value is a FormatError."""
    positions = range(len(items)) if positions is None else positions
    if values is None:
        values = [items[pos].get(key) for pos in positions]
    # the common case checked at C speed; the loop below names the first bad item
    if set(map(type, values)) <= {kind} and (
            size is None or not values or 0 <= min(values) and max(values) < size):
        return values
    for pos, value in zip(positions, values):
        if type(value) is not kind:
            raise FormatError(f"{path}: item {pos}: {key!r} must be a JSON "
                              f"{_JSON_NAMES[kind]}, got {value!r}")
        if size is not None and not 0 <= value < size:
            raise FormatError(f"{path}: item {pos}: {key} index {value} out of "
                              f"range [0, {size})")
    return values


def _read_listed(manifest_path: Path, name: str) -> np.ndarray:
    """Read an EMB1 file the manifest names, relative to the manifest."""
    try:
        return read_embeddings(manifest_path.parent / name)
    except FormatError:
        raise
    except (OSError, ValueError) as exc:
        raise FormatError(f"{manifest_path}: cannot read listed file {name!r} "
                          f"({exc})") from None


def _take(array: np.ndarray, index: list) -> np.ndarray:
    """``array[index]``, or ``array`` itself when ``index`` is every row in
    order, as :func:`save_corpus` writes it (the file's array is fresh)."""
    return array if index == list(range(len(array))) else array[index]


def load_corpus(manifest_path) -> Corpus:
    """Materialize a corpus from a manifest; missing audio becomes zero rows.
    The manifest's own rules (its JSON types, indices, listed files and
    ``audio_tokens``) are checked here, the corpus's by
    :class:`tefal.corpus.Corpus`; a break of either, or a malformed listed
    file, raises :class:`FormatError` with the manifest's path."""
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version")
    files = _get(manifest, "files", dict, path, "manifest")
    items = _get(manifest, "items", list, path, "manifest")
    if not items:
        raise FormatError(f"{path}: manifest lists no items")

    texts_file = _read_listed(path, _get(files, "text", str, path, "files"))
    video_file = _read_listed(path, _get(files, "video", str, path, "files"))
    audio_name = _get(files, "audio", str, path, "files", default=None)
    summary_name = _get(files, "audio_summary", str, path, "files", default=None)
    audio_file = None if audio_name is None else _read_listed(path, audio_name)
    summary_file = None if summary_name is None else _read_listed(path, summary_name)

    if texts_file.shape[1] != 1:
        raise FormatError(f"{path}: text embeddings must have one row per item")
    n_audio_tokens = _get(manifest, "audio_tokens", int, path, "manifest", default=1)
    if audio_file is not None:
        n_audio_tokens = audio_file.shape[1]
    elif n_audio_tokens < 1:
        raise FormatError(f"{path}: audio_tokens must be positive, got {n_audio_tokens}")

    if not set(map(type, items)) <= {dict}:
        pos = next(pos for pos, entry in enumerate(items) if type(entry) is not dict)
        raise FormatError(f"{path}: item {pos} must be a JSON object")
    ids = _field(path, items, "id", str)
    text_rows = _field(path, items, "text", int, texts_file.shape[0])
    video_rows = _field(path, items, "video", int, video_file.shape[0])
    has_audio = [entry.get("has_audio", entry.get("audio") is not None)
                 for entry in items]
    _field(path, items, "has_audio", bool, values=has_audio)
    with_audio = [pos for pos, has in enumerate(has_audio) if has]
    if not with_audio:
        audio = np.zeros((len(items), n_audio_tokens, texts_file.shape[2]))
    elif audio_file is None:
        raise FormatError(f"{path}: item {with_audio[0]}: has_audio set but "
                          "the manifest lists no audio file")
    else:
        # at most one gather; items without audio take slot 0, then zeros
        slots = [0] * len(items)
        for pos, slot in zip(with_audio, _field(path, items, "audio", int,
                                                audio_file.shape[0], with_audio)):
            slots[pos] = slot
        audio = _take(audio_file, slots)
        audio[np.logical_not(has_audio)] = 0.0
    summary = None
    if summary_file is not None:
        summary = _take(summary_file, _field(path, items, "audio_summary", int,
                                             summary_file.shape[0]))

    try:
        return Corpus(ids=ids, texts=_take(texts_file, text_rows)[:, 0],
                      frames=_take(video_file, video_rows), audio=audio,
                      has_audio=np.array(has_audio, dtype=bool), summary_tokens=summary)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _encode_entry(name: str, matrix: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    rows, cols = matrix.shape
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack("<II", rows, cols)
            + np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def save_checkpoint(path, model: RetrievalModel, step: int,
                    config: TrainConfig) -> None:
    """Write a TFCK file; a ``step`` that fails :func:`tefal.linalg.require_int`
    in [0, ``MAX_STEP``] raises ``ValueError`` before anything is written."""
    require_int(step, "step", maximum=MAX_STEP)
    entries = [("__step__", np.array([[float(step)]]))]
    entries.extend(named_parameters(model, trainable_only=False).items())
    config_bytes = config_to_text(config).encode("utf-8")
    _write_framed(path, _CKPT_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, len(entries)),
                  struct.pack("<I", len(config_bytes)), config_bytes,
                  *(_encode_entry(name, matrix) for name, matrix in entries))


def _matrix_to_text(matrix: np.ndarray, path) -> str:
    """The config text of a version 1 ``__config__`` entry."""
    codes = matrix.reshape(-1)
    if not np.all((codes >= 0) & (codes < 0x110000) & (codes == np.round(codes))):
        raise FormatError(f"{path}: config entry holds a cell that is not a code point")
    return "".join(chr(int(c)) for c in codes)


def load_checkpoint(path):
    """``(model, step, config)`` from a TFCK file.  A malformed file, or
    parameters that do not match the config or are not finite, raises
    :class:`FormatError` with the path."""
    blob, (_, version, count) = _read_framed(path, _CKPT_HEADER, CKPT_MAGIC,
                                             (1, CKPT_VERSION), "a checkpoint header",
                                             "checkpoint version")
    end = len(blob) - 4
    offset = _CKPT_HEADER.size

    def take(size: int) -> int:
        nonlocal offset
        if offset + size > end:
            raise FormatError(f"{path}: entry table of {count} entries overruns "
                              "the file")
        offset += size
        return offset - size

    if version >= 2:
        (config_len,) = struct.unpack_from("<I", blob, take(4))
        start = take(config_len)
        try:
            config_text = blob[start:start + config_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: config snapshot is not UTF-8") from None

    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, take(2))
        start = take(name_len)
        try:
            name = blob[start:start + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name is not UTF-8") from None
        if name in entries:
            raise FormatError(f"{path}: entry {name!r} appears more than once")
        rows, cols = struct.unpack_from("<II", blob, take(8))
        data = np.frombuffer(blob, dtype="<f4", count=rows * cols,
                             offset=take(4 * rows * cols))
        entries[name] = data.reshape(rows, cols).astype(np.float64)
    if offset != end:
        raise FormatError(f"{path}: trailing bytes after parameter entries")

    try:
        step = entries.pop("__step__")
        if version == 1:
            config_text = _matrix_to_text(entries.pop("__config__"), path)
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint is missing {exc} entry") from None
    if step.shape != (1, 1) or not (step[0, 0] >= 0 and step[0, 0].is_integer()):
        raise FormatError(f"{path}: step entry must be one non-negative integer")
    try:
        # snapshots written before the worker count and the output affine
        # became constants hold their keys: blank those lines (keeping the
        # line numbers); a frozen affine then fails the name check below
        config_text = "\n".join(
            "" if line.partition("=")[0].strip() in ("threads", "output_affine")
            else line for line in config_text.splitlines())
        config = TrainConfig(**parse_config_text(config_text)).validate()
        # build a model only once the file holds one block's D x D_p
        # weights, so that a bad config cannot size a huge allocation
        w_q = entries.get("video.w_q")
        if w_q is None or w_q.shape != (config.dim, config.proj_dim):
            raise ValueError(f"video.w_q does not match dim {config.dim}")
        model = create_model(seed=0, dim=config.dim, proj_dim=config.proj_dim,
                             fusion=config.fusion, modality=config.modality)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid config snapshot ({exc})") from None
    target = named_parameters(model, trainable_only=False)
    if set(target) != set(entries):
        missing = set(target) ^ set(entries)
        raise FormatError(f"{path}: parameter names do not match the config "
                          f"snapshot (difference: {sorted(missing)[:4]})")
    for name, arr in entries.items():
        if target[name].shape != arr.shape:
            raise FormatError(f"{path}: parameter {name!r} has shape {arr.shape}, "
                              f"expected {target[name].shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: parameter {name!r} holds a non-finite value")
        target[name][...] = arr
    return model, int(step[0, 0]), config
