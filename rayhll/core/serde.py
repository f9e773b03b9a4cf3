"""Storage-spec v1.0.0 serialization — byte-exact with the reference.

Layout (reference: python_hll/serialization.py:381-523, python_hll/hll.py:693-855):

3 header bytes for all types:

* byte 0: schema-version nibble (1) << 4 | type ordinal nibble
  (UNDEFINED=0, EMPTY=1, EXPLICIT=2, SPARSE=3, FULL=4);
* byte 1: (regwidth - 1) << 5 | log2m;
* byte 2: pad bit, sparse-enabled bit (bit 6), 6-bit explicit-cutoff field
  with sentinels 0 = explicit-off and 63 = auto, else log2(cutoff) + 1.

Body, big-endian ascending words (see :mod:`rayhll.core.bitpack`):

* EMPTY: no body;
* EXPLICIT: the raw values sorted signed-ascending as 64-bit words;
* SPARSE: non-zero registers sorted by index, packed as
  ``(index << regwidth) | value`` short words of ``regwidth + log2m`` bits;
* FULL: all m registers as regwidth-bit words.

Deserialization padding caveats are honored: FULL reads exactly m words
(reference: python_hll/hll.py:842-850) and SPARSE drops zero-valued registers
fabricated by byte padding (reference: python_hll/hll.py:826-840).

This byte format is the interop contract with java-hll / js-hll /
postgresql-hll and the block-boundary exchange format of the Ray engine:
every sketch that crosses a task/actor boundary does so as these bytes.
"""

from __future__ import annotations

import numpy as np

from rayhll.core import bitpack
from rayhll.core.hlltype import HllType
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch

SCHEMA_VERSION = 1
HEADER_BYTES = 3
EXPLICIT_OFF_SENTINEL = 0
EXPLICIT_AUTO_SENTINEL = 63


def schema_version_of(data: bytes | bytearray | memoryview) -> int:
    """Schema-version nibble of a serialized sketch's first byte."""
    if len(data) < 1:
        raise ValueError("serialized HLL too short (0 bytes)")
    return (data[0] >> 4) & 0x0F


def header(settings: HllSettings, type: HllType) -> bytes:
    """The 3 header bytes of a ``type`` sketch with ``settings``."""
    s = settings
    if s.explicit_off:
        cutoff = EXPLICIT_OFF_SENTINEL
    elif s.explicit_auto:
        cutoff = EXPLICIT_AUTO_SENTINEL
    else:
        cutoff = s.log2_explicit_threshold() + 1
    byte0 = (SCHEMA_VERSION << 4) | int(type)
    byte1 = ((s.regwidth - 1) << 5) | s.log2m
    byte2 = ((0 if s.sparse_off else 1) << 6) | (cutoff & 0x3F)
    return bytes((byte0, byte1, byte2))


def to_bytes(sketch: HllSketch) -> bytes:
    """Serialize ``sketch`` per storage-spec v1.0.0
    (reference: python_hll/hll.py:693-767)."""
    s = sketch.settings
    t = sketch.get_type()
    if t == HllType.EMPTY:
        body = bytearray(HEADER_BYTES)
    elif t == HllType.EXPLICIT:
        values = np.fromiter(
            sketch._explicit, dtype=np.int64, count=len(sketch._explicit)
        )
        values.sort()  # signed ascending (reference: python_hll/hll.py:715-716)
        body = bytearray(HEADER_BYTES) + values.astype(">i8").tobytes()
    elif t == HllType.SPARSE:
        idx, vals = sketch._sparse_items()  # index-ascending
        shorts = (idx.astype(np.uint64) << np.uint64(s.regwidth)) | vals.astype(np.uint64)
        body = bitpack.pack_words(shorts, s.short_word_length, HEADER_BYTES)
    elif t == HllType.FULL:
        body = bytearray(HEADER_BYTES) + bitpack.pack_registers(sketch._regs[None], s.regwidth).tobytes()
    else:
        raise ValueError(f"Unsupported HLL type: {t}")
    body[:HEADER_BYTES] = header(s, t)
    return bytes(body)


def from_bytes(data: bytes | bytearray | memoryview) -> HllSketch:
    """Deserialize serialized-sketch bytes, dispatching on the header's
    schema-version nibble through the pluggable registry
    (reference: python_hll/serialization.py:563-578, hll.py:769-855)."""
    data = bytes(data)
    if len(data) < HEADER_BYTES:
        raise ValueError(f"serialized HLL too short ({len(data)} bytes)")
    return get_schema_version(schema_version_of(data)).deserialize(data)


def _from_bytes_v1(data: bytes) -> HllSketch:
    """Schema-version-1 body decoder (reference: python_hll/hll.py:769-855)."""
    type_ordinal = data[0] & 0x0F
    try:
        t = HllType(type_ordinal)
    except ValueError:
        raise ValueError(f"invalid type ordinal {type_ordinal}") from None
    if t == HllType.UNDEFINED:
        raise ValueError("UNDEFINED HLL type cannot be deserialized")
    settings = _settings_from_bytes_v1(data)
    sketch = HllSketch(settings, t)
    if t == HllType.EMPTY:
        return sketch

    if t == HllType.EXPLICIT:
        body = np.frombuffer(data, dtype=np.uint8, offset=HEADER_BYTES)
        word_count = len(body) // 8
        values = body[: word_count * 8].view(">i8").astype(np.int64)
        sketch._explicit = set(values.tolist())
        return sketch

    if t == HllType.SPARSE:
        words = bitpack.unpack_words(data, settings.short_word_length, HEADER_BYTES)
        vals = (words & np.uint64(settings.value_mask)).astype(np.uint8)
        keep = vals != 0  # padding-fabricated zero registers are dropped
        idx = (words[keep] >> np.uint64(settings.regwidth)).astype(np.int64)
        vals = vals[keep]
        if sketch._sparse is not None:
            sketch._sparse = dict(zip(idx.tolist(), vals.tolist()))
            sketch._nnz = len(sketch._sparse)
        else:
            sketch._regs[idx] = vals
            sketch._nnz = len(idx)
        return sketch

    # FULL: read exactly m words, ignoring any byte-padding tail.
    body = np.frombuffer(data, dtype=np.uint8, offset=HEADER_BYTES)
    nbytes = settings.m * settings.regwidth // 8
    if len(body) < nbytes:
        raise ValueError(
            f"FULL HLL body holds {len(body) * 8 // settings.regwidth} words, expected {settings.m}"
        )
    sketch._regs = bitpack.unpack_registers(body[None, :nbytes], settings.regwidth)[0]
    return sketch


def settings_from_bytes(data: bytes) -> HllSettings:
    """Reconstruct HllSettings from a serialized sketch's header, dispatching
    on the schema version."""
    return get_schema_version(schema_version_of(data)).settings_from_header(data)


def _settings_from_bytes_v1(data: bytes) -> HllSettings:
    byte1, byte2 = data[1], data[2]
    regwidth = ((byte1 >> 5) & 0x07) + 1
    log2m = byte1 & 0x1F
    sparseon = ((byte2 >> 6) & 1) == 1
    cutoff = byte2 & 0x3F
    # expthresh reconstruction (reference: python_hll/hll.py:788-796): the
    # postgres-compatible constructor subtracts one before the power of two,
    # so the encoded (log2cutoff + 1) field IS the expthresh value.
    if cutoff == EXPLICIT_AUTO_SENTINEL:
        expthresh = -1
    elif cutoff == EXPLICIT_OFF_SENTINEL:
        expthresh = 0
    else:
        expthresh = cutoff
    return HllSettings(log2m, regwidth, expthresh, sparseon)


# ----------------------------------------------------------------------
# Pluggable schema-version registry (reference: python_hll/serialization.py:
# 526-578 — SerializationUtil.get_schema_version + SCHEMA_VERSIONS).  v1 is
# the only spec in the wild; a future v2 registers here without touching any
# from_bytes caller.


class SchemaVersionOne:
    """Storage-spec v1.0.0 (reference: python_hll/serialization.py:381-523)."""

    schema_version_number = 1

    def serialize(self, sketch: HllSketch) -> bytes:
        return to_bytes(sketch)

    def deserialize(self, data: bytes) -> HllSketch:
        return _from_bytes_v1(data)

    def settings_from_header(self, data: bytes) -> HllSettings:
        return _settings_from_bytes_v1(data)


SCHEMA_VERSIONS: dict[int, object] = {1: SchemaVersionOne()}
DEFAULT_SCHEMA_VERSION = 1


def register_schema_version(impl) -> None:
    """Register a schema-version implementation (``schema_version_number``,
    ``serialize``, ``deserialize``, ``settings_from_header``).  The version
    number must fit the 4-bit header nibble."""
    v = impl.schema_version_number
    if not 0 <= v <= 15:
        raise ValueError(f"schema version {v} does not fit the 4-bit header nibble")
    SCHEMA_VERSIONS[v] = impl


def get_schema_version(version: int):
    """Look up a registered schema version; raises on unknown versions
    (reference: python_hll/serialization.py:563-578)."""
    try:
        return SCHEMA_VERSIONS[version]
    except KeyError:
        raise ValueError(
            f"unsupported schema version {version} "
            f"(registered: {sorted(SCHEMA_VERSIONS)})"
        ) from None


# ----------------------------------------------------------------------
# PostgreSQL hex wire format (reference: python_hll/util.py:400-474):
# uppercase hex of the byte sequence in array order, with a leading "\x".


def to_hex(data: bytes) -> str:
    """Bytes -> uppercase hex (no prefix)."""
    return data.hex().upper()


def from_hex(text: str) -> bytes:
    """Hex (case-insensitive, no prefix) -> bytes."""
    return bytes.fromhex(text)


def to_pg_hex(data: bytes) -> str:
    """Bytes -> PostgreSQL ``\\x``-prefixed hex string."""
    return "\\x" + to_hex(data)


def from_pg_hex(text: str) -> bytes:
    """PostgreSQL ``\\x``-prefixed hex string -> bytes."""
    if text.startswith("\\x"):
        text = text[2:]
    return from_hex(text)
