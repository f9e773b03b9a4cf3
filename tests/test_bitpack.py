"""Bit-level tests for the big-endian ascending word packer.

Ports the reference's serializer test strategy
(reference: tests/test_big_endian_ascending_word_serializer.py:63-80 hand
vectors; tests/test_big_endian_ascending_word_deserializer.py:62-126
round-trip fuzz over every word length)."""

from __future__ import annotations

import numpy as np
import pytest

from rayhll.core.bitpack import pack_words, unpack_words


def test_docstring_hand_vector():
    """[31, 1, 5] at 5 bits -> [0xF8, 0x4A]
    (reference: python_hll/serialization.py:160-170)."""
    out = pack_words(np.array([31, 1, 5], dtype=np.uint64), 5, byte_padding=0)
    assert bytes(out) == bytes([0xF8, 0x4A])


def test_sign_bit_preserving_64bit_words():
    """Two 64-bit words incl. a negative value serialize as their exact
    big-endian bytes (reference: serializer test :63-80 semantics)."""
    words = np.array([-1, 112], dtype=np.int64).view(np.uint64)
    out = pack_words(words, 64, byte_padding=0)
    assert bytes(out) == b"\xff" * 8 + b"\x00" * 7 + b"\x70"


def test_padding_bytes_prefix():
    out = pack_words(np.array([1], dtype=np.uint64), 8, byte_padding=3)
    assert bytes(out) == b"\x00\x00\x00\x01"
    assert bytes(pack_words(np.empty(0, dtype=np.uint64), 13, byte_padding=3)) == b"\x00\x00\x00"


@pytest.mark.parametrize("word_length", list(range(1, 65)))
def test_roundtrip_fuzz_every_word_length(word_length):
    rng = np.random.default_rng(word_length)
    n = 257
    if word_length == 64:
        words = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64).view(np.uint64) | (
            rng.integers(0, 2, size=n, dtype=np.int64).view(np.uint64) << np.uint64(63)
        )
    else:
        words = rng.integers(0, 2**word_length, size=n, dtype=np.uint64)
    data = bytes(pack_words(words, word_length, byte_padding=3))
    back = unpack_words(data, word_length, byte_padding=3)
    # total_word_count is an upper bound: padding may fabricate a zero tail
    assert len(back) >= n
    assert np.array_equal(back[:n], words)
    assert (back[n:] == 0).all()


@pytest.mark.parametrize("word_length", [1, 5, 7, 13, 33, 63])
def test_ascending_sequence_roundtrip(word_length):
    limit = min(2**word_length, 100_000)
    words = np.arange(limit, dtype=np.uint64)
    data = bytes(pack_words(words, word_length, byte_padding=0))
    back = unpack_words(data, word_length, byte_padding=0)
    assert np.array_equal(back[: len(words)], words)


@pytest.mark.parametrize("word_length", [1, 5, 8, 13, 16, 24, 33, 38, 63, 64])
def test_rows_pack_as_separate_streams(word_length):
    """pack_rows / unpack_rows equal pack_words / unpack_words row by row,
    including rows of zero words."""
    from rayhll.core.bitpack import pack_rows, unpack_rows

    rng = np.random.default_rng(word_length)
    counts = np.array([3, 0, 1, 17, 8, 0, 5], dtype=np.int64)
    words = rng.integers(0, 2**63, size=counts.sum(), dtype=np.uint64) >> np.uint64(64 - word_length)
    data, nbytes = pack_rows(words, counts, word_length)
    rows = np.split(words, np.cumsum(counts)[:-1])
    want = [bytes(pack_words(r, word_length, byte_padding=0)) for r in rows]
    assert nbytes.tolist() == [len(w) for w in want]
    assert data.tobytes() == b"".join(want)
    back, back_counts = unpack_rows(data, nbytes, word_length)
    assert back_counts.tolist() == [len(unpack_words(w, word_length, 0)) for w in want]
    assert np.array_equal(back, np.concatenate([unpack_words(w, word_length, 0) for w in want]))


@pytest.mark.parametrize("regwidth", range(1, 9))
def test_registers_pack_as_word_streams(regwidth):
    from rayhll.core.bitpack import pack_registers, unpack_registers

    rng = np.random.default_rng(regwidth)
    regs = rng.integers(0, 1 << regwidth, size=(3, 64), dtype=np.uint8)
    packed = pack_registers(regs, regwidth)
    assert [row.tobytes() for row in packed] == [
        bytes(pack_words(r, regwidth, byte_padding=0)) for r in regs
    ]
    assert np.array_equal(unpack_registers(packed, regwidth), regs)
