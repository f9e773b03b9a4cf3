"""Vectorized big-endian ascending word (de)packing.

Byte-layout contract of storage-spec v1.0.0's word streams
(reference: python_hll/serialization.py:149-275): fixed-width words are packed
MSB-first; a high byte of a word lands at a lower array index than a low byte;
the first word occupies the lowest index; the final byte is zero-padded in its
low bits.  The reference packs word-at-a-time in pure Python; here many
streams at once are one ``np.unpackbits``/``np.packbits`` round (np.packbits's
trailing zero-pad is exactly the spec's final-byte padding), and register
files, whose 8 registers always fill whole bytes, pack with integer shifts.

The deserializer mirrors the reference's padding caveat
(reference: python_hll/serialization.py:134-146): ``data_bits // word_length``
is only an upper bound on the word count, so callers slice FULL streams to
exactly ``m`` words and drop zero-valued SPARSE registers.
"""

from __future__ import annotations

import numpy as np


def span_mask(n: int, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Bool mask of length ``n``, True on every ``[starts[i], stops[i])``;
    the spans must be ascending and disjoint."""
    runs = np.empty(2 * len(starts) + 1, dtype=np.int64)  # gap, span, gap, ...
    runs[0:-1:2] = starts - np.r_[0, stops[:-1]]
    runs[1::2] = stops - starts
    runs[-1] = n - (stops[-1] if len(stops) else 0)
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


def pack_rows(
    words: np.ndarray, counts: np.ndarray, word_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack consecutive runs of ``words`` (``counts[i]`` words for row i, any
    int dtype, values < 2**word_length) into one bit stream per row, each
    zero-padded to a whole byte.  Returns the streams concatenated (uint8)
    and the byte length of each."""
    nbits = np.asarray(counts, dtype=np.int64) * word_length
    nbytes = (nbits + 7) // 8
    w = np.ascontiguousarray(words, dtype=np.uint64).astype(">u8").view(np.uint8).reshape(-1, 8)
    if word_length % 8 == 0:  # whole-byte words: their low bytes, no padding
        return w[:, 8 - word_length // 8 :].ravel(), nbytes
    # Bits of each word, MSB first, truncated to the low word_length bits.
    bits = np.unpackbits(w, axis=1)[:, 64 - word_length:]
    bits = bits.ravel()
    pad = (nbytes * 8 - nbits)[:-1]  # np.packbits pads the last stream
    if pad.any():
        bits = np.insert(bits, np.repeat(np.cumsum(nbits[:-1]), pad), 0)
    return np.packbits(bits), nbytes


def unpack_rows(
    data: np.ndarray, nbytes: np.ndarray, word_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every whole word of each bit stream in ``data`` (uint8; stream i is
    the next ``nbytes[i]`` bytes).  Returns the words (uint64) and the count
    per stream, ``data_bits // word_length`` (an upper bound: see module
    docstring)."""
    nbytes = np.asarray(nbytes, dtype=np.int64)
    counts = nbytes * 8 // word_length
    if word_length % 8 == 0:  # whole-byte words
        size = word_length // 8
        if (nbytes % size)[:-1].any():
            starts = np.cumsum(nbytes) - nbytes
            data = data[span_mask(nbytes.sum(), starts, starts + counts * size)]
        padded = np.zeros((counts.sum(), 8), dtype=np.uint8)
        padded[:, 8 - size:] = data[: counts.sum() * size].reshape(-1, size)
        return padded.view(">u8").ravel().astype(np.uint64), counts
    bits = np.unpackbits(data[: nbytes.sum()])
    if (nbytes * 8 - counts * word_length)[:-1].any():
        starts = 8 * (np.cumsum(nbytes) - nbytes)
        bits = bits[span_mask(len(bits), starts, starts + counts * word_length)]
    bits = bits[: counts.sum() * word_length]
    padded = np.zeros((len(bits) // word_length, 64), dtype=np.uint8)
    padded[:, 64 - word_length:] = bits.reshape(-1, word_length)
    return np.packbits(padded, axis=1).view(">u8").ravel().astype(np.uint64), counts


def pack_words(words: np.ndarray, word_length: int, byte_padding: int = 3) -> bytearray:
    """Pack ``words`` (any int dtype, values < 2**word_length) into a
    big-endian ascending bit stream preceded by ``byte_padding`` zero bytes."""
    return bytearray(byte_padding) + pack_rows(words, [len(words)], word_length)[0].tobytes()


def unpack_words(
    data: bytes | bytearray | memoryview, word_length: int, byte_padding: int = 3
) -> np.ndarray:
    """Unpack every whole word from a big-endian ascending bit stream.

    Returns a uint64 array of ``data_bits // word_length`` words (upper bound;
    the tail may contain fabricated zero words from byte padding — see module
    docstring).
    """
    body = np.frombuffer(data, dtype=np.uint8, offset=byte_padding)
    return unpack_rows(body, [len(body)], word_length)[0]


def _register_shifts(regwidth: int) -> np.ndarray:
    """Shift of each of 8 registers within the 8 * regwidth bits they fill."""
    return (regwidth * np.arange(7, -1, -1)).astype(np.uint64)


def pack_registers(regs: np.ndarray, regwidth: int) -> np.ndarray:
    """``(rows, m)`` uint8 registers, m a multiple of 8, as ``(rows, m *
    regwidth / 8)`` bytes: each row the stream of its m regwidth-bit words."""
    rows, m = regs.shape
    blocks = np.bitwise_or.reduce(
        regs.reshape(rows, m // 8, 8).astype(np.uint64) << _register_shifts(regwidth), axis=2
    )
    out = blocks.astype(">u8").view(np.uint8).reshape(rows, m // 8, 8)[:, :, 8 - regwidth:]
    return out.reshape(rows, m * regwidth // 8)


def unpack_registers(body: np.ndarray, regwidth: int) -> np.ndarray:
    """Inverse of :func:`pack_registers`: ``(rows, m * regwidth / 8)`` bytes
    to ``(rows, m)`` uint8 registers."""
    rows, nbytes = body.shape
    blocks = np.zeros((rows, nbytes // regwidth, 8), dtype=np.uint8)
    blocks[:, :, 8 - regwidth:] = body.reshape(rows, -1, regwidth)
    words = blocks.view(">u8").astype(np.uint64)  # (rows, m / 8, 1)
    regs = (words >> _register_shifts(regwidth)) & np.uint64((1 << regwidth) - 1)
    return regs.astype(np.uint8).reshape(rows, -1)
