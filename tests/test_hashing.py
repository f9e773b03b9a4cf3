"""sha256 kernels: byte-for-byte equal to one ``hashlib.sha256`` per row.

``sha256_digests`` reads string/binary rows straight from the Arrow buffers;
these tests pin it, ``sha256_raw64``, ``sha256_hex`` and ``HashStage``
against per-row ``hashlib.sha256(v.encode("utf-8"))`` on every input kind
and against each function's own null contract.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from rayhll.functions import hashing
from rayhll.pipelines.distinct import HashStage

VALUES = ["", "a", "héllo wörld ✓", None, "日本語のテキスト", "x" * 5000, "", None, "tail"]

TYPES = [pa.string(), pa.large_string(), pa.binary(), pa.large_binary()]


def _arrow(values, typ):
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        values = [None if v is None else v.encode("utf-8") for v in values]
    return pa.array(values, type=typ)


def _digest(v) -> bytes:
    return hashlib.sha256(b"" if v is None else v.encode("utf-8")).digest()


def _expect(values):
    """(digests, raw64, hex) of per-row hashlib: a null hashes as b"" in
    the digests and raw64, and is None in the hex list."""
    digests = [_digest(v) for v in values]
    raw = np.array([int.from_bytes(d[:8], "big", signed=True) for d in digests], dtype=np.int64)
    hexes = [None if v is None else d.hex() for v, d in zip(values, digests)]
    return b"".join(digests), raw, hexes


def _check(arr, values):
    digests, raw, hexes = _expect(values)
    assert hashing.sha256_digests(arr) == digests
    got = hashing.sha256_raw64(arr)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, raw)
    assert hashing.sha256_hex(arr) == hexes


@pytest.mark.parametrize("typ", TYPES, ids=str)
def test_matches_hashlib_per_row(typ):
    _check(_arrow(VALUES, typ), VALUES)


@pytest.mark.parametrize("typ", TYPES, ids=str)
def test_sliced_array(typ):
    arr = _arrow(VALUES, typ).slice(2, 5)
    assert arr.offset == 2
    _check(arr, VALUES[2:7])


@pytest.mark.parametrize("typ", TYPES, ids=str)
def test_three_chunk_array(typ):
    chunks = [VALUES[:3], VALUES[3:4], VALUES[4:]]
    arr = pa.chunked_array([_arrow(c, typ) for c in chunks], type=typ)
    assert arr.num_chunks == 3
    _check(arr, VALUES)


@pytest.mark.parametrize("typ", TYPES, ids=str)
def test_zero_rows(typ):
    _check(pa.array([], type=typ), [])
    _check(pa.chunked_array([], type=typ), [])


def test_all_null_and_empty_strings():
    _check(pa.array([None, None], type=pa.large_string()), [None, None])
    _check(pa.array(["", ""], type=pa.string()), ["", ""])


def test_null_slot_with_bytes_hashes_as_empty():
    # Arrow lets a null slot span bytes of the data buffer; the null
    # contract must still hash it as the empty string
    offsets = np.array([0, 1, 4, 5], dtype=np.int32)
    validity = pa.array([True, False, True]).buffers()[1]
    arr = pa.StringArray.from_buffers(
        3, pa.py_buffer(offsets), pa.py_buffer(b"abcde"), validity, null_count=1
    )
    assert arr.to_pylist() == ["a", None, "e"]
    _check(arr, ["a", None, "e"])


def test_dictionary_column():
    arr = pa.array(VALUES, type=pa.string()).dictionary_encode()
    assert pa.types.is_dictionary(arr.type)
    _check(arr, VALUES)
    _check(pa.chunked_array([arr.slice(0, 4), arr.slice(4)]), VALUES)


def test_python_list_input():
    _check(VALUES, VALUES)


def test_hash_stage_columns_match_per_row_formula():
    content = VALUES * 3
    rows = len(content)
    table = pa.table(
        {
            "repo": pa.array([f"r{i % 2}" for i in range(rows)], type=pa.large_string()),
            "content": pa.chunked_array(
                [
                    pa.array(content[:10], type=pa.large_string()),
                    pa.array(content[10:], type=pa.large_string()),
                ]
            ),
        }
    ).slice(1)
    content = content[1:]
    out = HashStage()(table)
    assert out.column_names == ["repo", "content", "content_sha256", "content_raw64"]
    assert out.schema.field("content_sha256").type == pa.string()
    assert out.schema.field("content_raw64").type == pa.int64()
    # the flagship's formula: a null hashes as b"" in BOTH columns
    digests = [
        hashlib.sha256(t.encode("utf-8", "surrogatepass") if t is not None else b"").digest()
        for t in content
    ]
    assert out.column("content_sha256").to_pylist() == [d.hex() for d in digests]
    raw = np.frombuffer(b"".join(d[:8] for d in digests), dtype=">i8").astype(np.int64)
    np.testing.assert_array_equal(out.column("content_raw64").to_numpy(), raw)


def test_hash_stage_zero_rows():
    table = pa.table({"content": pa.array([], type=pa.large_string())})
    out = HashStage()(table)
    assert out.num_rows == 0
    assert out.schema.field("content_sha256").type == pa.string()
    assert out.schema.field("content_raw64").type == pa.int64()


@pytest.mark.parametrize("grouped", [True, False])
def test_multikey_build_hashes_equal_separate_hash64_table_calls(grouped):
    """MultiKeyBuild hashes the group key and three sketch keys from one
    polars frame; each array equals its own ``hash64_table`` call."""
    from rayhll.pipelines.distinct import MultiKeyBuild

    rows = {
        "repo": ["r1", "r2", None, "r1", "r3", "r2"],
        "lang": ["py", None, "go", "py", "rs", "go"],
        "commit": ["c1", "c2", "c2", None, "c9", "c2"],
        "path": ["a.py", "b.go", None, "a.py", "x.rs", ""],
        "content": ["x", None, "", "y", "zz", "x"],
    }
    table = pa.concat_tables([pa.table(rows).slice(0, 4), pa.table(rows).slice(4)])
    raws, ghash = MultiKeyBuild(grouped=grouped)._hashes(table)
    assert sorted(raws) == ["content", "path", "repo_commit"]
    want = {
        "content": hashing.hash64_table(table, ["content"]),
        "path": hashing.hash64_table(table, ["path"]),
        "repo_commit": hashing.hash64_table(table, ["repo", "commit"]),
    }
    for k, v in want.items():
        assert raws[k].dtype == np.int64 and np.array_equal(raws[k], v), k
    if grouped:
        assert np.array_equal(ghash, hashing.hash64_table(table, ["repo", "lang"], seed=0x6E0))
    else:
        assert ghash is None
