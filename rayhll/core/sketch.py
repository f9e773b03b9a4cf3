"""Vectorized HyperLogLog sketch with the reference's promotion hierarchy.

Re-implements the semantics of the reference's ``HLL`` value type
(reference: python_hll/hll.py:12-855) — the EMPTY → EXPLICIT → SPARSE → FULL
promotion state machine, the probabilistic register-update rule, the
associative union case table, and the three-branch corrected cardinality
estimator — but with **batch-vectorized numpy execution** instead of the
reference's register-at-a-time pure Python:

* register updates for a whole batch of hashed int64 values are one
  ``np.maximum.at`` over a dense ``uint8[m]`` register file, with no sort:
  the SPARSE non-zero count comes from the registers themselves, and an
  EXPLICIT promotion finds its crossing element from counts it already has;
* p(w) is computed for the whole batch with uint64 bit tricks (trailing-zero
  count via the IEEE-754 exponent of the isolated low bit);
* serialization packs all m registers with integer shifts
  (:mod:`rayhll.core.bitpack`).

Because every update path reduces to set-union of raw values (EXPLICIT) or
element-wise max of registers (SPARSE/FULL), the final *content* of a sketch
is a pure function of the multiset of values added — order-independent and
retry-idempotent, which is what makes this safe as a Ray Data aggregate.  The
final *representation* is determined by threshold crossings, replicated here
faithfully (see ``add_batch`` for the one promotion edge case).

Documented deviation from the reference: ``union`` verifies ``(log2m,
regwidth)`` compatibility and raises (the reference leaves a TODO at
python_hll/hll.py:499).
"""

from __future__ import annotations

from math import ceil
from typing import Iterable

import numpy as np

from rayhll.core import estimators as est
from rayhll.core.hlltype import HllType
from rayhll.core.settings import HllSettings

# Above this register count the SPARSE representation uses a dict instead of a
# dense uint8 array (2**24 registers = 16 MiB dense).  FULL is always dense.
DENSE_SPARSE_LIMIT = 1 << 24

_U64_ONE = np.uint64(1)
_U64_52 = np.uint64(52)
_U64_1023 = np.uint64(1023)


def register_pairs(
    settings: HllSettings, raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized register derivation for a batch of hashed int64 values.

    Implements the reference's probabilistic update math
    (reference: python_hll/hll.py:282-363):

    * ``sub_stream = raw >>> log2m`` (unsigned shift);
    * ``p_w = 1 + lsb(sub_stream | pw_max_mask)`` (trailing-zero count with
      the overflow clamp), with ``sub_stream == 0`` treated as the skipped
      special value p_w = 0;
    * register index ``j = raw & (m - 1)`` (the **low** log2m bits).

    Returns ``(j, p_w)`` for every value; ``j`` is int64, ``p_w`` uint8 and
    0 for a skipped value, which a register max leaves without effect.
    """
    raw = np.ascontiguousarray(raw, dtype=np.int64)
    u = raw.view(np.uint64)
    sub = u >> np.uint64(settings.log2m)
    masked = sub | np.uint64(settings.pw_max_mask_u64)
    lowbit = masked & (~masked + _U64_ONE)
    # ctz via the IEEE-754 exponent: uint64 -> float64 is exact for powers of
    # two, so the biased exponent field is exactly 1023 + ctz.
    ctz = (lowbit.astype(np.float64).view(np.uint64) >> _U64_52) - _U64_1023
    p_w = (ctz + _U64_ONE).astype(np.uint8)
    p_w[sub == 0] = 0
    return (u & np.uint64(settings.m_bits_mask)).astype(np.int64), p_w


def compute_registers(
    settings: HllSettings, raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`register_pairs` filtered to the entries with ``p_w != 0``."""
    j, p_w = register_pairs(settings, raw)
    valid = p_w != 0
    if not valid.all():
        j = j[valid]
        p_w = p_w[valid]
    return j, p_w


def _reduce_batch(j: np.ndarray, p_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse (j, p_w) pairs to unique register indices with max p_w."""
    if len(j) == 0:
        return j, p_w
    order = np.argsort(j)  # any order within a run: the max ignores it
    js = j[order]
    ps = p_w[order]
    starts = np.flatnonzero(np.r_[True, js[1:] != js[:-1]])
    return js[starts], np.maximum.reduceat(ps, starts)


def _max_into(regs: np.ndarray, j: np.ndarray, p_w: np.ndarray, nnz: int) -> int:
    """Register max of (j, p_w), p_w >= 1, into dense ``regs`` holding
    ``nnz`` non-zero registers; returns the non-zero count after.  A batch
    much smaller than the register file counts only the registers it
    touches, so an add costs O(batch), not O(m)."""
    if 8 * len(j) < len(regs):
        nnz += len(np.unique(j[regs[j] == 0]))
        np.maximum.at(regs, j, p_w)
        return nnz
    np.maximum.at(regs, j, p_w)
    return int(np.count_nonzero(regs))


def _crossing_is_last(values: np.ndarray, prior: set[int], novel_is_k: bool) -> bool:
    """Whether the last element of ``values`` is the one whose add pushed an
    EXPLICIT set holding ``prior`` past its threshold.  The crossing value is
    the k-th novel value in first-seen order (k = threshold + 1 - len(prior));
    it is the last element only if the batch holds exactly k novel distinct
    values (``novel_is_k``) and the last element is novel and first seen
    there."""
    if not novel_is_k:
        return False
    last = int(values[-1])
    return last not in prior and not bool((values[:-1] == last).any())


class HllSketch:
    """A mergeable HLL accumulator (see module docstring)."""

    __slots__ = ("settings", "_type", "_explicit", "_regs", "_sparse", "_nnz")

    def __init__(self, settings: HllSettings, type: HllType = HllType.EMPTY):
        self.settings = settings
        self._explicit: set[int] | None = None
        self._regs: np.ndarray | None = None  # dense uint8[m] registers
        self._sparse: dict[int, int] | None = None  # dict fallback for huge m
        self._nnz: int = 0  # count of non-zero registers while SPARSE
        self._initialize_storage(type)

    # ------------------------------------------------------------------
    # construction / storage

    @classmethod
    def for_testing(
        cls,
        log2m: int,
        regwidth: int,
        explicit_threshold: int,
        sparse_threshold: int,
        type: HllType = HllType.EMPTY,
    ) -> "HllSketch":
        """Conformance-corpus constructor overriding both thresholds
        (reference: python_hll/hll.py:178-211)."""
        return cls(
            HllSettings.for_testing(log2m, regwidth, explicit_threshold, sparse_threshold),
            type,
        )

    def _initialize_storage(self, type: HllType) -> None:
        """Allocate storage for ``type`` and switch to it
        (reference: python_hll/hll.py:365-386)."""
        self._type = type
        if type == HllType.EMPTY:
            pass
        elif type == HllType.EXPLICIT:
            self._explicit = set()
        elif type == HllType.SPARSE:
            self._nnz = 0
            if self._dense_sparse():
                self._regs = np.zeros(self.settings.m, dtype=np.uint8)
            else:
                self._sparse = {}
        elif type == HllType.FULL:
            self._regs = np.zeros(self.settings.m, dtype=np.uint8)
        else:
            raise ValueError(f"Unsupported HLL type: {type}")

    def _dense_sparse(self) -> bool:
        return self.settings.m <= DENSE_SPARSE_LIMIT

    def get_type(self) -> HllType:
        return self._type

    def copy(self) -> "HllSketch":
        out = HllSketch.__new__(HllSketch)
        out.settings = self.settings
        out._type = self._type
        out._explicit = set(self._explicit) if self._explicit is not None else None
        out._regs = self._regs.copy() if self._regs is not None else None
        out._sparse = dict(self._sparse) if self._sparse is not None else None
        out._nnz = self._nnz
        return out

    def clear(self) -> None:
        """Empty the storage WITHOUT demoting the representation
        (reference: python_hll/hll.py:468-489)."""
        if self._type == HllType.EXPLICIT:
            self._explicit.clear()
        elif self._type == HllType.SPARSE:
            self._nnz = 0
            if self._sparse is not None:
                self._sparse.clear()
            else:
                self._regs[:] = 0
        elif self._type == HllType.FULL:
            self._regs[:] = 0

    # ------------------------------------------------------------------
    # adds

    def add_raw(self, raw_value: int) -> None:
        """Add one pre-hashed signed-64-bit value
        (reference: python_hll/hll.py:222-280)."""
        self.add_batch(np.array([raw_value], dtype=np.int64))

    def add_batch(self, values: np.ndarray | Iterable[int]) -> None:
        """Add a batch of pre-hashed signed-64-bit values.

        Element-wise equivalent to calling the reference's ``add_raw`` for
        each array element in order.  All state transitions the reference
        performs per-element are reproduced from order-independent batch
        quantities, with one positional edge case: an EXPLICIT→SPARSE
        promotion triggered by the *last* element of the batch leaves an
        over-threshold SPARSE un-promoted until the next add, because the
        reference's replay loop (python_hll/hll.py:251-261) performs no
        SPARSE→FULL check of its own.
        """
        values = np.ascontiguousarray(values, dtype=np.int64)
        n = len(values)
        if n == 0:
            return

        if self._type == HllType.EMPTY:
            # EMPTY is always promoted on add (reference: python_hll/hll.py:234-245).
            if self.settings.explicit_threshold > 0:
                self._initialize_storage(HllType.EXPLICIT)
            elif not self.settings.sparse_off:
                self._initialize_storage(HllType.SPARSE)
            else:
                self._initialize_storage(HllType.FULL)

        if self._type == HllType.EXPLICIT:
            self._add_batch_explicit(values)
        elif self._type == HllType.SPARSE:
            self._add_batch_sparse(values)
        else:
            j, p_w = compute_registers(self.settings, values)
            np.maximum.at(self._regs, j, p_w)

    def _add_batch_explicit(self, values: np.ndarray) -> None:
        s = self.settings
        threshold = s.explicit_threshold
        store = self._explicit
        uniques = np.unique(values)
        if len(store) + len(uniques) <= threshold:
            # Cannot cross the threshold regardless of overlap.
            store.update(uniques.tolist())
            return
        # vectorized union: the prior set is small (<= threshold) but the
        # incoming batch can be huge — a Python-set union of a 10M-value
        # batch dominated the monolithic-add path (PERF_NOTES #14)
        store_arr = np.fromiter(store, dtype=np.int64, count=len(store))
        all_values = np.union1d(store_arr, uniques) if len(store) else uniques
        if len(all_values) <= threshold:
            self._explicit = set(all_values.tolist())
            return
        # Promotion (reference: python_hll/hll.py:247-261): replay every stored
        # raw value into the next representation.
        j, p_w = compute_registers(s, all_values)
        self._explicit = None
        if s.sparse_off:
            self._initialize_storage(HllType.FULL)
            np.maximum.at(self._regs, j, p_w)
            return
        self._initialize_storage(HllType.SPARSE)
        self._sparse_update(j, p_w)
        # The replay loop itself never checks SPARSE→FULL
        # (python_hll/hll.py:251-261), so an over-threshold SPARSE only
        # promotes if at least one batch element was added *after* the element
        # that triggered the EXPLICIT promotion.  This needs sparse_threshold <
        # explicit_threshold: not so for auto parameters, but the normal case
        # for EXACT_MODE (expthresh=18, log2m=11: explicit 131072 > sparse 512).
        novel = len(all_values) - len(store)
        if self._nnz > s.sparse_threshold and not _crossing_is_last(
            values, store, novel == threshold + 1 - len(store)
        ):
            self._sparse_to_full()

    def _add_batch_sparse(self, values: np.ndarray) -> None:
        s = self.settings
        was_overfull = self._nnz > s.sparse_threshold
        self._sparse_update(*compute_registers(s, values))
        # The reference checks promotion after *every* add, including adds
        # whose p_w is 0 (reference: python_hll/hll.py:263-273), so a
        # non-empty batch always runs at least one check.
        if self._nnz > s.sparse_threshold or (was_overfull and len(values) > 0):
            self._sparse_to_full()

    def _sparse_update(self, j: np.ndarray, p_w: np.ndarray) -> None:
        """Register max of (j, p_w), p_w >= 1, into SPARSE storage,
        maintaining the non-zero register count."""
        if self._sparse is None:
            self._nnz = _max_into(self._regs, j, p_w, self._nnz)
            return
        store = self._sparse
        for jj, pp in zip(*(a.tolist() for a in _reduce_batch(j, p_w))):
            if pp > store.get(jj, 0):
                store[jj] = pp
        self._nnz = len(store)

    def _sparse_to_full(self) -> None:
        """Fold SPARSE registers into a dense FULL register file
        (reference: python_hll/hll.py:267-273)."""
        if self._sparse is not None:
            regs = np.zeros(self.settings.m, dtype=np.uint8)
            if self._sparse:
                idx = np.fromiter(self._sparse.keys(), dtype=np.int64, count=len(self._sparse))
                vals = np.fromiter(self._sparse.values(), dtype=np.uint8, count=len(self._sparse))
                regs[idx] = vals
            self._regs = regs
            self._sparse = None
        self._type = HllType.FULL

    # ------------------------------------------------------------------
    # union

    def union(self, other: "HllSketch") -> None:
        """Associative multiset union, stored into ``self``
        (reference: python_hll/hll.py:491-691)."""
        if not self.settings.compatible_with(other.settings):
            raise ValueError(
                "union-incompatible sketches: "
                f"(log2m={self.settings.log2m}, regwidth={self.settings.regwidth}) vs "
                f"(log2m={other.settings.log2m}, regwidth={other.settings.regwidth})"
            )
        if self._type == other._type:
            self._homogeneous_union(other)
        else:
            self._heterogeneous_union(other)

    def _homogeneous_union(self, other: "HllSketch") -> None:
        if self._type == HllType.EMPTY:
            return
        if self._type == HllType.EXPLICIT:
            # add_raw per value (reference: python_hll/hll.py:662-665); batch
            # semantics are identical (see add_batch docstring).
            if other._explicit:
                self.add_batch(np.fromiter(other._explicit, dtype=np.int64, count=len(other._explicit)))
            return
        if self._type == HllType.SPARSE:
            self._sparse_update(*other._sparse_items())
            if self._nnz > self.settings.sparse_threshold:
                self._sparse_to_full()
            return
        # FULL ∪ FULL: element-wise register max (reference: python_hll/hll.py:684-688).
        np.maximum(self._regs, other._regs, out=self._regs)

    def _heterogeneous_union(self, other: "HllSketch") -> None:
        if self._type == HllType.EMPTY:
            self._union_into_empty(other)
            return
        if other._type == HllType.EMPTY:
            return

        s = self.settings
        if self._type == HllType.EXPLICIT:
            # dest EXPLICIT + src SPARSE/FULL: clone src, re-add explicit
            # values (reference: python_hll/hll.py:548-577).
            explicit_values = (
                np.fromiter(self._explicit, dtype=np.int64, count=len(self._explicit))
                if self._explicit
                else np.empty(0, dtype=np.int64)
            )
            self._explicit = None
            if other._type == HllType.SPARSE and not s.sparse_off:
                self._clone_sparse_from(other)
                if len(explicit_values):
                    self._add_batch_sparse(explicit_values)
            else:
                self._initialize_storage(HllType.FULL)
                if other._type == HllType.SPARSE:
                    uj, up = other._sparse_items()
                    np.maximum.at(self._regs, uj, up)
                else:
                    np.maximum(self._regs, other._regs, out=self._regs)
                if len(explicit_values):
                    j, p_w = compute_registers(s, explicit_values)
                    np.maximum.at(self._regs, j, p_w)
            return

        if self._type == HllType.SPARSE:
            if other._type == HllType.EXPLICIT:
                # add_raw per value with per-add promotion checks
                # (reference: python_hll/hll.py:580-587).
                if other._explicit:
                    self._add_batch_sparse(
                        np.fromiter(other._explicit, dtype=np.int64, count=len(other._explicit))
                    )
            else:
                # dest SPARSE + src FULL: clone src, fold dest registers in;
                # no promotion check needed (reference: python_hll/hll.py:589-602).
                uj, up = self._sparse_items()
                self._sparse = None
                self._regs = other._regs.copy()
                self._type = HllType.FULL
                np.maximum.at(self._regs, uj, up)
            return

        # dest FULL
        if other._type == HllType.EXPLICIT:
            if other._explicit:
                j, p_w = compute_registers(
                    s, np.fromiter(other._explicit, dtype=np.int64, count=len(other._explicit))
                )
                np.maximum.at(self._regs, j, p_w)
        else:  # src SPARSE (reference: python_hll/hll.py:614-622)
            uj, up = other._sparse_items()
            np.maximum.at(self._regs, uj, up)

    def _union_into_empty(self, other: "HllSketch") -> None:
        """EMPTY ∪ x = clone of x, with capacity-aware demotion
        (reference: python_hll/hll.py:507-545)."""
        s = self.settings
        if other._type == HllType.EXPLICIT:
            if len(other._explicit) <= s.explicit_threshold:
                self._type = HllType.EXPLICIT
                self._explicit = set(other._explicit)
            else:
                values = np.fromiter(other._explicit, dtype=np.int64, count=len(other._explicit))
                if not s.sparse_off:
                    self._initialize_storage(HllType.SPARSE)
                    self._add_batch_sparse(values)
                else:
                    self._initialize_storage(HllType.FULL)
                    j, p_w = compute_registers(s, values)
                    np.maximum.at(self._regs, j, p_w)
        elif other._type == HllType.SPARSE:
            if not s.sparse_off:
                self._clone_sparse_from(other)
            else:
                self._initialize_storage(HllType.FULL)
                uj, up = other._sparse_items()
                np.maximum.at(self._regs, uj, up)
        else:  # FULL
            self._type = HllType.FULL
            self._regs = other._regs.copy()

    def _clone_sparse_from(self, other: "HllSketch") -> None:
        """Become a SPARSE clone of ``other`` (no promotion check — the
        reference clones over-threshold SPARSE storage verbatim)."""
        self._type = HllType.SPARSE
        if other._sparse is not None:
            self._sparse = dict(other._sparse)
            self._regs = None
            self._nnz = len(self._sparse)
        else:
            self._regs = other._regs.copy()
            self._sparse = None
            self._nnz = other._nnz

    def _sparse_items(self) -> tuple[np.ndarray, np.ndarray]:
        """(register index, value) arrays of the non-zero SPARSE registers,
        sorted by index ascending."""
        if self._sparse is not None:
            if not self._sparse:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
            idx = np.fromiter(self._sparse.keys(), dtype=np.int64, count=len(self._sparse))
            vals = np.fromiter(self._sparse.values(), dtype=np.uint8, count=len(self._sparse))
            order = np.argsort(idx)
            return idx[order], vals[order]
        idx = np.flatnonzero(self._regs).astype(np.int64)
        return idx, self._regs[idx]

    # ------------------------------------------------------------------
    # estimation

    def cardinality(self) -> int:
        """Integer cardinality: exact for EXPLICIT, ceil(estimator) otherwise
        (reference: python_hll/hll.py:388-404)."""
        if self._type == HllType.EMPTY:
            return 0
        if self._type == HllType.EXPLICIT:
            return len(self._explicit)
        return int(ceil(self.float_cardinality()))

    def float_cardinality(self) -> float:
        """Unrounded algorithm cardinality, for conformance comparison against
        the PostgreSQL corpus (reference: tests/test_integration.py:179-199)."""
        if self._type == HllType.EMPTY:
            return 0.0
        if self._type == HllType.EXPLICIT:
            return float(len(self._explicit))
        s = self.settings
        if self._sparse is not None:
            counts = np.zeros(s.max_register_value + 1, dtype=np.int64)
            for v in self._sparse.values():
                counts[v] += 1
            counts[0] = s.m - len(self._sparse)
        else:
            counts = np.bincount(self._regs, minlength=1).astype(np.int64)
        # indicator = sum over registers of 2^-M[j], grouping by register
        # value: count * 2^-v is exact in float64
        # (reference: python_hll/hll.py:419-428).
        weights = np.ldexp(1.0, -np.arange(len(counts)))
        indicator = float(np.dot(counts, weights))
        number_of_zeroes = int(counts[0])
        return est.corrected_estimate(
            indicator,
            number_of_zeroes,
            s.m,
            s.log2m,
            s.regwidth,
            s.alpha_m_squared,
            s.small_estimator_cutoff,
            s.large_estimator_cutoff,
        )

    # ------------------------------------------------------------------
    # serde (implementation in rayhll.core.serde)

    def to_bytes(self) -> bytes:
        from rayhll.core import serde

        return serde.to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "HllSketch":
        from rayhll.core import serde

        return serde.from_bytes(data)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HllSketch(type={self._type.name}, log2m={self.settings.log2m}, "
            f"regwidth={self.settings.regwidth}, cardinality={self.cardinality()})"
        )
