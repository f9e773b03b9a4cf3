"""``HllSketch.add_batch`` bytes against a pure-Python per-element model of
the reference's add state machine (reference: python_hll/hll.py:222-280).

``add_raw`` itself calls ``add_batch``, so the model below shares no code
with the sketch: it adds one value at a time, keeps its registers in Python
containers, and serializes with big-integer bit packing.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from rayhll.core.settings import HllSettings
from rayhll.core.sketch import DENSE_SPARSE_LIMIT, HllSketch

EMPTY, EXPLICIT, SPARSE, FULL = 1, 2, 3, 4
U64 = (1 << 64) - 1


class ScalarHll:
    """One value at a time, as the reference adds."""

    def __init__(self, s: HllSettings):
        self.s = s
        self.type = EMPTY
        self.explicit: set[int] = set()
        self.regs: dict[int, int] = {}  # non-zero registers only

    def add_raw(self, v: int) -> None:
        s = self.s
        if self.type == EMPTY:
            if s.explicit_threshold > 0:
                self.type = EXPLICIT
            elif not s.sparse_off:
                self.type = SPARSE
            else:
                self.type = FULL
        if self.type == EXPLICIT:
            self.explicit.add(v)
            if len(self.explicit) > s.explicit_threshold:
                self.type = FULL if s.sparse_off else SPARSE
                # the replay loop performs no SPARSE -> FULL check
                for x in self.explicit:
                    self._probabilistic(x)
                self.explicit = set()
        elif self.type == SPARSE:
            self._probabilistic(v)
            if len(self.regs) > s.sparse_threshold:
                self.type = FULL
        else:
            self._probabilistic(v)

    def _probabilistic(self, v: int) -> None:
        s = self.s
        u = v & U64
        sub = u >> s.log2m
        if sub == 0:
            return
        masked = sub | s.pw_max_mask_u64
        p_w = (masked & -masked).bit_length()  # 1 + trailing zeros
        j = u & (s.m - 1)
        if p_w > self.regs.get(j, 0):
            self.regs[j] = p_w

    def to_bytes(self) -> bytes:
        s = self.s
        cutoff = 0 if s.explicit_off else 63 if s.explicit_auto else s.log2_explicit_threshold() + 1
        header = bytes(
            (
                0x10 | self.type,
                ((s.regwidth - 1) << 5) | s.log2m,
                ((0 if s.sparse_off else 1) << 6) | cutoff,
            )
        )
        if self.type == EMPTY:
            return header
        if self.type == EXPLICIT:
            return header + b"".join(v.to_bytes(8, "big", signed=True) for v in sorted(self.explicit))
        if self.type == SPARSE:
            words = [(j << s.regwidth) | self.regs[j] for j in sorted(self.regs)]
            return header + _pack(words, s.log2m + s.regwidth)
        return header + _pack([self.regs.get(j, 0) for j in range(s.m)], s.regwidth)


def _pack(words: list[int], width: int) -> bytes:
    acc = 0
    for w in words:
        acc = (acc << width) | w
    bits = len(words) * width
    pad = -bits % 8
    return (acc << pad).to_bytes((bits + pad) // 8, "big")


def _check(settings: HllSettings, batches: list[list[int]]) -> None:
    model, sketch = ScalarHll(settings), HllSketch(settings)
    for batch in batches:
        for v in batch:
            model.add_raw(v)
        sketch.add_batch(np.array(batch, dtype=np.int64))
        assert sketch.get_type() == model.type
        assert sketch.to_bytes() == model.to_bytes()


# log2m=4: explicit 16 > sparse 8, so an EXPLICIT -> SPARSE promotion can
# leave more than sparse_threshold registers set
SMALL = HllSettings(4, 5, expthresh=5)


def _distinct(rng: random.Random, n: int) -> list[int]:
    out: dict[int, None] = {}
    while len(out) < n:
        out[rng.getrandbits(64) - 2**63] = None
    return list(out)


def _over_threshold_after_replay(settings, values) -> bool:
    replay = ScalarHll(settings)
    replay.type = SPARSE
    for v in values:
        replay._probabilistic(v)
    return len(replay.regs) > settings.sparse_threshold


def _crossing_batch(rng, settings, n):
    """n distinct values whose replay leaves SPARSE over its threshold."""
    while True:
        values = _distinct(rng, n)
        if _over_threshold_after_replay(settings, values):
            return values


def test_crossing_on_the_last_element():
    rng = random.Random(1)
    values = _crossing_batch(rng, SMALL, SMALL.explicit_threshold + 1)
    _check(SMALL, [values])
    sk = HllSketch(SMALL)
    sk.add_batch(np.array(values, dtype=np.int64))
    assert sk.get_type().name == "SPARSE"  # the edge case: left un-promoted
    _check(SMALL, [values, values[:1]])  # the next add promotes


def test_crossing_value_also_appears_earlier():
    rng = random.Random(2)
    values = _crossing_batch(rng, SMALL, SMALL.explicit_threshold + 1)
    # the last element repeats an earlier value: the crossing is before it
    _check(SMALL, [values + [values[3]]])
    # the crossing value itself appears again as the last element
    _check(SMALL, [values + [values[-1]]])
    # the crossing value is first seen before, then repeated after others
    _check(SMALL, [values[:-1] + [values[-1], values[0], values[-1]]])


def test_prior_explicit_set_overlapping_the_batch():
    rng = random.Random(3)
    values = _crossing_batch(rng, SMALL, SMALL.explicit_threshold + 1)
    prior = values[:6]
    # the batch repeats the prior values, then crosses on its last element
    _check(SMALL, [prior, prior + values[6:]])
    # overlap at the end: the crossing is before the last element
    _check(SMALL, [prior, values[6:] + prior[:2]])
    # the last element is novel but not the crossing one
    extra = _distinct(rng, 1)
    _check(SMALL, [prior, values[6:] + extra])


def test_expthresh_18_sparse_below_explicit():
    settings = HllSettings(11, 5, expthresh=18)
    assert settings.sparse_threshold < settings.explicit_threshold
    rng = np.random.default_rng(4)
    values = rng.choice(2**62, size=settings.explicit_threshold + 1, replace=False).tolist()
    _check(settings, [values[:1000], values[1000:]])
    _check(settings, [values[:1000], values[1000:] + values[:1]])


def test_sparse_off():
    settings = HllSettings(4, 5, expthresh=5, sparseon=False)
    rng = random.Random(5)
    _check(settings, [_distinct(rng, 10), _distinct(rng, 10), _distinct(rng, 1)])
    _check(HllSettings(4, 5, expthresh=0, sparseon=False), [_distinct(rng, 40)])


def test_dict_sparse_path():
    settings = HllSettings(25, 5, expthresh=4)
    assert settings.m > DENSE_SPARSE_LIMIT
    rng = random.Random(6)
    values = _distinct(rng, 9)  # crosses explicit 8 on the last element
    _check(settings, [values, _distinct(rng, 500), values[:3]])


@pytest.mark.parametrize("expthresh", [-1, 0, 1, 3, 5])
@pytest.mark.parametrize("sparseon", [True, False])
def test_random_batches(expthresh, sparseon):
    settings = HllSettings(4, 5, expthresh=expthresh, sparseon=sparseon)
    rng = random.Random(expthresh * 2 + sparseon)
    pool = _distinct(rng, 40) + [0, -1, 1 << 4, 15]  # values with sub_stream 0 too
    batches = [[rng.choice(pool) for _ in range(rng.randint(0, 20))] for _ in range(12)]
    _check(settings, batches)


def test_small_batches_into_a_large_register_file():
    """Batches far smaller than the register file count only the registers
    they touch; repeated registers within a batch count once."""
    settings = HllSettings(10, 5, expthresh=0)
    rng = random.Random(7)
    batches = []
    for _ in range(60):
        js = [rng.randrange(settings.m) for _ in range(4)]
        batches.append([(rng.getrandbits(50) << 10 | rng.choice(js)) - 2**59 for _ in range(12)])
    _check(settings, batches)
