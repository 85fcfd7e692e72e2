"""A classic Bloom filter: the lossy filter-set implementation.

The paper (Sections 3.3, 5.1, Figure 6) proposes Bloom filters as a
fixed-size, lossy representation of the filter set — cheap to ship in a
distributed setting, at the price of false positives that the Filter
Join's final join weeds out.

Bits are stored in a Python ``bytearray``; the ``k`` bit positions of a
key are derived by double hashing from :func:`stable_hash` of the key
and the hash of the pair ``(key, salt)``.

Which false positives a filter lets through decides how many rows the
restricted inner produces, and so what the *measured* cost ledger says.
The key hash is therefore a pure function of the key's value: numbers
hash as Python's documented numeric hash, tuples combine their elements'
hashes with the fixed xxHash-style mixer CPython uses for tuples (so
int and int-tuple keys sit where ``hash()`` would put them), and
``str`` / ``bytes`` — whose built-in hash is salted per process — hash
as the CRC-32 of their bytes (32 bits are plenty to spread keys over a
filter; ``hashlib`` would cost every process ~4 MiB of OpenSSL). The
same functions exist over numpy arrays
(:func:`hash_int64`, :func:`combine_hash_arrays`,
:meth:`BloomFilter.contains_hashes`), bit-identical to the scalar path;
a bound filter set hands them each distinct key of a narrow column once
and reuses the verdict (``FilterSet.contains``).
"""

from __future__ import annotations

import math
import sys
import zlib
from typing import Hashable, Iterable, Sequence

import numpy as np

_MASK = (1 << 64) - 1
# CPython's tuple-hash constants (Objects/tupleobject.c, xxHash lanes)
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_LENGTH_MIX = _XXPRIME_5 ^ 3527539
_ALL_ONES_HASH = 1546275796  # what an accumulator of 2^64-1 maps to

#: modulus of Python's numeric hash on 64-bit builds
_MODULUS = (1 << 61) - 1
#: the array kernels reproduce the 64-bit numeric hash only
ARRAY_KERNELS = sys.hash_info.modulus == _MODULUS

#: second member of the pair hashed for the double-hashing step
_SALT_HASH = hash(0x9E3779B9)
#: ``hash(None)`` is an address before CPython 3.12; pin it
NONE_HASH = 0xFCA86420


def combine_hashes(lanes: Iterable[int]) -> int:
    """Element hashes combined the way CPython hashes a tuple, in
    explicit 64-bit arithmetic."""
    acc = _XXPRIME_5
    count = 0
    for lane in lanes:
        acc = (acc + (lane & _MASK) * _XXPRIME_2) & _MASK
        acc = ((acc << 31) | (acc >> 33)) & _MASK
        acc = (acc * _XXPRIME_1) & _MASK
        count += 1
    acc = (acc + (count ^ _LENGTH_MIX)) & _MASK
    if acc == _MASK:
        return _ALL_ONES_HASH
    return acc - (1 << 64) if acc >> 63 else acc


def stable_hash(item: Hashable) -> int:
    """A signed 64-bit hash of ``item`` that depends on its value only
    (never on ``PYTHONHASHSEED`` or an address). Equal to ``hash(item)``
    for numbers and for tuples of numbers."""
    if isinstance(item, (int, float)):
        return hash(item)
    if item is None:
        return NONE_HASH
    if isinstance(item, tuple):
        return combine_hashes(map(stable_hash, item))
    if isinstance(item, str):
        return zlib.crc32(item.encode("utf-8", "surrogatepass"))
    if isinstance(item, bytes):
        return zlib.crc32(item)
    return hash(item)


def hash_int64(values):
    """``hash(int(v))`` for every element of an int64 array."""
    values = np.asarray(values, dtype=np.int64)
    negative = values < 0
    magnitude = values.view(np.uint64)
    magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)
    hashed = (magnitude % np.uint64(_MODULUS)).astype(np.int64)
    hashed = np.where(negative, -hashed, hashed)
    hashed[hashed == -1] = -2
    return hashed


def combine_hash_arrays(lanes: Sequence):
    """:func:`combine_hashes` row-wise: each lane is an int64 array of
    element hashes, or one int shared by every row."""
    acc = None
    for lane in lanes:
        if isinstance(lane, int):
            term = np.uint64(((lane & _MASK) * _XXPRIME_2) & _MASK)
        else:
            term = lane.view(np.uint64) * np.uint64(_XXPRIME_2)
        acc = term + np.uint64(_XXPRIME_5) if acc is None else acc + term
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc = acc * np.uint64(_XXPRIME_1)
    acc = acc + np.uint64((len(lanes) ^ _LENGTH_MIX) & _MASK)
    acc[acc == np.uint64(_MASK)] = _ALL_ONES_HASH
    return acc.view(np.int64)


class BloomFilter:
    """Fixed-size bit-vector set approximation.

    ``num_bits`` fixes the size (the paper's "fixed size bit vector");
    ``expected_items`` tunes the number of hash functions to the standard
    optimum k = (m/n) ln 2.
    """

    def __init__(self, num_bits: int = 64 * 1024,
                 expected_items: int = 1024):
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        self.num_bits = num_bits
        self.num_hashes = max(
            1, round(num_bits / max(1, expected_items) * math.log(2))
        )
        self.num_hashes = min(self.num_hashes, 16)
        self._bits = bytearray((num_bits + 7) // 8)
        self.items_added = 0

    def _positions(self, item: Hashable):
        h1 = stable_hash(item)
        h2 = combine_hashes((h1, _SALT_HASH))
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item: Hashable) -> None:
        for pos in self._positions(item):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self.items_added += 1

    def add_all(self, items: Iterable[Hashable]) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item: Hashable) -> bool:
        return all(
            self._bits[pos // 8] & (1 << (pos % 8))
            for pos in self._positions(item)
        )

    # ------------------------------------------------------ array kernels

    def _walk(self, hashes):
        """(first position, step) per key, both already reduced modulo
        ``num_bits`` so that stepping never leaves int64."""
        size = np.int64(self.num_bits)
        return (hashes % size,
                combine_hash_arrays([hashes, _SALT_HASH]) % size)

    def add_hashes(self, hashes) -> None:
        """``add`` for every key of an int64 array of
        :func:`stable_hash` values."""
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        pos, step = self._walk(hashes)
        for _ in range(self.num_hashes):
            np.bitwise_or.at(bits, pos >> 3,
                             (1 << (pos & 7)).astype(np.uint8))
            pos = (pos + step) % self.num_bits
        self.items_added += len(hashes)

    def contains_hashes(self, hashes):
        """Boolean mask: ``key in self`` for every key of an int64
        array of :func:`stable_hash` values. Each round tests one
        position of the keys no earlier round has ruled out."""
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        pos, step = self._walk(hashes)
        alive = None  # None = every key
        for _ in range(self.num_hashes):
            hit = ((bits[pos >> 3] >> (pos & 7)) & 1).astype(np.bool_)
            if not hit.all():
                alive = np.flatnonzero(hit) if alive is None \
                    else alive[hit]
                if not len(alive):
                    break
                pos = pos[hit]
                step = step[hit]
            pos = (pos + step) % self.num_bits
        if alive is None:
            return np.ones(len(hashes), dtype=np.bool_)
        found = np.zeros(len(hashes), dtype=np.bool_)
        found[alive] = True
        return found

    def contains_many(self, keys):
        """Boolean mask over an int64 array, verdict for verdict what
        ``key in self`` answers for each int."""
        return self.contains_hashes(hash_int64(keys))

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    def expected_false_positive_rate(self) -> float:
        """FPR estimate for the number of items actually added."""
        if self.items_added == 0:
            return 0.0
        k = self.num_hashes
        fill = 1.0 - math.exp(-k * self.items_added / self.num_bits)
        return fill ** k

    def __repr__(self) -> str:
        return "BloomFilter(bits=%d, k=%d, items=%d)" % (
            self.num_bits, self.num_hashes, self.items_added,
        )
