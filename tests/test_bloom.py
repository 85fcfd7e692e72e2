"""Unit + property tests for the Bloom filter."""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter
from repro.bloom.filter import (
    combine_hash_arrays,
    combine_hashes,
    hash_int64,
    stable_hash,
)
from repro.executor import runtime
from repro.executor.runtime import FilterSet
from repro.executor.vectorize import SMALL_DOMAIN, Batch, compile_expr
from repro.expr.nodes import ColumnRef, RuntimeMembership
from repro.storage import columnar
from repro.storage.schema import DataType, Schema


class TestBloomBasics:
    def test_contains_added(self):
        bloom = BloomFilter(1024, expected_items=10)
        bloom.add(42)
        assert 42 in bloom

    def test_empty_contains_nothing(self):
        bloom = BloomFilter(1024, expected_items=10)
        assert 42 not in bloom

    def test_add_all(self):
        bloom = BloomFilter(4096, expected_items=100)
        bloom.add_all(range(100))
        assert all(i in bloom for i in range(100))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    def test_size_bytes(self):
        assert BloomFilter(8 * 100).size_bytes == 100

    def test_tuple_keys(self):
        bloom = BloomFilter(1024, expected_items=4)
        bloom.add((1, "a"))
        assert (1, "a") in bloom

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(64 * 1024, expected_items=1000)
        bloom.add_all(range(1000))
        false_positives = sum(
            1 for i in range(10_000, 20_000) if i in bloom
        )
        # with m/n = 65 bits/item the FPR should be tiny
        assert false_positives < 50

    def test_expected_fpr_tracks_fill(self):
        bloom = BloomFilter(1024, expected_items=10)
        assert bloom.expected_false_positive_rate() == 0.0
        bloom.add_all(range(10))
        low = bloom.expected_false_positive_rate()
        bloom.add_all(range(10, 500))
        assert bloom.expected_false_positive_rate() > low


class TestBloomProperties:
    @given(st.sets(st.integers(), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(8192, expected_items=max(1, len(items)))
        bloom.add_all(items)
        assert all(item in bloom for item in items)

    @given(st.sets(st.text(max_size=8), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives_strings(self, items):
        bloom = BloomFilter(8192, expected_items=max(1, len(items)))
        bloom.add_all(items)
        assert all(item in bloom for item in items)


# ------------------------------------------------- array kernels vs scalar

INT64_EDGES = [0, -1, 1, 2**61 - 1, -(2**61 - 1), 2**61, -2**61,
               2**62, -2**62, 2**63 - 1, -2**63]
SALT = 0x9E3779B9


def _seeded_int64(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(-2**63, 2**63) for _ in range(count)] + INT64_EDGES


def _filter_over(members, num_bits=4096):
    bloom = BloomFilter(num_bits, expected_items=max(1, len(members)))
    bloom.add_all(members)
    return bloom


class TestStableHash:
    def test_int_keys_sit_where_the_builtin_hash_put_them(self):
        """Int-key positions must not move: goldens and EXPERIMENTS.md
        numbers of every int-key Bloom join depend on them."""
        for x in _seeded_int64(1, 2000):
            assert stable_hash(x) == hash(x)
            assert combine_hashes((hash(x), hash(SALT))) == hash((x, SALT))
            assert stable_hash((x, 7)) == hash((x, 7))

    def test_array_hashes_equal_scalar_hashes(self):
        xs = _seeded_int64(2, 10_000)
        ys = list(reversed(xs))
        a = np.array(xs, dtype=np.int64)
        b = np.array(ys, dtype=np.int64)
        assert hash_int64(a).tolist() == [hash(x) for x in xs]
        assert combine_hash_arrays(
            [hash_int64(a), hash_int64(b)]).tolist() == [
                hash(pair) for pair in zip(xs, ys)]


class TestContainsMany:
    @pytest.mark.parametrize("num_bits,members", [
        (64 * 1024, 100), (4096, 400), (1_000_003, 3000), (7, 3)])
    def test_verdicts_equal_scalar_contains(self, num_bits, members):
        xs = _seeded_int64(3, 10_000)
        bloom = _filter_over(xs[:members], num_bits)
        got = bloom.contains_many(np.array(xs, dtype=np.int64))
        assert got.tolist() == [x in bloom for x in xs]

    def test_add_hashes_sets_the_same_bits(self):
        xs = _seeded_int64(4, 500)
        scalar = _filter_over(xs)
        array = BloomFilter(4096, expected_items=len(xs))
        array.add_hashes(hash_int64(np.array(xs, dtype=np.int64)))
        assert array._bits == scalar._bits
        assert array.items_added == scalar.items_added


def _key_schema(width):
    return Schema.of(*[("c%d" % j, DataType.INT) for j in range(width)])


def _membership_flags(members, num_bits, columns):
    """The compiled membership probe of a lossy FilterSet over
    ``members``, run over typed columns — the path the batch path
    runs — as a list of bools."""
    args = [ColumnRef("c%d" % j) for j in range(len(columns))]
    for j, arg in enumerate(args):
        arg.position = j
    expr = RuntimeMembership("f", args)
    expr.filter_set = FilterSet(
        _key_schema(len(columns)),
        rows=[m if isinstance(m, tuple) else (m,) for m in members],
        bloom_bits=num_bits)
    vectors = [columnar.encode_exact(column) for column in columns]
    assert all(isinstance(v, columnar.ColumnVector) for v in vectors)
    result = compile_expr(expr)(Batch(vectors, len(columns[0])))
    assert isinstance(result, columnar.ColumnVector)  # ran as a kernel
    return result.tolist()


def _scalar_flags(membership, columns):
    if len(columns) == 1:
        return [key in membership for key in columns[0]]
    return [key in membership for key in zip(*columns)]


class TestMembershipKernel:
    """Column kinds the kernel picks a lane for, each against
    ``key in bloom`` row by row."""

    def test_null_masked_ints(self):
        xs = _seeded_int64(5, 3000)
        column = [None if i % 7 == 0 else x for i, x in enumerate(xs)]
        bloom = _filter_over(xs[:300])
        assert _membership_flags(xs[:300], 4096, [column]) \
            == _scalar_flags(bloom, [column])

    def test_dictionary_coded_strings(self):
        rng = random.Random(6)
        names = ["name-%d" % rng.randrange(400) for _ in range(3000)]
        column = [None if i % 11 == 0 else n for i, n in enumerate(names)]
        members = sorted(set(names))[:60]
        bloom = _filter_over(members, 1024)
        assert _membership_flags(members, 1024, [column]) \
            == _scalar_flags(bloom, [column])

    def test_floats_and_bools(self):
        rng = random.Random(7)
        floats = [rng.choice([0.0, -0.0, 1.5, 2.0, -3.25, 1e300, None])
                  for _ in range(500)]
        bools = [rng.choice([True, False, None]) for _ in range(500)]
        members = [1.5, 2, True, -3.25]
        bloom = _filter_over(members, 256)
        for column in (floats, bools):
            assert _membership_flags(members, 256, [column]) \
                == _scalar_flags(bloom, [column])

    def test_composite_keys(self):
        rng = random.Random(8)
        ints = [rng.choice([None, -5, 0, 2**40] + list(range(30)))
                for _ in range(2000)]
        strs = [rng.choice([None, "a", "b", "c", "dd"])
                for _ in range(2000)]
        members = [(i, s) for i, s in zip(ints[:150], strs[:150])
                   if i is not None and s is not None]
        bloom = _filter_over(members, 2048)
        assert _membership_flags(members, 2048, [ints, strs]) \
            == _scalar_flags(bloom, [ints, strs])

    def test_exact_set_probe_array_is_built_once_per_binding(
            self, monkeypatch):
        built = []
        real = runtime.probe_array
        monkeypatch.setattr(
            runtime, "probe_array",
            lambda vec, cands: built.append(1) or real(vec, cands))
        arg = ColumnRef("c0")
        arg.position = 0
        expr = RuntimeMembership("f", [arg])
        probe = compile_expr(expr)
        vector = columnar.encode_exact(list(range(50)))
        for membership in ({1, 2, 3}, {4, 5}):
            expr.filter_set = FilterSet(
                _key_schema(1), rows=[(v,) for v in sorted(membership)])
            for _ in range(5):
                flags = probe(Batch([vector], 50)).tolist()
                assert flags == [v in membership for v in range(50)]
        assert len(built) == 2  # once per bound filter set, not per batch

    @pytest.mark.parametrize("bloom_bits", [7, 4096, 65_536, 1_000_003, None])
    def test_many_batches_through_one_bound_set(self, bloom_bits):
        """One compiled probe over a stream of batches, each binding a
        fresh set: every flag equals ``key in set`` whatever verdicts
        the earlier batches of the binding left behind."""
        rng = random.Random(9)
        low, high = -2**63, 2**63 - 1
        members = ([rng.randrange(800, 1400) for _ in range(40)]
                   + [low, low + 3, high, high - 5, -7, 0]
                   + ["s%d" % i for i in range(0, 60, 3)])

        def ints(lo, hi, count=700, nulls=False):
            values = [rng.randint(lo, hi) for _ in range(count)]
            if nulls:
                values = [None if i % 5 == 0 else v
                          for i, v in enumerate(values)]
            return columnar.encode_exact(values)

        def growing_dictionary():
            """Batches over one dictionary that gains entries, members
            among them, between one probe and the next."""
            dictionary = columnar.StringDictionary()
            for count, nulls in ((20, False), (60, True), (90, False)):
                names = ["s%d" % rng.randrange(count) for _ in range(500)]
                codes = [dictionary.encode(n) for n in names]
                mask = (np.array([i % 4 != 0 for i in range(500)])
                        if nulls else None)
                yield columnar.ColumnVector(
                    np.array(codes, dtype=np.int32), mask, dictionary)

        streams = [
            # a span that widens downward, then upward
            lambda: [ints(1000, 1100), ints(800, 1000), ints(1050, 1400),
                     ints(800, 1400, nulls=True)],
            # negative ints and both ends of int64
            lambda: [ints(low, low + 300),
                     ints(low, low + 40_000, nulls=True)],
            lambda: [ints(-600, 10), ints(-3000, -500)],
            lambda: [ints(high - 300, high), ints(high - 60_000, high)],
            # spans past the cap fall back, alone or after a table
            lambda: [ints(low, high), ints(0, 10),
                     ints(0, 10 + SMALL_DOMAIN),
                     ints(-SMALL_DOMAIN, 0, nulls=True)],
            growing_dictionary,
        ]
        arg = ColumnRef("c0")
        arg.position = 0
        expr = RuntimeMembership("f", [arg])
        probe = compile_expr(expr)
        for stream in streams:
            for chosen in (members, members[::2]):
                filter_set = FilterSet(
                    _key_schema(1), rows=[(m,) for m in chosen],
                    bloom_bits=bloom_bits)
                reference = (_filter_over(chosen, bloom_bits)
                             if bloom_bits else set(chosen))
                expr.filter_set = filter_set
                for vector in stream():
                    flags = probe(Batch([vector], len(vector)))
                    assert isinstance(flags, columnar.ColumnVector)
                    assert flags.tolist() == [
                        key in reference for key in vector.tolist()]
                # a span past the cap fell back instead of growing
                assert all(len(entry[1]) <= SMALL_DOMAIN
                           for domain, entry in
                           filter_set._probe_cache.items()
                           if isinstance(domain, tuple)
                           and domain[0] == "verdicts")

    def test_a_bound_set_asks_the_bloom_once_per_distinct_key(
            self, monkeypatch):
        asked = []
        real = BloomFilter.contains_hashes
        monkeypatch.setattr(
            BloomFilter, "contains_hashes",
            lambda bloom, hashes: asked.append(len(hashes))
            or real(bloom, hashes))
        arg = ColumnRef("c0")
        arg.position = 0
        expr = RuntimeMembership("f", [arg])
        probe = compile_expr(expr)
        batches = [columnar.encode_exact(
            [None if i % 9 == 0 else (i * 7 + b) % 300 - 150
             for i in range(1024)]) for b in range(10)]
        for binding in range(2):
            expr.filter_set = FilterSet(
                _key_schema(1), rows=[(v,) for v in range(0, 300, 7)],
                bloom_bits=4096)
            for vector in batches:
                probe(Batch([vector], 1024))
            # a fresh binding starts a fresh table
            assert sum(asked) == 300 * (binding + 1)


_SEED_PROBE = """
import json, random
from repro import Database, DataType, OptimizerConfig, Options
rng = random.Random(0)
db = Database()
names = ["dept-%d" % i for i in range(400)]
db.create_table("D", [("name", DataType.STR), ("floor", DataType.INT)],
                rows=[(n, i % 9) for i, n in enumerate(names[:200])])
emps = [(i, rng.choice(names)) for i in range(20000)]
db.create_table("E", [("eid", DataType.INT), ("dname", DataType.STR)],
                rows=emps)
config = OptimizerConfig(forced_stored_join="bloom", bloom_bits=2048)
result = db.sql("SELECT D.floor, E.eid FROM D, E "
                "WHERE D.name = E.dname AND D.floor < 5", config=config)
low = {n for i, n in enumerate(names[:200]) if i % 9 < 5}
print(json.dumps({"rows": len(result.rows),
                  "expected": sum(1 for _, n in emps if n in low),
                  "ledger": result.ledger.as_dict()}, sort_keys=True))
"""


def test_str_key_bloom_ledger_is_independent_of_the_hash_seed():
    """``hash(str)`` is salted per process; the filter's positions — and
    so the false positives the ledger counts — must not be."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _SEED_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["rows"] == outputs[0]["expected"]
