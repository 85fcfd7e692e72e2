"""Unit tests for the cost ledger."""

import dataclasses

import pytest

from repro.ledger import CostLedger, CostParams


class TestCostLedger:
    def test_charges_accumulate(self):
        ledger = CostLedger()
        ledger.charge_reads(3)
        ledger.charge_reads(2)
        ledger.charge_cpu(100)
        assert ledger.page_reads == 5
        assert ledger.tuple_cpu == 100

    def test_message_charges_both_counters(self):
        ledger = CostLedger()
        ledger.charge_message(500)
        assert ledger.net_msgs == 1
        assert ledger.net_bytes == 500

    def test_snapshot_is_independent(self):
        ledger = CostLedger()
        ledger.charge_reads(1)
        snap = ledger.snapshot()
        ledger.charge_reads(1)
        assert snap.page_reads == 1
        assert ledger.page_reads == 2

    def test_delta(self):
        ledger = CostLedger()
        ledger.charge_cpu(10)
        before = ledger.snapshot()
        ledger.charge_cpu(5)
        ledger.charge_writes(2)
        delta = ledger.delta(before)
        assert delta.tuple_cpu == 5
        assert delta.page_writes == 2
        assert delta.page_reads == 0

    def test_add_and_merge(self):
        a, b = CostLedger(page_reads=1), CostLedger(page_reads=2)
        combined = a + b
        assert combined.page_reads == 3
        a.merge(b)
        assert a.page_reads == 3
        assert b.page_reads == 2  # untouched

    def test_reset(self):
        ledger = CostLedger(page_reads=5, tuple_cpu=10)
        ledger.reset()
        assert ledger.total() == 0.0

    def test_str_compact(self):
        assert "empty" in str(CostLedger())
        assert "page_reads" in str(CostLedger(page_reads=1))


class TestEveryFieldEverywhere:
    """snapshot/delta/merge/scaled/reset/as_dict spell the six fields
    out; each must still cover all of them, in declaration order."""

    FIELDS = [f.name for f in dataclasses.fields(CostLedger)]

    def ledger(self, start):
        return CostLedger(*[float(start + i) for i in range(6)])

    def test_as_dict_matches_the_declared_fields(self):
        assert list(self.ledger(1).as_dict()) == self.FIELDS
        assert list(self.ledger(1).as_dict().values()) \
            == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_arithmetic_touches_every_field(self):
        a, b = self.ledger(1), self.ledger(10)
        assert a.snapshot() == a and a.snapshot() is not a
        assert b.delta(a) == CostLedger(*[9.0] * 6)
        assert a + b == CostLedger(11.0, 13.0, 15.0, 17.0, 19.0, 21.0)
        assert a.scaled(2.0) == CostLedger(2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        a.reset()
        assert a == CostLedger()

    def test_sink_sees_each_increment_exactly_once(self):
        """While a sink is set, charge_* calls reach it as well; copies
        and sums of ledgers are not charges and must not reach it."""
        from repro.obs.trace import LEDGER_FIELDS

        assert list(LEDGER_FIELDS) == self.FIELDS
        start = self.ledger(1)
        ledger = start.snapshot()
        ledger.sink = sink = CostLedger()
        ledger.charge_reads(2)
        ledger.charge_writes(3)
        ledger.charge_cpu(7)
        ledger.charge_network(1, 64)
        ledger.charge_message(10)
        ledger.charge_invocation()
        charged = sink.as_dict()
        assert charged == {"page_reads": 2, "page_writes": 3,
                           "tuple_cpu": 7, "net_msgs": 2, "net_bytes": 74,
                           "fn_invocations": 1}
        assert ledger.delta(start).as_dict() == charged
        snap = ledger.snapshot()
        assert snap.sink is None and snap == ledger
        ledger.merge(self.ledger(5))
        _ = ledger + snap, ledger.scaled(3.0), ledger.as_dict()
        assert sink.as_dict() == charged


class TestCostParams:
    def test_default_weights(self):
        ledger = CostLedger(page_reads=10, tuple_cpu=200)
        assert ledger.total() == pytest.approx(10 + 200 * 0.005)

    def test_network_free_by_default(self):
        ledger = CostLedger(net_msgs=100, net_bytes=1e6)
        assert ledger.total() == 0.0

    def test_custom_network_weights(self):
        params = CostParams(net_msg_weight=2.0, net_byte_weight=0.001)
        ledger = CostLedger(net_msgs=3, net_bytes=1000)
        assert ledger.total(params) == pytest.approx(6 + 1)

    def test_fn_invocation_weight(self):
        ledger = CostLedger(fn_invocations=4)
        assert ledger.total(CostParams(fn_invocation_weight=2.5)) == 10.0
