"""The isolation-anomaly matrix: what snapshot isolation prevents and
what it permits, each pinned by a readable two-session script.

========================  ==========  =================================
anomaly                   under SI    test
========================  ==========  =================================
dirty read                prevented   test_dirty_read_prevented
dirty write               prevented   test_dirty_write_prevented
non-repeatable read       prevented   test_non_repeatable_read_prevented
phantom read              prevented   test_phantom_prevented
lost update               prevented   test_lost_update_prevented
read skew                 prevented   test_read_skew_prevented
write skew                PERMITTED   test_write_skew_permitted
read-committed nrr        PERMITTED   test_read_committed_permits_nrr
phantom, prepared SELECT  prevented   TestPreparedStatements
========================  ==========  =================================

Write skew is the textbook gap between snapshot isolation and full
serializability (Berenson et al., "A Critique of ANSI SQL Isolation
Levels"): two transactions read overlapping data and write *disjoint*
rows, so first-committer-wins never fires. The test pins it as
PERMITTED on purpose — if the engine ever starts refusing it, that is
a behavior change to document, not silently absorb.
"""

import pytest

from repro import Database, DataType, Options, SerializationError


def make_db():
    db = Database()
    db.create_table("acct", [("id", DataType.INT),
                             ("owner", DataType.STR),
                             ("bal", DataType.INT)])
    db.insert("acct", [(1, "alice", 100), (2, "alice", 100),
                       (3, "bob", 50)])
    return db


def balances(session):
    return dict(
        (i, b) for i, b in
        session.sql("SELECT id, bal FROM acct").rows
    )


class TestPrevented:
    def test_dirty_read_prevented(self):
        """T2 never sees T1's uncommitted write."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        t1.sql("UPDATE acct SET bal = 0 WHERE id = 1")
        assert balances(t2)[1] == 100, "uncommitted write leaked"
        t1.sql("ROLLBACK")
        assert balances(t2)[1] == 100

    def test_dirty_write_prevented(self):
        """T2 cannot overwrite T1's uncommitted write."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        t2.sql("BEGIN")
        t1.sql("UPDATE acct SET bal = 10 WHERE id = 1")
        with pytest.raises(SerializationError):
            t2.sql("UPDATE acct SET bal = 20 WHERE id = 1")
        t2.sql("ROLLBACK")
        t1.sql("COMMIT")
        assert balances(db.new_session())[1] == 10

    def test_non_repeatable_read_prevented(self):
        """T1 reads the same row twice; a concurrent committed update
        must not change what T1 sees in between."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        first = balances(t1)[1]
        t2.sql("UPDATE acct SET bal = 999 WHERE id = 1")  # autocommit
        second = balances(t1)[1]
        t1.sql("COMMIT")
        assert first == second == 100

    def test_phantom_prevented(self):
        """T1's predicate query returns the same rows twice even though
        T2 committed a new matching row in between (SI gives full
        snapshot semantics, not just row-level stability)."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        q = "SELECT id FROM acct WHERE owner = 'alice'"
        first = sorted(t1.sql(q).rows)
        t2.sql("INSERT INTO acct VALUES (4, 'alice', 70)")
        second = sorted(t1.sql(q).rows)
        t1.sql("COMMIT")
        assert first == second == [(1,), (2,)]
        assert sorted(t1.sql(q).rows) == [(1,), (2,), (4,)]

    def test_lost_update_prevented(self):
        """Classic read-modify-write race: both read bal=100, both try
        to add 10. Without protection the final balance is 110; under
        first-committer-wins the loser gets a SerializationError and a
        retry lands on 120."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        t2.sql("BEGIN")
        assert balances(t1)[1] == 100
        assert balances(t2)[1] == 100
        t1.sql("UPDATE acct SET bal = bal + 10 WHERE id = 1")
        with pytest.raises(SerializationError):
            t2.sql("UPDATE acct SET bal = bal + 10 WHERE id = 1")
        t2.sql("ROLLBACK")
        t1.sql("COMMIT")
        # the standard remedy: retry on a fresh snapshot
        t2.sql("BEGIN")
        t2.sql("UPDATE acct SET bal = bal + 10 WHERE id = 1")
        t2.sql("COMMIT")
        assert balances(db.new_session())[1] == 120

    def test_read_skew_prevented(self):
        """T1 reads account 1, T2 moves money 1->2 and commits, T1
        reads account 2: the two reads must come from one snapshot
        (sum constant), never half-old half-new."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        bal1 = balances(t1)[1]
        t2.sql("BEGIN")
        t2.sql("UPDATE acct SET bal = bal - 40 WHERE id = 1")
        t2.sql("UPDATE acct SET bal = bal + 40 WHERE id = 2")
        t2.sql("COMMIT")
        bal2 = balances(t1)[2]
        t1.sql("COMMIT")
        assert bal1 + bal2 == 200, "read skew: inconsistent snapshot"


class TestPermitted:
    def test_write_skew_permitted(self):
        """Both transactions check SUM(alice) >= 120 and each withdraws
        80 from a *different* account. Serially the second withdrawal
        would be refused; under SI both commit (disjoint write sets)
        and the invariant breaks. Pinned as PERMITTED — this is the
        documented SI/serializability gap."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN")
        t2.sql("BEGIN")
        q = "SELECT SUM(bal) AS s FROM acct WHERE owner = 'alice'"
        assert t1.sql(q).rows[0][0] == 200
        assert t2.sql(q).rows[0][0] == 200
        t1.sql("UPDATE acct SET bal = bal - 80 WHERE id = 1")
        t2.sql("UPDATE acct SET bal = bal - 80 WHERE id = 2")  # no conflict
        t1.sql("COMMIT")
        t2.sql("COMMIT")
        final = db.new_session().sql(q).rows[0][0]
        assert final == 40, \
            "write skew outcome changed: engine now blocks it?"

    def test_read_committed_permits_nrr(self):
        """Under isolation='read-committed' the view refreshes per
        statement, so a non-repeatable read is expected behavior."""
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        t1.sql("BEGIN", options=Options(isolation="read-committed"))
        first = balances(t1)[1]
        t2.sql("UPDATE acct SET bal = 777 WHERE id = 1")
        second = balances(t1)[1]
        t1.sql("COMMIT")
        assert (first, second) == (100, 777)


class TestPreparedStatements:
    """A prepared SELECT reads through the same statement snapshot as
    the ad-hoc text: it is not a second, unisolated path."""

    Q = "SELECT id FROM acct WHERE owner = ?"

    def run_pair(self, isolation):
        db = make_db()
        t1, t2 = db.new_session(), db.new_session()
        handle = db.prepare(self.Q)
        t1.sql("BEGIN", options=Options(isolation=isolation))
        first = sorted(t1._run(handle.execute, ["alice"]).rows)
        t2.sql("INSERT INTO acct VALUES (4, 'alice', 70)")
        prepared = sorted(t1._run(handle.execute, ["alice"]).rows)
        ad_hoc = sorted(t1.sql(self.Q.replace("?", "'alice'")).rows)
        t1.sql("COMMIT")
        assert first == [(1,), (2,)]
        assert prepared == ad_hoc
        return prepared

    def test_prepared_select_pinned_under_snapshot(self):
        assert self.run_pair("snapshot") == [(1,), (2,)]

    def test_prepared_select_refreshes_under_read_committed(self):
        assert self.run_pair("read-committed") == [(1,), (2,), (4,)]
