"""Tests for the task queue: allocation, states, join counting, policies."""

import pytest

from repro.errors import SimulationError
from repro.task import COMPLETE, READY, SYNC, TaskQueue
from repro.task.messages import SpawnMessage


def spawn(dest=0, args=(1, 2), parent_sid=7, parent_dyid=3):
    return SpawnMessage(dest_sid=dest, args=args, parent_sid=parent_sid,
                        parent_dyid=parent_dyid)


class TestAllocation:
    def test_allocate_populates_entry(self):
        q = TaskQueue("q", 4)
        e = q.allocate(spawn())
        assert e.state == READY
        assert e.args == (1, 2)
        assert e.parent_sid == 7 and e.parent_dyid == 3
        assert e.child_count == 0

    def test_entries_are_created_on_first_use(self):
        q = TaskQueue("q", 4)
        assert q.entries == [None] * 4
        e = q.allocate(spawn())
        assert q.entries[e.dyid] is e and q.entries.count(None) == 3
        untouched = q.entry(3)
        assert untouched.state == "FREE" and q.entries[3] is untouched

    def test_capacity_tracking(self):
        q = TaskQueue("q", 2)
        q.allocate(spawn())
        q.allocate(spawn())
        assert not q.has_free_entry()
        assert q.occupancy == 2
        with pytest.raises(SimulationError, match="full"):
            q.allocate(spawn())

    def test_release_recycles(self):
        q = TaskQueue("q", 1)
        e = q.allocate(spawn())
        q.take_ready()
        e.state = COMPLETE
        q.release(e)
        assert q.has_free_entry()
        e2 = q.allocate(spawn(args=(9,)))
        assert e2.args == (9,)
        assert e2.dyid == e.dyid

    def test_double_free_rejected(self):
        q = TaskQueue("q", 1)
        e = q.allocate(spawn())
        q.take_ready()
        q.release(e)
        with pytest.raises(SimulationError, match="double free"):
            q.release(e)

    def test_peak_occupancy_statistic(self):
        q = TaskQueue("q", 8)
        entries = [q.allocate(spawn()) for _ in range(5)]
        for e in entries:
            q.take_ready()
            q.release(e)
        assert q.stats()["peak_occupancy"] == 5
        assert q.stats()["total_allocated"] == 5


class TestDispatchPolicies:
    def test_fifo_serves_oldest(self):
        q = TaskQueue("q", 4, policy="fifo")
        first = q.allocate(spawn(args=("a",)))
        q.allocate(spawn(args=("b",)))
        assert q.take_ready() is first

    def test_lifo_serves_newest(self):
        q = TaskQueue("q", 4, policy="lifo")
        q.allocate(spawn(args=("a",)))
        last = q.allocate(spawn(args=("b",)))
        assert q.take_ready() is last

    def test_take_ready_empty(self):
        q = TaskQueue("q", 4)
        assert q.take_ready() is None
        assert not q.has_ready()

    def test_mark_ready_requeues_suspended(self):
        q = TaskQueue("q", 4)
        e = q.allocate(spawn())
        q.take_ready()
        e.state = SYNC
        q.mark_ready(e)
        assert e.state == READY
        assert q.take_ready() is e

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError, match="unknown policy"):
            TaskQueue("q", 4, policy="random")


class TestJoinCounting:
    def test_child_joined_decrements(self):
        q = TaskQueue("q", 4)
        e = q.allocate(spawn())
        e.child_count = 2
        q.child_joined(e.dyid)
        assert e.child_count == 1

    def test_join_underflow_detected(self):
        q = TaskQueue("q", 4)
        e = q.allocate(spawn())
        with pytest.raises(SimulationError, match="underflow"):
            q.child_joined(e.dyid)

    def test_join_to_freed_entry_detected(self):
        q = TaskQueue("q", 4)
        e = q.allocate(spawn())
        q.take_ready()
        q.release(e)
        with pytest.raises(SimulationError, match="freed"):
            q.child_joined(e.dyid)

    def test_bad_dyid_rejected(self):
        q = TaskQueue("q", 4)
        with pytest.raises(SimulationError, match="bad DyID"):
            q.entry(99)
