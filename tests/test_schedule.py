"""Unit tests for :class:`repro.core.Schedule` and its validity checks."""

from __future__ import annotations

import math

import pytest

from repro import InvalidScheduleError, Network, ProblemInstance, Schedule, TaskGraph


@pytest.fixture
def instance() -> ProblemInstance:
    tg = TaskGraph.from_dicts({"a": 1.0, "b": 2.0}, {("a", "b"): 1.0})
    net = Network.from_speeds({"u": 1.0, "v": 2.0}, default_strength=1.0)
    return ProblemInstance(net, tg)


class TestConstruction:
    def test_add_and_lookup(self):
        s = Schedule()
        entry = s.add("a", "u", 0.0, 1.0)
        assert s["a"] is entry
        assert "a" in s
        assert len(s) == 1
        assert s.on_node("u") == (entry,)

    def test_duplicate_task_rejected(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        with pytest.raises(InvalidScheduleError):
            s.add("a", "v", 0.0, 1.0)

    def test_negative_start_rejected(self):
        s = Schedule()
        with pytest.raises(InvalidScheduleError):
            s.add("a", "u", -0.5, 1.0)

    def test_end_before_start_rejected(self):
        s = Schedule()
        with pytest.raises(InvalidScheduleError):
            s.add("a", "u", 2.0, 1.0)

    def test_makespan(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 0.5, 3.5)
        assert s.makespan == 3.5

    def test_empty_makespan(self):
        assert Schedule().makespan == 0.0

    def test_unscheduled_lookup_raises(self):
        with pytest.raises(InvalidScheduleError):
            Schedule()["ghost"]

    def test_entries_sorted_by_time(self):
        s = Schedule()
        s.add("b", "u", 5.0, 6.0)
        s.add("a", "u", 0.0, 1.0)
        assert [e.task for e in s.on_node("u")] == ["a", "b"]


class TestValidation:
    def test_valid_schedule(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 2.0, 3.0)  # data arrives at 1 + 1/1 = 2
        s.validate(instance)
        assert s.is_valid(instance)

    def test_missing_task(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        with pytest.raises(InvalidScheduleError, match="unscheduled"):
            s.validate(instance)

    def test_unknown_task(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 1.0, 3.0)
        s.add("ghost", "u", 3.0, 3.0)
        with pytest.raises(InvalidScheduleError, match="unknown tasks"):
            s.validate(instance)

    def test_unknown_node(self, instance):
        s = Schedule()
        s.add("a", "mars", 0.0, 1.0)
        s.add("b", "u", 2.0, 4.0)
        with pytest.raises(InvalidScheduleError, match="unknown node"):
            s.validate(instance)

    def test_wrong_duration(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 2.0)  # should take 1.0 on speed-1 node
        s.add("b", "v", 3.0, 4.0)
        with pytest.raises(InvalidScheduleError, match="ends at"):
            s.validate(instance)

    def test_overlap_on_node(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 0.5, 2.5)
        with pytest.raises(InvalidScheduleError, match="overlap"):
            s.validate(instance)

    def test_precedence_violation(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 1.5, 2.5)  # data only arrives at 2.0
        with pytest.raises(InvalidScheduleError, match="before receiving"):
            s.validate(instance)

    def test_same_node_no_comm_delay(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 1.0, 3.0)  # same node: no communication time
        s.validate(instance)

    def test_dead_link_requires_infinite_start(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        bad = Schedule()
        bad.add("a", "u", 0.0, 1.0)
        bad.add("b", "v", 5.0, 6.0)
        with pytest.raises(InvalidScheduleError, match="never arrives"):
            bad.validate(inst)
        ok = Schedule()
        ok.add("a", "u", 0.0, 1.0)
        ok.add("b", "v", math.inf, math.inf)
        ok.validate(inst)
        assert math.isinf(ok.makespan)

    def test_zero_data_over_dead_link_is_fine(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {("a", "b"): 0.0})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 1.0, 2.0)
        s.validate(inst)


class TestSerialization:
    def test_roundtrip(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 2.0, 3.0)
        again = Schedule.from_dict(s.to_dict())
        assert again.makespan == s.makespan
        assert again["a"] == s["a"]
        assert set(again.tasks) == set(s.tasks)

    def test_iteration_covers_all(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 0.0, 2.0)
        assert {e.task for e in s} == {"a", "b"}


class TestFromPlacements:
    """``ScheduleBuilder.schedule()`` hands its entries over instead of
    re-adding them; the result must equal re-adding them in commit order."""

    @staticmethod
    def _readded(placed) -> Schedule:
        sched = Schedule()
        for entry in placed.values():
            sched.add(entry.task, entry.node, entry.start, entry.end)
        return sched

    @staticmethod
    def _handed_over(placed) -> Schedule:
        from bisect import insort

        by_node: dict = {}
        for entry in placed.values():
            insort(by_node.setdefault(entry.node, []), entry)
        return Schedule.from_placements(placed, by_node)

    def test_builder_schedules_equal_readded_entries(self):
        from repro.core.scheduler import get_scheduler, list_schedulers
        from repro.core.simulator import ScheduleBuilder
        from repro.pisa.initial import random_chain_instance

        inst = random_chain_instance(5)
        for name in list_schedulers(include_exponential=False):
            schedule = get_scheduler(name).schedule(inst)
            readded = self._readded(schedule._by_task)
            assert list(schedule._by_task) == list(readded._by_task), name
            assert list(schedule._by_node.items()) == list(readded._by_node.items()), name
        # Nodes appear in order of first placement, not network order.
        builder = ScheduleBuilder(inst, insertion=False)
        last = inst.network.nodes[-1]
        for task in inst.task_graph.topological_order():
            builder.commit(task, last)
        assert builder.schedule().nodes == (last,)

    @pytest.mark.parametrize(
        "bad",
        [
            (math.nan, 1.0),  # NaN start
            (-0.5, 1.0),  # negative start
            (2.0, 1.0),  # end before start
        ],
    )
    def test_same_checks_same_errors_same_order(self, bad):
        from repro.core.schedule import ScheduledTask

        placed = {
            "a": ScheduledTask(0.0, 1.0, "a", "u"),
            "b": ScheduledTask(bad[0], bad[1], "b", "v"),
            "c": ScheduledTask(-1.0, 0.0, "c", "u"),  # also bad, but later
        }
        with pytest.raises(InvalidScheduleError) as want:
            self._readded(placed)
        with pytest.raises(InvalidScheduleError) as got:
            self._handed_over(placed)
        assert str(got.value) == str(want.value)
        assert "'b'" in str(got.value)

    def test_nan_start_from_the_builder(self, instance):
        from repro.core.simulator import ScheduleBuilder

        builder = ScheduleBuilder(instance, insertion=False)
        builder.commit("a", "u", start=math.nan)
        builder.commit("b", "u")
        with pytest.raises(InvalidScheduleError, match="start time of 'a' must be >= 0, got nan"):
            builder.schedule()
