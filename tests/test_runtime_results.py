"""The measurement runtime (tasks/futures) and result statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.results import DeviceSeries, Summary, mean, median, population_stats, quantile
from repro.core.runtime import Future, SimTask, run_tasks


class TestRuntime:
    def test_sleep_yields(self, sim):
        marks = []

        def proc():
            marks.append(sim.now)
            yield 5.0
            marks.append(sim.now)
            yield 2.5
            marks.append(sim.now)

        task = SimTask(sim, proc())
        run_tasks(sim, [task])
        assert marks == [0.0, 5.0, 7.5]
        assert task.finished

    def test_future_resumes_with_value(self, sim):
        future = Future()
        got = []

        def proc():
            value = yield future
            got.append(value)

        task = SimTask(sim, proc())
        sim.schedule(3.0, future.set_result, "ready")
        run_tasks(sim, [task])
        assert got == ["ready"]

    def test_future_timeout_resumes_with_none(self, sim):
        got = []

        def proc():
            value = yield Future(timeout=2.0)
            got.append((value, sim.now))

        run_tasks(sim, [SimTask(sim, proc())])
        assert got == [(None, 2.0)]

    def test_already_done_future(self, sim):
        future = Future()
        future.set_result(42)

        def proc():
            value = yield future
            return value

        task = SimTask(sim, proc())
        run_tasks(sim, [task])
        assert task.result == 42

    def test_set_result_idempotent(self, sim):
        future = Future()
        future.set_result(1)
        future.set_result(2)
        assert future.value == 1

    def test_return_value_captured(self, sim):
        def proc():
            yield 1.0
            return "done"

        task = SimTask(sim, proc())
        run_tasks(sim, [task])
        assert task.result == "done"

    def test_task_error_surfaces(self, sim):
        def proc():
            yield 1.0
            raise ValueError("boom")

        task = SimTask(sim, proc())
        with pytest.raises(ValueError, match="boom"):
            run_tasks(sim, [task])

    def test_parallel_tasks_interleave(self, sim):
        order = []

        def proc(name, delay):
            yield delay
            order.append(name)
            yield delay
            order.append(name)

        tasks = [SimTask(sim, proc("slow", 3.0)), SimTask(sim, proc("fast", 1.0))]
        run_tasks(sim, tasks)
        assert order == ["fast", "fast", "slow", "slow"]

    def test_run_dry_with_pending_task_raises(self, sim):
        def proc():
            yield Future()  # nobody will complete it

        with pytest.raises(RuntimeError, match="ran dry"):
            run_tasks(sim, [SimTask(sim, proc())])

    def test_bad_yield_type_rejected(self, sim):
        def proc():
            yield "not a future"

        task = SimTask(sim, proc())
        with pytest.raises(TypeError):
            run_tasks(sim, [task])


class TestStatistics:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 3, 2]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_quantile_bounds(self):
        values = [1, 2, 3, 4, 5]
        assert quantile(values, 0.0) == 1
        assert quantile(values, 1.0) == 5
        assert quantile(values, 0.5) == 3

    def test_quantile_interpolates(self):
        assert quantile([0, 10], 0.25) == 2.5

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_median_between_min_and_max(self, values):
        assert min(values) <= median(values) <= max(values)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50),
        st.floats(min_value=0, max_value=1),
    )
    def test_quantile_monotone_in_q(self, values, q):
        # One ulp of slack: linear interpolation is not exactly monotone in
        # floating point when adjacent order statistics are near-equal.
        slack = 1e-9 * max(abs(v) for v in values) + 1e-12
        assert quantile(values, 0.0) - slack <= quantile(values, q) <= quantile(values, 1.0) + slack

    def test_summary(self):
        summary = Summary.of([10, 20, 30, 40])
        assert summary.median == 25
        assert summary.q1 == 17.5 and summary.q3 == 32.5
        assert summary.iqr == 15.0
        assert summary.count == 4

    def test_population_stats(self):
        stats = population_stats([10, 20, 30])
        assert stats == {"median": 20, "mean": 20, "min": 10, "max": 30}

    def test_mean_adds_left_to_right(self):
        # Python 3.12's sum() compensates and gives 0.1 here; cells keep the older order.
        assert mean([0.1] * 10) == 0.09999999999999999
        assert mean([10, 20, 30]) == 20
        with pytest.raises(ValueError):
            mean([])


class TestDeviceSeries:
    def _series(self):
        series = DeviceSeries("demo", "s")
        series.add("slow", Summary.of([100.0]))
        series.add("fast", Summary.of([10.0]))
        series.add_censored("huge", 1000.0)
        return series

    def test_ordered_tags_by_median_censored_last(self):
        assert self._series().ordered_tags() == ["fast", "slow", "huge"]

    def test_population_with_censoring(self):
        series = self._series()
        stats = series.population(censored_as=1000.0)
        assert stats["max"] == 1000.0
        stats_without = series.population()
        assert stats_without["max"] == 100.0

    def test_value_for_stats(self):
        series = self._series()
        assert series.value_for_stats("fast") == 10.0
        assert series.value_for_stats("huge") is None
        assert series.value_for_stats("huge", censored_as=5) == 5
