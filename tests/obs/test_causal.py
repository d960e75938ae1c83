"""Causal event tracing and exact critical-path decomposition."""

import pytest

from repro import synthesize
from repro.obs.causal import (
    EventTrace,
    bottleneck_label,
    critical_path,
    path_delay_sum,
    slack_by_label,
)
from repro.sim.kernel import EventKernel
from repro.sim.seeding import NOMINAL
from repro.sim.system import simulate_system
from repro.sim.token_sim import simulate_tokens
from repro.workloads import WORKLOADS


class TestKernelTracing:
    def test_parent_is_the_enabling_event(self):
        trace = EventTrace()
        kernel = EventKernel(trace=trace)
        order = []

        def leaf():
            order.append("leaf")

        def root():
            order.append("root")
            kernel.schedule(2.0, leaf, label="leaf")

        kernel.schedule(1.0, root, label="root")
        kernel.run()
        assert order == ["root", "leaf"]
        chain = trace.chain()
        assert [event.label for event in chain] == ["root", "leaf"]
        assert chain[1].parent == chain[0].uid
        assert chain[1].time == 3.0

    def test_untraced_kernel_records_nothing(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda: None, label="ignored")
        kernel.run()
        assert kernel.trace is None

    def test_critical_path_filters_zero_delay_exactly(self):
        trace = EventTrace()
        kernel = EventKernel(trace=trace)

        def step2():
            pass

        def step1():
            kernel.schedule(0.0, lambda: kernel.schedule(0.7, step2, label="b"), label="poke")

        kernel.schedule(0.3, step1, label="a")
        kernel.run()
        full = critical_path(trace, include_zero=True)
        filtered = critical_path(trace)
        assert len(full) == 3 and len(filtered) == 2
        assert path_delay_sum(full) == path_delay_sum(filtered) == 1.0


@pytest.mark.parametrize("workload", ["diffeq", "fir"])
class TestNominalExactness:
    """In NOMINAL mode the critical path must reproduce the makespan
    bit-for-bit: same delays, same fold-left additions."""

    def test_token_sim_path_sums_to_makespan(self, workload):
        cdfg = WORKLOADS[workload]()
        result = simulate_tokens(cdfg, seed=NOMINAL, trace=EventTrace())
        segments = critical_path(result.trace, end_uid=result.end_event)
        assert segments
        assert path_delay_sum(segments) == result.end_time

    def test_system_sim_path_sums_to_makespan(self, workload):
        design = synthesize(workload)
        result = simulate_system(design, seed=NOMINAL, trace=EventTrace())
        segments = critical_path(result.trace)
        assert segments
        assert path_delay_sum(segments) == result.end_time

    def test_seeded_run_is_also_exact(self, workload):
        design = synthesize(workload)
        result = simulate_system(design, seed=7, trace=EventTrace())
        segments = critical_path(result.trace)
        assert path_delay_sum(segments) == result.end_time


@pytest.mark.parametrize("workload", ["diffeq", "fir", "gcd", "ewf"])
@pytest.mark.parametrize("seed", [NOMINAL, 0, 1, 2, 3], ids=repr)
def test_system_path_sums_to_makespan_bit_for_bit(workload, seed):
    design = synthesize(workload)
    result = simulate_system(design, seed=seed, trace=EventTrace())
    assert path_delay_sum(critical_path(result.trace)) == result.end_time


class _ReferenceTrace:
    """One record per scheduled event, the straightforward recorder the
    array-backed :class:`EventTrace` replaces."""

    def __init__(self):
        self.records = {}
        self.executed = []
        self.current = None

    def on_schedule(self, uid, at, delay, label):
        self.records[uid] = (at, delay, self.current, label)

    def on_execute(self, uid):
        self.executed.append(uid)
        self.current = uid

    def segments(self, end_uid=None):
        uid = self.executed[-1] if end_uid is None else end_uid
        path = []
        while uid is not None:
            at, delay, parent, label = self.records[uid]
            if delay > 0.0:
                path.append((label or "(unlabeled)", at, at + delay, delay))
            uid = parent
        return path[::-1]


@pytest.mark.parametrize("workload", ["diffeq", "gcd"])
def test_array_recorder_matches_a_per_event_recorder(workload):
    design = synthesize(workload)
    reference = _ReferenceTrace()
    simulate_system(design, seed=5, trace=reference)
    traced = simulate_system(design, seed=5, trace=EventTrace())
    segments = critical_path(traced.trace)
    assert [
        (segment.label, segment.start, segment.end, segment.delay) for segment in segments
    ] == reference.segments()
    dumped = traced.trace.to_dicts()
    assert [entry["uid"] for entry in dumped] == reference.executed
    for entry in dumped:
        at, delay, parent, label = reference.records[entry["uid"]]
        assert (entry["time"], entry["delay"], entry["parent"], entry["label"]) == (
            at + delay, delay, parent, label,
        )


class TestAnalysis:
    @pytest.fixture(scope="class")
    def traced_run(self):
        design = synthesize("diffeq")
        result = simulate_system(design, seed=NOMINAL, trace=EventTrace())
        return result

    def test_segments_are_contiguous(self, traced_run):
        segments = critical_path(traced_run.trace, include_zero=True)
        for previous, current in zip(segments, segments[1:]):
            assert current.start == previous.end

    def test_critical_labels_have_zero_slack(self, traced_run):
        segments = critical_path(traced_run.trace)
        slack = slack_by_label(traced_run.trace, end_time=traced_run.end_time)
        for segment in segments:
            assert slack[segment.label] == 0.0

    def test_slack_is_nonnegative_and_bounded(self, traced_run):
        slack = slack_by_label(traced_run.trace, end_time=traced_run.end_time)
        assert slack
        for value in slack.values():
            assert 0.0 <= value <= traced_run.end_time

    def test_bottleneck_groups_labels(self, traced_run):
        segments = critical_path(traced_run.trace)
        group = bottleneck_label(segments)
        # diffeq's inner product chain is multiplier-bound
        assert group.startswith(("dp:", "ctrl:", "poke:"))
        assert bottleneck_label([]) == ""

    def test_event_dump_is_execution_ordered(self, traced_run):
        dumped = traced_run.trace.to_dicts()
        assert [entry["order"] for entry in dumped] == list(range(len(dumped)))
        labels = {entry["label"] for entry in dumped if entry["label"]}
        assert any(label.startswith("ctrl:") for label in labels)
        assert any(label.startswith("dp:") for label in labels)


class TestIncrementalExecutionOrder:
    """``executed()``/``last_event()`` read an incrementally maintained
    list; it must match a from-scratch sort of the event dict."""

    def test_executed_matches_resorted_events(self):
        design = synthesize("diffeq")
        result = simulate_system(design, seed=3, trace=EventTrace())
        trace = result.trace
        incremental = trace.executed()
        resorted = sorted(
            (e for e in trace.events.values() if e.order >= 0),
            key=lambda e: e.order,
        )
        assert incremental == resorted
        assert [e.order for e in incremental] == list(range(len(incremental)))

    def test_last_event_is_the_max_order_event(self):
        trace = EventTrace()
        kernel = EventKernel(trace=trace)
        kernel.schedule(1.0, lambda: None, label="a")
        kernel.schedule(2.0, lambda: None, label="b")
        kernel.run()
        assert trace.last_event().label == "b"
        assert trace.last_event() is trace.executed()[-1]

    def test_scheduled_but_never_executed_is_excluded(self):
        trace = EventTrace()
        trace.on_schedule(0, 0.0, 1.0, "ran")
        trace.on_schedule(1, 0.0, 2.0, "pending")
        trace.on_execute(0)
        assert [event.label for event in trace.executed()] == ["ran"]
        assert trace.last_event().label == "ran"

    def test_empty_trace(self):
        trace = EventTrace()
        assert trace.executed() == []
        assert trace.last_event() is None
