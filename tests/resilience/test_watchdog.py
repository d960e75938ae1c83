"""Deadlock/stall watchdog: structured diagnosis instead of a bare hang."""

import pytest

from repro.cdfg import Arc
from repro.cdfg.arc import control_tag
from repro.errors import DeadlockError, SimulationError
from repro.sim import EventKernel, simulate_tokens
from repro.sim.kernel import RECENT_WINDOW


class TestTokenSimWatchdog:
    @pytest.fixture()
    def stalled(self, diffeq):
        broken = diffeq.copy()
        # strand the ALU1 controller: A := Y + M1 waits forever on END
        broken.add_arc(Arc("END", "A := Y + M1", frozenset({control_tag()})))
        with pytest.raises(DeadlockError) as info:
            simulate_tokens(broken)
        return info.value

    def test_deadlock_is_a_simulation_error(self, stalled):
        assert isinstance(stalled, SimulationError)

    def test_waiting_nodes_carry_missing_and_held_arcs(self, stalled):
        assert stalled.waiting
        blocked = {entry["node"] for entry in stalled.waiting}
        assert "A := Y + M1" in blocked
        for entry in stalled.waiting:
            assert entry["missing"], "a waiting node must name what never arrived"

    def test_blocked_channels_named(self, stalled):
        assert any("END" in channel for channel in stalled.blocked_channels)

    def test_recent_events_from_the_causal_log(self, stalled):
        assert stalled.recent_events
        assert len(stalled.recent_events) <= RECENT_WINDOW

    def test_quiescence_time_recorded(self, stalled):
        assert stalled.time > 0.0

    def test_to_dict_structure(self, stalled):
        payload = stalled.to_dict()
        assert set(payload) == {
            "time",
            "waiting",
            "blocked_channels",
            "recent_events",
            "message",
        }
        assert "deadlock" in payload["message"]


class TestKernelWatchdog:
    def test_recent_labels_window(self):
        kernel = EventKernel()
        for index in range(RECENT_WINDOW + 5):
            kernel.schedule(float(index), lambda: None, label=f"event{index}")
        kernel.run()
        assert len(kernel.recent_labels) == RECENT_WINDOW
        assert kernel.recent_labels[-1] == f"event{RECENT_WINDOW + 4}"

    def test_event_limit_message_has_context(self):
        kernel = EventKernel()

        def forever():
            kernel.schedule(1.0, forever, label="runaway")

        kernel.schedule(1.0, forever, label="runaway")
        with pytest.raises(SimulationError) as info:
            kernel.run(max_events=100)
        message = str(info.value)
        assert "exceeded 100 events" in message
        assert "at t=" in message
        assert "still pending" in message
        assert "runaway" in message  # the last executed labels are listed


class TestPointDeadlineWatchdog:
    """The SIGALRM point watchdog must say so when it cannot arm."""

    def _run_off_main_thread(self, fn):
        import threading

        box = {}

        def runner():
            try:
                box["result"] = fn()
            except BaseException as exc:  # pragma: no cover - surfaced below
                box["error"] = exc

        thread = threading.Thread(target=runner)
        thread.start()
        thread.join()
        if "error" in box:
            raise box["error"]
        return box["result"]

    def test_enforced_on_the_main_thread(self):
        from repro.errors import ReproError
        from repro.resilience.injection import (
            PointTimeout,
            point_deadline,
            watchdog_unavailable_reason,
        )

        assert watchdog_unavailable_reason() is None
        with pytest.raises(PointTimeout):
            with point_deadline(0.01):
                while True:
                    pass
        assert issubclass(PointTimeout, ReproError)

    def test_skip_off_main_thread_warns_once_naming_the_reason(self):
        import warnings

        from repro.resilience.injection import (
            _reset_watchdog_warning,
            point_deadline,
            watchdog_unavailable_reason,
        )

        def scenario():
            assert "main thread" in watchdog_unavailable_reason()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with point_deadline(5.0):
                    pass
                with point_deadline(5.0):
                    pass
            return caught

        _reset_watchdog_warning()
        try:
            caught = self._run_off_main_thread(scenario)
        finally:
            _reset_watchdog_warning()
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1, messages
        assert "not enforced" in messages[0]
        assert "main thread" in messages[0]

    def test_no_warning_when_no_deadline_requested(self):
        import warnings

        from repro.resilience.injection import _reset_watchdog_warning, point_deadline

        def scenario():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with point_deadline(None):
                    pass
            return caught

        _reset_watchdog_warning()
        try:
            caught = self._run_off_main_thread(scenario)
        finally:
            _reset_watchdog_warning()
        assert caught == []

    def test_watchdog_active_helper(self):
        from repro.resilience.injection import watchdog_active

        assert watchdog_active() is True
        assert self._run_off_main_thread(lambda: watchdog_active()) is False


class TestExploreWatchdogStat:
    def test_stats_record_armed_watchdog(self, gcd):
        from repro.explore import explore_design_space

        result = explore_design_space(
            gcd,
            global_subsets=[()],
            local_subsets=[()],
            point_timeout=60.0,
        )
        assert result.stats["watchdog_active"] is True

    def test_stats_silent_without_a_timeout(self, gcd):
        from repro.explore import explore_design_space

        result = explore_design_space(gcd, global_subsets=[()], local_subsets=[()])
        assert "watchdog_active" not in result.stats
