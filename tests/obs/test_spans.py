"""Span tracing: nesting, attributes, the bound and the timing view."""

import pytest

from repro import synthesize
from repro.local_transforms import optimize_local
from repro.obs.spans import (
    SPAN_HISTORY,
    current_span,
    format_spans,
    format_timings,
    reset_spans,
    section_timings,
    set_attribute,
    span,
    spans,
    spans_to_dicts,
)
from repro.transforms import optimize_global
from repro.workloads import build_diffeq_cdfg


@pytest.fixture(autouse=True)
def clean_registry():
    reset_spans()
    yield
    reset_spans()


class TestSpans:
    def test_nesting_depths(self):
        with span("outer"):
            with span("inner"):
                with span("leaf"):
                    pass
            with span("sibling"):
                pass
        recorded = spans()
        assert [s.name for s in recorded] == ["outer", "inner", "leaf", "sibling"]
        assert [s.depth for s in recorded] == [0, 1, 2, 1]

    def test_durations_filled_on_exit(self):
        with span("timed") as entry:
            assert entry.duration == 0.0
        assert entry.duration > 0.0
        assert entry.duration == spans()[0].duration

    def test_attributes_at_entry_and_via_setter(self):
        with span("work", workload="gcd"):
            set_attribute("applied", True)
        recorded = spans()[0]
        assert recorded.attributes == {"workload": "gcd", "applied": True}

    def test_current_span(self):
        assert current_span() is None
        with span("open") as entry:
            assert current_span() is entry
        assert current_span() is None

    def test_set_attribute_outside_span_is_noop(self):
        set_attribute("ignored", 1)
        assert spans() == []

    def test_perf_bridge_keeps_timings_working(self):
        """``--timings`` is the per-name aggregate of the spans."""
        with span("global/GT1") as first:
            pass
        with span("global/GT1") as second:
            pass
        timings = section_timings()
        assert timings["global/GT1"].calls == 2
        assert timings["global/GT1"].total == first.duration + second.duration

    def test_exception_still_records(self):
        with pytest.raises(RuntimeError):
            with span("fails"):
                raise RuntimeError("boom")
        assert spans()[0].duration > 0.0
        assert current_span() is None

    def test_format_and_dicts(self):
        with span("outer", workload="fir"):
            with span("inner"):
                pass
        text = format_spans()
        assert "outer" in text and "workload=fir" in text
        assert text.splitlines()[1].startswith("  inner")
        dicts = spans_to_dicts()
        assert dicts[0]["name"] == "outer"
        assert dicts[1]["depth"] == 1

    def test_synthesis_flow_produces_span_tree(self, gcd):
        from repro.afsm.extract import extract_controllers
        from repro.local_transforms import optimize_local
        from repro.transforms import optimize_global

        optimized = optimize_global(gcd)
        design = extract_controllers(optimized.cdfg, optimized.plan)
        optimize_local(design)
        names = [s.name for s in spans()]
        assert "optimize_global" in names
        assert "global/GT1" in names
        assert "extract_controllers" in names
        assert "optimize_local" in names
        assert any(name.startswith("local/LT") for name in names)
        # pass spans nest under their script span
        outer = names.index("optimize_global")
        assert spans()[outer].depth == 0
        assert spans()[names.index("global/GT1")].depth == 1

    def test_exploration_spans_the_proof_layer(self, gcd):
        from repro.explore import explore_design_space

        explore_design_space(gcd)
        proofs = [s for s in spans() if s.name.startswith("proof/")]
        names = {s.name for s in proofs}
        assert {name.split("/")[1] for name in names} == {"local", "global"}
        assert "proof/global/GT1" in names and "proof/local/LT1" in names
        local = next(s for s in proofs if s.name.startswith("proof/local/"))
        assert local.attributes["machine"]
        assert "proof/local/LT1" in section_timings()


class TestBound:
    def test_registry_keeps_the_newest_span_history(self):
        for index in range(SPAN_HISTORY + 10):
            with span(f"filler/{index}"):
                pass
        recorded = spans()
        assert len(recorded) == SPAN_HISTORY
        assert recorded[0].name == "filler/10"
        assert recorded[-1].name == f"filler/{SPAN_HISTORY + 9}"
        timings = section_timings()
        assert len(timings) == SPAN_HISTORY
        assert "filler/9" not in timings
        assert sum(stat.total for stat in timings.values()) == sum(
            entry.duration for entry in recorded
        )


class TestTimedSections:
    def test_accumulates_calls_and_time(self):
        for __ in range(3):
            with span("unit-test"):
                pass
        stat = section_timings()["unit-test"]
        assert stat.calls == 3
        assert stat.total >= 0.0
        assert stat.mean == pytest.approx(stat.total / 3)

    def test_records_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("explodes"):
                raise RuntimeError("boom")
        assert section_timings()["explodes"].calls == 1

    def test_reset_clears(self):
        with span("something"):
            pass
        reset_spans()
        assert section_timings() == {}

    def test_format_timings_empty_and_nonempty(self):
        assert "no timed sections" in format_timings()
        with span("alpha"):
            pass
        table = format_timings()
        assert "alpha" in table and "calls" in table


class TestPerPassTimings:
    def test_global_passes_report_duration(self):
        result = optimize_global(build_diffeq_cdfg())
        assert all(report.duration >= 0.0 for report in result.reports)
        sections = section_timings()
        for name in ("global/GT1", "global/GT5", "global/check_well_formed"):
            assert sections[name].calls >= 1

    def test_local_passes_report_duration(self):
        design = synthesize(build_diffeq_cdfg(), local_transforms=())
        result = optimize_local(design)
        assert result.reports
        assert all(report.duration >= 0.0 for report in result.reports)
        assert section_timings()["local/LT4"].calls >= 1

    def test_duration_in_summary(self):
        result = optimize_global(build_diffeq_cdfg())
        report = result.reports[0]
        report.duration = 0.123
        assert "[0.123s]" in report.summary()

    def test_timings_table_lists_the_check_passes(self):
        synthesize("gcd")
        table = format_timings()
        assert "global/check_well_formed" in table
        assert "local/check_machine" in table
