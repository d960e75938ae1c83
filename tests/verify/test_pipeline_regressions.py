"""Regressions for pipeline soundness bugs found by the frontend fuzz.

Each test pins one bug that ``tests/property/test_frontend_properties``
originally exposed: a frontend-subset program whose full GT+LT
synthesis was refuted (or crashed) by a transform mis-applying.  The
programs here are the minimized counterexamples; the unit assertions
target the specific applicability condition that was missing.
"""

import pytest

from repro.afsm.extract import extract_controllers
from repro.channels import derive_channels
from repro.frontend import compile_kernel, register_kernel, unregister_kernel
from repro.local_transforms import optimize_local
from repro.local_transforms.lt1_move_up import MoveUp
from repro.local_transforms.lt3_mux_preselection import MuxPreselection
from repro.transforms import optimize_global
from repro.transforms.gt1_loop_parallelism import LoopParallelism
from repro.transforms.scripts import STANDARD_SEQUENCE
from repro.verify.flow import prove_workload


@pytest.fixture
def registered():
    """Register compiled kernels for prove_workload; clean up after."""
    names = []

    def _register(source, bounds, name):
        kernel = compile_kernel(source, bounds=bounds)
        names.append(register_kernel(kernel, name=name))
        return names[-1]

    yield _register
    for name in names:
        unregister_kernel(name)


# ----------------------------------------------------------------------
# LT1: a done whose channel guards a remote condition sample must not
# be hoisted to the latch burst (the remote choice state would read the
# condition register while it is still being written).
# ----------------------------------------------------------------------
CROSS_CONDITION = """
def fuzzed(a: float = 0.5, b: float = 0.5):
    u = a + a
    if a < 0.5:
        u = a * a
"""


class TestLT1ConditionGuard:
    def _design(self):
        kernel = compile_kernel(CROSS_CONDITION, bounds={"ALU": 1, "MUL": 1})
        cdfg = kernel.build()
        return extract_controllers(cdfg, derive_channels(cdfg))

    def test_extraction_marks_condition_channel(self):
        design = self._design()
        guarded = [
            signal.name
            for controller in design.controllers.values()
            for signal in controller.machine.signals()
            if signal.guards_condition
        ]
        assert guarded, "condition-delivering channel must set guards_condition"

    def test_lt1_keeps_guarded_done_in_place(self):
        design = self._design()
        kept = []
        for controller in design.controllers.values():
            machine = controller.machine.copy()
            report = MoveUp().apply(machine)
            for signal in machine.signals():
                if signal.guards_condition:
                    assert not any(
                        signal.name in moved for moved in report.moved_edges
                    ), f"LT1 hoisted condition-guarding done {signal.name}"
            kept.extend(
                entry for entry in report.provenance
                if entry.kind == "edge-kept-for-condition"
            )
        assert kept, "LT1 must record the exemption on the sender machine"

    def test_full_sequence_proves(self, registered):
        name = registered(CROSS_CONDITION, {"ALU": 1, "MUL": 1}, "_lt1_guard")
        assert prove_workload(name).proved


# ----------------------------------------------------------------------
# LT3: after LT4 strips a latch ack, the capture window is invisible to
# the control flow; preselecting that register's input mux (e.g. into a
# loop-head burst) can re-steer it mid-capture.
# ----------------------------------------------------------------------
UNSEQUENCED_LATCH = """
def fuzzed(a: float = 0.5, b: float = 0.5):
    u = b + b
    i = 0.0
    while i < 1.0:
        v = b + 0.5
        i = i + 1.0
"""


class TestLT3UnsequencedLatchGuard:
    def _machine_after_lt4_lt2(self):
        kernel = compile_kernel(UNSEQUENCED_LATCH, bounds={"ALU": 1, "MUL": 1})
        optimized = optimize_global(kernel.build(), enabled=tuple(STANDARD_SEQUENCE))
        design = extract_controllers(optimized.cdfg, optimized.plan)
        design = optimize_local(design, enabled=("LT4", "LT2")).design
        return design.controllers["ALU1"].machine

    def test_stripped_latch_registers_detected(self):
        machine = self._machine_after_lt4_lt2()
        unsequenced = MuxPreselection._unsequenced_latch_registers(machine)
        assert "i" in unsequenced

    def test_lt3_refuses_unsequenced_register_mux(self):
        machine = self._machine_after_lt4_lt2().copy()
        report = MuxPreselection().apply(machine)
        assert not any("reg_i_sel" in moved for moved in report.moved_edges), (
            "LT3 preselected register i's mux although its latch ack is gone"
        )

    def test_lt4_lt2_lt3_proves(self, registered):
        name = registered(UNSEQUENCED_LATCH, {"ALU": 1, "MUL": 1}, "_lt3_guard")
        assert prove_workload(name, lts=("LT4", "LT2", "LT3")).proved


# ----------------------------------------------------------------------
# GT5: merging a cross-iteration (backward) arc and a same-iteration
# (forward) arc onto one wire is unsupported when a single receiver
# holds both — the receiver cannot tell the pre-enabling startup
# transition from a live one.
# ----------------------------------------------------------------------
MIXED_ARCS = """
def fuzzed(a: float = 1.0, b: float = 0.5):
    w = 2.0 + 2.0
    z = 1.0 - b
    i = 0.0
    while i < 1.0:
        v = z + 2.0
        z = 3.0 * a
        i = i + 1.0
"""


class TestGT5MixedReceiverSplit:
    def test_no_channel_mixes_per_receiver(self):
        kernel = compile_kernel(MIXED_ARCS, bounds={"ALU": 1, "MUL": 2})
        optimized = optimize_global(kernel.build(), enabled=tuple(STANDARD_SEQUENCE))
        cdfg, plan = optimized.cdfg, optimized.plan
        for channel in plan.channels:
            flags = {}
            for src, dst in channel.arcs:
                flags.setdefault(cdfg.fu_of(dst), set()).add(
                    cdfg.arc(src, dst).backward
                )
            for fu, seen in flags.items():
                assert len(seen) == 1, (
                    f"channel {channel.name}: receiver {fu} mixes backward "
                    "and forward arcs"
                )

    def test_mixed_arc_program_proves(self, registered):
        name = registered(MIXED_ARCS, {"ALU": 1, "MUL": 2}, "_gt5_mixed")
        assert prove_workload(name).proved


# ----------------------------------------------------------------------
# GT1: a loop-body register written by a single node nothing else in
# the body touches has no backward-arc candidates (src == dst), yet its
# write stream still races across overlapped iterations.
# ----------------------------------------------------------------------
LONE_WRITER = """
def fuzzed(a: float = 0.5, b: float = 2.0):
    i = 0.0
    while i < 2.0:
        z = 2.0 * 0.5
        u = a * 1.0
        i = i + 1.0
"""


class TestGT1LoneWriterSerialization:
    def test_lone_writes_serialized_through_endloop(self):
        kernel = compile_kernel(LONE_WRITER, bounds={"ALU": 1, "MUL": 1})
        cdfg = kernel.build()
        report = LoopParallelism().apply(cdfg)
        serialized = {
            entry.detail["variable"]
            for entry in report.provenance
            if entry.kind == "lone-write-serialized"
        }
        # z's write is already ordered through the unit schedule
        # (z -> u on MUL1, then u -> ENDLOOP), so only u needs the arc
        assert "u" in serialized

    def test_lone_writer_program_proves(self, registered):
        name = registered(LONE_WRITER, {"ALU": 1, "MUL": 1}, "_gt1_lone")
        assert prove_workload(name).proved

    def test_builtin_loops_unaffected(self):
        """diffeq's body registers all have readers: no lone-writer
        arcs may appear (they would change the published channel
        structure)."""
        from repro.workloads import build_diffeq_cdfg

        report = LoopParallelism().apply(build_diffeq_cdfg())
        assert not any(
            entry.kind == "lone-write-serialized" for entry in report.provenance
        )


# ----------------------------------------------------------------------
# GT5 under GT1: a known refutation, not yet fixed.  GT1's overlapped
# iterations put a second token on a merged wire (body2 -> body4)
# before the first is consumed, and GT5's multiplexing check accepts
# the merge.  When the static wire-capacity check lands this XPASSes:
# drop the marker then.
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: GT5 merges a wire that GT1 double-books "
    "(refuted: flow[GT5]: occupancy)",
)
def test_random_program_584838435_gt1_gt5_is_proved():
    from repro.cache.space import build_random_program, random_program
    from repro.explore import explore_design_space

    result = explore_design_space(
        build_random_program(random_program(584838435)),
        global_subsets=[("GT1", "GT5")],
        local_subsets=[()],
    )
    (point,) = result.points
    assert point.proved, point.proof


# ----------------------------------------------------------------------
# LT4+LT2 on a compiled `if` kernel: a known refutation, not yet fixed.
# Every LT alone proves and every per-LT certificate proves, yet the
# design checkpoint sees register u take the `if` branch's write out of
# order under delay seed 0: per-observable stream equality misses a
# write ordering across observables.  The minimal failing scripts are
# GT2 or GT5 followed by LT4 then LT2.
# ----------------------------------------------------------------------
OVERWRITTEN_BRANCH = """
def fuzzed(a: float = 0.5, b: float = 0.5):
    u = b + b
    u = b + b
    u = b + b
    if b < 1.0:
        u = b * b
"""


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: LT4+LT2 reorder u's writes across observables "
    "(refuted: design[system]: schedules under delay seed 0)",
)
def test_overwritten_branch_kernel_is_proved(registered):
    name = registered(OVERWRITTEN_BRANCH, {"ALU": 1, "MUL": 1}, "_overwritten_branch")
    report = prove_workload(name)
    assert report.proved, report.summary()
