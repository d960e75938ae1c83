"""LT4: removal of non-essential acknowledgment wires (Section 5.4).

"The transform replaces the req/ack wire pair by just a req-wire
whenever possible.  User-supplied timing information is used to verify
that the controller operates correctly once the acknowledgment wire
has been deleted."

The timing information here is the standard bundled-data assumption:
mux selects and register latches settle faster than the functional
unit computes, so their acknowledgments carry no information the
controller needs.  The functional unit's own completion signal is
*essential* (operation delay is data-dependent) and kept by default —
the paper's example likewise removes ``reg_A_ack`` and
``reg_A_mux_ack``, not the ALU's completion.

After edge removal, transitions whose input bursts became empty are
folded away; this is where the big state-count reductions of Figure 12
(optimized-GT -> optimized-GT-and-LT) come from.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import SignalKind
from repro.local_transforms.base import LocalReport, LocalTransform

#: action kinds whose acknowledgments are removable under the default
#: bundled-data timing assumption
DEFAULT_REMOVABLE: FrozenSet[str] = frozenset({"src_mux", "reg_mux", "latch"})


class RemoveAcknowledgments(LocalTransform):
    """LT4: delete removable local ack wires and fold the machine."""

    name = "LT4"

    def __init__(self, removable_kinds: FrozenSet[str] = DEFAULT_REMOVABLE):
        self.removable_kinds = frozenset(removable_kinds)

    def apply(self, machine: BurstModeMachine) -> LocalReport:
        report = LocalReport(self.name, machine.name)
        # latch acknowledgments of condition registers are *essential*:
        # the controller samples those registers directly (XBM
        # conditionals), faster than a latch settles, so the completion
        # information cannot be replaced by a timing assumption
        condition_registers = {
            signal.action[1]
            for signal in machine.signals()
            if signal.kind is SignalKind.CONDITIONAL and signal.action is not None
        }
        copy_latch_reqs = self._copy_fragment_latches(machine)
        removable = []
        for signal in machine.signals():
            if signal.kind is not SignalKind.LOCAL_ACK or signal.partner is None:
                continue
            try:
                partner = machine.signal(signal.partner)
            except Exception:
                continue
            if partner.action is None or partner.action[0] not in self.removable_kinds:
                continue
            if (
                partner.action[0] == "latch"
                and partner.action[1] in condition_registers
            ):
                report.note(
                    f"kept essential acknowledgment {signal.name} "
                    f"(condition register {partner.action[1]!r})"
                )
                continue
            if partner.action[0] == "latch" and partner.name in copy_latch_reqs:
                # a pure register copy has no functional-unit completion
                # to anchor its timing: without this acknowledgment the
                # capture could race a later overwrite of the source
                # (or the fragment's done could outrun the capture)
                report.note(
                    f"kept essential acknowledgment {signal.name} "
                    "(pure-copy fragment has no other completion)"
                )
                continue
            removable.append(signal.name)

        for ack in removable:
            used = False
            for transition in machine.transitions():
                if ack in transition.input_burst.signals():
                    machine.set_input_burst(
                        transition.uid, transition.input_burst.without_signal(ack)
                    )
                    used = True
            machine.drop_signal(ack)
            if used:
                report.removed_signals.append(ack)
                report.note(f"removed acknowledgment wire {ack}")

        report.folded_states = machine.fold_trivial_states()
        report.applied = bool(report.removed_signals)
        return report

    @staticmethod
    def _copy_fragment_latches(machine: BurstModeMachine) -> set:
        """Latch request wires driven by fragments that never start a
        functional unit (pure register copies)."""
        fragments_with_fu: set = set()
        latch_by_fragment: dict = {}
        for transition in machine.transitions():
            node = transition.tags.get("node")
            if node is None:
                continue
            for edge in transition.output_burst.edges:
                signal = machine.signal(edge.signal)
                if signal.action is None:
                    continue
                actions = (
                    signal.action[1] if signal.action[0] == "multi" else [signal.action]
                )
                for action in actions:
                    if action[0] == "fu_go":
                        fragments_with_fu.add(node)
                    elif action[0] == "latch":
                        latch_by_fragment.setdefault(node, set()).add(signal.name)
        copy_latches: set = set()
        for node, latches in latch_by_fragment.items():
            if node not in fragments_with_fu:
                copy_latches |= latches
        return copy_latches
