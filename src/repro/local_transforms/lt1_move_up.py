"""LT1: move-up (Section 5.1).

Safely moves an output signal to an earlier burst.  The headline
application is the paper's Figure 11 example: the global done signal
``A1M+`` moves from the final burst up to the transition that latches
the result, so "latching the result and sending a global done to
other controllers are now performed in parallel".

Safety rule implemented: a global done edge may move up to — but not
above — the burst that issues its fragment's register latch (the
result must be committed concurrently with, or before, the done
reaches any consumer; bundled-data timing covers the latch settle).
Local output edges may move up while no crossed burst waits for a
signal produced by the edge's datapath action (conservative: local
edges only move into bursts later than their trigger's ack).

One class of done is exempt: a done whose channel delivers a register
that a *decision node on another controller* samples as its condition
(``Signal.guards_condition``).  The consumer's choice state reads the
condition level right after the done arrives, with no datapath delay
in between, so bundled-data timing does not cover the latch settle —
hoisting such a done beside the latch lets the remote sample race the
write and take the wrong branch.  Those dones stay in place.
"""

from __future__ import annotations

from typing import List, Optional

from repro.afsm.machine import BurstModeMachine, Transition
from repro.afsm.signals import SignalKind
from repro.local_transforms.base import LocalReport, LocalTransform, fragment_chains


class MoveUp(LocalTransform):
    """LT1: hoist global done signals to the latch burst."""

    name = "LT1"

    def apply(self, machine: BurstModeMachine) -> LocalReport:
        report = LocalReport(self.name, machine.name)
        for chain in fragment_chains(machine):
            latch_position = self._latch_position(machine, chain)
            if latch_position is None:
                continue
            for position in range(latch_position + 1, len(chain)):
                transition = chain[position]
                for edge in list(transition.output_burst.edges):
                    signal = machine.signal(edge.signal)
                    if signal.kind is not SignalKind.GLOBAL_READY:
                        continue
                    if signal.guards_condition:
                        report.record(
                            "edge-kept-for-condition", str(edge),
                            fragment=transition.tags.get("node"),
                        )
                        report.note(
                            f"kept done {edge} in place: its channel guards a "
                            "remote condition sample"
                        )
                        continue
                    target = chain[latch_position]
                    if edge.signal in target.output_burst.signals():
                        continue
                    if edge.signal in target.input_burst.signals():
                        continue
                    machine.set_output_burst(
                        transition.uid, transition.output_burst.without_signal(edge.signal)
                    )
                    machine.set_output_burst(target.uid, target.output_burst.adding(edge))
                    report.moved_edges.append(str(edge))
                    report.record(
                        "edge-moved-up", str(edge),
                        fragment=transition.tags.get("node"),
                        from_burst=position, to_burst=latch_position,
                        latch_transition=f"{target.src}->{target.dst}",
                    )
                    report.note(
                        f"moved done {edge} up to the latch burst of "
                        f"fragment {transition.tags.get('node')}"
                    )
        report.folded_states = machine.fold_trivial_states()
        report.applied = bool(report.moved_edges)
        return report

    @staticmethod
    def _latch_position(machine: BurstModeMachine, chain: List[Transition]) -> Optional[int]:
        """Index of the burst issuing the fragment's register latch."""
        for position, transition in enumerate(chain):
            for edge in transition.output_burst.edges:
                if not edge.rising:
                    continue
                signal = machine.signal(edge.signal)
                if signal.action is None:
                    continue
                kinds = (
                    [sub[0] for sub in signal.action[1]]
                    if signal.action[0] == "multi"
                    else [signal.action[0]]
                )
                if "latch" in kinds:
                    return position
        return None
