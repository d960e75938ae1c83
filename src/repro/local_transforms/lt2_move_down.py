"""LT2: move-down (Section 5.2).

Moves output signals that are not on the critical path to a later
burst — "typically applied to the reset phases of local signals".
Reset edges (req-) migrate toward the end of their fragment so that
earlier bursts thin out, folding can merge states, and LT5 finds more
sharable signals.

A reset edge never moves onto or past a transition that waits for its
partner acknowledgment's falling edge, and never onto a burst that
already touches the same wire.
"""

from __future__ import annotations

from repro.afsm.burst import Edge
from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import SignalKind
from repro.local_transforms.base import LocalReport, LocalTransform, fragment_chains


class MoveDown(LocalTransform):
    """LT2: push local reset phases to later bursts."""

    name = "LT2"

    def apply(self, machine: BurstModeMachine) -> LocalReport:
        report = LocalReport(self.name, machine.name)
        for chain in fragment_chains(machine):
            for position, transition in enumerate(chain):
                for edge in list(transition.output_burst.edges):
                    if edge.rising:
                        continue
                    signal = machine.signal(edge.signal)
                    if signal.kind is not SignalKind.LOCAL_REQ:
                        continue
                    target = self._latest_position(machine, chain, position, edge)
                    if target > position:
                        machine.set_output_burst(
                            transition.uid,
                            transition.output_burst.without_signal(edge.signal),
                        )
                        machine.set_output_burst(
                            chain[target].uid, chain[target].output_burst.adding(edge)
                        )
                        report.moved_edges.append(str(edge))
                        report.record(
                            "edge-moved-down", str(edge),
                            fragment=transition.tags.get("node"),
                            from_burst=position, to_burst=target,
                        )
                        report.note(
                            f"moved {edge} from burst {position} to {target} "
                            f"of fragment {transition.tags.get('node')}"
                        )
        report.folded_states = machine.fold_trivial_states()
        report.applied = bool(report.moved_edges)
        return report

    def _latest_position(self, machine, chain, position: int, edge: Edge) -> int:
        signal = machine.signal(edge.signal)
        ack = signal.partner
        best = position
        for candidate in range(position + 1, len(chain)):
            transition = chain[candidate]
            if ack is not None and ack in transition.input_burst.signals():
                break  # the ack falls only after this reset: cannot pass
            if edge.signal in transition.output_burst.signals():
                break
            if edge.signal in transition.input_burst.signals():
                break
            best = candidate
        return best
