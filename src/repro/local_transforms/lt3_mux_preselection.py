"""LT3: mux pre-selection (Section 5.3).

"For a functional unit executing the current RTL operation, it is
typically deterministic which RTL operation is next, so its controller
can start pre-selecting the muxes for the next operation at the end of
the current RTL operation's execution."

Implemented as a move of the successor fragment's source-mux (and
copy-route register-mux) rise edges into the final burst of the
predecessor fragment, when:

- the two fragments are joined deterministically (single successor
  transition chain, no intervening choice state);
- the predecessor's final burst does not already touch the wire (the
  same physical mux line may be reset there);
- no burst between loses ordering (none exists: the fragments are
  adjacent).

The moved selection happens strictly earlier, which is safe because a
mux selection only routes data; the consuming latch/operation of the
*next* fragment still waits for its own triggers.

One extra applicability condition protects register muxes.  Routing an
operand (source mux) early is always harmless, but re-steering a
*register's input mux* races any still-settling capture of that
register.  If the register's latch acknowledgment is still consumed
somewhere in the machine, the walk from latch to preselect point
crosses the ack wait and the capture is sequenced.  After LT4 has
stripped that ack (fragments with a functional-unit go), nothing
observes the capture completing — the unoptimized schedule is safe
only because the next select request comes several bursts later, and
hoisting it to a predecessor's tail can land it inside the settling
window (observed: a loop-head preselect racing the latch of a fused
``i := 0`` copy).  So LT3 refuses to preselect the register mux of any
register whose latch request is no longer ack-sequenced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.afsm.machine import BurstModeMachine, Transition
from repro.afsm.signals import SignalKind
from repro.local_transforms.base import LocalReport, LocalTransform, fragment_chains


def _is_preselectable(machine: BurstModeMachine, signal_name: str) -> bool:
    signal = machine.signal(signal_name)
    if signal.kind is not SignalKind.LOCAL_REQ or signal.action is None:
        return False
    kinds = (
        [sub[0] for sub in signal.action[1]]
        if signal.action[0] == "multi"
        else [signal.action[0]]
    )
    return all(kind in ("src_mux", "reg_mux") for kind in kinds)


class MuxPreselection(LocalTransform):
    """LT3: select the next operation's muxes during the current one."""

    name = "LT3"

    def apply(self, machine: BurstModeMachine) -> LocalReport:
        report = LocalReport(self.name, machine.name)
        unsequenced = self._unsequenced_latch_registers(machine)
        chains = fragment_chains(machine)
        by_first_state: Dict[str, List[Transition]] = {}
        for chain in chains:
            by_first_state[chain[0].src] = chain

        tails_by_dst: Dict[str, List[Transition]] = {}
        for chain in chains:
            tails_by_dst.setdefault(chain[-1].dst, []).append(chain[-1])
        chain_of_tail = {chain[-1].uid: chain for chain in chains}

        for start, successor in by_first_state.items():
            tails = tails_by_dst.get(start, [])
            if not tails:
                continue
            # every entry into the successor's start state must be a
            # fragment tail, and the state must join deterministically
            if len(machine.transitions_to(start)) != len(tails):
                continue
            if len(machine.transitions_from(start)) != 1:
                continue
            source = successor[0]
            for edge in list(source.output_burst.edges):
                if not edge.rising or not _is_preselectable(machine, edge.signal):
                    continue
                conflict = False
                if self._targets_register(machine, edge.signal, unsequenced):
                    # the register's capture is no longer ack-sequenced
                    # (LT4 removed the latch ack): an earlier select
                    # could re-steer the mux inside the settling window
                    conflict = True
                for tail in tails:
                    if edge.signal in tail.output_burst.signals():
                        conflict = True
                    if edge.signal in tail.input_burst.signals():
                        conflict = True
                    touched = self._latched_registers(machine, chain_of_tail[tail.uid])
                    if self._targets_register(machine, edge.signal, touched):
                        # that register's latch may still be settling:
                        # re-steering its mux now would race the capture
                        conflict = True
                if conflict:
                    continue
                machine.set_output_burst(
                    source.uid, source.output_burst.without_signal(edge.signal)
                )
                for tail in tails:
                    machine.set_output_burst(tail.uid, tail.output_burst.adding(edge))
                    report.note(
                        f"pre-selected {edge} of fragment {source.tags.get('node')} "
                        f"at end of fragment {tail.tags.get('node')}"
                    )
                report.moved_edges.append(str(edge))
        report.folded_states = machine.fold_trivial_states()
        report.applied = bool(report.moved_edges)
        return report

    @staticmethod
    def _unsequenced_latch_registers(machine: BurstModeMachine) -> set:
        """Registers latched without a surviving latch acknowledgment.

        A latch request whose ack edge still appears in some input
        burst is *sequenced*: the machine waits out the capture before
        moving on, so any later mux selection is safe.  Once LT4 has
        removed the ack, the capture window is invisible to the
        control flow and LT3 must not move that register's mux select
        any earlier.
        """
        latch_reqs: Dict[str, str] = {}  # req signal name -> register
        for signal in machine.signals():
            if signal.kind is not SignalKind.LOCAL_REQ or signal.action is None:
                continue
            actions = (
                signal.action[1] if signal.action[0] == "multi" else [signal.action]
            )
            for action in actions:
                if action[0] == "latch":
                    latch_reqs[signal.name] = action[1]
        requested = set()
        acked = set()
        for transition in machine.transitions():
            for edge in transition.output_burst.edges:
                if edge.rising and edge.signal in latch_reqs:
                    requested.add(edge.signal)
            for edge in transition.input_burst.edges:
                if not edge.rising:
                    continue
                signal = machine.signal(edge.signal)
                if signal.partner in latch_reqs:
                    acked.add(signal.partner)
        return {latch_reqs[req] for req in requested - acked}

    @staticmethod
    def _latched_registers(machine: BurstModeMachine, chain: List[Transition]) -> set:
        registers = set()
        for transition in chain:
            for edge in transition.output_burst.edges:
                signal = machine.signal(edge.signal)
                if signal.action is None:
                    continue
                actions = (
                    signal.action[1] if signal.action[0] == "multi" else [signal.action]
                )
                for action in actions:
                    if action[0] == "latch":
                        registers.add(action[1])
        return registers

    @staticmethod
    def _targets_register(machine: BurstModeMachine, signal_name: str, registers: set) -> bool:
        signal = machine.signal(signal_name)
        if signal.action is None:
            return False
        actions = signal.action[1] if signal.action[0] == "multi" else [signal.action]
        return any(action[0] == "reg_mux" and action[1] in registers for action in actions)
