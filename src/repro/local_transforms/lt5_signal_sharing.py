"""LT5: signal sharing (Section 5.5).

"Eliminating outputs is achieved by merging distinct control wires
into a single forked wire ... applied to two wires that carry the same
signal value at all times, i.e., if their corresponding signals appear
in precisely the same set of output bursts."

Candidates are local request wires whose acknowledgments are gone
(after LT4); the merged wire keeps every datapath action — the fork
activates all of them concurrently.  Typical wins: a register's input
mux select and its latch strobe, or the two operand mux selects of a
binary operation.  Fewer outputs mean fewer logic functions in the
gate-level implementation (Figure 13).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.afsm.burst import OutputBurst
from repro.afsm.machine import BurstModeMachine
from repro.afsm.signals import Signal, SignalKind
from repro.local_transforms.base import LocalReport, LocalTransform


def _all_signatures(machine: BurstModeMachine) -> Dict[str, Tuple]:
    """Occurrence pattern of every output in one sweep over the machine.

    One pass over the transitions builds ``signal -> ((uid, rising)*)``
    for all signals at once, instead of re-scanning every transition
    per signal (the per-pair recomputation dominated LT5 on large
    machines).
    """
    occurrences: Dict[str, List[Tuple[int, bool]]] = {}
    for transition in sorted(machine.transitions(), key=lambda t: t.uid):
        for edge in transition.output_burst.edges:
            occurrences.setdefault(edge.signal, []).append(
                (transition.uid, edge.rising)
            )
    return {name: tuple(pattern) for name, pattern in occurrences.items()}


def _actions_of(signal: Signal) -> List[tuple]:
    if signal.action is None:
        return []
    if signal.action[0] == "multi":
        return list(signal.action[1])
    return [signal.action]


class SignalSharing(LocalTransform):
    """LT5: merge always-identical output wires into forked wires."""

    name = "LT5"

    def apply(self, machine: BurstModeMachine) -> LocalReport:
        report = LocalReport(self.name, machine.name)
        changed = True
        while changed:
            changed = False
            signatures = _all_signatures(machine)
            groups: Dict[Tuple, List[str]] = {}
            for signal in machine.outputs():
                if signal.kind is not SignalKind.LOCAL_REQ:
                    continue
                if signal.partner is not None:
                    try:
                        machine.signal(signal.partner)
                        continue  # live acknowledgment: wave shapes differ
                    except Exception:
                        pass
                signature = signatures.get(signal.name, ())
                if not signature:
                    continue
                groups.setdefault(signature, []).append(signal.name)
            # groups are disjoint and a merge only touches its own
            # signals (uids and other signals' edges are unchanged), so
            # every group can be merged in one sweep; the outer loop's
            # final pass confirms nothing new became shareable
            for signature, names in sorted(groups.items()):
                if len(names) < 2:
                    continue
                merged_actions: List[tuple] = []
                for name in names:
                    merged_actions.extend(_actions_of(machine.signal(name)))
                merged_name = "&".join(sorted(names))
                merged = Signal(
                    merged_name,
                    SignalKind.LOCAL_REQ,
                    is_input=False,
                    partner=None,
                    action=("multi", tuple(merged_actions)),
                )
                first, rest = names[0], names[1:]
                # renaming every member to the merged name collapses the
                # duplicate edges in each burst
                rest_set = frozenset(rest)
                for transition in machine.transitions():
                    if rest_set & transition.output_burst.signals():
                        machine.set_output_burst(
                            transition.uid,
                            OutputBurst(
                                tuple(
                                    edge
                                    for edge in transition.output_burst.edges
                                    if edge.signal not in rest_set
                                )
                            ),
                        )
                for name in rest:
                    machine.rename_signal(name, merged)
                machine.rename_signal(first, merged)
                report.merged_signals.append(merged_name)
                report.note(f"shared wire {merged_name} replaces {names}")
                changed = True
        report.applied = bool(report.merged_signals)
        return report
