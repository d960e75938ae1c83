"""Seeded semantic mutants for the transform passes.

Each mutant injects one realistic soundness bug into a GT/LT pass —
in memory, via attribute patching inside a context manager, never by
editing files.  The mutation suite then asserts that BOTH detection
tools kill every non-equivalent mutant:

- the flow-equivalence proof engine (:func:`repro.verify.flow.
  prove_workload` returns an unproved report), and
- the differential conformance fuzzer (:func:`repro.verify.
  fuzz_workload` reports a non-conformant campaign).

A mutant is *killed* when the tool detects it on the pinned workload;
``expect="equivalent"`` marks a negative control whose mutation is
behavior-preserving on every workload (it must survive — a harness
that kills everything is vacuous).  Kill score = killed / expected
non-equivalent mutants, gated at >= 95% per tool.

``expect="golden"`` marks a bug in the proof machinery's own caching:
the designs stay correct, so neither tool can refute them, but the
certificates drift, and the byte-exact golden proof reports
(``tests/golden``) must catch that.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

from repro.cdfg.kinds import NodeKind


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: where it lives, how to arm it, where it fires."""

    name: str
    description: str
    #: workload whose synthesis exercises the mutated code path
    workload: str
    #: context manager arming the mutation for the duration of a block
    arm: Callable[[], object]
    #: "killed" (both tools must detect), "equivalent"
    #: (behavior-preserving negative control: both tools must pass) or
    #: "golden" (the golden proof report of the workload must drift)
    expect: str = "killed"


@contextmanager
def _patched(obj, attribute: str, replacement) -> Iterator[None]:
    # getattr_static preserves the descriptor (staticmethod vs plain
    # function) so the restore puts back exactly what was there
    original = inspect.getattr_static(obj, attribute)
    setattr(obj, attribute, replacement)
    try:
        yield
    finally:
        setattr(obj, attribute, original)


# ----------------------------------------------------------------------
# GT3: swapped slack comparison
# ----------------------------------------------------------------------
@contextmanager
def gt3_swapped_slack() -> Iterator[None]:
    """The dominance test compares candidate and witness the wrong way
    round, so GT3 removes timed arcs whose slack does NOT cover them."""
    import repro.transforms.gt3_relative_timing as gt3
    from repro.timing.analysis import relative_arc_dominates as real

    def swapped(cdfg, candidate, witness, delays=None):
        return real(cdfg, witness, candidate, delays)

    with _patched(gt3, "relative_arc_dominates", swapped):
        yield


# ----------------------------------------------------------------------
# GT2: dropped constraint arc (forgotten self-exclusion)
# ----------------------------------------------------------------------
@contextmanager
def gt2_forgets_exclude_arc() -> Iterator[None]:
    """The domination query no longer excludes the arc under test, so
    every arc "dominates itself" and GT2 drops all of them."""
    import repro.transforms.gt2_dominated as gt2

    real = gt2.dominating_path

    def unexcluded(cdfg, src, dst, exclude_arc=None):
        return real(cdfg, src, dst, exclude_arc=None)

    with _patched(gt2, "dominating_path", unexcluded):
        yield


@contextmanager
def gt2_unprotects_decision_arc() -> Iterator[None]:
    """The IF -> ENDIF decision arc loses its protection and gets
    removed as dominated; ENDIF no longer learns which branch ran."""
    from repro.transforms.gt2_dominated import RemoveDominatedConstraints

    with _patched(
        RemoveDominatedConstraints,
        "_is_protected",
        staticmethod(lambda cdfg, arc: False),
    ):
        yield


# ----------------------------------------------------------------------
# GT4: dropped independence checks
# ----------------------------------------------------------------------
@contextmanager
def gt4_ignores_dependences() -> Iterator[None]:
    """Merge candidates are no longer checked for connecting dependence
    arcs or read/write conflicts — GT4 merges data-dependent
    assignments (e.g. the FIR delay-line shifts) into one node."""
    from repro.transforms.gt4_merge_assignments import MergeAssignmentNodes

    def undiscriminating(self, cdfg, target, copy_name):
        target_node = cdfg.node(target)
        if target_node.kind is not NodeKind.OPERATION:
            return False
        if cdfg.block_of(target) != cdfg.block_of(copy_name):
            return False
        if cdfg.branch_of(target) != cdfg.branch_of(copy_name):
            return False
        for src, dst in ((target, copy_name), (copy_name, target)):
            exclude = (src, dst) if cdfg.has_arc(src, dst) else None
            if cdfg.implies(src, dst, exclude_arc=exclude):
                return False
        return True

    with _patched(MergeAssignmentNodes, "_mergeable", undiscriminating):
        yield


# ----------------------------------------------------------------------
# GT5: unsound channel merge
# ----------------------------------------------------------------------
@contextmanager
def gt5_merges_concurrent_channels() -> Iterator[None]:
    """The never-concurrently-occupied analysis answers yes for every
    pair, so GT5 merges channels that CAN carry tokens at once."""
    from repro.transforms.gt5_channel_elimination import ChannelElimination

    with _patched(
        ChannelElimination,
        "_never_concurrent",
        lambda self, cdfg, reach, left, right: True,
    ):
        yield


# ----------------------------------------------------------------------
# LT2: off-by-one move
# ----------------------------------------------------------------------
@contextmanager
def lt2_moves_one_too_far() -> Iterator[None]:
    """Reset edges land one burst past the last safe position — onto
    or beyond the transition that waits for the partner ack."""
    from repro.local_transforms.lt2_move_down import MoveDown

    real = MoveDown._latest_position

    def off_by_one(self, machine, chain, position, edge):
        best = real(self, machine, chain, position, edge)
        return min(best + 1, len(chain) - 1)

    with _patched(MoveDown, "_latest_position", off_by_one):
        yield


# ----------------------------------------------------------------------
# machine: a burst rewrite that leaves the flow index stale
# ----------------------------------------------------------------------
@contextmanager
def machine_burst_write_skips_bump() -> Iterator[None]:
    """Rewriting an output burst no longer advances the machine's
    generation, so the flow index memoized on the machine outlives the
    edit: the next LT proof checks the old machine and certifies its
    stale signature.  The designs are unchanged, so neither a proof nor
    the fuzzer can refute anything; the byte-exact golden proof reports
    catch the drifted signatures."""
    from repro.afsm.machine import BurstModeMachine

    def unbumped(self, uid, burst):
        object.__setattr__(self.transition(uid), "output_burst", burst)

    with _patched(BurstModeMachine, "set_output_burst", unbumped):
        yield


# ----------------------------------------------------------------------
# negative control: an equivalent mutant
# ----------------------------------------------------------------------
@contextmanager
def lt4_empty_latch_protection() -> Iterator[None]:
    """Clears LT4's copy-fragment latch-protection set.  On every
    shipped workload that set is already empty, so the mutation is
    behavior-preserving — the control that proves the harness does not
    kill indiscriminately."""
    from repro.local_transforms.lt4_remove_acks import RemoveAcknowledgments

    with _patched(
        RemoveAcknowledgments,
        "_copy_fragment_latches",
        staticmethod(lambda machine: set()),
    ):
        yield


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "gt3-swapped-slack",
        "GT3 dominance test compares candidate/witness swapped",
        "diffeq",
        gt3_swapped_slack,
    ),
    Mutant(
        "gt2-forgets-exclude-arc",
        "GT2 domination BFS no longer excludes the arc under test",
        "diffeq",
        gt2_forgets_exclude_arc,
    ),
    Mutant(
        "gt2-unprotected-decision-arc",
        "GT2 removes the protected IF -> ENDIF decision arc",
        "gcd",
        gt2_unprotects_decision_arc,
    ),
    Mutant(
        "gt4-ignores-dependences",
        "GT4 merges data-dependent assignments",
        "fir",
        gt4_ignores_dependences,
    ),
    Mutant(
        "gt5-merges-concurrent-channels",
        "GT5 merges channels that can be concurrently occupied",
        "fir",
        gt5_merges_concurrent_channels,
    ),
    Mutant(
        "lt2-off-by-one",
        "LT2 moves reset edges one burst too far",
        "diffeq",
        lt2_moves_one_too_far,
    ),
    Mutant(
        "machine-stale-index",
        "an output-burst rewrite skips the machine's generation bump",
        "diffeq",
        machine_burst_write_skips_bump,
        expect="golden",
    ),
    Mutant(
        "lt4-empty-latch-protection",
        "equivalent control: clears an already-empty protection set",
        "diffeq",
        lt4_empty_latch_protection,
        expect="equivalent",
    ),
)

KILLABLE = tuple(m for m in MUTANTS if m.expect == "killed")
GOLDEN_KILLABLE = tuple(m for m in MUTANTS if m.expect == "golden")
