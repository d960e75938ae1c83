"""Bounded-delay timing model and the GT3 relative-timing proof.

The paper's GT3 ("relative timing") may remove a constraint arc only
when it is under no execution path the last to arrive at its
destination.  Every operation carries a ``[min, max]`` delay interval
(:mod:`repro.timing.delays`), and
:func:`~repro.timing.analysis.relative_arc_dominates` proves, over
anchored longest max- and min-delay paths, that a witness arc into the
same destination always arrives no earlier than the candidate.
"""

from repro.timing.delays import DelayModel
from repro.timing.analysis import relative_arc_dominates

__all__ = ["DelayModel", "relative_arc_dominates"]
