"""Seed resolution shared by the two simulators.

Every simulation is driven by one of three delay-sampling modes:

- ``seed=<int>`` — delays are sampled from a :class:`random.Random`
  seeded with that integer (reproducible randomized run);
- ``seed=None`` (the default) — a fresh entropy seed is drawn and
  *recorded in the result*, so even an unseeded failure can be
  replayed exactly by passing the recorded seed back in;
- ``seed=NOMINAL`` — no sampling at all: every delay is the midpoint
  of its interval (the deterministic mode the timing analyses and the
  performance-comparison tests rely on).

Before this module existed, ``seed=None`` silently meant "nominal",
and code that wanted randomness but forgot a seed produced failures
nobody could reproduce.  The sentinel makes the deterministic mode an
explicit request instead of an accident.

**Draw-order stability.**  A seeded token simulation does not pull its
delay samples from one global stream: each node gets a private
substream derived from ``(seed, node name)`` by
:func:`node_stream_seed`, and the *k*-th firing of a node consumes the
*k*-th draw of its substream.  Because of that, the sequence of values
a given node sees depends only on the seed and the node's own firing
count — never on the global interleaving of events, which itself
depends on the sampled delays.  This is the property that lets the
batched max-plus engine (:mod:`repro.sim.batched`) pre-draw the exact
same delays without replaying the event loop, making batched and
scalar runs bit-identical for the same seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Tuple, Union


class _NominalDelays:
    """Sentinel type for :data:`NOMINAL` (kept a class for repr/typing)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NOMINAL"


#: Pass as ``seed`` to run with deterministic midpoint delays.
NOMINAL = _NominalDelays()

SeedLike = Union[int, None, _NominalDelays]


def resolve_seed(seed: SeedLike) -> Tuple[Optional[random.Random], Optional[int]]:
    """Resolve a ``seed`` argument to ``(rng, effective_seed)``.

    ``NOMINAL`` yields ``(None, None)`` — no sampling.  ``None`` draws
    a fresh 32-bit seed (from the global :mod:`random` stream, so test
    harnesses can still pin it) and returns an rng seeded with it; the
    effective seed must be recorded in the simulation result.
    """
    if isinstance(seed, _NominalDelays):
        return None, None
    if seed is None:
        seed = random.randrange(2**32)
    return random.Random(seed), int(seed)


def node_stream_seed(seed: int, name: str) -> int:
    """Derive the substream seed for node ``name`` under run seed ``seed``.

    The derivation is a keyed content hash (blake2b over
    ``"{seed}:{name}"``), not Python's builtin ``hash()`` — the builtin
    is salted per process, which would destroy cross-run replay.  The
    mapping is part of the reproducibility contract: the scalar
    simulator, :meth:`DelayModel.sample_matrix` consumers, and the
    batched engine all derive the identical stream for a given
    ``(seed, node)`` pair, so a recorded seed replays the same delays
    everywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")
