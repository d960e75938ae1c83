"""Makespan statistics across random delay assignments.

The asynchronous designs are delay-insensitive in *value* but not in
*time*: the makespan varies with each bounded-delay draw.  This module
runs a design across many seeds and summarizes the distribution
(mean, standard deviation, bootstrap-free normal confidence interval),
so performance comparisons between synthesis levels are statements
about distributions rather than single samples.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.afsm.extract import DistributedDesign
from repro.sim.system import simulate_system
from repro.timing.delays import DelayModel


@dataclass
class MakespanStats:
    """Summary of a design's makespan distribution."""

    samples: List[float]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def std(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    @property
    def minimum(self) -> float:
        return float(min(self.samples))

    @property
    def maximum(self) -> float:
        return float(max(self.samples))

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation CI for the mean."""
        if self.count < 2:
            return (self.mean, self.mean)
        half = z * self.std / math.sqrt(self.count)
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:
        low, high = self.confidence_interval()
        return (
            f"{self.mean:.1f} +/- {self.std:.1f} "
            f"(95% CI [{low:.1f}, {high:.1f}], n={self.count})"
        )


def measure_makespan(
    design: DistributedDesign,
    seeds: Sequence[int] = tuple(range(20)),
    delays: Optional[DelayModel] = None,
    expected_registers: Optional[Dict[str, float]] = None,
) -> MakespanStats:
    """Run ``design`` once per seed and collect makespans.

    With ``expected_registers``, every run is also verified against the
    golden register file — a performance number from a wrong design is
    worthless.
    """
    samples: List[float] = []
    for seed in seeds:
        result = simulate_system(design, delays=delays, seed=seed)
        if expected_registers is not None:
            for register, value in expected_registers.items():
                if result.registers.get(register) != value:
                    raise AssertionError(
                        f"seed {seed}: register {register} = "
                        f"{result.registers.get(register)!r}, expected {value!r}"
                    )
        samples.append(result.end_time)
    return MakespanStats(samples=samples)


def speedup(baseline: MakespanStats, optimized: MakespanStats) -> float:
    """Mean speedup factor of ``optimized`` over ``baseline``."""
    return baseline.mean / optimized.mean
