"""Exact multiply/add tallies shared by the conversion and reduction stages."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpCounter"]


@dataclass
class OpCounter:
    """Tally of scalar multiplies and adds performed by instrumented kernels.

    Counts are recorded at the site of each vectorized array operation from
    the actual array sizes involved, so they are exact and hardware
    independent. Counters compose additively across pipeline stages.
    """

    multiplies: int = 0
    adds: int = 0

    def record(self, multiplies: int = 0, adds: int = 0) -> None:
        if multiplies < 0 or adds < 0:
            raise ValueError("operation counts must be non-negative")
        self.multiplies += multiplies
        self.adds += adds

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(self.multiplies + other.multiplies, self.adds + other.adds)
