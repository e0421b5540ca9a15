"""Groups: homogeneous sets of processors sharing an intra-connect.

The paper (Section 4.1): "we define a 'group' as a set of processors which
have the same performance and share an intra-connected network; a group is a
homogeneous system.  A group can be a shared-memory parallel computer, a
distributed-memory parallel computer, or a cluster of workstations.
Communications within a group are referred as local communication, and those
between different groups are remote communications."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .network import Link, origin2000_interconnect
from .processor import Processor

__all__ = ["Group"]


@dataclass
class Group:
    """A homogeneous machine inside a distributed system.

    Parameters
    ----------
    group_id:
        Dense, 0-based id within the owning system.
    name:
        Label used in traces and reports (e.g. ``"ANL"``, ``"NCSA"``).
    processors:
        The member processors; all must carry this ``group_id`` and (being a
        homogeneous system) the same weight.
    intra_link:
        Network connecting the processors of the group (local messages).
    """

    group_id: int
    name: str
    processors: List[Processor]
    intra_link: Link = field(default_factory=origin2000_interconnect)

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError(f"group {self.name!r} must have at least one processor")
        for p in self.processors:
            if p.group_id != self.group_id:
                raise ValueError(
                    f"processor {p.pid} carries group_id {p.group_id}, "
                    f"expected {self.group_id}"
                )
        weights = {p.weight for p in self.processors}
        if len(weights) != 1:
            raise ValueError(
                f"group {self.name!r} is not homogeneous: weights {sorted(weights)} "
                "(the paper defines a group as processors of the same performance)"
            )
        # Groups (like systems) are immutable after construction -- fault
        # schedules build *new* systems rather than mutating -- so the pid
        # list never needs invalidation.
        self._pids = [p.pid for p in self.processors]

    # ------------------------------------------------------------------ #

    @property
    def nprocs(self) -> int:
        return len(self.processors)

    @property
    def processor_weight(self) -> float:
        """The common per-processor weight ``p_g`` of this group."""
        return self.processors[0].weight

    @property
    def pids(self) -> List[int]:
        return self._pids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Group({self.name!r}, id={self.group_id}, nprocs={self.nprocs}, "
            f"weight={self.processor_weight})"
        )
