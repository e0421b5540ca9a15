"""Message taxonomy and per-phase communication cost aggregation.

SAMR generates three kinds of traffic, each with its own volume law:

* ``SIBLING``      -- ghost-zone exchange between adjacent grids on one
  level ("boundary information exchange between sibling grids which usually
  is very small", Section 4.1);
* ``PARENT_CHILD`` -- boundary prolongation / restriction between a grid and
  its parent every fine step (the traffic the local phase keeps off the WAN
  by pinning children to the parent's group);
* ``MIGRATION``    -- bulk grid data moved by a balancing action;
* ``PROBE``        -- the two small messages of the cost model's network
  probe (Section 4.2);
* ``CONTROL``      -- small coordination messages (load reports etc.).

Cost model: within one bulk-synchronous phase, messages between the same
``(src, dst)`` processor pair are *bundled* into a single transfer (MPI
codes pack per-neighbour buffers, so the pair pays one latency per phase);
each bundle crosses every link of its route through the system's
:class:`~repro.distsys.topology.NetworkTopology`; per link, propagation
latency is paid once (in-flight transfers overlap), per-bundle software
overhead and bytes serialize (one shared medium), and distinct links
proceed in parallel, so a communication phase lasts as long as its busiest
link.  Messages a processor sends to itself are free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .network import Link
from .system import DistributedSystem

__all__ = ["MessageKind", "MessageBatch", "CommGeometry", "CommPhaseResult",
           "comm_phase_time"]


class MessageKind(enum.Enum):
    """What a message carries (drives reporting, not cost)."""

    SIBLING = "sibling"
    PARENT_CHILD = "parent_child"
    MIGRATION = "migration"
    PROBE = "probe"
    CONTROL = "control"


#: stable kind <-> int-code mapping for :class:`MessageBatch`
_KIND_LIST: List[MessageKind] = list(MessageKind)
_KIND_CODE: Dict[MessageKind, int] = {k: i for i, k in enumerate(_KIND_LIST)}


class MessageBatch:
    """The messages of one phase as parallel arrays (struct-of-arrays).

    The hot communication phases of a run emit thousands of messages, so a
    batch holds ``src``/``dst`` pids, ``nbytes`` (may be fractional:
    aggregate volumes divided among pairs) and a kind code per message, in
    message order, and :func:`comm_phase_time` costs it with array
    operations whose order-sensitive float accumulations (``np.cumsum`` /
    ``np.add.at``) apply in element order, exactly like a per-message
    ``+=`` loop.
    """

    __slots__ = ("src", "dst", "nbytes", "kind_codes")

    def __init__(self, src, dst, nbytes, kind_codes) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.float64)
        self.kind_codes = np.asarray(kind_codes, dtype=np.int8)
        n = self.src.shape[0]
        if not (self.dst.shape[0] == self.nbytes.shape[0]
                == self.kind_codes.shape[0] == n):
            raise ValueError("src/dst/nbytes/kind_codes lengths differ")
        if n and float(self.nbytes.min()) < 0:
            raise ValueError("nbytes must be >= 0")

    @classmethod
    def of_kind(cls, src, dst, nbytes, kind: MessageKind) -> "MessageBatch":
        """A batch whose messages all share one :class:`MessageKind`."""
        src = np.asarray(src, dtype=np.int64)
        codes = np.full(src.shape[0], _KIND_CODE[kind], dtype=np.int8)
        return cls(src, dst, nbytes, codes)

    @classmethod
    def empty(cls) -> "MessageBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int8))

    @staticmethod
    def concatenate(batches: Iterable["MessageBatch"]) -> "MessageBatch":
        """Join batches preserving message order."""
        seq = [b for b in batches if len(b)]
        if not seq:
            return MessageBatch.empty()
        if len(seq) == 1:
            return seq[0]
        return MessageBatch(
            np.concatenate([b.src for b in seq]),
            np.concatenate([b.dst for b in seq]),
            np.concatenate([b.nbytes for b in seq]),
            np.concatenate([b.kind_codes for b in seq]),
        )

    def total_bytes(self) -> float:
        """Sum of all message volumes (metrics only -- not order-sensitive)."""
        return float(self.nbytes.sum())

    def __len__(self) -> int:
        return self.src.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MessageBatch(n={len(self)})"


class CommGeometry:
    """Precomputed routing tables of one :class:`DistributedSystem`.

    Hoists the pid -> group table and the (group, group) -> *route* tables
    out of the message loop.  Routes come from the system's
    :class:`~repro.distsys.topology.NetworkTopology` and are stored per
    ordered group pair in CSR form over the deduplicated link list: the
    distinct links of the pair's route in hop order plus an endpoint flag
    marking the first/last hop links that pay the per-message software
    overhead.  A group talks to itself over its one intra link.  Links are
    deduplicated by object identity, so pairs whose routes share one
    ``Link`` (the spokes of a shared backbone) contend on one medium.
    :class:`~repro.distsys.simulator.ClusterSimulator` builds one instance
    per system and hands it to every :func:`comm_phase_time` call.
    """

    __slots__ = ("nprocs", "ngroups", "group_of_pid", "links", "route_start",
                 "route_len", "route_links_flat", "route_endpoint_flat")

    def __init__(self, system: DistributedSystem) -> None:
        self.nprocs = system.nprocs
        self.ngroups = system.ngroups
        self.group_of_pid = system.pid_groups
        # O(G^2 * route length).  Which integer index a link gets is
        # arbitrary -- only link identity reaches the phase-time
        # accounting -- so enumeration order is free.
        self.links: List[Link] = []
        G = self.ngroups
        self.route_start = np.zeros((G, G), dtype=np.int64)
        self.route_len = np.zeros((G, G), dtype=np.int64)
        flat_links: List[int] = []
        flat_endpoint: List[int] = []
        by_id: Dict[int, int] = {}

        def _index_of(link: Link) -> int:
            idx = by_id.get(id(link))
            if idx is None:
                idx = len(self.links)
                by_id[id(link)] = idx
                self.links.append(link)
            return idx

        def _add_route(a: int, b: int, idxs: List[int]) -> None:
            self.route_start[a, b] = len(flat_links)
            self.route_len[a, b] = len(idxs)
            flat_links.extend(idxs)
            if len(idxs) == 1:
                flat_endpoint.append(1)
            else:
                flat_endpoint.extend([1] + [0] * (len(idxs) - 2) + [1])

        topo = system.topology
        for g in range(G):
            _add_route(g, g, [_index_of(system.groups[g].intra_link)])
        for a in range(G):
            for b in range(a + 1, G):
                idxs = [_index_of(link) for link in topo.route(a, b).links]
                _add_route(a, b, idxs)
                _add_route(b, a, list(reversed(idxs)))
        self.route_links_flat = np.asarray(flat_links, dtype=np.int64)
        self.route_endpoint_flat = np.asarray(flat_endpoint, dtype=np.int64)


@dataclass
class CommPhaseResult:
    """Outcome of one bulk-synchronous communication phase.

    ``elapsed`` is the wall-clock duration (max over links); the ``*_time``
    fields attribute each link's busy time to the local/remote class so the
    Fig. 3 style breakdown can be reported.  Because links run concurrently,
    ``local_time + remote_time >= elapsed`` in general.
    """

    elapsed: float = 0.0
    local_time: float = 0.0
    remote_time: float = 0.0
    local_messages: int = 0
    remote_messages: int = 0
    local_bytes: float = 0.0
    remote_bytes: float = 0.0
    #: bytes by message kind ("sibling", "parent_child", ...), remote link only
    remote_bytes_by_kind: Dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.remote_bytes_by_kind is None:
            self.remote_bytes_by_kind = {}


def comm_phase_time(
    system: DistributedSystem,
    messages: MessageBatch,
    time: float,
    geometry: Optional[CommGeometry] = None,
) -> CommPhaseResult:
    """Cost one bulk-synchronous communication phase starting at ``time``.

    Messages between the same ``(src, dst)`` pair are bundled (volumes
    added -- MPI codes pack per-neighbour buffers).  Every link of a
    bundle's route carries the bundle's bytes (shared-edge contention);
    per-bundle software overhead is paid at the route's two endpoint links
    only, propagation latency once per traversed link.  Each link then
    costs ``alpha(t) + nendpoint * overhead + total_bytes * beta(t)`` --
    on a one-link route, ``alpha`` once plus one overhead per bundle plus
    the bytes at the link's rate (the reference formula in
    ``tests/test_network.py``).  Link conditions are sampled once at the
    phase start (phases are short relative to traffic time scales).

    Per-pair and per-link byte volumes accumulate in message /
    first-appearance order (``np.add.at`` applies its updates sequentially
    in element order; subsetting then ``cumsum`` keeps left-to-right float
    rounding), and link busy times fold into the result in link
    first-appearance order.  ``geometry`` hoists the routing tables out of
    repeated calls; ``None`` builds one on the spot.
    """
    result = CommPhaseResult()
    src, dst = messages.src, messages.dst
    nbytes, kinds = messages.nbytes, messages.kind_codes
    keep = src != dst  # self-messages: no network cost
    if not keep.all():
        src, dst, nbytes, kinds = src[keep], dst[keep], nbytes[keep], kinds[keep]
    n = src.shape[0]
    if n == 0:
        return result
    geo = geometry if geometry is not None else CommGeometry(system)
    gsrc = geo.group_of_pid[src]
    gdst = geo.group_of_pid[dst]
    remote = gsrc != gdst
    nremote = int(np.count_nonzero(remote))
    result.remote_messages = nremote
    result.local_messages = n - nremote
    rbytes = nbytes[remote]
    if rbytes.size:
        result.remote_bytes = float(rbytes.cumsum()[-1])
        rkinds = kinds[remote]
        codes, first = np.unique(rkinds, return_index=True)
        for c in codes[np.argsort(first, kind="stable")]:
            sel = rbytes[rkinds == c]
            result.remote_bytes_by_kind[_KIND_LIST[int(c)].value] = float(
                sel.cumsum()[-1]
            )
    lbytes = nbytes[~remote]
    if lbytes.size:
        result.local_bytes = float(lbytes.cumsum()[-1])

    # bundle volumes per (src, dst) pair, in first-appearance order
    key = src * geo.nprocs + dst
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    sums = np.zeros(first.shape[0], dtype=np.float64)
    np.add.at(sums, inv, nbytes)
    order = np.argsort(first, kind="stable")
    ordered_sums = sums[order]
    ordered_remote = remote[first][order]

    # expand each pair bundle (in first-appearance order) into the
    # distinct links of its route via the CSR tables, then aggregate per
    # link without a per-pair Python loop: np.add.at accumulates each
    # link's bytes in element order, a link's remote flag is that of the
    # *last* bundle crossing it, and busy times fold in link
    # first-appearance order.
    ga_o = gsrc[first][order]
    gb_o = gdst[first][order]
    counts = geo.route_len[ga_o, gb_o]
    starts = geo.route_start[ga_o, gb_o]
    total = int(counts.sum())
    csum = np.cumsum(counts) - counts
    flat = (np.repeat(starts, counts)
            + np.arange(total, dtype=np.int64) - np.repeat(csum, counts))
    elink = geo.route_links_flat[flat]
    ebytes = np.repeat(ordered_sums, counts)
    eendp = geo.route_endpoint_flat[flat]
    eremote = np.repeat(ordered_remote, counts)
    uniq, lfirst, linv = np.unique(elink, return_index=True, return_inverse=True)
    link_sums = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(link_sums, linv, ebytes)
    link_nendp = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(link_nendp, linv, eendp)
    last_pos = np.zeros(uniq.shape[0], dtype=np.int64)
    np.maximum.at(last_pos, linv, np.arange(elink.shape[0]))
    link_remote = eremote[last_pos]

    elapsed = 0.0
    for k in np.argsort(lfirst, kind="stable"):
        link = geo.links[int(uniq[k])]
        busy = (link.alpha(time)
                + int(link_nendp[k]) * link.per_message_overhead
                + float(link_sums[k]) * link.beta(time))
        if link_remote[k]:
            result.remote_time += busy
        else:
            result.local_time += busy
        elapsed = max(elapsed, busy)
    result.elapsed = elapsed
    return result
