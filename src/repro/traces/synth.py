"""Synthetic workload generators: parameterised trace sources beyond the
paper's applications.

A :class:`SyntheticWorkload` plays the role the AMR application's flags
play in a real run: given a coarse level and an integration time it yields
the cluster boxes to refine (in coarse-level coordinates, pre-clipping --
exactly what the recorder captures from Berger--Rigoutsos).
:func:`generate_trace` drives the real :class:`~repro.amr.SAMRIntegrator`
recursion over those boxes to produce a schema-identical trace, so
synthetic workloads flow through the replayer, the executor and the sweeps
like recorded ones.

Generators register by name (mirroring the scheme registry), so
``repro replay --source synth:hotspot`` resolves the same way
``--scheme distributed`` does.  Built-ins:

``hotspot``
    A refinement region of fixed size moving through the domain --
    the canonical travelling-feature workload (shock front, star).
``bursty``
    A small steady feature whose refined fraction periodically explodes
    to a large fraction of the domain -- stresses the gain/cost gate's
    amortisation assumption (Eq. 4's remap interval).
``adversarial``
    The whole refined region teleports between opposite corners along
    axis 0 every coarse step -- the worst case for the contiguous group
    split, forcing maximal inter-group imbalance at every balance point.

Determinism: generators may use :class:`random.Random` seeded from their
``seed`` parameter, never wall-clock or global state; the same
``(generator, parameters, steps, nprocs)`` always yields the identical
trace.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Type

from ..amr.box import Box
from ..amr.hierarchy import GridHierarchy
from ..amr.integrator import IntegratorHooks, SAMRIntegrator
from ..amr.regrid import apply_cluster_boxes
from .schema import Trace, build_header, encode_box

__all__ = [
    "SyntheticWorkload",
    "MovingHotspot",
    "BurstyRefinement",
    "AdversarialImbalance",
    "register_synth_workload",
    "available_synth_workloads",
    "make_synth_workload",
    "parse_synth_source",
    "generate_trace",
    "disjoint_boxes",
    "SYNTH_PREFIX",
]

SYNTH_PREFIX = "synth:"


class SyntheticWorkload:
    """Base class: a parameterised stream of refinement cluster boxes.

    Subclasses implement :meth:`cluster_boxes`; everything is expressed in
    fractions of the unit cube and scaled to lattice coordinates here, so
    one generator serves any ``domain_cells`` / ``max_levels``.

    Parameters
    ----------
    domain_cells:
        Root cells per axis (cube domain, like the built-in apps).
    max_levels:
        Refinement levels.
    seed:
        Seed for any stochastic structure (phases, burst schedules).
    intensity:
        Scales the refined fraction; 1.0 is the calibrated default.
    """

    #: registry name; subclasses must override
    name = "abstract"

    def __init__(self, domain_cells: int = 16, max_levels: int = 3,
                 ndim: int = 3, refinement_ratio: int = 2, seed: int = 0,
                 intensity: float = 1.0) -> None:
        if domain_cells < 4:
            raise ValueError("domain_cells must be >= 4")
        if max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if intensity <= 0:
            raise ValueError("intensity must be > 0")
        self.domain_cells = int(domain_cells)
        self.max_levels = int(max_levels)
        self.ndim = int(ndim)
        self.refinement_ratio = int(refinement_ratio)
        self.seed = int(seed)
        self.intensity = float(intensity)
        self.domain = Box((0,) * ndim, (domain_cells,) * ndim)

    def work_per_cell(self, level: int) -> float:
        """Work units per cell per solve at ``level`` (flat by default)."""
        return 1.0

    def cluster_boxes(self, coarse_level: int, time: float) -> List[Box]:
        """Cluster boxes to refine, in level-``coarse_level`` coordinates."""
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------- #

    def _level_cells(self, level: int) -> int:
        return self.domain_cells * self.refinement_ratio**level

    def _frac_box(self, lo: List[float], hi: List[float], level: int) -> Box:
        """Unit-cube fractions -> a clamped, non-empty lattice box at
        ``level`` coordinates."""
        n = self._level_cells(level)
        lo_i = [max(0, min(n - 1, int(n * x))) for x in lo]
        hi_i = [max(0, min(n, int(n * x + 0.999999))) for x in hi]
        hi_i = [max(h, lo + 1) for lo, h in zip(lo_i, hi_i)]
        return Box(tuple(lo_i), tuple(hi_i))


class MovingHotspot(SyntheticWorkload):
    """A fixed-size refinement region travelling through the domain.

    The hotspot centre moves along a seed-chosen direction with wraparound;
    every level refines the same physical region (nested refinement), so
    the workload slides across the level-0 grids -- and, on a two-group
    system, eventually across the group boundary.
    """

    name = "hotspot"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        rng = random.Random(self.seed)
        #: fraction of the domain edge covered by the hotspot
        self.size = min(0.8, 0.3 * self.intensity)
        #: per-axis velocity in domain fractions per unit time
        self.velocity = [0.11 + 0.07 * rng.random() for _ in range(self.ndim)]
        self.origin = [0.1 + 0.5 * rng.random() for _ in range(self.ndim)]

    def cluster_boxes(self, coarse_level: int, time: float) -> List[Box]:
        half = self.size / 2.0
        lo, hi = [], []
        for d in range(self.ndim):
            c = (self.origin[d] + self.velocity[d] * time) % 1.0
            lo.append(max(0.0, c - half))
            hi.append(min(1.0, c + half))
        return [self._frac_box(lo, hi, coarse_level)]


class BurstyRefinement(SyntheticWorkload):
    """A small steady feature with periodic refinement explosions.

    Outside bursts only a central core is refined; during a burst (one in
    every ``period`` coarse steps, schedule drawn from ``seed``) several
    additional large regions appear at seed-chosen positions.  Exercises
    how quickly a scheme re-amortises its redistribution cost when the
    workload's size -- not just its position -- swings.
    """

    name = "bursty"

    def __init__(self, period: int = 3, **kwargs) -> None:
        super().__init__(**kwargs)
        if period < 2:
            raise ValueError("period must be >= 2")
        self.period = int(period)
        self._rng_base = random.Random(self.seed)
        self.core = 0.22 * min(2.0, self.intensity)
        self.nburst_boxes = max(1, int(round(2 * self.intensity)))

    def _is_burst(self, coarse_step: int) -> bool:
        return coarse_step % self.period == self.period - 1

    def cluster_boxes(self, coarse_level: int, time: float) -> List[Box]:
        half = self.core / 2.0
        boxes = [self._frac_box([0.5 - half] * self.ndim,
                                [0.5 + half] * self.ndim, coarse_level)]
        step = int(time)  # dt0 = 1 in generated traces
        if self._is_burst(step):
            rng = random.Random(f"{self.seed}:{step}")
            for _ in range(self.nburst_boxes):
                lo = [rng.uniform(0.0, 0.55) for _ in range(self.ndim)]
                size = rng.uniform(0.25, 0.45)
                hi = [min(1.0, x + size) for x in lo]
                boxes.append(self._frac_box(lo, hi, coarse_level))
        return boxes


class AdversarialImbalance(SyntheticWorkload):
    """Maximum-imbalance stressor: the refined region teleports between
    opposite corners along axis 0 every coarse step.

    Because every built-in partitioner splits groups contiguously along
    axis 0, all refined workload lands inside one group's slab each step
    and the other group idles -- the theoretical worst case for Eq. 2's
    imbalance ratio, forcing the gain/cost gate to fire (or provably pay
    for not firing) at every balance point.
    """

    name = "adversarial"

    def cluster_boxes(self, coarse_level: int, time: float) -> List[Box]:
        frac = min(0.9, 0.45 * self.intensity)
        step = int(time)
        lo = [0.0] * self.ndim
        hi = [frac] * self.ndim
        if step % 2 == 1:
            # mirror to the opposite corner along every axis
            lo, hi = [1.0 - f for f in hi], [1.0 - f for f in lo]
        return [self._frac_box(lo, hi, coarse_level)]


# -------------------------------------------------------------------------- #
# registry (mirrors repro.core.registry for schemes)
# -------------------------------------------------------------------------- #

def disjoint_boxes(boxes: List[Box]) -> List[Box]:
    """Make a box list pairwise-disjoint, earlier boxes winning overlaps.

    Berger--Rigoutsos clustering emits disjoint boxes, and the replayer's
    fast grid insertion relies on that invariant -- so generator output is
    normalised here before it is recorded.
    """
    kept: List[Box] = []
    for box in boxes:
        frags = [box]
        for k in kept:
            frags = [p for f in frags for p in f.difference(k)]
        kept.extend(f for f in frags if not f.is_empty)
    return kept


_SYNTH: Dict[str, Type[SyntheticWorkload]] = {}


def register_synth_workload(cls: Type[SyntheticWorkload],
                            name: Optional[str] = None) -> Type[SyntheticWorkload]:
    """Register a generator class under ``name`` (default ``cls.name``).

    Re-registering a name replaces it (latest wins), like the scheme
    registry.  Returns ``cls`` so it doubles as a class decorator.
    """
    key = name or cls.name
    if not key or key == "abstract":
        raise ValueError("synthetic workloads need a non-default name")
    _SYNTH[key] = cls
    return cls


def available_synth_workloads() -> List[str]:
    """Sorted registered generator names."""
    return sorted(_SYNTH)


def make_synth_workload(name: str, **kwargs) -> SyntheticWorkload:
    """Instantiate a registered generator by name."""
    try:
        cls = _SYNTH[name]
    except KeyError:
        raise ValueError(
            f"unknown synthetic workload {name!r}; registered: "
            f"{', '.join(available_synth_workloads())}"
        ) from None
    return cls(**kwargs)


def parse_synth_source(source: str) -> Optional[str]:
    """``"synth:<name>"`` -> ``"<name>"``; ``None`` for anything else."""
    if not source.startswith(SYNTH_PREFIX):
        return None
    name = source[len(SYNTH_PREFIX):]
    if not name:
        raise ValueError("empty synthetic workload name in 'synth:' source")
    return name


for _cls in (MovingHotspot, BurstyRefinement, AdversarialImbalance):
    register_synth_workload(_cls)


# -------------------------------------------------------------------------- #
# trace generation
# -------------------------------------------------------------------------- #


class _SynthBuilder(IntegratorHooks):
    """Integrator hooks that *emit trace records* instead of simulating.

    Owns a bare hierarchy so the record stream has exactly the hook order a
    live run produces (Fig. 4/5 control flow) -- the replayer consumes it
    with the same alignment checks as a recorded trace, and derives message
    volumes from its own hierarchy exactly as it does for a recorded one.
    """

    def __init__(self, workload: SyntheticWorkload, hierarchy: GridHierarchy,
                 records: List[dict], min_piece_cells: int) -> None:
        self.workload = workload
        self.hierarchy = hierarchy
        self.records = records
        self.min_piece_cells = min_piece_cells
        self._nglobals = 0

    def global_balance(self, time: float) -> None:
        self.records.append({"op": "global", "t": time, "s": self._nglobals})
        self._nglobals += 1

    def solve(self, step) -> None:
        w = self.hierarchy.level_workloads(step.level).tolist()
        self.records.append({"op": "solve", "l": step.level, "q": step.seq,
                             "w": w})

    def regrid(self, level: int, time: float) -> None:
        boxes = disjoint_boxes(self.workload.cluster_boxes(level, time))
        wpc = self.workload.work_per_cell(level + 1)
        self.records.append({"op": "regrid", "l": level, "t": time,
                             "b": [encode_box(b) for b in boxes],
                             "wpc": wpc})
        apply_cluster_boxes(self.hierarchy, level, boxes, wpc,
                            min_piece_cells=self.min_piece_cells)

    def local_balance(self, level: int, time: float) -> None:
        self.records.append({"op": "local", "l": level, "t": time})


def generate_trace(workload: SyntheticWorkload, *, steps: int, nprocs: int,
                   dt0: float = 1.0, min_piece_cells: int = 1) -> Trace:
    """Drive ``workload`` through the SAMR integration recursion into a
    trace.

    ``nprocs`` sizes the root tiling (same heuristic as a live run:
    several level-0 blocks per processor), so per-config generation inside
    a sweep gives every system an appropriately granular workload.
    Deterministic: same arguments, identical trace.
    """
    from ..runtime.runner import default_blocks_per_axis, root_blocks

    if steps < 1:
        raise ValueError("steps must be >= 1")
    hierarchy = GridHierarchy(workload.domain, workload.refinement_ratio,
                              workload.max_levels)
    root_wpc = workload.work_per_cell(0)
    hierarchy.create_root_grids(
        root_blocks(workload.domain, default_blocks_per_axis(workload.domain, nprocs)),
        work_per_cell=root_wpc)
    roots = hierarchy.level_boxes(0)
    records: List[dict] = []
    builder = _SynthBuilder(workload, hierarchy, records, min_piece_cells)
    # initial adaptation, mirroring SAMRRunner.__init__
    for level in range(hierarchy.max_levels - 1):
        builder.regrid(level, 0.0)
    # strip the init-regrid records' emission order note: they are plain
    # regrid records, consumed by the replayer's own init loop
    integrator = SAMRIntegrator(hierarchy, builder, dt0=dt0)
    integrator.run(steps)
    header = build_header(
        app=f"{SYNTH_PREFIX}{workload.name}",
        scheme="synth",
        nsteps=steps,
        dt0=dt0,
        domain=workload.domain,
        refinement_ratio=workload.refinement_ratio,
        max_levels=workload.max_levels,
        root_boxes=roots,
        root_wpc=root_wpc,
        min_piece_cells=min_piece_cells,
        seed=workload.seed,
    )
    return Trace(header=header, records=records)
