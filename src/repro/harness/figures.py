"""Per-figure regeneration: one function per figure of the paper.

Figures 1/2/4/5/6 are structural (they illustrate the algorithm); their
functions rebuild the depicted structure from the real implementation and
render it as text.  Figures 3/7/8 are measurements; their functions run the
actual experiments and tabulate the same series the paper plots.  Every
function returns a dataclass carrying both the raw data (asserted on by
tests) and a ``render()`` string (printed by the benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..amr.applications import ShockPool3D
from ..amr.hierarchy import GridHierarchy
from ..amr.integrator import integration_order
from ..amr.regrid import regrid_level
from ..core import make_scheme
from ..distsys.events import (
    ComputeEvent,
    GlobalDecisionEvent,
    LocalBalanceEvent,
    RedistributionEvent,
)
from ..runtime import SAMRRunner, root_blocks
from .experiment import ExperimentConfig, make_app, make_system, run_experiment
from .report import format_percent, format_table
from .sweep import PAPER_CONFIGS, SweepResult, run_sweep

__all__ = [
    "fig1_hierarchy",
    "fig2_integration_order",
    "fig3_parallel_vs_distributed",
    "fig4_flowchart_trace",
    "fig5_balance_points",
    "fig6_global_redistribution",
    "fig7_execution_time",
    "fig8_efficiency",
]


# --------------------------------------------------------------------- #
# Fig. 1 -- SAMR grid hierarchy
# --------------------------------------------------------------------- #


@dataclass
class Fig1Result:
    """A four-level hierarchy built by the real regridding pipeline."""

    levels: List[Tuple[int, int, int]]  # (level, ngrids, ncells)
    hierarchy: GridHierarchy

    def render(self) -> str:
        rows = [(l, g, c) for l, g, c in self.levels]
        return format_table(
            ["level", "grids", "cells"],
            rows,
            title="Fig. 1: SAMR grid hierarchy (tree of grids, 4 levels, r=2)",
        )


def fig1_hierarchy(domain_cells: int = 32, max_levels: int = 4) -> Fig1Result:
    """Rebuild the Fig. 1 situation: a hierarchy after several adaptations.

    Uses the ShockPool3D refinement behaviour in 2-D (the paper's figure is
    a 2-D illustration) and the real flag->cluster->regrid pipeline.
    """
    app = ShockPool3D(
        domain_cells=domain_cells, max_levels=max_levels, ndim=2, tilt=0.35,
        thickness_cells=2.0,
    )
    hierarchy = GridHierarchy(app.domain, app.refinement_ratio, max_levels)
    hierarchy.create_root_grids(
        root_blocks(app.domain, (2, 2)), work_per_cell=app.work_per_cell(0)
    )
    for level in range(max_levels - 1):
        regrid_level(hierarchy, app, level, time=0.0)
    hierarchy.validate()
    levels = [
        (l, len(hierarchy.level_grids(l)), sum(g.ncells for g in hierarchy.level_grids(l)))
        for l in range(max_levels)
    ]
    return Fig1Result(levels=levels, hierarchy=hierarchy)


# --------------------------------------------------------------------- #
# Fig. 2 -- integration execution order
# --------------------------------------------------------------------- #


@dataclass
class Fig2Result:
    """The recursive execution order for 4 levels, refinement factor 2."""

    order: List[int]
    #: the paper's labels: position i (0-based) executed as the (i+1)-th step
    expected: List[int] = field(
        default_factory=lambda: [0, 1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3]
    )

    @property
    def matches_paper(self) -> bool:
        return self.order == self.expected

    def render(self) -> str:
        rows = [(i + 1, f"level {l}") for i, l in enumerate(self.order)]
        return format_table(
            ["step", "solve"],
            rows,
            title="Fig. 2: integrated execution order (4 levels, r=2)",
        )


def fig2_integration_order(nlevels: int = 4, ratio: int = 2) -> Fig2Result:
    result = Fig2Result(order=integration_order(nlevels, ratio))
    if nlevels != 4 or ratio != 2:
        result.expected = result.order  # paper labels only defined for 4/2
    return result


# --------------------------------------------------------------------- #
# Fig. 3 -- parallel vs distributed execution (both with parallel DLB)
# --------------------------------------------------------------------- #


@dataclass
class Fig3Row:
    label: str
    parallel_compute: float
    parallel_comm: float
    distributed_compute: float
    distributed_comm: float


@dataclass
class Fig3Result:
    rows: List[Fig3Row]

    def render(self) -> str:
        table_rows = [
            (
                r.label,
                r.parallel_compute,
                r.parallel_comm,
                r.distributed_compute,
                r.distributed_comm,
            )
            for r in self.rows
        ]
        return format_table(
            ["config", "par comp [s]", "par comm [s]", "dist comp [s]", "dist comm [s]"],
            table_rows,
            title=(
                "Fig. 3: parallel machine vs distributed system, both running "
                "parallel DLB (ShockPool3D)"
            ),
        )


def fig3_parallel_vs_distributed(
    configs: Sequence[int] = PAPER_CONFIGS,
    base: Optional[ExperimentConfig] = None,
) -> Fig3Result:
    """Section 3's motivation: the WAN makes communication, not computation,
    blow up when the same (group-oblivious) scheme runs distributed."""
    base = base or ExperimentConfig(app_name="shockpool3d", network="wan")
    rows = []
    for n in configs:
        par_cfg = replace(base, network="parallel", procs_per_group=n)
        dist_cfg = replace(base, network="wan", procs_per_group=n)
        par = run_experiment(par_cfg, "parallel")
        dist = run_experiment(dist_cfg, "parallel")
        rows.append(
            Fig3Row(
                label=f"{n}+{n}",
                parallel_compute=par.compute_time,
                parallel_comm=par.comm_time,
                distributed_compute=dist.compute_time,
                distributed_comm=dist.comm_time,
            )
        )
    return Fig3Result(rows=rows)


# --------------------------------------------------------------------- #
# Fig. 4 -- distributed-DLB flowchart trace
# --------------------------------------------------------------------- #


@dataclass
class Fig4Result:
    """Control-flow trace of the distributed scheme over a short run."""

    lines: List[str]
    ndecisions: int
    nredistributions: int
    nlocal_balances: int

    def render(self) -> str:
        header = "Fig. 4: distributed DLB control-flow trace (one event per line)"
        return "\n".join([header] + [f"  {l}" for l in self.lines])


def fig4_flowchart_trace(cfg: Optional[ExperimentConfig] = None) -> Fig4Result:
    cfg = cfg or ExperimentConfig(app_name="shockpool3d", network="wan",
                                  procs_per_group=2, steps=3)
    result = run_experiment(cfg, "distributed")
    lines: List[str] = []
    for e in result.events:
        if isinstance(e, GlobalDecisionEvent):
            verdict = "INVOKE global redistribution" if e.invoked else "skip"
            lines.append(
                f"t={e.time:8.3f}  gain>gamma*cost?  gain={e.gain:.3f} "
                f"cost={e.cost:.3f} gamma={e.gamma:.1f} -> {verdict}"
            )
        elif isinstance(e, RedistributionEvent):
            lines.append(
                f"t={e.time:8.3f}  GLOBAL: moved {e.moved_grids} level-0 grids "
                f"({e.moved_cells} cells) in {e.elapsed:.3f}s"
            )
        elif isinstance(e, LocalBalanceEvent):
            lines.append(
                f"t={e.time:8.3f}  local balance level {e.level}: "
                f"{e.moved_grids} grids moved within groups"
            )
        elif isinstance(e, ComputeEvent) and e.level == 0:
            lines.append(f"t={e.time:8.3f}  solver at level 0 (seq {e.seq})")
    log = result.events
    return Fig4Result(
        lines=lines,
        ndecisions=len(log.of_type(GlobalDecisionEvent)),
        nredistributions=len(log.of_type(RedistributionEvent)),
        nlocal_balances=len(log.of_type(LocalBalanceEvent)),
    )


# --------------------------------------------------------------------- #
# Fig. 5 -- balancing points in the integration order
# --------------------------------------------------------------------- #


@dataclass
class Fig5Result:
    """Which balancing actions surround which solver steps."""

    #: (seq, level, balance_marks) per solver sub-step of one coarse step
    steps: List[Tuple[int, int, List[str]]]
    globals_per_coarse_step: int

    def render(self) -> str:
        rows = [(s, f"level {l}", ", ".join(m) if m else "-") for s, l, m in self.steps]
        return format_table(
            ["seq", "solve", "balancing after"],
            rows,
            title="Fig. 5: integration order with balancing points",
        )


def fig5_balance_points(cfg: Optional[ExperimentConfig] = None) -> Fig5Result:
    cfg = cfg or ExperimentConfig(app_name="shockpool3d", network="wan",
                                  procs_per_group=2, steps=2, max_levels=3)
    result = run_experiment(cfg, "distributed")
    events = list(result.events)
    # take the last coarse step: from the last GlobalDecisionEvent on
    last_decision = max(
        i for i, e in enumerate(events) if isinstance(e, GlobalDecisionEvent)
    )
    steps: List[Tuple[int, int, List[str]]] = []
    current: Optional[Tuple[int, int]] = None
    marks: List[str] = []
    nglobals = 0
    for e in events[last_decision:]:
        if isinstance(e, GlobalDecisionEvent):
            nglobals += 1
        if isinstance(e, ComputeEvent):
            if current is not None:
                steps.append((current[0], current[1], marks))
            current = (e.seq, e.level)
            marks = []
        elif isinstance(e, LocalBalanceEvent):
            marks.append(f"local@L{e.level}")
        elif isinstance(e, RedistributionEvent):
            marks.append("global")
    if current is not None:
        steps.append((current[0], current[1], marks))
    return Fig5Result(steps=steps, globals_per_coarse_step=nglobals)


# --------------------------------------------------------------------- #
# Fig. 6 -- global redistribution example
# --------------------------------------------------------------------- #


@dataclass
class Fig6Result:
    """Group loads around the first global redistribution of a run."""

    before: Dict[int, float]
    after: Dict[int, float]
    moved_grids: int
    moved_cells: int
    predicted_cost: float
    actual_elapsed: float

    def imbalance(self, loads: Dict[int, float]) -> float:
        hi, lo = max(loads.values()), min(loads.values())
        return hi / lo if lo > 0 else float("inf")

    def render(self) -> str:
        rows = [
            (f"group {g}", self.before[g], self.after[g]) for g in sorted(self.before)
        ]
        table = format_table(
            ["", "effective load before", "after"],
            rows,
            title="Fig. 6: global redistribution (boundary shift A -> B)",
        )
        tail = (
            f"moved {self.moved_grids} level-0 grids ({self.moved_cells} cells); "
            f"predicted cost {self.predicted_cost:.3f}s, actual {self.actual_elapsed:.3f}s"
        )
        return table + "\n" + tail


def fig6_global_redistribution(cfg: Optional[ExperimentConfig] = None) -> Fig6Result:
    """Drive a run until its first global redistribution and report the
    before/after group loads (the paper's shaded-slice example)."""
    from ..core.global_phase import effective_level0_loads

    cfg = cfg or ExperimentConfig(app_name="shockpool3d", network="wan",
                                  procs_per_group=2, steps=6)
    captures: List[Tuple[Dict[int, float], Dict[int, float]]] = []

    class CapturingRunner(SAMRRunner):
        """Snapshots group loads immediately around the global phase."""

        def global_balance(self, time: float) -> None:
            pre = self._group_loads()
            n_before = len(self.sim.log.of_type(RedistributionEvent))
            super().global_balance(time)
            if len(self.sim.log.of_type(RedistributionEvent)) > n_before:
                captures.append((pre, self._group_loads()))

        def _group_loads(self) -> Dict[int, float]:
            loads = np.bincount(self.system.pid_groups[self.assignment.owners(0)],
                                weights=effective_level0_loads(self.ctx),
                                minlength=self.system.ngroups)
            return dict(enumerate(loads.tolist()))

    runner = CapturingRunner(
        make_app(cfg), make_system(cfg), make_scheme("distributed"),
        sim_params=cfg.sim_params, scheme_params=cfg.effective_scheme_params(),
    )
    for _ in range(cfg.steps):
        runner.integrator.step()
        if captures:
            break
    if not captures:
        raise RuntimeError(
            "no global redistribution fired; increase steps or imbalance"
        )
    before, after = captures[0]
    ev = runner.sim.log.of_type(RedistributionEvent)[-1]
    return Fig6Result(
        before=before,
        after=after,
        moved_grids=ev.moved_grids,
        moved_cells=ev.moved_cells,
        predicted_cost=ev.predicted_cost,
        actual_elapsed=ev.elapsed,
    )


# --------------------------------------------------------------------- #
# Fig. 7 -- execution time, parallel DLB vs distributed DLB
# --------------------------------------------------------------------- #


@dataclass
class Fig7Result:
    app: str
    network: str
    sweep: SweepResult
    paper_range: Tuple[float, float]
    paper_average: float

    @property
    def measured_range(self) -> Tuple[float, float]:
        vals = self.sweep.improvements
        return (min(vals), max(vals))

    def render(self) -> str:
        rows = [
            (
                p.config.label,
                p.parallel.total_time,
                p.distributed.total_time,
                format_percent(p.improvement),
            )
            for p in self.sweep.pairs
        ]
        table = format_table(
            ["config", "parallel DLB [s]", "distributed DLB [s]", "improvement"],
            rows,
            title=f"Fig. 7: total execution time -- {self.app} on {self.network}",
        )
        lo, hi = self.measured_range
        tail = (
            f"measured improvement {format_percent(lo)}..{format_percent(hi)} "
            f"(avg {format_percent(self.sweep.average_improvement)}); paper: "
            f"{format_percent(self.paper_range[0])}..{format_percent(self.paper_range[1])} "
            f"(avg {format_percent(self.paper_average)})"
        )
        return table + "\n" + tail


#: the paper's reported improvement ranges (Section 5)
PAPER_FIG7 = {
    "amr64": ((0.090, 0.459), 0.297),
    "shockpool3d": ((0.026, 0.442), 0.237),
}


def fig7_execution_time(
    app_name: str = "shockpool3d",
    configs: Sequence[int] = PAPER_CONFIGS,
    steps: int = 6,
    traffic_level: float = 0.45,
    with_sequential: bool = False,
) -> Fig7Result:
    network = "lan" if app_name == "amr64" else "wan"
    base = ExperimentConfig(app_name=app_name, network=network, steps=steps,
                            traffic_level=traffic_level)
    sweep = run_sweep(base, procs_per_group=configs,
                      with_sequential=with_sequential)
    (paper_range, paper_avg) = PAPER_FIG7.get(app_name, ((0.0, 1.0), 0.0))
    return Fig7Result(
        app=app_name, network=network, sweep=sweep,
        paper_range=paper_range, paper_average=paper_avg,
    )


# --------------------------------------------------------------------- #
# Fig. 8 -- efficiency
# --------------------------------------------------------------------- #


@dataclass
class Fig8Result:
    app: str
    network: str
    sweep: SweepResult
    paper_range: Tuple[float, float]

    def efficiency_rows(self) -> List[Tuple[str, float, float, float]]:
        rows = []
        for p in self.sweep.pairs:
            e_par = p.parallel_efficiency
            e_dist = p.distributed_efficiency
            rows.append((p.config.label, e_par, e_dist, (e_dist - e_par) / e_par))
        return rows

    @property
    def measured_range(self) -> Tuple[float, float]:
        gains = [r[3] for r in self.efficiency_rows()]
        return (min(gains), max(gains))

    def render(self) -> str:
        rows = [
            (label, e_par, e_dist, format_percent(gain))
            for label, e_par, e_dist, gain in self.efficiency_rows()
        ]
        table = format_table(
            ["config", "parallel DLB eff", "distributed DLB eff", "improvement"],
            rows,
            title=f"Fig. 8: efficiency E(1)/(E*P) -- {self.app} on {self.network}",
        )
        lo, hi = self.measured_range
        tail = (
            f"measured efficiency improvement {format_percent(lo)}..{format_percent(hi)}; "
            f"paper: {format_percent(self.paper_range[0])}.."
            f"{format_percent(self.paper_range[1])}"
        )
        return table + "\n" + tail


#: the paper's reported efficiency-improvement ranges (Section 5)
PAPER_FIG8 = {
    "amr64": (0.099, 0.848),
    "shockpool3d": (0.026, 0.794),
}


def fig8_efficiency(
    app_name: str = "shockpool3d",
    configs: Sequence[int] = PAPER_CONFIGS,
    steps: int = 6,
    traffic_level: float = 0.45,
) -> Fig8Result:
    network = "lan" if app_name == "amr64" else "wan"
    base = ExperimentConfig(app_name=app_name, network=network, steps=steps,
                            traffic_level=traffic_level)
    sweep = run_sweep(base, procs_per_group=configs, with_sequential=True)
    return Fig8Result(
        app=app_name, network=network, sweep=sweep,
        paper_range=PAPER_FIG8.get(app_name, (0.0, 1.0)),
    )
