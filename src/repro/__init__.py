"""repro: reproduction of "Dynamic Load Balancing of SAMR Applications on
Distributed Systems" (Lan, Taylor, Bryan; Proc. ACM Supercomputing 2001).

Public API tour
---------------
* :mod:`repro.amr` -- structured-AMR kernel: boxes, grid hierarchy,
  Berger--Rigoutsos clustering, recursive integration, plus the paper's two
  datasets (:class:`~repro.amr.applications.ShockPool3D`,
  :class:`~repro.amr.applications.AMR64`) as synthetic refinement drivers.
* :mod:`repro.distsys` -- simulated distributed systems: processor groups,
  shared LAN/WAN links with dynamic background traffic, the two-message
  network probe, and the step-driven cost simulator.
* :mod:`repro.core` -- the DLB schemes, composed from policy components and
  built by name with :func:`~repro.core.make_scheme`: the paper's two-phase
  ``"distributed"`` scheme (gain/cost-gated global phase + group-local
  phase), the ``"parallel"`` baseline, and the ``"static"``,
  ``"diffusion*"`` and ``"sfc:*"`` controls (see ``docs/SCHEMES.md``).
* :mod:`repro.runtime` -- :class:`~repro.runtime.SAMRRunner` executes an
  (application, system, scheme) triple and returns a
  :class:`~repro.metrics.RunResult`.
* :mod:`repro.harness` -- experiment sweeps and the per-figure benchmarks.

Quickstart
----------
>>> from repro import quick_run
>>> result = quick_run("shockpool3d", procs_per_group=2, steps=3)
>>> result.total_time > 0
True
"""

from .config import SchemeParams, SimParams
from .core import SchemeSpec, available_schemes, make_scheme, register_scheme
from .metrics import RunResult, efficiency
from .runtime import SAMRRunner

__version__ = "2.0.0"

__all__ = [
    "SchemeParams",
    "SimParams",
    "SchemeSpec",
    "register_scheme",
    "available_schemes",
    "make_scheme",
    "RunResult",
    "efficiency",
    "SAMRRunner",
    "quick_run",
    "__version__",
]


def quick_run(
    app_name: str = "shockpool3d",
    procs_per_group: int = 2,
    steps: int = 3,
    scheme_name: str = "distributed",
    domain_cells: int = 16,
    max_levels: int = 3,
):
    """Run a small canned experiment and return its :class:`RunResult`.

    ``app_name`` is one of ``"shockpool3d"``, ``"amr64"``, ``"blastwave"``;
    ``scheme_name`` any registered scheme name (see
    :func:`~repro.core.registry.available_schemes`).  ShockPool3D runs on
    the WAN system, AMR64 on the LAN system (as in the paper); BlastWave
    uses the WAN system.
    """
    from .amr.applications import AMR64, BlastWave, ShockPool3D
    from .distsys import ConstantTraffic, build_system, lan_spec, wan_spec

    apps = {
        "shockpool3d": ShockPool3D,
        "amr64": AMR64,
        "blastwave": BlastWave,
    }
    if app_name not in apps:
        raise ValueError(f"unknown app {app_name!r}; pick one of {sorted(apps)}")
    app = apps[app_name](domain_cells=domain_cells, max_levels=max_levels)
    traffic = ConstantTraffic(0.3)
    spec = (
        lan_spec(procs_per_group)
        if app_name == "amr64"
        else wan_spec(procs_per_group)
    )
    system = build_system(spec, traffic=traffic)
    runner = SAMRRunner(app, system, make_scheme(scheme_name))
    return runner.run(steps)
