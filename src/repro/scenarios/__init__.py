"""repro.scenarios — generative workloads for the multicast fairness study.

The paper evaluates the RLA on fixed, hand-built topologies.  This
package turns workloads into first-class, seeded objects:

* :mod:`~repro.scenarios.topologies` — Waxman, transit-stub and jittered
  multicast-tree generators (dedicated ``scenario.topology`` stream);
* :mod:`~repro.scenarios.traffic` — Pareto on/off bursts and short-lived
  TCP "web mice" background traffic (``scenario.traffic`` stream);
* :mod:`~repro.scenarios.churn` — Poisson join / heavy-tailed holding
  receiver churn schedules (``scenario.churn`` stream);
* :mod:`~repro.scenarios.spec` / :mod:`~repro.scenarios.runner` — the
  declarative :class:`ScenarioSpec` and its compilation into audited,
  cacheable :class:`repro.runtime.RunSpec` runs;
* :mod:`~repro.scenarios.catalog` — the named suite behind
  ``repro scenarios list/run``.
"""

from .catalog import (
    CATALOG,
    format_catalog,
    get_scenario,
    scenario_names,
)
from .churn import CHURN_STREAM, ChurnDriver, ChurnSpec, churn_schedule
from .grid import (
    PACKET_MIXES,
    RTT_SPREADS,
    GridSpec,
    format_grid,
    grid_cell,
    grid_specs,
    run_grid,
)
from .runner import (
    MEMBERS_STREAM,
    format_scenarios,
    run_scenario,
)
from .spec import ScenarioSpec
from .topologies import (
    TOPOLOGY_STREAM,
    GeneratedTopology,
    JitteredTreeTopology,
    RttCohortTopology,
    TransitStubTopology,
    WaxmanTopology,
    build_topology,
)
from .traffic import (
    TRAFFIC_STREAM,
    BackgroundTraffic,
    PacketSizeMix,
    ParetoOnOffSource,
    PlacedTraffic,
    WebMiceWorkload,
    pareto_draw,
    place_traffic,
)

__all__ = [
    "CATALOG",
    "CHURN_STREAM",
    "MEMBERS_STREAM",
    "PACKET_MIXES",
    "RTT_SPREADS",
    "TOPOLOGY_STREAM",
    "TRAFFIC_STREAM",
    "BackgroundTraffic",
    "ChurnDriver",
    "ChurnSpec",
    "GeneratedTopology",
    "GridSpec",
    "JitteredTreeTopology",
    "PacketSizeMix",
    "ParetoOnOffSource",
    "PlacedTraffic",
    "RttCohortTopology",
    "ScenarioSpec",
    "TransitStubTopology",
    "WaxmanTopology",
    "WebMiceWorkload",
    "build_topology",
    "churn_schedule",
    "format_catalog",
    "format_grid",
    "format_scenarios",
    "get_scenario",
    "grid_cell",
    "grid_specs",
    "pareto_draw",
    "place_traffic",
    "run_grid",
    "run_scenario",
    "scenario_names",
]
