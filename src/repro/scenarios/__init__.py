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

The root imports none of these (PEP 562): each name loads its module on
first use, and only building a world (:mod:`.runner` and the builders
of :mod:`.topologies` / :mod:`.traffic`) loads the packet simulator, so
``scenarios list`` and the fluid grid never do.
"""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, (
    "repro.scenarios.catalog:CATALOG", "repro.scenarios.churn:CHURN_STREAM",
    "repro.scenarios.runner:MEMBERS_STREAM",
    "repro.scenarios.grid:PACKET_MIXES", "repro.scenarios.grid:RTT_SPREADS",
    "repro.scenarios.topologies:TOPOLOGY_STREAM",
    "repro.scenarios.traffic:TRAFFIC_STREAM",
    "repro.scenarios.traffic:BackgroundTraffic",
    "repro.scenarios.churn:ChurnDriver", "repro.scenarios.churn:ChurnSpec",
    "repro.scenarios.topologies:GeneratedTopology",
    "repro.scenarios.grid:GridSpec",
    "repro.scenarios.topologies:JitteredTreeTopology",
    "repro.scenarios.traffic:PacketSizeMix",
    "repro.scenarios.traffic:ParetoOnOffSource",
    "repro.scenarios.traffic:PlacedTraffic",
    "repro.scenarios.topologies:RttCohortTopology",
    "repro.scenarios.spec:ScenarioSpec",
    "repro.scenarios.topologies:TransitStubTopology",
    "repro.scenarios.topologies:WaxmanTopology",
    "repro.scenarios.traffic:WebMiceWorkload",
    "repro.scenarios.topologies:build_topology",
    "repro.scenarios.churn:churn_schedule",
    "repro.scenarios.catalog:format_catalog",
    "repro.scenarios.grid:format_grid",
    "repro.scenarios.runner:format_scenarios",
    "repro.scenarios.catalog:get_scenario", "repro.scenarios.grid:grid_cell",
    "repro.scenarios.grid:grid_specs", "repro.scenarios.traffic:pareto_draw",
    "repro.scenarios.traffic:place_traffic", "repro.scenarios.grid:run_grid",
    "repro.scenarios.runner:run_scenario",
    "repro.scenarios.catalog:scenario_names",
))
