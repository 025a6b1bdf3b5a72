"""Traffic generation for the switch simulator.

The paper's evaluation (§4) drives ns-3 with the scenario of ABM
[Addanki et al., SIGCOMM '22]: a datacenter mix of *websearch* background
traffic (Poisson flow arrivals with the heavy-tailed DCTCP websearch flow
sizes) and periodic *incast* (synchronised many-to-one bursts).  This
package reproduces those workloads at packet-time-step granularity:

* :class:`~repro.traffic.distributions.WebsearchSizes` — the piecewise
  DCTCP websearch flow-size CDF;
* :class:`~repro.traffic.generators.PoissonFlowTraffic` — open-loop flow
  arrivals paced at source line rate;
* :class:`~repro.traffic.generators.IncastTraffic` — N-to-1 synchronised
  bursts with configurable fan-in, period and jitter;
* :class:`~repro.traffic.generators.CompositeTraffic` — superposition,
  with per-step source-capacity enforcement (a source port cannot inject
  more than one packet per time step — the paper's "traffic rate
  originating from a port could not surpass its capacity" rule).
"""

from repro.traffic.distributions import (
    FixedSizes,
    FlowSizeDistribution,
    ParetoSizes,
    WebsearchSizes,
)
from repro.traffic.generators import (
    CompositeTraffic,
    IncastTraffic,
    PoissonFlowTraffic,
    ScriptedTraffic,
    TrafficGenerator,
)
from repro.traffic.extra import OnOffTraffic
from repro.traffic.flows import FlowTrafficConfig, FlowTrafficGenerator

__all__ = [
    "FlowSizeDistribution",
    "WebsearchSizes",
    "ParetoSizes",
    "FixedSizes",
    "TrafficGenerator",
    "PoissonFlowTraffic",
    "IncastTraffic",
    "CompositeTraffic",
    "ScriptedTraffic",
    "OnOffTraffic",
    "FlowTrafficConfig",
    "FlowTrafficGenerator",
]
