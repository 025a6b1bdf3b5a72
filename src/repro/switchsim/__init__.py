"""Discrete-time shared-buffer output-queued switch simulator.

This package is the repo's substitute for the paper's ns-3 setup (§4): it
simulates the switch of Fig. 2 — ``N`` output ports, two queues per port,
one buffer shared by every queue with Dynamic-Threshold (DT) admission
[Choudhury & Hahne 1998], and a work-conserving scheduler that dequeues at
line rate (one packet per port per time step).

Time is discretised into *packet time steps*: one step is the time to
transmit one packet at line rate, matching the FM model of §2.3 (the paper
notes ~90 steps per 1 ms fine-grained bin).  The simulation records
per-step queue lengths and per-port received/sent/dropped counters, which
:mod:`repro.telemetry` then bins into the fine-grained (1 ms) ground truth
and samples into the coarse-grained (50 ms) operator view.
"""

from repro.switchsim.packet import Packet
from repro.switchsim.aqm import (
    AQM_ADMIT,
    AQM_ADMIT_MARK,
    AQM_DROP,
    AqmConfig,
    AqmPolicy,
    DtPolicy,
    EcnPolicy,
    RedPolicy,
)
from repro.switchsim.buffer import SharedBuffer
from repro.switchsim.queues import OutputQueue
from repro.switchsim.fabric import (
    Fabric,
    FabricTrace,
    TopologyConfig,
    fabric_switch_configs,
)
from repro.switchsim.scheduler import (
    RoundRobinScheduler,
    Scheduler,
    StrictPriorityScheduler,
)
from repro.switchsim.switch import OutputQueuedSwitch, StepCounters, SwitchConfig
from repro.switchsim.simulation import Simulation, SimulationTrace
from repro.switchsim.engine import ArraySwitchEngine, EngineUnsupported
from repro.switchsim.cache import TraceCache
from repro.switchsim.io import load_trace, save_trace

__all__ = [
    "Packet",
    "AQM_DROP",
    "AQM_ADMIT",
    "AQM_ADMIT_MARK",
    "AqmPolicy",
    "AqmConfig",
    "DtPolicy",
    "RedPolicy",
    "EcnPolicy",
    "SharedBuffer",
    "OutputQueue",
    "TopologyConfig",
    "Fabric",
    "FabricTrace",
    "fabric_switch_configs",
    "Scheduler",
    "RoundRobinScheduler",
    "StrictPriorityScheduler",
    "OutputQueuedSwitch",
    "SwitchConfig",
    "StepCounters",
    "Simulation",
    "SimulationTrace",
    "ArraySwitchEngine",
    "EngineUnsupported",
    "TraceCache",
    "save_trace",
    "load_trace",
]
