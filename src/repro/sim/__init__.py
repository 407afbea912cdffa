"""Cycle-level simulation substrate: engine, channels, components, tracing."""

from repro.sim.channel import Channel
from repro.sim.component import (
    NEVER,
    OBS_BUSY,
    OBS_IDLE,
    OBS_STALL_IN,
    OBS_STALL_OUT,
    OBS_STATES,
    Component,
    pipe_wake,
)
from repro.sim.engine import (
    DEADLOCK_WINDOW,
    DEFAULT_ENGINE,
    ENGINES,
    STALL_WINDOW,
    Simulator,
)
from repro.sim.trace import NULL_TRACE, Trace, TraceEvent

__all__ = [
    "Channel", "Component", "DEADLOCK_WINDOW", "DEFAULT_ENGINE", "ENGINES",
    "NEVER", "STALL_WINDOW", "Simulator",
    "OBS_BUSY", "OBS_IDLE", "OBS_STALL_IN", "OBS_STALL_OUT", "OBS_STATES",
    "NULL_TRACE", "Trace", "TraceEvent", "pipe_wake",
]
