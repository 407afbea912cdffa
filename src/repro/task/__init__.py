"""Task-level microarchitecture: queues, task units, TXUs, spawn network."""

from repro.task.program import CallSpec, CompiledTask, SpawnSpec
from repro.task.messages import JOIN_CALL, JOIN_SYNC, JoinMessage, SpawnMessage
from repro.task.network import TaskNetwork
from repro.task.task_queue import (
    COMPLETE,
    EXE,
    FREE,
    READY,
    SYNC,
    TaskEntry,
    TaskQueue,
)
from repro.task.task_unit import TaskUnit
from repro.task.txu import DEFAULT_LATENCIES, Instance, TXUTile

__all__ = [
    "CallSpec", "CompiledTask", "SpawnSpec",
    "JOIN_CALL", "JOIN_SYNC", "JoinMessage", "SpawnMessage",
    "TaskNetwork",
    "COMPLETE", "EXE", "FREE", "READY", "SYNC", "TaskEntry", "TaskQueue",
    "TaskUnit",
    "DEFAULT_LATENCIES", "Instance", "TXUTile",
]
