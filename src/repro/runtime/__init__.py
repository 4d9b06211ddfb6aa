"""Deterministic cooperative concurrency substrate."""

from .scheduler import CarrierPool, Hang, RunOutcome, Scheduler
from .thread import SimThread, ThreadKilled, ThreadState
from .policies import (
    DelayInjectionPolicy,
    RecordingPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    SeededRandomPolicy,
)
from .sync import SimLock, SimRWLock

__all__ = [
    "Scheduler",
    "CarrierPool",
    "RunOutcome",
    "Hang",
    "SimThread",
    "ThreadState",
    "ThreadKilled",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "SeededRandomPolicy",
    "DelayInjectionPolicy",
    "RecordingPolicy",
    "ReplayPolicy",
    "SimLock",
    "SimRWLock",
]
