"""Emulation of the paper's 12-node prototype (section 6)."""

from repro.testbed.prototype import TestbedEmulator
from repro.testbed.nccl import NcclCommunicator, NcclRingChannel
from repro.testbed.accuracy import TimeToAccuracyModel

__all__ = [
    "TestbedEmulator",
    "NcclCommunicator",
    "NcclRingChannel",
    "TimeToAccuracyModel",
]
