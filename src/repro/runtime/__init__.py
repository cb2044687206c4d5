"""Execution runtime: processes, coordination, monitoring, lifecycle.

"Processes are generated for each operation of the dataflow and executed
on a network.  The executor module coordinates their execution. ... Logs of
the activities are then collected by the monitor module and made available
to the Web Interface to show statistics on the dataflow execution."
"""

from repro.runtime.stats import TimeSeries, RateEstimator
from repro.runtime.process import OperatorProcess, Route
from repro.runtime.monitor import LogRecord, Monitor
from repro.runtime.executor import Executor, Deployment
from repro.runtime.lifecycle import DeploymentState

__all__ = [
    "TimeSeries",
    "RateEstimator",
    "OperatorProcess",
    "Route",
    "Monitor",
    "LogRecord",
    "Executor",
    "Deployment",
    "DeploymentState",
]
