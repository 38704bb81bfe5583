"""fedsched: discrete-event simulation of federated cluster scheduling.

Simulates a two-level scheduler (eventually consistent global masters over
authoritative local masters with logical partitioning and constraint
bit vectors), a probe-based baseline, and a single-master configuration,
all driven by the same workload definitions.
"""

from .config import ExperimentConfig, UserSpec, WorkloadSpec, config_from_dict, load_config
from .core import ResourceVector, TaskRequest
from .errors import ConfigurationError, LivelockError, SimulationError, TraceFormatError
from .experiment import ExperimentResult, run_experiment, sweep, write_reports
from .metrics import AllocationRecord, percentile, summarize
from .workload import generate_synthetic, load_trace

__version__ = "0.1.0"

__all__ = [
    "AllocationRecord",
    "ConfigurationError",
    "ExperimentConfig",
    "ExperimentResult",
    "LivelockError",
    "ResourceVector",
    "SimulationError",
    "TaskRequest",
    "TraceFormatError",
    "UserSpec",
    "WorkloadSpec",
    "config_from_dict",
    "generate_synthetic",
    "load_config",
    "load_trace",
    "percentile",
    "run_experiment",
    "summarize",
    "sweep",
    "write_reports",
    "__version__",
]
