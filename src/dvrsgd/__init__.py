"""Distributed asynchronous variance-reduced SGD with a bounded-delay
parameter server, reference baselines, and a benchmark harness."""

from .baselines import BASELINES, serial_svrg
from .data import load_libsvm, partition, write_libsvm
from .harness import ExperimentConfig, RunResult, run_cluster, run_experiment, sweep
from .losses import Problem, full_gradient, make_synthetic, mean_gradient, objective
from .scheduler import ProgressRecord, compute_rate_gamma
from .server import HyperParams, ParamServer, ProtocolError
from .transport import LatencyModel, SimCluster
from .vrgrad import Snapshot, vr_gradient
from .worker import WorkerNode

__version__ = "0.1.0"

__all__ = [
    "BASELINES", "serial_svrg", "load_libsvm", "partition", "write_libsvm",
    "ExperimentConfig", "RunResult", "run_cluster", "run_experiment", "sweep",
    "Problem", "full_gradient", "make_synthetic", "mean_gradient", "objective",
    "ProgressRecord", "compute_rate_gamma",
    "HyperParams", "ParamServer", "ProtocolError", "LatencyModel", "SimCluster",
    "Snapshot", "vr_gradient", "WorkerNode", "__version__",
]
