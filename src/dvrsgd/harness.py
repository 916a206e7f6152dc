"""Experiment harness: config files, cluster assembly, CSV output, sweeps.

``run_cluster`` (simulated transport) and ``run_cluster_socket`` (real TCP)
wire a problem, a partitioning, and an algorithm into scheduler/server/worker
nodes the same way and run the cluster until every node can shut down.
``run_experiment`` does the same from an ``ExperimentConfig`` and writes one
CSV row per stage:

    stage, objective, wall_time, comp_time, comm_time

where comp_time/comm_time are cumulative totals summed over workers (logical
ticks in sim mode, seconds in socket mode).  ``sweep`` repeats an experiment
along one axis (workers, tau, theta, eta) and writes a summary CSV.
"""

import argparse
import configparser
import dataclasses
import logging
import os
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .baselines import algo_config, serial_svrg
from .data import Partitioning, partition
from .losses import Problem, make_synthetic, objective
from .scheduler import (ProgressRecord, SchedulerNode, fixed_stages,
                        objective_target, relative_decrease)
from .server import HyperParams, ParamServer
from .transport import (LatencyModel, SimCluster, SocketCluster, TraceEvent,
                        TransportError)
from .worker import WorkerNode

__all__ = ["ExperimentConfig", "RunResult", "run_cluster", "run_experiment",
           "sweep", "write_csv", "main"]

log = logging.getLogger(__name__)

CSV_HEADER = "stage,objective,wall_time,comp_time,comm_time"
SWEEP_HEADER = "value,stages_to_target,total_time,comp_time,comm_time"


@dataclass
class RunResult:
    records: list[ProgressRecord]
    snapshots: list
    final_w: np.ndarray | None
    trace: list[TraceEvent] | None
    partitioning: Partitioning | None
    stopped_early: bool = False


def _build_nodes(problem: Problem, hyper: HyperParams, algo: str, *, seed: int,
                 grad_tick: float, partition_strategy: str, partition_seed: int,
                 stop_rule, w0):
    cfg = algo_config(algo)
    if cfg.theta_override is not None:
        hyper = dataclasses.replace(hyper, theta=cfg.theta_override)
    parts = partition(problem, hyper.P, partition_strategy, seed=partition_seed)
    rule = cfg.rule(hyper, problem.dim) if cfg.rule is not None else None
    server = ParamServer(problem.dim, hyper, parts.weights,
                         update_rule=rule, gate_bound=cfg.gate(hyper), w0=w0)
    workers = [WorkerNode(p, problem, parts.indices_for(p), hyper,
                          gradient=cfg.gradient, seed=seed, grad_tick=grad_tick)
               for p in range(hyper.P)]
    sched = SchedulerNode(hyper, parts.weights, problem.n, seed=seed,
                          stop_rule=stop_rule)
    return sched, server, workers, parts


def _run_nodes(cluster, problem: Problem, hyper: HyperParams, algo: str,
               **build) -> RunResult:
    """Register the scheduler, server and workers that ``_build_nodes``
    makes on ``cluster`` and run it until every node can shut down."""
    sched, server, workers, parts = _build_nodes(problem, hyper, algo, **build)
    cluster.register("scheduler", sched)
    cluster.register("server", server)
    for p, wk in enumerate(workers):
        cluster.register(f"worker:{p}", wk)
    trace = cluster.run_until_quiescent()
    return RunResult(records=sched.records, snapshots=server.snapshot_history,
                     final_w=server.w, trace=trace, partitioning=parts,
                     stopped_early=sched.stopped_early)


def run_cluster(problem: Problem, hyper: HyperParams, *, algo: str = "dvrsgd",
                seed: int = 0, latency: LatencyModel | None = None,
                grad_tick: float = 0.0, partition_strategy: str = "contiguous",
                partition_seed: int = 0, stop_rule=None, w0=None,
                max_events: int = 10_000_000, collect_trace: bool = True) -> RunResult:
    """Run one algorithm end-to-end on the deterministic simulated cluster."""
    return _run_nodes(SimCluster(latency, max_events=max_events, collect_trace=collect_trace),
                      problem, hyper, algo, seed=seed, grad_tick=grad_tick,
                      partition_strategy=partition_strategy,
                      partition_seed=partition_seed, stop_rule=stop_rule, w0=w0)


def run_cluster_socket(problem: Problem, hyper: HyperParams,
                       addresses: dict[str, tuple[str, int]], *, algo: str = "dvrsgd",
                       seed: int = 0, partition_strategy: str = "contiguous",
                       partition_seed: int = 0, stop_rule=None, w0=None,
                       timeout: float = 60.0) -> RunResult:
    """Run all roles in-process over real TCP sockets, served by one selector
    loop on one thread."""
    return _run_nodes(SocketCluster(addresses, timeout=timeout), problem, hyper, algo,
                      seed=seed, grad_tick=0.0,
                      partition_strategy=partition_strategy,
                      partition_seed=partition_seed, stop_rule=stop_rule, w0=w0)


def _run_serial_svrg(problem: Problem, hyper: HyperParams, seed: int) -> RunResult:
    t0 = time.perf_counter()
    trajectory = serial_svrg(problem, hyper.eta, hyper.m, hyper.S, seed=seed)
    records = []
    for s, w in enumerate(trajectory):
        records.append(ProgressRecord(stage=s, objective=objective(problem, w),
                                      wall_time=time.perf_counter() - t0,
                                      comp_times=[0.0], comm_times=[0.0]))
    return RunResult(records=records, snapshots=[], final_w=trajectory[-1],
                     trace=None, partitioning=None)


# -- configuration ------------------------------------------------------------

# The file form: field name -> (INI section, key), one section per concern.
# The per-section seeds are each stored under the key ``seed``.
_INI_SECTIONS = {
    "experiment": "algo seed out target_objective stop stop_param",
    "problem": "source kind n d k lam problem_seed mu smoothness path dim",
    "hyper": "eta theta tau B m S P",
    "partition": "strategy partition_seed",
    "transport": "mode latency value lo hi mean transport_seed grad_tick timeout",
}
_INI_KEY = {name: (section, "seed" if name.endswith("_seed") else name)
            for section, names in _INI_SECTIONS.items() for name in names.split()}


@dataclass
class ExperimentConfig:
    """Flat, file-round-trippable description of one experiment."""

    algo: str = "dvrsgd"
    seed: int = 0
    out: str = "progress.csv"
    target_objective: float | None = None
    stop: str = "fixed"                 # fixed | target | reldecrease
    stop_param: float | None = None

    source: str = "synthetic"           # synthetic | libsvm
    kind: str = "quadratic"
    n: int = 1000
    d: int = 20
    k: int = 2
    lam: float = 0.0
    problem_seed: int = 7
    mu: float = 1.0
    smoothness: float = 10.0
    path: str | None = None
    dim: int | None = None

    eta: float = 0.01
    theta: float = 0.5
    tau: int = 0
    B: int = 1
    m: int | None = None                # None -> ceil(N / B)
    S: int = 10
    P: int = 1

    strategy: str = "contiguous"
    partition_seed: int = 0

    mode: str = "sim"                   # sim | socket
    latency: str = "constant"
    value: float = 0.0
    lo: float = 1.0
    hi: float = 5.0
    mean: float = 1.0
    transport_seed: int = 0
    grad_tick: float = 0.0
    timeout: float = 60.0
    endpoints: dict = field(default_factory=dict)

    def validate(self) -> list[str]:
        errors = []
        if self.algo != "svrg":
            try:
                algo_config(self.algo)
            except ValueError as exc:
                errors.append(str(exc))
        if self.source not in ("synthetic", "libsvm"):
            errors.append(f"unknown problem source {self.source!r}")
        if self.source == "libsvm" and not self.path:
            errors.append("libsvm source needs a path")
        if self.mode not in ("sim", "socket"):
            errors.append(f"unknown transport mode {self.mode!r}")
        if self.latency not in LatencyModel.KINDS:
            errors.append(f"unknown latency kind {self.latency!r}")
        if self.stop not in ("fixed", "target", "reldecrease"):
            errors.append(f"unknown stopping rule {self.stop!r}")
        if self.stop == "target" and self.stop_param is None and self.target_objective is None:
            errors.append("stop=target needs stop_param or target_objective")
        if self.eta <= 0:
            errors.append("eta must be > 0")
        if not 0.0 <= self.theta <= 1.0:
            errors.append("theta must lie in [0, 1]")
        if self.tau < 0 or self.B < 1 or self.P < 1 or self.S < 0:
            errors.append("need tau >= 0, B >= 1, P >= 1, S >= 0")
        if self.m is not None and self.m < 1:
            errors.append("m must be >= 1 when given")
        if self.mode == "socket" and not self.endpoints:
            errors.append("socket mode needs [endpoints]")
        return errors

    def build_problem(self) -> Problem:
        if self.source == "libsvm":
            from .data import load_libsvm
            return load_libsvm(self.path, lam=self.lam, dim=self.dim)
        if self.kind == "quadratic":
            return make_synthetic("quadratic", self.n, self.d, seed=self.problem_seed,
                                  mu=self.mu, smoothness=self.smoothness)
        return make_synthetic(self.kind, self.n, self.d, num_classes=self.k,
                              lam=self.lam, seed=self.problem_seed)

    def build_hyper(self, problem: Problem) -> HyperParams:
        m = self.m if self.m is not None else -(-problem.n // self.B)
        return HyperParams(eta=self.eta, theta=self.theta, tau=self.tau,
                           B=self.B, m=m, S=self.S, P=self.P)

    def latency_model(self) -> LatencyModel:
        return LatencyModel(self.latency, value=self.value, lo=self.lo, hi=self.hi,
                            mean=self.mean, seed=self.transport_seed)

    def stop_rule(self):
        if self.stop == "target":
            target = self.stop_param if self.stop_param is not None else self.target_objective
            return objective_target(target)
        if self.stop == "reldecrease":
            return relative_decrease(self.stop_param if self.stop_param is not None else 1e-8)
        return fixed_stages()

    # -- file form ------------------------------------------------------------

    def to_file(self, path):
        sections = {}
        for f in dataclasses.fields(self):
            if f.name in _INI_KEY:
                section, key = _INI_KEY[f.name]
                v = getattr(self, f.name)
                if isinstance(v, (float, np.floating)):
                    v = repr(float(v))  # a NumPy scalar's repr names its type
                sections.setdefault(section, {})[key] = "" if v is None else str(v)
        if self.endpoints:
            sections["endpoints"] = {name.replace(":", "."): f"{h}:{p}"
                                     for name, (h, p) in self.endpoints.items()}
        cp = configparser.ConfigParser()
        # from_file interpolates, and reads "%%" back as "%"
        cp.read_dict({section: {key: v.replace("%", "%%") for key, v in entries.items()}
                      for section, entries in sections.items()})
        with open(path, "w") as fh:
            cp.write(fh)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            if not cp.read(path):
                raise FileNotFoundError(path)
            known = {(section, key.lower()) for section, key in _INI_KEY.values()}
            sections = {section for section, _ in known} | {"endpoints"}
            unknown = []
            for section in cp.sections():
                if section not in sections:
                    unknown.append(f"[{section}]")
                elif section != "endpoints":
                    unknown += [f"{section}.{key}" for key in cp[section]
                                if (section, key) not in known]
            if unknown:
                raise ValueError(f"{path}: unknown config entries: {', '.join(unknown)}")
            values = {}
            for f in dataclasses.fields(cls):
                text = cp.get(*_INI_KEY[f.name], fallback="") if f.name in _INI_KEY else ""
                if text:
                    conv = next(t for t in typing.get_args(f.type) or (f.type,)
                                if t is not type(None))
                    values[f.name] = conv(text)
            cfg = cls(**values)
            if "endpoints" in cp:
                for name, addr in cp["endpoints"].items():
                    host, port = addr.rsplit(":", 1)
                    cfg.endpoints[name.replace(".", ":")] = (host, int(port))
            return cfg
        except configparser.Error as exc:
            # duplicated keys, keys before any section, a lone % in a value
            raise ValueError(f"{path}: malformed config: {exc}") from exc

    def resolve_endpoints(self) -> dict:
        """Endpoint table with DVRSGD_<ROLE> environment overrides applied."""
        eps = dict(self.endpoints)
        for name in list(eps):
            env = "DVRSGD_" + name.upper().replace(":", "_")
            if env in os.environ:
                host, port = os.environ[env].rsplit(":", 1)
                eps[name] = (host, int(port))
        return eps


def write_csv(records: list[ProgressRecord], path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.stage},{r.objective!r},{r.wall_time!r},"
                     f"{r.comp_total!r},{r.comm_total!r}\n")


def run_experiment(config: ExperimentConfig, *, out=None) -> list[ProgressRecord]:
    """Execute one configured experiment and write its progress CSV."""
    errors = config.validate()
    if errors:
        raise ValueError("invalid config:\n  " + "\n  ".join(errors))
    problem = config.build_problem()
    hyper = config.build_hyper(problem)
    if config.algo == "svrg":
        result = _run_serial_svrg(problem, hyper, config.seed)
    elif config.mode == "socket":
        result = run_cluster_socket(problem, hyper, config.resolve_endpoints(),
                                    algo=config.algo, seed=config.seed,
                                    partition_strategy=config.strategy,
                                    partition_seed=config.partition_seed,
                                    stop_rule=config.stop_rule(), timeout=config.timeout)
    else:
        result = run_cluster(problem, hyper, algo=config.algo, seed=config.seed,
                             latency=config.latency_model(), grad_tick=config.grad_tick,
                             partition_strategy=config.strategy,
                             partition_seed=config.partition_seed,
                             stop_rule=config.stop_rule(), collect_trace=False)
    write_csv(result.records, out or config.out)
    return result.records


_SWEEP_FIELD = {"workers": ("P", int), "tau": ("tau", int),
                "theta": ("theta", float), "eta": ("eta", float)}


def sweep(config: ExperimentConfig, axis: str, values, out_dir=".", *,
          gnuplot: bool = False) -> str:
    """Run the experiment once per axis value; write per-value and summary CSVs."""
    if axis not in _SWEEP_FIELD:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(_SWEEP_FIELD)}")
    field_name, conv = _SWEEP_FIELD[axis]
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, f"sweep_{axis}_summary.csv")
    rows = []
    for v in values:
        cfg = dataclasses.replace(config, **{field_name: conv(v)})
        out = os.path.join(out_dir, f"{axis}_{v}.csv")
        records = run_experiment(cfg, out=out)
        target = config.target_objective
        stages_to_target = -1
        if target is not None:
            for r in records:
                if r.objective <= target:
                    stages_to_target = r.stage
                    break
        last = records[-1] if records else None
        rows.append((v, stages_to_target,
                     last.wall_time if last else 0.0,
                     last.comp_total if last else 0.0,
                     last.comm_total if last else 0.0))
    with open(summary_path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for v, st, wt, cp, cm in rows:
            fh.write(f"{v},{st},{wt!r},{cp!r},{cm!r}\n")
    if gnuplot:
        script = os.path.join(out_dir, f"sweep_{axis}.gp")
        with open(script, "w") as fh:
            fh.write(f'set datafile separator ","\nset key top right\n'
                     f'set xlabel "{axis}"\nset ylabel "time"\n'
                     f'plot "{os.path.basename(summary_path)}" using 1:3 with linespoints '
                     f'title "total", "" using 1:4 with linespoints title "comp", '
                     f'"" using 1:5 with linespoints title "comm"\n')
    return summary_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dvrsgd",
                                     description="distributed VR-SGD experiment runner")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--algo", help="override the configured algorithm")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="progress CSV path")
    p_sweep = sub.add_parser("sweep", help="repeat an experiment along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_FIELD))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 1,4,16,64")
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.add_argument("--gnuplot", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(name)s %(levelname)s %(message)s")
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.cmd == "run":
            if args.algo:
                config.algo = args.algo
            if args.seed is not None:
                config.seed = args.seed
            records = run_experiment(config, out=args.out)
            print(f"wrote {len(records)} stage records to {args.out or config.out}")
        else:
            summary = sweep(config, args.axis, args.values.split(","),
                            out_dir=args.out_dir, gnuplot=args.gnuplot)
            print(f"wrote sweep summary to {summary}")
    except (ValueError, OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
