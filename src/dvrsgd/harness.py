"""Experiment harness: config files, cluster assembly, CSV output, sweeps.

``run_cluster`` (simulated transport) and ``run_cluster_socket`` (real TCP)
wire a problem, a partitioning, and an algorithm into scheduler/server/worker
nodes the same way and run the cluster until every node can shut down.
``run_experiment`` runs the run that an ``ExperimentConfig``'s check built,
on the transport its ``mode`` names (serial ``svrg`` on none), and writes one
CSV row per stage:

    stage, objective, wall_time, comp_time, comm_time

where comp_time/comm_time are cumulative totals summed over workers (logical
ticks in sim mode, seconds in socket mode).  ``sweep`` repeats an experiment
along one axis, any field of the config file's form, and writes a summary CSV.
"""

import argparse
import configparser
import dataclasses
import os
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .baselines import algo_config, svrg_stages
from .data import check_batch_size, load_libsvm, partition
from .losses import Problem, make_synthetic, objective
from .scheduler import (ProgressRecord, SchedulerNode, fixed_stages,
                        objective_target, relative_decrease)
from .server import HyperParams, ParamServer
from .transport import (LatencyModel, SimCluster, SocketCluster, TraceEvent,
                        TransportError, unfinished)
from .worker import WorkerNode

__all__ = ["ExperimentConfig", "RunResult", "run_cluster", "run_experiment",
           "sweep", "write_csv", "main"]

CSV_HEADER = "stage,objective,wall_time,comp_time,comm_time"
SWEEP_HEADER = "value,stages_to_target,total_time,comp_time,comm_time"


@dataclass
class RunResult:
    records: list[ProgressRecord]
    snapshots: list
    final_w: np.ndarray | None
    trace: list[TraceEvent] | None
    stopped_early: bool = False


def _build_nodes(problem: Problem, hyper: HyperParams, algo: str, *, seed: int,
                 grad_tick: float, partition_strategy: str, partition_seed: int,
                 stop_rule):
    cfg = algo_config(algo)
    parts = partition(problem, hyper.P, partition_strategy, seed=partition_seed)
    server = ParamServer(problem.dim, hyper, parts.weights,
                         update_rule=cfg.rule(hyper, problem.dim), gate_bound=cfg.gate(hyper))
    workers = [WorkerNode(p, problem, parts.subsets[p], hyper,
                          gradient=cfg.gradient, seed=seed, grad_tick=grad_tick)
               for p in range(hyper.P)]
    sched = SchedulerNode(hyper, parts.weights, problem.n, seed=seed,
                          stop_rule=stop_rule)
    return sched, server, workers


def _run_nodes(cluster, nodes) -> RunResult:
    """Register ``nodes``, the scheduler, server and workers that
    ``_build_nodes`` made, on ``cluster`` and run it until every node can
    shut down; a run that drains before then raises, naming the nodes that
    are not done."""
    sched, server, workers = nodes
    cluster.register("scheduler", sched)
    cluster.register("server", server)
    for p, wk in enumerate(workers):
        cluster.register(f"worker:{p}", wk)
    try:
        trace = cluster.run_until_quiescent()
        if stuck := unfinished(cluster.nodes):
            raise TransportError(f"run drained before every node could shut down; "
                                 f"not done: {stuck}")
    finally:
        # each node holds the cluster and the cluster its nodes: breaking the
        # cycle frees a finished run without the cyclic GC
        cluster.nodes.clear()
    return RunResult(records=sched.records, snapshots=server.snapshot_history,
                     final_w=server.w, trace=trace, stopped_early=sched.stopped_early)


def run_cluster(problem: Problem, hyper: HyperParams, *, algo: str = "dvrsgd",
                seed: int = 0, latency: LatencyModel | None = None,
                grad_tick: float = 0.0, partition_strategy: str = "contiguous",
                partition_seed: int = 0, stop_rule=None,
                collect_trace: bool = False) -> RunResult:
    """Run one algorithm end-to-end on the deterministic simulated cluster."""
    return _run_nodes(SimCluster(latency, collect_trace=collect_trace),
                      _build_nodes(problem, hyper, algo, seed=seed, grad_tick=grad_tick,
                                   partition_strategy=partition_strategy,
                                   partition_seed=partition_seed, stop_rule=stop_rule))


def run_cluster_socket(problem: Problem, hyper: HyperParams,
                       addresses: dict[str, tuple[str, int]], *, algo: str = "dvrsgd",
                       seed: int = 0, partition_strategy: str = "contiguous",
                       partition_seed: int = 0, stop_rule=None,
                       timeout: float = 60.0) -> RunResult:
    """Run all roles in-process over real TCP sockets, served by one epoll
    loop that runs on the calling thread."""
    return _run_nodes(SocketCluster(addresses, timeout=timeout),
                      _build_nodes(problem, hyper, algo, seed=seed, grad_tick=0.0,
                                   partition_strategy=partition_strategy,
                                   partition_seed=partition_seed, stop_rule=stop_rule))


def _run_serial_svrg(problem: Problem, hyper: HyperParams, seed: int,
                     stop_rule) -> RunResult:
    """Each stage's record is stamped as soon as its anchor exists; the run
    ends after the first record ``stop_rule`` accepts, as a scheduler's does."""
    t0 = time.perf_counter()
    records, stopped_early = [], False
    for s, w in enumerate(svrg_stages(problem, hyper.eta, hyper.m, hyper.S, seed=seed,
                                      B=hyper.B)):
        records.append(ProgressRecord(stage=s, objective=objective(problem, w),
                                      wall_time=time.perf_counter() - t0,
                                      comp_times=[0.0], comm_times=[0.0]))
        if stopped_early := s < hyper.S and stop_rule(records):
            break
    return RunResult(records=records, snapshots=[], final_w=w, trace=None,
                     stopped_early=stopped_early)


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


def _address(text: str, source: str) -> tuple[str, int]:
    """``(host, port)`` from ``host:port``; ``source`` names where the text
    came from in the error for any other form."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ValueError(f"{source}: expected host:port, got {text!r}")
    return host, int(port)


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
        """Every reason this config cannot run: the error of each thing its
        run builds, built as the run builds it."""
        return self._build({})[0]

    def _build(self, problems: dict) -> tuple[list[str], typing.Callable]:
        """``validate``'s reasons, and the run they check: a callable that
        runs the very problem, hyperparameters, stop rule, transport and
        nodes built here.  Serial ``svrg`` builds no transport and no node.
        The nodes are built once the problem and the hyperparameters are, the
        rest whatever else fails, so each reason is listed once.  ``problems``
        maps the values of a ``[problem]`` section to the problem built from
        them, so configs that share the section share one problem."""
        errors = []

        def build(make):
            try:
                return make()
            except ValueError as exc:  # one reason a line (build_cluster)
                errors.extend(str(exc).splitlines())
            except OSError as exc:  # only a libsvm source reads a file
                errors.append(f"path {self.path!r} cannot be read: {exc.strerror}")

        stop_rule = build(self.stop_rule)
        key = tuple(getattr(self, name) for name in _INI_SECTIONS["problem"].split())
        # a problem that failed is built again, so each config names why
        problem = problems[key] = problems.get(key) or build(self.build_problem)
        hyper = build(lambda: self.build_hyper(problem.n if problem else self.n))
        if self.algo == "svrg":  # worker 0's batch rule, on all N samples
            if problem and hyper:
                build(lambda: check_batch_size(self.B, problem.n, 0))
            return errors, lambda: _run_serial_svrg(problem, hyper, self.seed, stop_rule)
        cluster = build(self.build_cluster)
        # sim mode models a sample gradient's compute time; socket mode measures it
        grad_tick = self.grad_tick if self.mode == "sim" else 0.0
        nodes = None
        if problem and hyper:
            nodes = build(lambda: _build_nodes(problem, hyper, self.algo, seed=self.seed,
                                               grad_tick=grad_tick,
                                               partition_strategy=self.strategy,
                                               partition_seed=self.partition_seed,
                                               stop_rule=stop_rule))
        else:  # no nodes can be built, but their algorithm can be named
            build(lambda: algo_config(self.algo))
        return errors, lambda: _run_nodes(cluster, nodes)

    def build_problem(self) -> Problem:
        if self.source == "libsvm":
            if not self.path:
                raise ValueError("libsvm source needs a path")
            return load_libsvm(self.path, lam=self.lam, dim=self.dim)
        if self.source != "synthetic":
            raise ValueError(f"unknown problem source {self.source!r}")
        # each kind reads its own arguments and ignores the rest
        return make_synthetic(self.kind, self.n, self.d, num_classes=self.k, lam=self.lam,
                              seed=self.problem_seed, mu=self.mu, smoothness=self.smoothness)

    def build_hyper(self, n: int) -> HyperParams:
        """Hyperparameters for ``n`` samples; an unset m is ceil(n / B), and a
        B below 1 is left for ``HyperParams`` to reject."""
        m = self.m if self.m is not None else -(-n // max(self.B, 1))
        return HyperParams(eta=self.eta, theta=self.theta, tau=self.tau,
                           B=self.B, m=m, S=self.S, P=self.P)

    def build_cluster(self) -> SimCluster | SocketCluster:
        """The transport that ``mode`` names, on the latency model or the
        endpoints that it reads.  A socket transport's error has one line
        per reason: a bad endpoint override, the roles with no address and a
        bad timeout."""
        if self.mode == "sim":
            return SimCluster(LatencyModel(self.latency, value=self.value, lo=self.lo,
                                           hi=self.hi, mean=self.mean,
                                           seed=self.transport_seed))
        if self.mode != "socket":
            raise ValueError(f"unknown transport mode {self.mode!r}")
        reasons, endpoints = [], self.endpoints  # an override renames no role
        try:
            endpoints = self.resolve_endpoints()
        except ValueError as exc:
            reasons.append(str(exc))
        roles = ["scheduler", "server", *(f"worker:{p}" for p in range(self.P))]
        if missing := [role for role in roles if role not in endpoints]:
            reasons.append(f"[endpoints] has no address for {', '.join(missing)}")
        try:
            cluster = SocketCluster(endpoints, timeout=self.timeout)
        except ValueError as exc:
            reasons.append(str(exc))
        if reasons:
            raise ValueError("\n".join(reasons))
        return cluster

    def stop_rule(self):
        if self.stop == "fixed":
            return fixed_stages()
        if self.stop == "target":
            if self.target_objective is None:
                raise ValueError("stop=target needs target_objective")
            return objective_target(self.target_objective)
        if self.stop == "reldecrease":
            return relative_decrease(self.stop_param if self.stop_param is not None else 1e-8)
        raise ValueError(f"unknown stopping rule {self.stop!r}")

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
            values = {name: _parse_field(name, text) for name, key in _INI_KEY.items()
                      if (text := cp.get(*key, fallback=""))}
            cfg = cls(**values)
            if "endpoints" in cp:
                for name, addr in cp["endpoints"].items():
                    cfg.endpoints[name.replace(".", ":")] = _address(
                        addr, f"{path}: [endpoints] {name}")
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
                eps[name] = _address(os.environ[env], env)
        return eps


def _parse_field(name: str, text: str):
    """The value of file-form field ``name`` written as ``text``."""
    if name not in _INI_KEY:
        raise ValueError(f"unknown config field {name!r}; choose from {sorted(_INI_KEY)}")
    kind = ExperimentConfig.__dataclass_fields__[name].type
    return next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))(text)


def write_csv(records: list[ProgressRecord], path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.stage},{r.objective!r},{r.wall_time!r},"
                     f"{r.comp_total!r},{r.comm_total!r}\n")


def _check(config: ExperimentConfig, problems: dict) -> typing.Callable:
    """The run ``config`` describes, as its check built it; one ValueError
    listing every reason ``config`` cannot run."""
    errors, run = config._build(problems)
    if errors:
        raise ValueError("invalid config:\n  " + "\n  ".join(errors))
    return run


def run_experiment(config: ExperimentConfig, *, out=None) -> list[ProgressRecord]:
    """Execute one configured experiment and write its progress CSV."""
    records = _check(config, {})().records
    write_csv(records, out or config.out)
    return records


def sweep(config: ExperimentConfig, axis: str, values, out_dir=".", *,
          gnuplot: bool = False) -> str:
    """Run the experiment once per value of ``axis``, a file-form field of
    ``config``; write per-value and summary CSVs."""
    cases = [(v, dataclasses.replace(config, **{axis: _parse_field(axis, str(v))}))
             for v in values]
    problems = {}  # values along an axis outside [problem] share one problem
    # every value is checked before any run writes a file
    runs = [_check(case, problems) for _, case in cases]
    # each value's file name, with every path separator as "_"
    names = [f"{axis}_{v}".replace(os.sep, "_").replace("/", "_") + ".csv" for v, _ in cases]
    if len(set(names)) < len(names):
        raise ValueError(f"two sweep values would both write {max(names, key=names.count)}")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, f"sweep_{axis}_summary.csv")
    target = config.target_objective
    rows = [SWEEP_HEADER]
    for name, (v, _), run in zip(names, cases, runs):
        records = run().records
        write_csv(records, os.path.join(out_dir, name))
        stages = next((r.stage for r in records
                       if target is not None and r.objective <= target), -1)
        last = records[-1] if records else None  # S = 0 writes no record
        times = (last.wall_time, last.comp_total, last.comm_total) if last else (0.0, 0.0, 0.0)
        rows.append(f"{v},{stages}," + ",".join(map(repr, times)))
    with open(summary_path, "w") as fh:
        fh.write("".join(row + "\n" for row in rows))
    if gnuplot:
        # one point per row, labelled by its value, so string axes plot too
        data = os.path.basename(summary_path)
        series = ", ".join(f'"{data}" skip 1 using 0:{col}:xtic(1) with linespoints '
                           f'title "{title}"'
                           for col, title in ((3, "total"), (4, "comp"), (5, "comm")))
        with open(os.path.join(out_dir, f"sweep_{axis}.gp"), "w") as fh:
            fh.write(f'set datafile separator ","\nset key top right\n'
                     f'set xlabel "{axis}"\nset ylabel "time"\nplot {series}\n')
    return summary_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dvrsgd",
                                     description="distributed VR-SGD experiment runner")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--algo", help="override the configured algorithm")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="progress CSV path")
    p_sweep = sub.add_parser("sweep", help="repeat an experiment along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, help="a config field, e.g. P, tau, algo")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 1,4,16,64")
    p_sweep.add_argument("--out-dir", default=".")
    p_sweep.add_argument("--gnuplot", action="store_true")
    args = parser.parse_args(argv)
    # a diverging run overflows before its own finiteness checks raise: the
    # error line is all that it prints
    with np.errstate(over="ignore", invalid="ignore"):
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
        except (ValueError, OSError, TransportError, FloatingPointError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
