"""The benchmark's workloads and one checked run of a workload.

Every workload is a closed loop: one job at a time, driven from this process,
with P simulated workers (sim) or P threaded workers behind real TCP
endpoints on 127.0.0.1 (socket).  A seed generates the problem data and the
cluster, sampling and latency seeds, so the same seed gives the same inputs.
"""

import hashlib
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from dvrsgd import harness
from dvrsgd.harness import write_csv
from dvrsgd.losses import make_synthetic
from dvrsgd.scheduler import SchedulerNode
from dvrsgd.server import HyperParams
from dvrsgd.transport import LatencyModel

from spans import Tracer

__all__ = ["Workload", "WORKLOADS", "Rep", "CheckFailed", "input_seeds", "run_once"]

CANONICAL_SEED = 0            # the seed whose sim progress CSV digest is pinned
SOCKET_TIMEOUT_S = 10.0       # a hung socket run fails after this, not after 60 s


class CheckFailed(Exception):
    """A run finished but its output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # quadratic | multiclass-logistic
    n: int
    d: int
    P: int
    tau: int
    B: int
    m: int
    S: int
    eta: float
    theta: float = 0.5
    lam: float = 0.0
    classes: int = 0
    socket: bool = False
    # F(w) - F* must fall below this.  Multiclass F* is unknown, so there the
    # bound |grad F(w)|^2 / (2 lam) >= F(w) - F* (strong convexity) must.
    target: float = 1e-8
    # sha256 of the progress CSV at CANONICAL_SEED (sim workloads only)
    digest: str | None = None
    # also time serial_svrg, the single-worker reference, at the same size
    serial_reference: bool = False

    @property
    def updates(self) -> int:
        return self.m * self.S

    def hyper(self) -> HyperParams:
        return HyperParams(eta=self.eta, theta=self.theta, tau=self.tau, B=self.B,
                           m=self.m, S=self.S, P=self.P)

    def problem(self, problem_seed: int):
        if self.kind == "quadratic":
            return make_synthetic("quadratic", self.n, self.d, mu=1.0, smoothness=10.0,
                                  seed=problem_seed)
        return make_synthetic(self.kind, self.n, self.d, num_classes=self.classes,
                              lam=self.lam, seed=problem_seed)


def input_seeds(seed: int, instance: int = 0) -> tuple[int, int, int]:
    """(problem, cluster, latency) seeds of one problem instance of the benchmark seed.

    Instance 0 is the seed's own inputs; the traced runs, the serial
    reference and the pinned digest use it alone.
    """
    entropy = seed if instance == 0 else [seed, instance]
    return tuple(int(s) for s in np.random.SeedSequence(entropy).generate_state(3))


WORKLOADS = {w.name: w for w in [
    # the criterion-3 quadratic (mu=1, L=10): the headline linear-rate claim
    Workload("quad-p8-sim", "quadratic", n=2000, d=50, P=8, tau=8, B=20, m=100, S=50,
             eta=0.01, serial_reference=True,
             digest="3d90b9b85e841557db06aaac1aadc92d579d8b88539d5b08914a198cfeb975c3"),
    # B x K x d gradient kernel dominates, the gate is idle
    Workload("multiclass-p4-sim", "multiclass-logistic", n=5000, d=200, P=4, tau=8,
             B=20, m=250, S=15, eta=0.05, lam=0.01, classes=10, target=1e-2,
             digest="a7351a307257cddce9434fb8424d23fa2c88426680b7cae1106ce365637a7e75"),
    # top of the worker sweep: deep pending-pull queues, tiny batches
    Workload("wide-p256-sim", "quadratic", n=8192, d=32, P=256, tau=16, B=8, m=1024,
             S=6, eta=0.01,
             digest="b9cd19a4f7e00e46e5b187d7e5431e35a90123fa8b30d1934292f6dfe68b6caa"),
    # the quad-p8-sim problem over TCP; P=2 compute-bearing node threads for 2 CPUs
    Workload("quad-p2-socket", "quadratic", n=2000, d=50, P=2, tau=8, B=20, m=100,
             S=20, eta=0.01, socket=True),
]}


@dataclass
class Rep:
    """Timings and checked outputs of one run."""

    setup_s: float            # workload start -> SchedulerNode.on_start
    run_s: float              # wall seconds of the run call
    time_to_target_s: float   # run call start -> crossing of the target
    stages_to_target: int
    ticks_to_target: float    # record wall_time at target (logical ticks in sim)
    digest: str | None        # sha256 of the progress CSV (sim only)
    pull_wait: float          # summed worker comm_times (ticks in sim, s in socket)
    compute_ticks: float      # summed worker comp_times
    # run.host_factor() before and after the run, averaged: >1 on a slow host
    host_factor: float = 1.0


def _gaps(wl: Workload, problem, result, helpers) -> list[float]:
    """Per-stage suboptimality, or its certified bound for multiclass."""
    if wl.kind == "quadratic":
        _, f_star = helpers.quad_solution(problem)
        return [r.objective - f_star for r in result.records]
    return [_softmax_certificate(problem, s.anchor) for s in result.snapshots]


def _crossing(gaps: list[float], times: list[float], limit: float) -> tuple[int, float]:
    """(first stage at ``limit``, time it was crossed).

    The crossing falls inside a stage, so its time is interpolated in
    log-suboptimality between the two stage records around it; a whole-stage
    time would jump by one stage between seeds.
    """
    k = next((i for i, gap in enumerate(gaps) if gap <= limit), None)
    if k is None:
        raise CheckFailed(f"never reached {limit:g} (best {min(gaps):.3g})")
    if k == 0:
        return 0, times[0]
    hi, lo = np.log(max(gaps[k - 1], 1e-300)), np.log(max(gaps[k], 1e-300))
    frac = (hi - np.log(limit)) / (hi - lo)
    return k, times[k - 1] + frac * (times[k] - times[k - 1])


def _softmax_certificate(problem, w) -> float:
    """|grad F(w)|^2 / (2 lam), from a plain softmax gradient independent of dvrsgd."""
    X, y, lam = problem.features, problem.targets, problem.lam
    W = w.reshape(problem.num_classes, -1)
    Z = X @ W.T
    Z -= Z.max(axis=1, keepdims=True)
    prob = np.exp(Z)
    prob /= prob.sum(axis=1, keepdims=True)
    prob[np.arange(y.shape[0]), y] -= 1.0
    grad = prob.T @ X / y.shape[0] + lam * W
    return float(np.sum(grad * grad)) / (2.0 * lam)


def _csv_digest(records, tmpdir: str) -> str:
    path = os.path.join(tmpdir, "progress.csv")
    write_csv(records, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_once(wl: Workload, seed: int, helpers, tmpdir: str, tracer: Tracer,
             instance: int = 0) -> Rep:
    """Generate ``instance`` of the workload from ``seed``, run it once and
    check its output.

    ``tracer`` (patched for a traced run, else empty) records the run, and
    is restored here.  The run is never stopped early: the stop rule only
    notes the time of each stage record, so run length does not depend on
    the measurement.
    """
    started: list[float] = []
    tracer.patch(SchedulerNode, "on_start", "scheduler.on_start",
                 before=lambda args: started.append(time.perf_counter()))
    stamps: list[float] = []

    def note_stage(records):
        stamps.append(time.perf_counter())
        return False

    threads_before = set(threading.enumerate())
    try:
        t0 = time.perf_counter()
        problem_seed, cluster_seed, latency_seed = input_seeds(seed, instance)
        problem = wl.problem(problem_seed)
        hyper = wl.hyper()
        t_call = time.perf_counter()
        if wl.socket:
            roles = ["scheduler", "server"] + [f"worker:{p}" for p in range(wl.P)]
            result = harness.run_cluster_socket(
                problem, hyper, {r: ("127.0.0.1", 0) for r in roles}, seed=cluster_seed,
                stop_rule=note_stage, timeout=SOCKET_TIMEOUT_S)
        else:
            result = harness.run_cluster(
                problem, hyper, seed=cluster_seed, grad_tick=0.01,
                latency=LatencyModel("uniform", lo=1.0, hi=5.0, seed=latency_seed),
                stop_rule=note_stage, collect_trace=False)
        t_end = time.perf_counter()
    finally:
        tracer.restore()
        lingering = _join_new_threads(threads_before)

    if lingering:
        raise CheckFailed(f"threads still running after the run: {lingering}")
    if len(result.records) != wl.S + 1 or result.stopped_early:
        raise CheckFailed(f"{len(result.records)} stage records, expected {wl.S + 1}")
    if not np.all(np.isfinite(result.final_w)):
        raise CheckFailed("non-finite final parameters")
    if len(stamps) != wl.S:
        raise CheckFailed(f"stop rule ran {len(stamps)} times, expected {wl.S}")
    # the stop rule runs for every record but the last, which ends the run call
    stage, reached = _crossing(_gaps(wl, problem, result, helpers), stamps + [t_end],
                               wl.target)
    return Rep(setup_s=started[0] - t0, run_s=t_end - t_call,
               time_to_target_s=reached - t_call, stages_to_target=stage,
               ticks_to_target=result.records[stage].wall_time,
               digest=None if wl.socket else _csv_digest(result.records, tmpdir),
               pull_wait=result.records[-1].comm_total,
               compute_ticks=result.records[-1].comp_total)


def _join_new_threads(before: set, timeout_s: float = 5.0) -> list[str]:
    """Wait for threads the run started (the socket transport's node, accept
    and reader threads) to end; return the names of any still alive."""
    deadline = time.monotonic() + timeout_s
    started = set(threading.enumerate()) - before
    for t in started:
        t.join(max(0.0, deadline - time.monotonic()))
    return sorted(t.name for t in started if t.is_alive())
