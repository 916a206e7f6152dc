"""Scheduler role: drives stages, assigns tasks, records progress, stops.

Each stage s issues m update tasks with global timestamps (s-1)*m+1 .. s*m,
assigning each task to worker p with probability q_p = n_p/N, then issues an
evaluation task with timestamp s*m+1 to all workers and the server and waits
for every worker's objective push before moving on.  Stage 0 is a bootstrap
evaluation round: it establishes the initial snapshot (anchor and full
gradient) and records the starting objective before any update task exists.
The run ends by protocol: the scheduler sends STOP to every worker and the
server and is then done; the run is over once every node can shut down.

Also home to ``compute_rate_gamma``, the linear-rate constant

    gamma = (1 - 2*eta*(mu - eta*L^2/theta))^(m/(1+tau)) + eta*L^2/(theta*mu - eta*L^2)

valid for eta in (0, mu*theta/(2 L^2)) and theta in (0, 1].
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .protocol import EvalPush, Stop, TaskAssign, TaskId, TaskKind
from .server import HyperParams, ProtocolError
from .transport import Node

__all__ = ["ProgressRecord", "SchedulerNode", "plan_stage", "compute_rate_gamma",
           "fixed_stages", "objective_target", "relative_decrease", "assignment_stream"]


@dataclass
class ProgressRecord:
    """Per-stage progress: objective plus cumulative per-worker times."""

    stage: int
    objective: float
    wall_time: float
    comp_times: list[float] = field(default_factory=list)
    comm_times: list[float] = field(default_factory=list)

    @property
    def comp_total(self) -> float:
        return sum(self.comp_times)

    @property
    def comm_total(self) -> float:
        return sum(self.comm_times)


def assignment_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def plan_stage(m: int, weights, rng: np.random.Generator) -> list[int]:
    """The worker of each of a stage's m update tasks, drawn with probability q_p."""
    return rng.choice(len(weights), size=m, p=weights).tolist()


# -- stopping rules ---------------------------------------------------------

def fixed_stages() -> Callable[[list[ProgressRecord]], bool]:
    """Never stop early; the stage budget S is the only bound."""
    return lambda records: False


def objective_target(target: float) -> Callable[[list[ProgressRecord]], bool]:
    return lambda records: bool(records) and records[-1].objective <= target


def relative_decrease(rtol: float) -> Callable[[list[ProgressRecord]], bool]:
    """Stop when one stage improves the objective by less than rtol relatively."""

    def rule(records: list[ProgressRecord]) -> bool:
        if len(records) < 2:
            return False
        prev, cur = records[-2].objective, records[-1].objective
        return abs(prev - cur) <= rtol * max(abs(prev), 1e-300)

    return rule


class SchedulerNode(Node):
    def __init__(self, hyper: HyperParams, weights, n_total: int, *, seed: int = 0,
                 stop_rule=None):
        self.hyper = hyper
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n_total = n_total
        self.stop_rule = stop_rule or fixed_stages()
        self.rng = assignment_stream(seed)
        self.records: list[ProgressRecord] = []
        self.stage = 0
        self.stopped_early = False
        self._pending: dict[int, EvalPush] = {}
        self._t0 = None
        self._endpoints = tuple(f"worker:{p}" for p in range(hyper.P))

    def on_start(self):
        self._t0 = self.transport.now
        if self.hyper.S == 0:
            self._finish()
            return
        self._issue_evaluation(stage=0)

    def _issue_evaluation(self, stage: int):
        assign = TaskAssign(TaskId(stage * self.hyper.m + 1, TaskKind.EVALUATION))
        self._pending = {}
        for ep in self._endpoints:  # a message is a value: one for every worker
            self.send(ep, assign)
        self.send("server", assign)

    def _issue_stage(self, stage: int):
        first = (stage - 1) * self.hyper.m + 1
        for k, p in enumerate(plan_stage(self.hyper.m, self.weights, self.rng)):
            self.send(self._endpoints[p], TaskAssign(TaskId(first + k, TaskKind.UPDATE)))
        self._issue_evaluation(stage)

    def _finish(self):
        self.stopped = True
        stop = Stop()
        for ep in self._endpoints:
            self.send(ep, stop)
        self.send("server", stop)

    def handle(self, src: str, msg):
        if self.stopped:
            return
        if not isinstance(msg, EvalPush):
            raise ProtocolError(f"scheduler cannot handle {type(msg).__name__}")
        if msg.worker in self._pending or not 0 <= msg.worker < self.hyper.P:
            raise ProtocolError(f"scheduler expects no evaluation push from worker "
                                f"{msg.worker} in stage {self.stage}")
        self._pending[msg.worker] = msg
        if len(self._pending) < self.hyper.P:
            return
        by_worker = [self._pending[p] for p in range(self.hyper.P)]
        objective = sum(p.local_obj_sum for p in by_worker) / self.n_total
        self.records.append(ProgressRecord(
            stage=self.stage,
            objective=objective,
            wall_time=self.transport.now - self._t0,
            comp_times=[p.comp_time for p in by_worker],
            comm_times=[p.comm_time for p in by_worker],
        ))
        if self.stage >= self.hyper.S:
            self._finish()
            return
        if self.stop_rule(self.records):
            self.stopped_early = True
            self._finish()
            return
        self.stage += 1
        self._issue_stage(self.stage)


def compute_rate_gamma(mu: float, L: float, eta: float, theta: float,
                       m: int, tau: int) -> float:
    """Linear-rate constant gamma for the hybrid delayed update.

    Raises ValueError when eta falls outside (0, mu*theta/(2 L^2)) or theta
    outside (0, 1]; gamma < 1 guarantees a contraction.
    """
    if not (mu > 0 and L > 0 and m >= 1 and tau >= 0):
        raise ValueError("need mu > 0, L > 0, m >= 1, tau >= 0")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    limit = mu * theta / (2.0 * L * L)
    if not 0.0 < eta < limit:
        raise ValueError(f"eta={eta} outside the admissible range (0, {limit})")
    first = (1.0 - 2.0 * eta * (mu - eta * L * L / theta)) ** (m / (1.0 + tau))
    second = eta * L * L / (theta * mu - eta * L * L)
    return first + second
