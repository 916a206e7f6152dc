"""Worker role: runs update and evaluation tasks over a local partition.

A worker is a strictly sequential task processor.  Tasks queue in arrival
order; the head task starts by sending one parameter pull request, the worker
blocks until the server's gate answers, computes, pushes, and only then starts
the next task -- so a worker never has two outstanding pulls.

Update tasks draw a fresh mini-batch (uniform, without replacement) from the
local partition, compute the configured gradient (variance-reduced against the
current snapshot, or plain for the non-VR baselines) and push both
w_bar = pulled_w - eta * delta and delta to the server.

Evaluation tasks adopt the pulled stage-final w as the new local anchor,
compute the local partition gradient and objective sum, and push them to the
server and scheduler.  Variance-reduced workers will not start an update task
of stage s until the snapshot of stage s-1 (anchor set at the evaluation,
anchor gradient received by broadcast) is complete.

Mini-batch randomness comes from a per-worker stream derived from
(seed, worker id), so runs are reproducible regardless of message timing.  The
worker draws its batches a block at a time (``vrgrad.BatchStream``), the same
batches as one draw per update.
"""

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .losses import Problem, loss_sum, mean_gradient
from .protocol import (EvalPush, PullRequest, PullResponse, SnapshotBroadcast,
                       Stop, TaskAssign, TaskId, TaskKind, UpdatePush, eval_stage,
                       update_stage)
from .server import HyperParams, ProtocolError
from .transport import Node
from .vrgrad import BatchStream, Snapshot, vr_gradient

__all__ = ["WorkerNode", "sampling_stream", "intermediate_iterate", "update_stage", "eval_stage"]

log = logging.getLogger(__name__)


def sampling_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Mini-batch RNG stream for (seed, stream_id); worker p uses stream p."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, stream_id)))


def draw_batch(batches: BatchStream) -> np.ndarray:
    """One update's mini-batch: the next ``vrgrad.draw_batch`` result of the
    worker's stream, which draws them a block at a time.  The per-update draw
    keeps this name so that it can be traced per call (``bench/layers.py``
    patches it)."""
    return batches.next()


def intermediate_iterate(w_hat: np.ndarray, delta: np.ndarray, eta: float) -> np.ndarray:
    """w_bar = w_hat - eta * delta, the locally updated delayed iterate."""
    return w_hat - eta * delta


@dataclass
class _ComputeDone:
    """Internal timer payload: pushes to emit once compute time has elapsed."""

    sends: list


class WorkerNode(Node):
    def __init__(self, worker_id: int, problem: Problem, indices, hyper: HyperParams, *,
                 gradient: str = "vr", seed: int = 0, grad_tick: float = 0.0):
        if gradient not in ("vr", "plain"):
            raise ValueError("gradient must be 'vr' or 'plain'")
        self.worker_id = worker_id
        self.problem = problem
        self.indices = np.sort(np.asarray(indices, dtype=np.int64))
        if hyper.B > self.indices.shape[0]:
            raise ValueError(f"mini-batch size {hyper.B} exceeds partition size "
                             f"{self.indices.shape[0]} of worker {worker_id}")
        self.hyper = hyper
        self.gradient = gradient
        self.grad_tick = grad_tick
        self.batches = BatchStream(sampling_stream(seed, worker_id), self.indices, hyper.B)

        self.queue: deque[TaskId] = deque()
        self.waiting: TaskId | None = None
        self.computing = False
        self._pull_sent_at = 0.0
        self.anchor: np.ndarray | None = None  # local copy of the stage anchor
        self.snapshot: Snapshot | None = None
        self._last_eval_stage = -1
        self.comp_time = 0.0
        self.comm_time = 0.0
        self.stopped = False

    # -- task scheduling ----------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.waiting is not None or self.computing

    def _startable(self, task: TaskId) -> bool:
        if task.kind == TaskKind.EVALUATION or self.gradient == "plain":
            return True
        need = update_stage(task, self.hyper.m) - 1
        return self.snapshot is not None and self.snapshot.stage == need

    def _pump(self):
        if self.busy or self.stopped or not self.queue:
            return
        if not self._startable(self.queue[0]):
            return  # head-of-line wait for the stage snapshot broadcast
        task = self.queue.popleft()
        self.waiting = task
        self._pull_sent_at = self.now
        self.send("server", PullRequest(self.worker_id, task))

    # -- task execution ------------------------------------------------------

    def _charge(self, started: float, modelled: float) -> float:
        """Add one task's compute cost to comp_time and return it: the
        modelled ``grad_tick`` cost plus the transport time that passed since
        ``started`` (real seconds on sockets; exactly 0.0 in sim, whose clock
        stands still inside a handler)."""
        cost = modelled + (self.now - started)
        self.comp_time += cost
        return cost

    def _emit_after(self, cost: float, sends: list):
        self.computing = True
        self.after(cost, _ComputeDone(sends))

    def _run_update(self, task: TaskId, w_hat: np.ndarray):
        started = self.now
        batch = draw_batch(self.batches)
        if self.gradient == "vr":
            delta = vr_gradient(self.problem, w_hat, self.snapshot, batch)
            cost = self.grad_tick * 2 * self.hyper.B
        else:
            delta = mean_gradient(self.problem, w_hat, batch)
            cost = self.grad_tick * self.hyper.B
        w_bar = intermediate_iterate(w_hat, delta, self.hyper.eta)
        push = UpdatePush(self.worker_id, task, w_bar, delta)
        self._emit_after(self._charge(started, cost), [("server", push)])

    def _run_evaluation(self, task: TaskId, w_hat: np.ndarray):
        started = self.now
        self.anchor = w_hat
        self._last_eval_stage = eval_stage(task, self.hyper.m)
        local_grad = mean_gradient(self.problem, w_hat, self.indices)
        obj_sum = loss_sum(self.problem, w_hat, self.indices)
        cost = self._charge(started, self.grad_tick * self.indices.shape[0])
        push = EvalPush(self.worker_id, local_grad, obj_sum, self.comp_time, self.comm_time)
        self._emit_after(cost, [("server", push), ("scheduler", push)])

    # -- message handling ------------------------------------------------------

    def handle(self, src: str, msg):
        if self.stopped:
            if not isinstance(msg, (Stop, _ComputeDone)):
                log.info("worker %d stopped; discarding %r", self.worker_id, msg)
            return
        if isinstance(msg, TaskAssign):
            self.queue.append(msg.task)
            self._pump()
        elif isinstance(msg, PullResponse):
            if self.waiting is None or msg.task != self.waiting:
                raise ProtocolError(f"worker {self.worker_id} got unexpected pull response {msg.task}")
            self.comm_time += self.now - self._pull_sent_at
            task, self.waiting = self.waiting, None
            if task.kind == TaskKind.UPDATE:
                self._run_update(task, msg.w)
            else:
                self._run_evaluation(task, msg.w)
        elif isinstance(msg, _ComputeDone):
            self.computing = False
            for dst, push in msg.sends:
                self.send(dst, push)
            self._pump()
        elif isinstance(msg, SnapshotBroadcast):
            if self.anchor is None:
                raise ProtocolError(f"worker {self.worker_id} got a snapshot broadcast "
                                    "before any evaluation task")
            self.snapshot = Snapshot(anchor=self.anchor, anchor_grad=msg.grad,
                                     stage=self._last_eval_stage)
            self._pump()
        elif isinstance(msg, Stop):
            self.stopped = True
            self.queue.clear()
        else:
            raise ProtocolError(f"worker cannot handle {type(msg).__name__}")
