"""Worker role: runs update and evaluation tasks over a local partition.

A worker is a strictly sequential task processor.  Tasks queue in arrival
order; the head task starts by sending one parameter pull request, the worker
blocks until the server's gate answers, computes, pushes, and only then starts
the next task -- so a worker never has two outstanding pulls.

Update tasks draw a fresh mini-batch (uniform, without replacement) from the
local partition, compute the configured gradient (variance-reduced against the
current snapshot, or plain for the non-VR baselines) and push delta alone to
the server, which forms w_bar = pulled_w - eta * delta from the w it sent.

Evaluation tasks adopt the pulled stage-final w as the new local anchor,
take the local partition gradient and objective sum from one unchecked walk
over the partition (``losses._evaluate``; unchecked for the reasons the
update kernel is), and push them to the server and scheduler.
Variance-reduced workers will not start an update task of stage s until the
snapshot of stage s-1 (anchor set at the evaluation, anchor gradient received
by broadcast) is complete; plain-gradient workers never read a snapshot, so
they keep none.

Mini-batch randomness comes from a per-worker ``vrgrad.BatchStream`` derived
from (seed, worker id), so runs are reproducible regardless of message timing.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import check_batch_size
from .losses import Problem, _evaluate, mean_gradient
# not called here: the per-layer trace (bench/layers.py) looks it up by name
from .losses import loss_sum  # noqa: F401
from .protocol import (EvalPush, PullRequest, PullResponse, SnapshotBroadcast,
                       Stop, TaskAssign, TaskId, UpdatePush, eval_stage,
                       update_stage)
from .server import HyperParams, ProtocolError
from .transport import Node
from .vrgrad import BatchStream, Snapshot
# the unchecked kernel (the vrgrad docstring says why the inputs need no
# check), under the name the per-update trace patches
from .vrgrad import _vr_gradient as vr_gradient

__all__ = ["WorkerNode", "sampling_stream"]


def sampling_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Mini-batch RNG stream for (seed, stream_id); worker p uses stream p."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, stream_id)))


def draw_batch(batches: BatchStream) -> np.ndarray:
    """One update's mini-batch, the stream's next ``vrgrad.draw_batch`` result;
    a hop of its own so that ``bench/layers.py`` can trace each draw."""
    return batches.next()


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
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError(f"worker {worker_id} needs a nonempty 1-D partition")
        # a partition's subsets come sorted and are kept, not copied
        self.indices = indices if (indices[:-1] <= indices[1:]).all() else np.sort(indices)
        # sorted, so the ends bound every index: the updates check none of them
        if self.indices[0] < 0 or self.indices[-1] >= problem.n:
            raise ValueError(f"partition of worker {worker_id} has a sample index "
                             f"outside 0..{problem.n - 1}")
        check_batch_size(hyper.B, self.indices.shape[0], worker_id)
        self.hyper = hyper
        self.gradient = gradient
        # the modelled cost of one sample gradient: logical compute time
        # never runs backwards
        if not 0.0 <= grad_tick < math.inf:
            raise ValueError(f"grad_tick must be finite and >= 0, got {grad_tick!r}")
        self.grad_tick = grad_tick
        # each of the m*S update tasks comes here with probability n_p/N
        expected = hyper.m * hyper.S * self.indices.shape[0] // problem.n
        self.batches = BatchStream(sampling_stream(seed, worker_id), self.indices, hyper.B,
                                   expected)

        self.queue: deque[TaskId] = deque()
        self.waiting: TaskId | None = None
        self.computing = False
        self._pull_sent_at = 0.0
        self.anchor: np.ndarray | None = None  # local copy of the stage anchor
        self.snapshot: Snapshot | None = None
        self._last_eval_stage = -1
        self.comp_time = 0.0
        self.comm_time = 0.0

    # -- task scheduling ----------------------------------------------------

    def _pump(self):
        if self.waiting is not None or self.computing or not self.queue:
            return
        task = self.queue[0]
        if not task.kind and self.gradient == "vr":  # kind 1 is EVALUATION
            snap = self.snapshot
            if snap is None or snap.stage != update_stage(task, self.hyper.m) - 1:
                return  # head-of-line wait for the stage snapshot broadcast
        self.queue.popleft()
        self.waiting = task
        self._pull_sent_at = self.transport.now
        self.send("server", PullRequest(self.worker_id, task))

    # -- task execution ------------------------------------------------------

    def _charge(self, started: float, modelled: float) -> float:
        """Start computing one task: add its cost to comp_time and return it,
        the modelled ``grad_tick`` cost plus the transport time that passed
        since ``started`` (real seconds on sockets; exactly 0.0 in sim, whose
        clock stands still inside a handler).  The caller sends the pushes
        after it, as an evaluation's push reports the charged comp_time."""
        cost = modelled + (self.transport.now - started)
        self.comp_time += cost
        self.computing = True
        return cost

    def _run_update(self, task: TaskId, w_hat: np.ndarray, started: float):
        batch = draw_batch(self.batches)
        if self.gradient == "vr":
            delta = vr_gradient(self.problem, w_hat, self.snapshot, batch)
            modelled = self.grad_tick * 2 * self.hyper.B
        else:
            delta = mean_gradient(self.problem, w_hat, batch)
            modelled = self.grad_tick * self.hyper.B
        cost = self._charge(started, modelled)
        self.after(cost, _ComputeDone([("server", UpdatePush(self.worker_id, task, delta))]))

    def _run_evaluation(self, task: TaskId, w_hat: np.ndarray, started: float):
        local_grad, obj_sum = _evaluate(self.problem, w_hat, self.indices)
        self.anchor = w_hat
        self._last_eval_stage = eval_stage(task, self.hyper.m)
        cost = self._charge(started, self.grad_tick * self.indices.shape[0])
        push = EvalPush(self.worker_id, local_grad, obj_sum, self.comp_time, self.comm_time)
        self.after(cost, _ComputeDone([("server", push), ("scheduler", push)]))

    # -- message handling ------------------------------------------------------

    def handle(self, src: str, msg):
        if self.stopped:
            return
        if isinstance(msg, TaskAssign):
            self.queue.append(msg.task)
            self._pump()
        elif isinstance(msg, PullResponse):
            if self.waiting is None or msg.task != self.waiting:
                raise ProtocolError(f"worker {self.worker_id} got unexpected pull response {msg.task}")
            now = self.transport.now  # the end of the wait, the start of the compute
            self.comm_time += now - self._pull_sent_at
            task, self.waiting = self.waiting, None
            if task.kind:  # EVALUATION is 1, UPDATE 0
                self._run_evaluation(task, msg.w, now)
            else:
                self._run_update(task, msg.w, now)
        elif isinstance(msg, _ComputeDone):
            self.computing = False
            for dst, push in msg.sends:
                self.send(dst, push)
            self._pump()
        elif isinstance(msg, SnapshotBroadcast):
            if self.anchor is None:
                raise ProtocolError(f"worker {self.worker_id} got a snapshot broadcast "
                                    "before any evaluation task")
            if self.gradient == "vr":
                self.snapshot = Snapshot(anchor=self.anchor, anchor_grad=msg.grad,
                                         stage=self._last_eval_stage)
                self._pump()
        elif isinstance(msg, Stop):
            self.stopped = True
            self.queue.clear()
        else:
            raise ProtocolError(f"worker cannot handle {type(msg).__name__}")
