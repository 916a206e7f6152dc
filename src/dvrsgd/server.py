"""Parameter server: authoritative w, pull gating, updates, stage snapshots.

The server serializes two activities on one inbox (a single event loop stands
in for a daemon thread plus a computing thread sharing a lock on w):

* pull gating -- a pull for an update task with timestamp t is answered only
  once every update timestamp < t - tau is finished; a pull for an evaluation
  task waits until every update timestamp < t is finished, so all workers
  receive the identical stage-final w.  Both rules are a threshold on the
  finished watermark (t - tau - 1 for an update, t - 1 for an evaluation), so
  an ineligible pull is buffered in a min-heap keyed on the watermark it
  needs.  After every applied update the pulls whose threshold the watermark
  has reached are popped and answered in ascending (timestamp, arrival)
  order; the rest of the heap is not touched.
* update application -- each UpdatePush carries delta alone; the server
  forms w_bar = w_hat - eta*delta from the w_hat it answered the pull with,
  replaces w via the configured update rule (default: the hybrid rule
  w = (1-theta)*(w - eta*delta) + theta*w_bar) and marks the task finished.

Evaluation rounds, one per stage, are held in ``_rounds``: the stage's first
answered evaluation pull opens its round and freezes its anchor, each worker's
EvalPush joins it, and the P-th push closes it into the stage snapshot, whose
gradient is one ordered reduction over the P scaled local gradients.
Plain-gradient workers never wait for a snapshot, so their rounds can overlap.

Finished timestamps are tracked as a watermark plus a sparse overflow set,
since tasks complete nearly in order.  The scheduler hands each worker its
tasks in task order and every pair of roles is FIFO, so a worker's pulls
arrive in that order.  The server keeps one record per worker: the key of the
last pull to arrive, rejecting any pull at or below it, and what that pull
was answered with until its push lands (the w_hat of an update pull, the
round of an evaluation pull); a push that answers no pull released to its
worker is rejected.  A pull from a worker outside 0..P-1 is rejected too, so
there are at most P records.
"""

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from .losses import _ordered_sum
from .protocol import (EvalPush, PullRequest, PullResponse, SnapshotBroadcast,
                       Stop, TaskAssign, TaskKind, UpdatePush, eval_stage)
from .transport import Node
from .vrgrad import Snapshot

__all__ = ["HyperParams", "FinishedTasks", "ParamServer", "ProtocolError",
           "apply_hybrid", "aggregate_local_gradients"]

log = logging.getLogger(__name__)


class ProtocolError(Exception):
    """A peer violated the task protocol (duplicate pull/update, bad stage)."""


@dataclass(frozen=True)
class HyperParams:
    """Algorithm and asynchrony knobs: (eta, theta, tau, B, m, S, P).

    theta in [0, 1]; theta = 0 realizes the pure asynchronous-SVRG special
    case (the linear-rate guarantee needs theta in (0, 1]).
    """

    eta: float
    theta: float = 0.5
    tau: int = 0
    B: int = 1
    m: int = 1
    S: int = 1
    P: int = 1

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and > 0")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.B < 1 or self.m < 1 or self.P < 1:
            raise ValueError("B, m, P must be >= 1")
        if self.S < 0:
            raise ValueError("S must be >= 0")


class FinishedTasks:
    """Finished update-task timestamps: watermark + overflow set.

    watermark = largest t0 such that every update timestamp <= t0 is finished.
    """

    def __init__(self):
        self.watermark = 0
        self._overflow = set()

    def mark(self, t: int):
        if t <= self.watermark or t in self._overflow:
            raise ProtocolError(f"duplicate update for timestamp {t}")
        if t == self.watermark + 1:
            self.watermark += 1
            while self.watermark + 1 in self._overflow:
                self._overflow.discard(self.watermark + 1)
                self.watermark += 1
        else:
            self._overflow.add(t)

    def __contains__(self, t: int) -> bool:
        return t <= self.watermark or t in self._overflow

    def all_finished_below(self, t: int) -> bool:
        """True iff every update timestamp < t is finished."""
        return self.watermark >= t - 1


def apply_hybrid(w, w_hat, delta, eta: float, theta: float) -> np.ndarray:
    """Hybrid update w <- (1-theta)*(w - eta*delta) + theta*w_bar, w_bar = w_hat - eta*delta."""
    step = eta * delta
    return (1.0 - theta) * (w - step) + theta * (w_hat - step)


def _hybrid_rule(server: "ParamServer", push: UpdatePush, w_hat: np.ndarray) -> np.ndarray:
    return apply_hybrid(server.w, w_hat, push.delta, server.hyper.eta, server.hyper.theta)


def aggregate_local_gradients(grads: list[np.ndarray], weights) -> np.ndarray:
    """Weighted aggregate sum_p q_p * grad_p, accumulated in worker order."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(grads) != weights.shape[0]:
        raise ProtocolError(f"expected {weights.shape[0]} local gradients, got {len(grads)}")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("partition weights must sum to 1")
    # one scaled (P, d) stack; _ordered_sum adds its rows in worker order
    rows = np.array(grads, dtype=np.float64)
    rows *= weights[:, None]
    return _ordered_sum(rows)


class ParamServer(Node):
    """Server role (Node).  See module docstring for the gating contract.

    ``gate_bound`` overrides the delay bound used for update-task pulls:
    ``None`` means unbounded (downpour-style).  ``update_rule`` maps (server,
    push, w_hat answered to its pull) -> new w; the default is the hybrid rule.
    """

    def __init__(self, dim: int, hyper: HyperParams, weights, *,
                 update_rule=None, gate_bound="tau"):
        self.hyper = hyper
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (hyper.P,):
            raise ValueError("need one partition weight per worker")
        self.w = np.zeros(dim)
        self.update_rule = update_rule or _hybrid_rule
        self.gate_bound = hyper.tau if gate_bound == "tau" else gate_bound
        self.finished = FinishedTasks()
        # heap of ((threshold, timestamp, arrival), request)
        self.pending_pulls: list[tuple[tuple[int, int, int], PullRequest]] = []
        self._last_pull: dict[int, list] = {}  # worker -> [_order_key, w_hat/stage or None]
        self._arrival = 0
        self.snapshot_history: list[Snapshot] = []
        # open evaluation rounds: stage -> (anchor, {worker: EvalPush})
        self._rounds: dict[int, tuple[np.ndarray, dict[int, EvalPush]]] = {}
        self.stopped = False

    # -- gating -----------------------------------------------------------

    def _threshold(self, task) -> int:
        """The finished watermark at which a pull for ``task`` may be answered."""
        if task.kind == TaskKind.UPDATE:
            if self.gate_bound is None:
                return -1
            return task.timestamp - self.gate_bound - 1
        return task.timestamp - 1

    @staticmethod
    def _order_key(task) -> tuple[int, int]:
        # a stage's evaluation task shares its timestamp with the next stage's
        # first update task and comes before it
        return task.timestamp, 0 if task.kind == TaskKind.EVALUATION else 1

    def gate_pull(self, req: PullRequest) -> bool:
        """Answer ``req`` now if eligible, else buffer it.  Returns True if answered."""
        task = req.task
        if not 0 <= req.worker < self.hyper.P:
            raise ProtocolError(f"pull from worker {req.worker} outside 0..{self.hyper.P - 1}")
        key = self._order_key(task)
        if key <= self._last_pull.get(req.worker, ((-1, 0), None))[0]:
            raise ProtocolError(f"duplicate pull from worker {req.worker} for {task}")
        if task.kind == TaskKind.UPDATE and task.timestamp in self.finished:
            raise ProtocolError(f"pull for already-finished task {task}")
        self._last_pull[req.worker] = [key, None]
        threshold = self._threshold(task)
        if threshold <= self.finished.watermark:
            self._respond(req)
            return True
        self._arrival += 1
        heapq.heappush(self.pending_pulls, ((threshold, task.timestamp, self._arrival), req))
        return False

    def _respond(self, req: PullRequest):
        task = req.task
        if task.kind == TaskKind.EVALUATION:
            held = eval_stage(task, self.hyper.m)
            # the stage-final w, frozen by the stage's first answered pull before
            # any next-stage update lands; every worker gets it, byte-identical
            w = self._rounds.setdefault(held, (self.w, {}))[0]
        else:
            w = held = self.w
        last = self._last_pull[req.worker]
        if last[0] == self._order_key(task):  # still its last pull
            last[1] = held
        self.send(f"worker:{req.worker}", PullResponse(task, w))

    def _rescan_pending(self):
        """Answer every buffered pull whose threshold the watermark has reached.

        ``_respond`` never moves the watermark, so popping the released batch
        and answering it in (timestamp, arrival) order sends exactly what a
        sorted scan of all buffered pulls would.
        """
        pending, watermark = self.pending_pulls, self.finished.watermark
        released = []
        while pending and pending[0][0][0] <= watermark:
            released.append(heapq.heappop(pending))
        released.sort(key=lambda e: e[0][1:])
        for _, req in released:
            self._respond(req)

    # -- updates and stage end ---------------------------------------------

    def apply_update(self, push: UpdatePush):
        """Apply one update push atomically and release newly eligible pulls."""
        last = self._last_pull.get(push.worker, (None, None))
        if last[1] is None or last[0] != self._order_key(push.task):
            raise ProtocolError(f"worker {push.worker} has no released pull for {push.task}")
        new_w = self.update_rule(self, push, last[1])
        if not np.isfinite(new_w).all():
            raise FloatingPointError(f"w diverged at task {push.task.timestamp}")
        self.finished.mark(push.task.timestamp)
        self.w = new_w
        last[1] = None
        self._rescan_pending()

    def stage_end(self, stage: int) -> Snapshot:
        """Close round ``stage``: aggregate its P local gradients in worker
        order into the stage snapshot and broadcast it."""
        anchor, pushes = self._rounds.pop(stage)
        grad = aggregate_local_gradients([pushes[p].local_grad for p in range(self.hyper.P)],
                                         self.weights)
        snap = Snapshot(anchor=anchor, anchor_grad=grad, stage=stage)
        self.snapshot_history.append(snap)
        if not self.stopped:
            for p in range(self.hyper.P):
                self.send(f"worker:{p}", SnapshotBroadcast(grad))
        return snap

    def can_shutdown(self) -> bool:
        return self.stopped and not self._rounds

    # -- message handling ---------------------------------------------------

    def handle(self, src: str, msg):
        # a STOP ends new work, but each evaluation round whose pulls were
        # already answered still completes; the final snapshot must exist
        if self.stopped and not (isinstance(msg, EvalPush) and self._rounds):
            log.info("server stopped; discarding %r from %s", msg, src)
            return
        if isinstance(msg, PullRequest):
            self.gate_pull(msg)
        elif isinstance(msg, UpdatePush):
            self.apply_update(msg)
        elif isinstance(msg, EvalPush):
            last = self._last_pull.get(msg.worker) if 0 <= msg.worker < self.hyper.P else None
            if last is None or last[0][1] != 0 or last[1] is None:  # rank 0: evaluation
                raise ProtocolError(f"worker {msg.worker} has no released evaluation pull")
            stage, last[1] = last[1], None
            pushes = self._rounds[stage][1]
            pushes[msg.worker] = msg
            if len(pushes) == self.hyper.P:
                self.stage_end(stage)
        elif isinstance(msg, TaskAssign):
            if msg.task.kind != TaskKind.EVALUATION:
                raise ProtocolError("server only accepts evaluation task assignments")
        elif isinstance(msg, Stop):
            self.stopped = True
            log.info("discarding %d deferred pulls after STOP", len(self.pending_pulls))
            self.pending_pulls.clear()
        else:
            raise ProtocolError(f"server cannot handle {type(msg).__name__}")
