import re

import numpy as np
import pytest

from dvrsgd.data import partition
from dvrsgd.losses import (KINDS, full_gradient, loss_sum, make_synthetic, mean_gradient,
                           objective)
from dvrsgd.protocol import (EvalPush, PullRequest, PullResponse, SnapshotBroadcast,
                             Stop, TaskAssign, TaskId, TaskKind, UpdatePush, eval_stage,
                             update_stage)
from dvrsgd.server import HyperParams, ProtocolError
from dvrsgd.transport import Node, SimCluster
from dvrsgd import worker as worker_module
from dvrsgd.vrgrad import Snapshot, draw_batch, vr_gradient
from dvrsgd.worker import WorkerNode, sampling_stream


class ScriptedServer(Node):
    """Answers every pull immediately with a fixed w; records pushes."""

    def __init__(self, w):
        self.w = w
        self.pushes = []

    def handle(self, src, msg):
        if isinstance(msg, PullRequest):
            self.send(f"worker:{msg.worker}", PullResponse(msg.task, self.w))
        else:
            self.pushes.append(msg)


class SchedulerSink(Node):
    def __init__(self):
        self.pushes = []

    def handle(self, src, msg):
        self.pushes.append(msg)


def build(problem, hyper, w_server, **worker_kw):
    sim = SimCluster()
    server = ScriptedServer(w_server)
    sched = SchedulerSink()
    worker = WorkerNode(0, problem, np.arange(problem.n), hyper, **worker_kw)
    sim.register("server", server)
    sim.register("scheduler", sched)
    sim.register("worker:0", worker)
    return sim, server, sched, worker


@pytest.fixture(scope="module")
def problem():
    return make_synthetic("l2-logistic", 30, 4, lam=0.05, seed=0)


def test_stage_formulas():
    m = 10
    assert update_stage(TaskId(1, TaskKind.UPDATE), m) == 1
    assert update_stage(TaskId(10, TaskKind.UPDATE), m) == 1
    assert update_stage(TaskId(11, TaskKind.UPDATE), m) == 2
    assert eval_stage(TaskId(1, TaskKind.EVALUATION), m) == 0
    assert eval_stage(TaskId(11, TaskKind.EVALUATION), m) == 1


def test_update_at_anchor_pushes_anchor_gradient(problem):
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=4, m=5, S=1, P=1)
    anchor = np.linspace(-0.5, 0.5, problem.dim)
    sim, server, _, worker = build(problem, hyper, anchor, seed=3)
    snap = Snapshot(anchor, full_gradient(problem, anchor), stage=0)
    worker.anchor = snap.anchor
    worker.snapshot = snap
    sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.UPDATE)))
    sim.run_until_quiescent()
    (push,) = server.pushes
    assert isinstance(push, UpdatePush)
    assert np.array_equal(push.delta, snap.anchor_grad)


def test_fixed_seed_reproduces_batches(problem):
    def batches(seed):
        rng = sampling_stream(seed, 0)
        from dvrsgd.vrgrad import draw_batch
        return [draw_batch(rng, np.arange(problem.n), 5).tolist() for _ in range(10)]

    assert batches(42) == batches(42)
    assert batches(42) != batches(43)


def test_batches_across_block_refills_are_the_draw_batch_sequence(problem, monkeypatch):
    # past the one-draw-at-a-time start and across block refills, over an
    # unsorted partition
    indices = np.random.default_rng(2).permutation(problem.n)[:25]
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=4, m=200, S=1, P=1)
    drawn, original = [], worker_module.draw_batch

    def recording(batches):
        drawn.append(original(batches))
        return drawn[-1]

    monkeypatch.setattr(worker_module, "draw_batch", recording)
    sim = SimCluster()
    server = ScriptedServer(np.zeros(problem.dim))
    worker = WorkerNode(0, problem, indices, hyper, seed=6)
    sim.register("server", server)
    sim.register("scheduler", SchedulerSink())
    sim.register("worker:0", worker)
    anchor = np.zeros(problem.dim)
    snap = Snapshot(anchor, full_gradient(problem, anchor), stage=0)
    worker.anchor, worker.snapshot = snap.anchor, snap
    for k in range(1, 201):
        sim.send("scheduler", "worker:0", TaskAssign(TaskId(k, TaskKind.UPDATE)))
    sim.run_until_quiescent()
    assert len(server.pushes) == len(drawn) == 200
    rng, pool = sampling_stream(6, 0), np.sort(indices)
    assert all(np.array_equal(got, draw_batch(rng, pool, 4)) for got in drawn)


@pytest.mark.parametrize("n,P,m,S,firsts", [
    (8192, 256, 1024, 6, (24, 24)),  # wide-p256-sim: 1024*6*32/8192
    (2000, 8, 100, 50, (64, 64)),    # quad-p8-sim: 625 expected, clamped to 64
    (61, 2, 10, 3, (15, 14)),        # uneven partitions: 10*3*31/61 and 10*3*30/61
    (60, 4, 1, 1, (8, 8)),           # under one batch expected: clamped to 8
])
def test_worker_sizes_its_first_block_to_its_expected_stream(n, P, m, S, firsts):
    # each of the m*S update tasks goes to worker p with probability n_p/N
    problem = make_synthetic("quadratic", n, 4, seed=1)
    hyper = HyperParams(eta=0.1, B=2, m=m, S=S, P=P)
    for p, first in enumerate(firsts):
        worker = WorkerNode(p, problem, partition(problem, P).subsets[p], hyper, seed=3)
        worker.batches.next()
        assert len(worker.batches._block) == first


def test_batch_larger_than_partition_rejected(problem):
    hyper = HyperParams(eta=0.1, B=31, m=1, S=1, P=1)
    with pytest.raises(ValueError):
        WorkerNode(0, problem, np.arange(problem.n), hyper)


@pytest.mark.parametrize("indices, match", [
    ([], "worker 3 needs a nonempty"),
    ([4, -1, 2], "partition of worker 3 has a sample index"),
    ([0, 30], "partition of worker 3 has a sample index"),
])
def test_bad_partition_rejected_naming_the_worker(problem, indices, match):
    hyper = HyperParams(eta=0.1, B=1, m=1, S=1, P=4)
    with pytest.raises(ValueError, match=match):
        WorkerNode(3, problem, indices, hyper)


def test_update_pull_with_wrong_length_w_raises_without_pushing(problem):
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=4, m=5, S=1, P=1)
    sim, server, _, worker = build(problem, hyper, np.zeros(problem.dim + 1), seed=3)
    anchor = np.zeros(problem.dim)
    snap = Snapshot(anchor, full_gradient(problem, anchor), stage=0)
    worker.anchor, worker.snapshot = snap.anchor, snap
    sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.UPDATE)))
    with pytest.raises(ValueError):
        sim.run_until_quiescent()
    assert server.pushes == []


@pytest.mark.parametrize("kind", KINDS)
def test_evaluation_pull_with_wrong_length_w_raises_without_pushing(kind):
    p = make_synthetic(kind, 20, 5, num_classes=3, lam=0.01, seed=4)
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=2, m=5, S=1, P=1)
    # 2 * dim would read as two multiclass points if nothing raised
    for length in (0, p.dim - 1, p.dim + 1, 2 * p.dim):
        sim, server, sched, worker = build(p, hyper, np.ones(length), seed=3)
        sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.EVALUATION)))
        with pytest.raises((ValueError, IndexError)):
            sim.run_until_quiescent()
        assert server.pushes == [] and sched.pushes == [] and worker.anchor is None


@pytest.mark.parametrize("kind", ["quadratic", "l2-logistic", "multiclass-logistic"])
def test_worker_kernel_is_the_checked_vr_gradient_bit_for_bit(kind):
    p = make_synthetic(kind, 40, 5, num_classes=3, lam=0.01, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(50):
        anchor = rng.normal(size=p.dim)
        snap = Snapshot(anchor, full_gradient(p, anchor), stage=0)
        w = rng.normal(size=p.dim)
        batch = np.sort(rng.choice(p.n, int(rng.integers(1, p.n + 1)), replace=False))
        assert worker_module.vr_gradient is not vr_gradient
        assert np.array_equal(worker_module.vr_gradient(p, w, snap, batch),
                              vr_gradient(p, w, snap, batch))
    with pytest.raises(ValueError, match="non-finite"):
        vr_gradient(p, np.full(p.dim, np.nan), snap, [0])
    for batch in ([], [-1], [p.n]):
        with pytest.raises(ValueError, match="sample index"):
            vr_gradient(p, w, snap, batch)


def test_evaluation_task_single_sample_partition(problem):
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=1, m=5, S=1, P=1)
    sim = SimCluster()
    server = ScriptedServer(np.zeros(problem.dim))
    sched = SchedulerSink()
    worker = WorkerNode(0, problem, [7], hyper, seed=0)
    sim.register("server", server)
    sim.register("scheduler", sched)
    sim.register("worker:0", worker)
    sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.EVALUATION)))
    sim.run_until_quiescent()
    (push,) = server.pushes
    assert isinstance(push, EvalPush)
    assert np.array_equal(push.local_grad, mean_gradient(problem, np.zeros(problem.dim), [7]))


def test_evaluation_objective_sums(problem):
    # split objective across partitions: sum of local sums / N == objective
    hyper = HyperParams(eta=0.1, B=1, m=5, S=1, P=1)
    w = np.random.default_rng(1).normal(size=problem.dim)
    halves = [np.arange(0, 15), np.arange(15, 30)]
    total = sum(loss_sum(problem, w, idx) for idx in halves)
    assert total / problem.n == pytest.approx(objective(problem, w), abs=1e-12)


def test_update_task_defers_until_snapshot_arrives(problem):
    hyper = HyperParams(eta=0.1, theta=0.5, tau=0, B=4, m=5, S=1, P=1)
    anchor = np.zeros(problem.dim)
    sim, server, _, worker = build(problem, hyper, anchor, seed=3)
    # stage-0 evaluation establishes the local anchor ...
    sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.EVALUATION)))
    sim.run_until_quiescent()
    assert isinstance(server.pushes[-1], EvalPush)
    # ... but until the broadcast lands, stage-1 update tasks must wait
    sim.send("scheduler", "worker:0", TaskAssign(TaskId(1, TaskKind.UPDATE)))
    sim.run_until_quiescent()
    assert not any(isinstance(p, UpdatePush) for p in server.pushes)
    assert len(worker.queue) == 1
    sim.send("server", "worker:0", SnapshotBroadcast(server.pushes[-1].local_grad))
    sim.run_until_quiescent()
    assert worker.snapshot is not None and worker.snapshot.stage == 0
    assert any(isinstance(p, UpdatePush) for p in server.pushes)


def test_stop_clears_queue(problem):
    hyper = HyperParams(eta=0.1, B=2, m=5, S=1, P=1)
    sim, server, _, worker = build(problem, hyper, np.zeros(problem.dim), seed=0)
    worker.handle("scheduler", TaskAssign(TaskId(1, TaskKind.UPDATE)))
    worker.handle("scheduler", Stop())
    assert worker.stopped and len(worker.queue) == 0


def test_worker_rejects_an_unknown_gradient_rule(problem):
    hyper = HyperParams(eta=0.1, B=1, m=1, S=1, P=1)
    with pytest.raises(ValueError, match="^gradient must be 'vr' or 'plain'$"):
        WorkerNode(0, problem, np.arange(problem.n), hyper, gradient="sgd")


@pytest.mark.parametrize("msg, error", [
    (PullResponse(TaskId(1, TaskKind.UPDATE), np.zeros(4)),
     "worker 0 got unexpected pull response TaskId(timestamp=1, kind=<TaskKind.UPDATE: 0>)"),
    (SnapshotBroadcast(np.zeros(4)),
     "worker 0 got a snapshot broadcast before any evaluation task"),
    ("hello", "worker cannot handle str"),
], ids=["unexpected-pull-response", "snapshot-before-evaluation", "unknown-message"])
def test_worker_rejects_a_message_it_cannot_take(problem, msg, error):
    worker = WorkerNode(0, problem, np.arange(problem.n), HyperParams(eta=0.1, B=1, m=1, S=1, P=1))
    with pytest.raises(ProtocolError, match=f"^{re.escape(error)}$"):
        worker.handle("server", msg)
    assert not worker.queue and worker.waiting is None and worker.anchor is None
