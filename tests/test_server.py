import re

import numpy as np
import pytest

from dvrsgd.baselines import BASELINES, algo_config, apply_hybrid, dpg_update
from dvrsgd.data import partition
from dvrsgd.harness import _build_nodes
from dvrsgd.losses import full_gradient, make_synthetic, mean_gradient
from dvrsgd.protocol import (EvalPush, PullRequest, Stop, TaskAssign, TaskId,
                             TaskKind, UpdatePush)
from dvrsgd.server import (FinishedTasks, HyperParams, ParamServer, ProtocolError,
                           aggregate_local_gradients)
from dvrsgd.transport import LatencyModel, SimCluster


class Sink:
    """Stand-in worker endpoint; remembers deliveries."""

    def bind(self, transport, endpoint):
        self.transport = transport
        self.endpoint = endpoint
        self.seen = []

    def on_start(self):
        pass

    def handle(self, src, msg):
        self.seen.append(msg)


def make_server(tau=2, theta=0.5, eta=0.1, m=10, P=1, dim=2):
    # dvrsgd's wiring: the hybrid rule, pulls gated at tau
    hyper = HyperParams(eta=eta, theta=theta, tau=tau, B=1, m=m, S=1, P=P)
    server = ParamServer(dim, hyper, np.full(P, 1.0 / P),
                         update_rule=algo_config("dvrsgd").rule(hyper, dim), gate_bound=tau)
    sim = SimCluster()
    sim.register("server", server)
    for p in range(P):
        sim.register(f"worker:{p}", Sink())
    sim.run_until_quiescent()  # triggers on_start hooks only
    return server, sim


def finish(server, timestamps):
    for t in timestamps:
        server.finished.mark(t)


def pull(server, t, worker=0):
    """Pull update task t as ``worker``; the gate must answer it at once."""
    assert server.gate_pull(PullRequest(worker, TaskId(t, TaskKind.UPDATE))) is True


def push(t, delta, worker=0):
    return UpdatePush(worker, TaskId(t, TaskKind.UPDATE), np.asarray(delta, dtype=float))


def test_gate_respond_when_older_tasks_finished():
    server, _ = make_server(tau=2)
    finish(server, [1, 2, 3])
    assert server.gate_pull(PullRequest(0, TaskId(5, TaskKind.UPDATE))) is True
    assert server.pending_pulls == []


def test_gate_defer_when_gap_below_threshold():
    server, _ = make_server(tau=2)
    finish(server, [1, 3])
    assert server.gate_pull(PullRequest(0, TaskId(5, TaskKind.UPDATE))) is False
    assert len(server.pending_pulls) == 1


def test_evaluation_pull_waits_for_all_updates():
    server, _ = make_server(tau=2, m=10)
    finish(server, [1, 2, 3, 4, 5, 6, 7, 8, 9])  # task 10 missing
    assert server.gate_pull(PullRequest(0, TaskId(11, TaskKind.EVALUATION))) is False
    server.finished.mark(10)
    server._rescan_pending()
    assert server.pending_pulls == []


def test_duplicate_pull_rejected():
    server, _ = make_server(tau=0)
    # tau=0: pull for t=2 while 1 unfinished -> deferred
    server.gate_pull(PullRequest(0, TaskId(2, TaskKind.UPDATE)))
    with pytest.raises(ProtocolError):
        server.gate_pull(PullRequest(0, TaskId(2, TaskKind.UPDATE)))


def test_duplicate_pulls_rejected_while_pending_and_once_answered():
    server, _ = make_server(tau=2, m=10, P=2)
    finish(server, range(1, 10))
    evaluation = PullRequest(0, TaskId(11, TaskKind.EVALUATION))
    assert server.gate_pull(evaluation) is False
    with pytest.raises(ProtocolError):
        server.gate_pull(evaluation)
    pull(server, 10, worker=1)
    server.apply_update(push(10, np.zeros(2), worker=1))
    assert server.pending_pulls == []
    with pytest.raises(ProtocolError):
        server.gate_pull(evaluation)
    # the next stage's first update task shares the evaluation's timestamp
    update = PullRequest(0, TaskId(11, TaskKind.UPDATE))
    assert server.gate_pull(update) is True
    for req in (update, evaluation):
        with pytest.raises(ProtocolError):
            server.gate_pull(req)


def test_answered_pull_state_bounded_by_worker_count():
    p = make_synthetic("quadratic", 120, 4, seed=5, mu=1.0, smoothness=5.0)
    hyper = HyperParams(eta=0.02, theta=0.5, tau=2, B=3, m=20, S=4, P=6)
    sched, server, workers = _build_nodes(
        p, hyper, "dvrsgd", seed=1, grad_tick=0.01, partition_strategy="contiguous",
        partition_seed=0, stop_rule=None)
    sim = SimCluster(LatencyModel("uniform", lo=1.0, hi=5.0, seed=2))
    sim.register("scheduler", sched)
    sim.register("server", server)
    for q, wk in enumerate(workers):
        sim.register(f"worker:{q}", wk)
    # the answered w_hat the server holds for pushes still to come, after
    # every event it handles
    held, handle = [], server.handle

    def counting(src, msg):
        handle(src, msg)
        held.append(sum(w_hat is not None for _, w_hat in server._last_pull.values()))

    server.handle = counting
    sim.run_until_quiescent()
    assert len(sched.records) == hyper.S + 1
    # S*m update pulls and (S+1)*P evaluation pulls were answered
    assert len(server._last_pull) <= hyper.P
    assert server.pending_pulls == []
    assert 1 < max(held) <= hyper.P
    assert held[-1] == 0


def test_out_of_order_pull_rejected():
    # a worker pulls its tasks in task order, so task 2 after task 3 repeats
    # a pull: only a faulty peer sends one
    server, _ = make_server(tau=0)
    assert server.gate_pull(PullRequest(0, TaskId(3, TaskKind.UPDATE))) is False
    with pytest.raises(ProtocolError, match="duplicate pull from worker 0"):
        server.gate_pull(PullRequest(0, TaskId(2, TaskKind.UPDATE)))
    assert len(server.pending_pulls) == 1


@pytest.mark.parametrize("kind", [TaskKind.UPDATE, TaskKind.EVALUATION])
def test_pull_from_a_worker_outside_the_cluster_rejected(kind):
    server, sim = make_server(tau=0, m=3, P=2)
    sim.register("worker:9", Sink())
    with pytest.raises(ProtocolError, match=r"pull from worker 9 outside 0\.\.1"):
        server.gate_pull(PullRequest(9, TaskId(1, kind)))
    assert server._last_pull == {} and server.pending_pulls == [] and server._rounds == {}
    sim.run_until_quiescent()
    assert sim.nodes["worker:9"].seen == []


def test_pull_for_finished_task_rejected():
    server, _ = make_server(tau=2)
    finish(server, [1])
    with pytest.raises(ProtocolError):
        server.gate_pull(PullRequest(0, TaskId(1, TaskKind.UPDATE)))


def test_apply_hybrid_exact_arithmetic():
    # eta*delta = [1, 0], so w - eta*delta = [0, 1] and w_bar = [0.5, 1]
    w, w_hat = np.array([1.0, 1.0]), np.array([1.5, 1.0])
    out = apply_hybrid(w, w_hat, np.array([2.0, 0.0]), eta=0.5, theta=0.5)
    assert np.array_equal(out, np.array([0.25, 1.0]))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_apply_hybrid_matches_the_formula_bitwise_and_only_reads_its_inputs(theta):
    rng = np.random.default_rng(5)
    eta = 0.01
    for dim in (1, 7, 50, 2000):
        w, w_hat, delta = (rng.normal(size=dim) for _ in range(3))
        want = (1 - theta) * (w - eta * delta) + theta * (w_hat - eta * delta)
        kept = [w.copy(), w_hat.copy(), delta.copy()]
        assert np.array_equal(apply_hybrid(w, w_hat, delta, eta, theta), want)
        for got, before in zip((w, w_hat, delta), kept):
            assert np.array_equal(got, before)
        # read-only inputs, as decoded frames are, do too
        for a in (w, w_hat, delta):
            a.setflags(write=False)
        out = apply_hybrid(w, w_hat, delta, eta, theta)
        assert np.array_equal(out, want)
        assert out.flags.writeable and not any(np.shares_memory(out, a)
                                               for a in (w, w_hat, delta))


def test_apply_update_theta_endpoints():
    # theta=1 lands on w_bar = w_hat - eta*delta, theta=0 on w - eta*delta
    for theta, expect in [(1.0, np.array([0.5, 1.0])), (0.0, np.array([0.8, 1.0]))]:
        server, _ = make_server(theta=theta, eta=0.1)
        server.w = np.array([0.7, 1.0])
        pull(server, 1)  # w_hat
        server.w = np.array([1.0, 1.0])
        server.apply_update(push(1, [2.0, 0.0]))
        assert np.allclose(server.w, expect, atol=1e-15)
        assert 1 in server.finished


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_update_rejected_and_state_kept(bad):
    # the server never stores a non-finite w, so the w it sends needs no check
    server, _ = make_server(theta=0.5, eta=0.1)
    pull(server, 1)
    server.apply_update(push(1, np.ones(2)))
    pull(server, 2)
    w = server.w.copy()
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="task 2"):
        server.apply_update(push(2, [1.0, bad]))
    assert np.array_equal(server.w, w)
    assert server.finished.watermark == 1 and 2 not in server.finished


@pytest.mark.parametrize("algo,theta", [("dvrsgd", 0.5), ("dvrsgd", 1.0), ("vrdpg", 0.5)])
def test_update_rules_form_w_bar_from_the_answered_w(algo, theta):
    # worker 0 is answered w_hat; worker 1's update then moves w, so the
    # server applies worker 0's push to a w other than the one it answered
    hyper = HyperParams(eta=0.1, theta=theta, tau=1, B=1, m=10, S=1, P=2)
    row = algo_config(algo)
    server = ParamServer(3, hyper, [0.5, 0.5], update_rule=row.rule(hyper, 3),
                         gate_bound=row.gate(hyper))
    sim = SimCluster()
    sim.register("server", server)
    for p in range(2):
        sim.register(f"worker:{p}", Sink())
    rng = np.random.default_rng(4)
    server.w = rng.normal(size=3)
    w_hat = server.w
    pull(server, 1, worker=0)
    pull(server, 2, worker=1)
    server.apply_update(push(2, rng.normal(size=3), worker=1))
    w, delta = server.w, rng.normal(size=3)
    server.apply_update(push(1, delta, worker=0))
    w_bar = w_hat - 0.1 * delta
    expect = ((1.0 - theta) * (w - 0.1 * delta) + theta * w_bar if algo == "dvrsgd"
              else dpg_update(w, w_bar, theta))
    assert server.w.tobytes() == expect.tobytes()
    assert not np.array_equal(w, w_hat)


@pytest.mark.parametrize("script", [
    [],                                  # task 1 was never pulled
    [(1, "pull")],                       # task 1 was answered to worker 1
    [(0, "pull"), (0, "push")],          # task 1's push already landed
], ids=["never-pulled", "answered-to-another-worker", "second-push"])
def test_push_that_answers_no_released_pull_rejected_in_sim(script):
    server, sim = make_server(tau=0, P=2)
    delta = np.array([1.0, -1.0])
    for worker, op in script:
        msg = (PullRequest(worker, TaskId(1, TaskKind.UPDATE)) if op == "pull"
               else push(1, delta, worker=worker))
        sim.send(f"worker:{worker}", "server", msg)
    sim.run_until_quiescent()
    w, watermark = server.w, server.finished.watermark
    sim.send("worker:0", "server", push(1, delta))
    with pytest.raises(ProtocolError,
                       match=r"worker 0 has no released pull for TaskId\(timestamp=1,"):
        sim.run_until_quiescent()
    assert server.w is w and server.finished.watermark == watermark


def test_push_for_a_pull_still_buffered_rejected():
    # worker 0 breaks the one-task-at-a-time rule: once its pull for task 2
    # is answered, its pull for task 3 is still buffered, so the gate has
    # released task 2 to it and not task 3
    server, _ = make_server(tau=0, P=2)
    for t in (2, 3):
        assert server.gate_pull(PullRequest(0, TaskId(t, TaskKind.UPDATE))) is False
    pull(server, 1, worker=1)
    server.apply_update(push(1, np.zeros(2), worker=1))
    assert [r.task.timestamp for _, r in server.pending_pulls] == [3]
    with pytest.raises(ProtocolError,
                       match=r"worker 0 has no released pull for TaskId\(timestamp=3,"):
        server.apply_update(push(3, np.zeros(2)))
    assert server.finished.watermark == 1


def test_duplicate_update_rejected():
    server, _ = make_server()
    pull(server, 1)
    server.apply_update(push(1, np.zeros(2)))
    with pytest.raises(ProtocolError):
        server.apply_update(push(1, np.zeros(2)))


def test_update_releases_deferred_pulls_in_timestamp_order():
    server, sim = make_server(tau=0, P=3)
    # tau=0: a pull for t may only be answered once all < t finished
    pull(server, 1, worker=2)
    assert server.gate_pull(PullRequest(0, TaskId(3, TaskKind.UPDATE))) is False
    assert server.gate_pull(PullRequest(1, TaskId(2, TaskKind.UPDATE))) is False
    server.apply_update(push(1, np.zeros(2), worker=2))
    # only t=2 becomes eligible; t=3 still waits on 2
    assert [r.task.timestamp for _, r in server.pending_pulls] == [3]


def recording(server):
    """The (destination, message) of every send ``server`` makes from now on."""
    sent = []
    server.send = lambda dst, msg: sent.append((dst, msg))
    return sent


def test_update_that_releases_nothing_sends_nothing():
    server, _ = make_server(tau=1, P=3)
    pull(server, 1, worker=0)
    pull(server, 2, worker=1)
    assert server.gate_pull(PullRequest(2, TaskId(5, TaskKind.UPDATE))) is False
    pending = list(server.pending_pulls)
    sent = recording(server)
    # task 2 lands above the watermark, then task 1 moves it to 2: t=5 still
    # waits for task 3
    server.apply_update(push(2, np.zeros(2), worker=1))
    server.apply_update(push(1, np.zeros(2), worker=0))
    assert sent == [] and server.pending_pulls == pending
    assert server.finished.watermark == 2


def test_one_update_releases_evaluation_pulls_before_an_update_pull():
    # stage 1 ends with task 10; its evaluation pulls (timestamp 11) and the
    # pull for next-stage task 10 + tau + 1 = 13 all wait for watermark 10
    tau, m = 2, 10
    server, _ = make_server(tau=tau, m=m, P=4)
    finish(server, range(1, 10))
    pull(server, 10, worker=0)
    evaluation = TaskId(m + 1, TaskKind.EVALUATION)
    update = TaskId(m + tau + 1, TaskKind.UPDATE)
    for worker, task in ((2, evaluation), (3, update), (1, evaluation)):
        assert server.gate_pull(PullRequest(worker, task)) is False
    assert {entry[0][0] for entry in server.pending_pulls} == {m}
    sent = recording(server)
    server.apply_update(push(10, np.ones(2), worker=0))
    # evaluation first (lower timestamp), then by arrival
    assert [(dst, msg.task) for dst, msg in sent] == [
        ("worker:2", evaluation), ("worker:1", evaluation), ("worker:3", update)]
    assert all(msg.w is server.w for _, msg in sent)
    assert server.pending_pulls == []
    # each answered pull keeps what it was answered with: the round's stage
    # for an evaluation pull, w_hat for the update pull
    assert server._last_pull[1][1] == server._last_pull[2][1] == 1
    assert server._last_pull[3][1] is server.w
    assert 1 in server._rounds and server._last_pull[0][1] is None


def test_gate_error_texts():
    server, _ = make_server(tau=0, m=10, P=2)
    finish(server, [1])
    stale = TaskId(1, TaskKind.UPDATE)
    with pytest.raises(ProtocolError, match=r"^pull for already-finished task "
                                            + re.escape(str(stale)) + "$"):
        server.gate_pull(PullRequest(0, stale))
    deferred = TaskId(3, TaskKind.UPDATE)
    assert server.gate_pull(PullRequest(0, deferred)) is False
    answered = TaskId(2, TaskKind.UPDATE)
    pull(server, 2, worker=1)
    for worker, task in ((0, deferred), (1, answered), (1, stale)):
        with pytest.raises(ProtocolError, match=rf"^duplicate pull from worker {worker} for "
                                                + re.escape(str(task)) + "$"):
            server.gate_pull(PullRequest(worker, task))
    # no record of either pull changed, so both still behave as before
    assert server._last_pull[0] == [(3, 1), None]
    assert server.gate_pull(PullRequest(0, TaskId(11, TaskKind.EVALUATION))) is False
    with pytest.raises(ProtocolError, match=r"^worker 0 has no released pull for "):
        server.apply_update(push(3, np.zeros(2)))
    server.apply_update(push(2, np.zeros(2), worker=1))
    assert len(server.pending_pulls) == 1


def test_watermark_overflow_set():
    f = FinishedTasks()
    f.mark(1)
    f.mark(3)
    f.mark(5)
    assert f.watermark == 1
    assert 3 in f and 2 not in f
    f.mark(2)
    assert f.watermark == 3
    f.mark(4)
    assert f.watermark == 5
    with pytest.raises(ProtocolError):
        f.mark(4)


def test_watermark_never_decreases():
    f = FinishedTasks()
    rng = np.random.default_rng(0)
    seen = 0
    for t in rng.permutation(np.arange(1, 200)):
        f.mark(int(t))
        assert f.watermark >= seen
        seen = f.watermark
    assert f.watermark == 199


def evaluate(server, grads):
    """Pull stage 0's evaluation task as workers 0..len(grads)-1, then push
    ``grads[p]`` as worker p, through the server's own entry points."""
    task = TaskId(1, TaskKind.EVALUATION)
    for p in range(len(grads)):
        assert server.gate_pull(PullRequest(p, task)) is True
    for p, g in enumerate(grads):
        server.handle(f"worker:{p}", EvalPush(p, np.asarray(g, dtype=float), 0.0, 0.0, 0.0))


def test_stage_end_single_worker_identity():
    server, _ = make_server(P=1)
    g = np.array([0.25, -0.5])
    evaluate(server, [g])
    (snap,) = server.snapshot_history
    assert np.array_equal(snap.anchor_grad, g) and snap.stage == 0


def test_stage_end_equal_gradients():
    server, _ = make_server(P=4)
    g = np.array([1.0, 2.0])
    evaluate(server, [g] * 4)
    (snap,) = server.snapshot_history
    assert np.allclose(snap.anchor_grad, g, atol=1e-15)


def test_stage_end_missing_worker():
    # a round closes when all P workers have pushed, and at no other time
    server, _ = make_server(P=3)
    task = TaskId(1, TaskKind.EVALUATION)
    for p in range(3):
        server.gate_pull(PullRequest(p, task))
    for p in (0, 2):
        server.handle(f"worker:{p}", EvalPush(p, np.zeros(2), 0.0, 0.0, 0.0))
    assert server.snapshot_history == [] and sorted(server._rounds[0][1]) == [0, 2]
    server.handle("scheduler", Stop())
    assert not server.can_shutdown()
    server.handle("worker:1", EvalPush(1, np.zeros(2), 0.0, 0.0, 0.0))
    assert [s.stage for s in server.snapshot_history] == [0] and server.can_shutdown()


def test_overlapping_rounds_keep_their_own_pushes():
    # plain-gradient workers never wait for a snapshot, so worker 0 can open
    # stage 1's round before worker 1 has pushed for stage 0
    server, _ = make_server(tau=0, m=1, P=2)
    for p in range(2):
        assert server.gate_pull(PullRequest(p, TaskId(1, TaskKind.EVALUATION))) is True
    server.handle("worker:0", EvalPush(0, np.array([1.0, 0.0]), 0.0, 0.0, 0.0))
    pull(server, 1)
    server.apply_update(push(1, np.array([1.0, 1.0])))
    anchor1 = server.w
    assert server.gate_pull(PullRequest(0, TaskId(2, TaskKind.EVALUATION))) is True
    server.handle("worker:0", EvalPush(0, np.array([3.0, 0.0]), 0.0, 0.0, 0.0))
    server.handle("worker:1", EvalPush(1, np.array([0.0, 1.0]), 0.0, 0.0, 0.0))
    assert server.gate_pull(PullRequest(1, TaskId(2, TaskKind.EVALUATION))) is True
    server.handle("worker:1", EvalPush(1, np.array([0.0, 3.0]), 0.0, 0.0, 0.0))
    zero, one = server.snapshot_history
    assert (zero.stage, one.stage) == (0, 1)
    assert np.array_equal(zero.anchor, np.zeros(2)) and one.anchor is anchor1
    assert np.array_equal(zero.anchor_grad, [0.5, 0.5])
    assert np.array_equal(one.anchor_grad, [1.5, 1.5])
    assert server._rounds == {}


def round_state(server):
    return (server.w.tobytes(), server.finished.watermark,
            {s: (a.tobytes(), dict(pushes)) for s, (a, pushes) in server._rounds.items()})


@pytest.mark.parametrize("worker, pulled", [
    (1, None),                            # never pulled
    (1, TaskId(1, TaskKind.UPDATE)),      # its last pull is an update pull
    (1, TaskId(4, TaskKind.EVALUATION)),  # its evaluation pull is still buffered
    (9, None),                            # outside 0..P-1 (the server rejects its pulls)
    (0, None),                            # a second push in the same round
], ids=["never-pulled", "update-pull", "buffered", "unknown-worker", "second-push"])
def test_eval_push_that_answers_no_released_eval_pull_rejected(worker, pulled):
    server, _ = make_server(tau=0, m=3, P=2)
    assert server.gate_pull(PullRequest(0, TaskId(1, TaskKind.EVALUATION))) is True
    server.handle("worker:0", EvalPush(0, np.ones(2), 0.0, 0.0, 0.0))
    if pulled is not None:
        server.gate_pull(PullRequest(worker, pulled))
    before = round_state(server)
    with pytest.raises(ProtocolError, match=f"worker {worker} has no released evaluation pull"):
        server.handle(f"worker:{worker}", EvalPush(worker, np.zeros(2), 0.0, 0.0, 0.0))
    assert round_state(server) == before and server.snapshot_history == []
    assert server._rounds[0][1][0] == EvalPush(0, np.ones(2), 0.0, 0.0, 0.0)


def test_aggregate_weights_must_sum_to_one():
    # checked once, when the server is built, not at every stage's aggregate
    hyper = HyperParams(eta=0.1, P=2)
    rule = algo_config("dvrsgd").rule(hyper, 2)
    with pytest.raises(ValueError, match="partition weights must sum to 1"):
        ParamServer(2, hyper, [0.6, 0.5], update_rule=rule, gate_bound=0)
    ParamServer(2, hyper, [0.5, 0.5], update_rule=rule, gate_bound=0)


def test_stage_end_matches_full_gradient_random_partition():
    p = make_synthetic("quadratic", 100, 6, seed=1, mu=1.0, smoothness=5.0)
    parts = partition(p, 4, "shuffled", seed=2)
    w = np.random.default_rng(3).normal(size=p.dim)
    grads = [mean_gradient(p, w, parts.subsets[q]) for q in range(4)]
    agg = aggregate_local_gradients(grads, parts.weights)
    assert np.linalg.norm(agg - full_gradient(p, w)) <= 1e-12


def test_stop_discards_updates_and_deferred_pulls():
    server, _ = make_server(tau=0)
    server.gate_pull(PullRequest(0, TaskId(5, TaskKind.UPDATE)))  # deferred
    assert len(server.pending_pulls) == 1
    server.handle("scheduler", Stop())
    assert server.stopped and server.pending_pulls == []
    w_before = server.w
    server.handle("worker:0", push(1, np.ones(2)))
    assert np.array_equal(server.w, w_before)
    assert 1 not in server.finished


def test_hyper_params_validation():
    with pytest.raises(ValueError):
        HyperParams(eta=0.0)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, theta=1.5)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, tau=-1)
    with pytest.raises(ValueError):
        HyperParams(eta=0.1, B=0)
    # theta endpoints are representable states
    HyperParams(eta=0.1, theta=0.0)
    HyperParams(eta=0.1, theta=1.0)


@pytest.mark.parametrize("algo", sorted(BASELINES))
@pytest.mark.parametrize("length", [1, 4], ids=["length-1", "length-d+1"])
def test_push_of_a_vector_not_as_long_as_w_rejected_naming_the_worker(algo, length):
    # d = 3: NumPy would broadcast a length-1 delta over all of w
    hyper = HyperParams(eta=0.1, theta=0.5, tau=1, B=1, m=10, S=1, P=2)
    row = algo_config(algo)
    server = ParamServer(3, hyper, [0.5, 0.5], update_rule=row.rule(hyper, 3),
                         gate_bound=row.gate(hyper))
    sim = SimCluster()
    sim.register("server", server)
    for p in range(2):
        sim.register(f"worker:{p}", Sink())
    server.w = np.array([1.0, -2.0, 3.0])
    assert server.gate_pull(PullRequest(0, TaskId(1, TaskKind.EVALUATION))) is True
    pull(server, 1, worker=1)
    before = round_state(server)
    task = TaskId(1, TaskKind.UPDATE)
    with pytest.raises(ProtocolError, match=re.escape(
            f"worker 1 pushed a delta for {task} of length {length}; w has length 3")):
        server.handle("worker:1", push(1, np.ones(length), worker=1))
    with pytest.raises(ProtocolError, match=re.escape(
            f"worker 0 pushed a stage 0 local gradient of length {length}; "
            "w has length 3")):
        server.handle("worker:0", EvalPush(0, np.ones(length), 0.0, 0.0, 0.0))
    assert round_state(server) == before and server.snapshot_history == []
    # both records still wait for their pushes
    server.handle("worker:1", push(1, np.ones(3), worker=1))
    server.handle("worker:0", EvalPush(0, np.ones(3), 0.0, 0.0, 0.0))
    assert 1 in server.finished and server._rounds[0][1][0].local_grad.size == 3


@pytest.mark.parametrize("build, error", [
    (lambda: HyperParams(eta=0.1, S=-1), "S must be >= 0"),
    (lambda: ParamServer(2, HyperParams(eta=0.1, P=2), [1.0], update_rule=None,
                         gate_bound=0), "need one partition weight per worker"),
], ids=["negative-S", "weights-shape"])
def test_server_parameters_rejected(build, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        build()


def test_aggregate_needs_one_gradient_per_weight():
    with pytest.raises(ProtocolError, match="^expected 2 local gradients, got 1$"):
        aggregate_local_gradients([np.ones(2)], [0.5, 0.5])


@pytest.mark.parametrize("msg, error", [
    (TaskAssign(TaskId(1, TaskKind.UPDATE)), "server only accepts evaluation task assignments"),
    ("hello", "server cannot handle str"),
], ids=["update-assignment", "unknown-message"])
def test_server_rejects_a_message_it_cannot_take(msg, error):
    server, _ = make_server()
    with pytest.raises(ProtocolError, match=f"^{error}$"):
        server.handle("scheduler", msg)
