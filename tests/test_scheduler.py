import numpy as np
import pytest
from scipy import stats

from dvrsgd.harness import run_cluster
from dvrsgd.losses import make_synthetic, objective
from dvrsgd.protocol import EvalPush, PullRequest, TaskAssign, TaskId, TaskKind
from dvrsgd.scheduler import (SchedulerNode, assignment_stream, compute_rate_gamma, fixed_stages,
                              objective_target, plan_stage, relative_decrease)
from dvrsgd.server import HyperParams, ProtocolError
from dvrsgd.transport import Node, SimCluster
from helpers import quad_solution


def test_plan_stage_timestamps():
    # stage 3 at m = 10 issues update timestamps 21..30, each to the worker
    # that plan_stage draws for it from the scheduler's assignment stream
    sched = SchedulerNode(HyperParams(eta=0.1, m=10, S=3, P=2), [0.5, 0.5], 10, seed=0)
    sent = []
    sched.send = lambda dst, msg: sent.append((dst, msg.task))
    sched._issue_stage(3)
    workers = plan_stage(10, [0.5, 0.5], assignment_stream(0))
    assert len(set(workers)) == 2
    assert [(dst, task) for dst, task in sent if task.kind == TaskKind.UPDATE] == \
        [(f"worker:{p}", TaskId(20 + k, TaskKind.UPDATE)) for k, p in enumerate(workers, 1)]


def test_assignment_uniform_chi_square():
    rng = assignment_stream(7)
    counts = np.bincount(plan_stage(10_000, np.full(4, 0.25), rng), minlength=4)
    assert stats.chisquare(counts).pvalue > 0.01


def test_assignment_respects_weights():
    rng = assignment_stream(8)
    weights = np.array([0.7, 0.2, 0.1])
    counts = np.bincount(plan_stage(20_000, weights, rng), minlength=3)
    assert stats.chisquare(counts, f_exp=weights * 20_000).pvalue > 0.01


def test_issued_timestamps_exact(tmp_path):
    p = make_synthetic("l2-logistic", 40, 4, lam=0.01, seed=0)
    h = HyperParams(eta=0.1, theta=0.5, tau=2, B=4, m=6, S=3, P=2)
    r = run_cluster(p, h, seed=1, collect_trace=True)
    updates, evals = [], []
    for ev in r.trace:
        if ev.action == "send" and ev.src == "scheduler" and isinstance(ev.msg, TaskAssign):
            (updates if ev.msg.task.kind == TaskKind.UPDATE else evals).append(
                (ev.msg.task.timestamp, ev.dst))
    assert sorted(t for t, _ in updates) == list(range(1, 3 * 6 + 1))
    # one evaluation per stage 0..S, timestamp s*m+1, sent to all workers and the server
    eval_ts = sorted({t for t, _ in evals})
    assert eval_ts == [s * 6 + 1 for s in range(0, 4)]
    for t in eval_ts:
        assert sorted(d for tt, d in evals if tt == t) == ["server", "worker:0", "worker:1"]


class Quiet(Node):
    """Stand-in server or worker endpoint that ignores what it is sent."""

    def handle(self, src, msg):
        pass


def started_scheduler(P=2):
    """A scheduler at P workers whose stage-0 evaluation has been issued."""
    sched = SchedulerNode(HyperParams(eta=0.1, m=2, S=2, P=P), np.full(P, 1.0 / P), 10)
    sim = SimCluster()
    sim.register("scheduler", sched)
    for ep in ["server", *(f"worker:{p}" for p in range(P))]:
        sim.register(ep, Quiet())
    sim.run_until_quiescent()
    return sched


def test_scheduler_rejects_a_pull_request():
    sched = started_scheduler()
    with pytest.raises(ProtocolError, match="scheduler cannot handle PullRequest"):
        sched.handle("worker:0", PullRequest(0, TaskId(1, TaskKind.EVALUATION)))


@pytest.mark.parametrize("workers", [[0, 0], [0, 9]], ids=["second-push", "unknown-worker"])
def test_scheduler_rejects_an_unexpected_evaluation_push(workers):
    sched = started_scheduler(P=2)
    first, second = workers
    sched.handle(f"worker:{first}", EvalPush(first, np.zeros(2), 1.0, 0.0, 0.0))
    with pytest.raises(ProtocolError, match=f"no evaluation push from worker {second} "
                                            "in stage 0"):
        sched.handle(f"worker:{second}", EvalPush(second, np.zeros(2), 2.0, 0.0, 0.0))
    assert sched.records == [] and sched._pending[first].local_obj_sum == 1.0


def test_fixed_stages_runs_exactly_s_stages():
    p = make_synthetic("l2-logistic", 40, 4, lam=0.01, seed=0)
    h = HyperParams(eta=0.1, theta=0.5, tau=1, B=4, m=5, S=4, P=2)
    r = run_cluster(p, h, seed=2)
    assert [rec.stage for rec in r.records] == [0, 1, 2, 3, 4]
    assert not r.stopped_early


def test_objective_target_stops_early():
    p = make_synthetic("quadratic", 120, 8, seed=3, mu=1.0, smoothness=5.0)
    _, f_star = quad_solution(p)
    h = HyperParams(eta=0.05, theta=0.5, tau=2, B=6, m=20, S=50, P=2)
    r = run_cluster(p, h, seed=4,
                    stop_rule=objective_target(f_star + 1e-6))
    assert r.stopped_early
    assert r.records[-1].stage < 50
    assert r.records[-1].objective <= f_star + 1e-6


def test_relative_decrease_rule():
    rule = relative_decrease(1e-3)
    from dvrsgd.scheduler import ProgressRecord
    recs = [ProgressRecord(0, 1.0, 0.0), ProgressRecord(1, 0.5, 0.0)]
    assert not rule(recs)
    recs.append(ProgressRecord(2, 0.4999, 0.0))
    assert rule(recs)
    assert not fixed_stages()(recs)


def test_progress_matches_direct_objective():
    p = make_synthetic("l2-logistic", 60, 5, lam=0.05, seed=5)
    h = HyperParams(eta=0.2, theta=0.5, tau=3, B=5, m=12, S=3, P=3)
    r = run_cluster(p, h, seed=6)
    assert len(r.snapshots) == len(r.records)
    for rec, snap in zip(r.records, r.snapshots):
        assert rec.objective == pytest.approx(objective(p, snap.anchor), abs=1e-12)


def test_corollary_distance_bound():
    p = make_synthetic("quadratic", 200, 10, seed=7, mu=1.0, smoothness=8.0)
    w_star, f_star = quad_solution(p)
    h = HyperParams(eta=0.02, theta=0.5, tau=2, B=10, m=20, S=10, P=2)
    r = run_cluster(p, h, seed=8)
    for rec, snap in zip(r.records, r.snapshots):
        dist_sq = float(np.sum((snap.anchor - w_star) ** 2))
        # 1e-12 slack absorbs cancellation noise once both sides hit float eps
        assert dist_sq <= 2.0 * (rec.objective - f_star) / p.mu + 1e-12


def test_compute_rate_gamma_against_high_precision():
    import mpmath as mp
    mp.mp.dps = 50
    gamma = compute_rate_gamma(mu=1.0, L=2.0, eta=0.05, theta=1.0, m=30, tau=0)
    first = (1 - 2 * mp.mpf("0.05") * (1 - mp.mpf("0.05") * 4 / 1)) ** 30
    expected = first + mp.mpf("0.05") * 4 / (1 - mp.mpf("0.05") * 4)
    assert gamma == pytest.approx(float(expected), abs=1e-12)
    assert gamma == pytest.approx(0.3320, abs=5e-5)
    assert gamma < 1.0


def test_compute_rate_gamma_huge_tau_no_guarantee():
    assert compute_rate_gamma(mu=1.0, L=2.0, eta=0.05, theta=1.0, m=30, tau=10**9) > 1.0


def test_compute_rate_gamma_eta_to_zero_limit():
    gammas = [compute_rate_gamma(1.0, 2.0, eta, 1.0, 30, 0)
              for eta in (1e-3, 1e-5, 1e-7)]
    assert all(g < gp for g, gp in zip(gammas, gammas[1:]))  # increasing toward 1
    assert abs(gammas[-1] - 1.0) < 1e-3


def test_compute_rate_gamma_domain_errors():
    with pytest.raises(ValueError):
        compute_rate_gamma(1.0, 2.0, eta=0.2, theta=1.0, m=30, tau=0)  # eta >= mu*theta/(2L^2)
    with pytest.raises(ValueError):
        compute_rate_gamma(1.0, 2.0, eta=0.05, theta=0.0, m=30, tau=0)
    with pytest.raises(ValueError):
        compute_rate_gamma(1.0, 2.0, eta=-0.01, theta=1.0, m=30, tau=0)


@pytest.mark.parametrize("args", [(0.0, 2.0, 0.05, 1.0, 30, 0), (1.0, -2.0, 0.05, 1.0, 30, 0),
                                  (1.0, 2.0, 0.05, 1.0, 0, 0), (1.0, 2.0, 0.05, 1.0, 30, -1)],
                         ids=["mu", "L", "m", "tau"])
def test_compute_rate_gamma_rejects_problem_constants(args):
    with pytest.raises(ValueError, match="^need mu > 0, L > 0, m >= 1, tau >= 0$"):
        compute_rate_gamma(*args)
