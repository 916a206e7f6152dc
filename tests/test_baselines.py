import numpy as np
import pytest

from dvrsgd.baselines import (ADAGRAD_EPS0, BASELINES, DecayingSgd, DownpourAdagrad,
                              algo_config, dpg_update, serial_svrg)
from dvrsgd.harness import run_cluster
from dvrsgd.losses import full_gradient, make_synthetic, objective
from dvrsgd.protocol import TaskId, TaskKind, UpdatePush
from dvrsgd.server import HyperParams
from dvrsgd.vrgrad import Snapshot, vr_gradient
from dvrsgd.worker import sampling_stream
from helpers import quad_solution


@pytest.fixture(scope="module")
def quad():
    p = make_synthetic("quadratic", 400, 10, seed=0, mu=1.0, smoothness=10.0)
    return p, quad_solution(p)


def test_serial_svrg_zero_inner_steps():
    p = make_synthetic("l2-logistic", 20, 3, lam=0.1, seed=1)
    traj = serial_svrg(p, eta=0.1, m=0, S=4, seed=2)
    assert len(traj) == 5
    for w in traj[1:]:
        assert np.array_equal(w, traj[0])


def test_serial_svrg_deterministic():
    p = make_synthetic("l2-logistic", 30, 4, lam=0.05, seed=3)
    a = serial_svrg(p, eta=0.2, m=40, S=3, seed=4)
    b = serial_svrg(p, eta=0.2, m=40, S=3, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = serial_svrg(p, eta=0.2, m=40, S=3, seed=5)
    assert not np.array_equal(a[-1], c[-1])


def _serial_svrg_one_draw_per_step(problem, eta, m, S, seed, anchor, B):
    """serial_svrg as a loop that draws each step's batch with its own
    ``rng.choice`` call."""
    rng = sampling_stream(seed, 0)
    trajectory = [np.zeros(problem.dim)]
    for stage in range(1, S + 1):
        w = trajectory[-1]
        snap = Snapshot(anchor=w, anchor_grad=full_gradient(problem, w), stage=stage - 1)
        iterates = [w]
        for _ in range(m):
            batch = np.sort(rng.choice(problem.n, B, replace=False))
            w = w - eta * vr_gradient(problem, w, snap, batch)
            iterates.append(w)
        trajectory.append(iterates[int(rng.integers(m))] if anchor == "random" else w)
    return trajectory


@pytest.mark.parametrize("anchor", ["random", "last"])
def test_serial_svrg_equals_one_draw_per_step(anchor):
    # the random anchor draw follows each stage's block of m batches, so
    # a drift at the block boundary shows in the next stage's batches
    p = make_synthetic("l2-logistic", 60, 4, lam=0.05, seed=8)
    got = serial_svrg(p, eta=0.1, m=37, S=4, seed=9, anchor=anchor, B=5)
    want = _serial_svrg_one_draw_per_step(p, 0.1, 37, 4, 9, anchor, 5)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_serial_svrg_contracts_ten_fold_per_stage():
    p = make_synthetic("quadratic", 200, 8, seed=6, mu=1.0, smoothness=10.0)
    _, f_star = quad_solution(p)
    traj = serial_svrg(p, eta=0.025, m=2 * p.n, S=4, seed=7)
    sub = [max(objective(p, w) - f_star, 1e-16) for w in traj]
    avg_drop = (sub[0] / sub[-1]) ** (1.0 / 4)
    assert avg_drop >= 10.0


def test_dpg_update_endpoints():
    w, w_hat = np.array([2.0]), np.array([0.0])
    assert np.array_equal(dpg_update(w, w_hat, theta=1.0), w_hat)
    assert np.array_equal(dpg_update(w, w_hat, theta=0.5), np.array([1.0]))
    with pytest.raises(ValueError):
        dpg_update(w, w_hat, theta=0.0)


def test_downpour_adagrad_steps():
    class FakeServer:
        w = np.array([1.0])
        hyper = None

    rule = DownpourAdagrad(eta=0.1, dim=1)
    push = UpdatePush(0, TaskId(1, TaskKind.UPDATE), np.array([0.0]), np.array([1.0]))
    w1 = rule(FakeServer, push)
    assert w1[0] == pytest.approx(1.0 - 0.1 * 1.0 / np.sqrt(ADAGRAD_EPS0 + 1.0), rel=1e-12)
    # zero gradient: no change
    zero = UpdatePush(0, TaskId(2, TaskKind.UPDATE), np.array([0.0]), np.array([0.0]))
    FakeServer.w = w1
    assert np.array_equal(rule(FakeServer, zero), w1)
    # two equal steps shrink: the accumulator is monotone
    FakeServer.w = np.array([1.0])
    rule2 = DownpourAdagrad(eta=0.1, dim=1)
    wa = rule2(FakeServer, push)
    step1 = 1.0 - wa[0]
    FakeServer.w = wa
    wb = rule2(FakeServer, push)
    step2 = wa[0] - wb[0]
    assert 0 < step2 < step1


def test_decaying_sgd_rate_schedule():
    rule = DecayingSgd(eta0=1.0, m=10)
    assert rule.rate(1) == 1.0
    assert rule.rate(4) == pytest.approx(0.857375, abs=1e-12)  # 0.95**3

    class FakeServer:
        w = np.array([1.0, 0.0])
        hyper = None

    push = UpdatePush(0, TaskId(31, TaskKind.UPDATE), np.zeros(2), np.array([1.0, 2.0]))
    out = rule(FakeServer, push)  # t=31, m=10 -> stage 4 -> eta = 0.95^3
    assert np.allclose(out, FakeServer.w - 0.857375 * np.array([1.0, 2.0]), atol=1e-12)


def test_ssp_gate_bound():
    cfg = algo_config("ssp")
    assert cfg.gate(HyperParams(eta=0.1, P=4)) == 8
    assert algo_config("downpour").gate(HyperParams(eta=0.1, P=4)) is None
    assert algo_config("dvrsgd").gate(HyperParams(eta=0.1, tau=5, P=4)) == 5


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        algo_config("sgd-classic")


def test_dsvrg_is_dvrsgd_with_theta_zero(quad):
    p, _ = quad
    h = HyperParams(eta=0.02, theta=0.7, tau=3, B=8, m=25, S=4, P=3)
    a = run_cluster(p, h, algo="dsvrg", seed=9, collect_trace=False)
    h0 = HyperParams(eta=0.02, theta=0.0, tau=3, B=8, m=25, S=4, P=3)
    b = run_cluster(p, h0, algo="dvrsgd", seed=9, collect_trace=False)
    assert np.array_equal(a.final_w, b.final_w)
    assert [r.objective for r in a.records] == [r.objective for r in b.records]


def test_serial_equivalence_theta_zero(quad):
    p, _ = quad
    h = HyperParams(eta=0.02, theta=0.0, tau=0, B=1, m=30, S=3, P=1)
    r = run_cluster(p, h, seed=10, collect_trace=False)
    traj = serial_svrg(p, eta=0.02, m=30, S=3, seed=10, anchor="last")
    assert all(np.array_equal(s.anchor, w) for s, w in zip(r.snapshots, traj))


def test_serial_equivalence_theta_half_fresh_pulls(quad):
    # with tau=0 and P=1 the pull is always fresh, so v^t == w_bar and the
    # hybrid update collapses to the serial SVRG step even at theta=0.5
    p, _ = quad
    h = HyperParams(eta=0.02, theta=0.5, tau=0, B=1, m=30, S=3, P=1)
    r = run_cluster(p, h, seed=11, collect_trace=False)
    traj = serial_svrg(p, eta=0.02, m=30, S=3, seed=11, anchor="last")
    assert all(np.array_equal(s.anchor, w) for s, w in zip(r.snapshots, traj))


def test_dpg_plateaus_while_vrdpg_converges(quad):
    p, (_, f_star) = quad
    h = HyperParams(eta=0.02, theta=0.5, tau=4, B=10, m=40, S=25, P=4)
    dpg = run_cluster(p, h, algo="dpg", seed=12, collect_trace=False)
    vrdpg = run_cluster(p, h, algo="vrdpg", seed=12, collect_trace=False)
    dpg_final = dpg.records[-1].objective - f_star
    vrdpg_final = vrdpg.records[-1].objective - f_star
    assert dpg_final > 1e-6          # stuck at a noise plateau
    assert vrdpg_final <= 1e-8       # variance reduction removes the plateau


def test_ssp_reaches_target_slower_than_dvrsgd(quad):
    p, (_, f_star) = quad
    target = f_star + 1e-4
    h = HyperParams(eta=0.02, theta=0.5, tau=4, B=10, m=40, S=30, P=4)

    def stages_to_target(algo):
        r = run_cluster(p, h, algo=algo, seed=13, collect_trace=False)
        for rec in r.records:
            if rec.objective <= target:
                return rec.stage
        return np.inf

    assert stages_to_target("ssp") > stages_to_target("dvrsgd")


def test_all_cluster_algorithms_run(quad):
    p, _ = quad
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=10, m=10, S=2, P=2)
    for name in BASELINES:
        r = run_cluster(p, h, algo=name, seed=14, collect_trace=False)
        assert len(r.records) == 3
        assert np.isfinite(r.final_w).all()
