"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
"""

import time

import numpy as np
import pytest

from dvrsgd.baselines import serial_svrg
from dvrsgd.harness import run_cluster
from dvrsgd.losses import full_gradient, make_synthetic, mean_gradient
from dvrsgd.protocol import decode, encode, DecodeError
from dvrsgd.scheduler import compute_rate_gamma
from dvrsgd.server import HyperParams, aggregate_local_gradients
from dvrsgd.transport import LatencyModel
from dvrsgd.vrgrad import Snapshot, vr_gradient
from dvrsgd.data import partition
from helpers import (check_gate_invariant, check_one_task_at_a_time,
                     check_pair_fifo, quad_solution)
from test_protocol import rand_message

# the criterion-3 workload, shared by criteria 3, 4, 5, 8, 9
QUAD_N, QUAD_D = 2000, 50
ETA_VALIDATED = 0.01  # tuned for theta=0.5, tau=8, B=20 on the quadratic below


@pytest.fixture(scope="module")
def quad_problem():
    p = make_synthetic("quadratic", QUAD_N, QUAD_D, seed=7, mu=1.0, smoothness=10.0)
    w_star, f_star = quad_solution(p)
    return p, w_star, f_star


@pytest.fixture(scope="module")
def criterion3_run(quad_problem):
    p, _, _ = quad_problem
    h = HyperParams(eta=ETA_VALIDATED, theta=0.5, tau=8, B=20, m=QUAD_N // 20, S=50, P=8)
    t0 = time.perf_counter()
    r = run_cluster(p, h, seed=3)
    return r, time.perf_counter() - t0


def test_criterion_01_serial_equivalence():
    t0 = time.perf_counter()
    p = make_synthetic("l2-logistic", 500, 20, lam=0.01, seed=11)
    m = 500  # the default stage length, ceil(N/B) with B=1
    h = HyperParams(eta=0.1, theta=0.0, tau=0, B=1, m=m, S=5, P=1)
    r = run_cluster(p, h, seed=42)
    traj = serial_svrg(p, eta=0.1, m=m, S=5, seed=42, anchor="last")
    assert len(r.snapshots) == len(traj) == 6
    for snap, w in zip(r.snapshots, traj):
        assert np.array_equal(snap.anchor, w), "snapshot trajectory diverged"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 1 PASS: 6 snapshots bit-exact vs serial SVRG ({elapsed:.2f}s)")


def test_criterion_02_unbiasedness_by_enumeration():
    t0 = time.perf_counter()
    p = make_synthetic("l2-logistic", 200, 8, lam=0.02, seed=12)
    rng = np.random.default_rng(13)
    anchor = rng.normal(size=p.dim)
    snap = Snapshot(anchor, full_gradient(p, anchor), stage=0)
    worst = 0.0
    for _ in range(10):
        w = rng.normal(size=p.dim)
        mean = np.zeros(p.dim)
        for i in range(p.n):
            mean += vr_gradient(p, w, snap, [i])
        mean /= p.n
        worst = max(worst, float(np.linalg.norm(mean - full_gradient(p, w))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 2 PASS: enumeration bias {worst:.2e} <= 1e-12 ({elapsed:.2f}s)")


def test_criterion_03_linear_convergence(quad_problem, criterion3_run):
    _, _, f_star = quad_problem
    r, elapsed = criterion3_run
    sub = np.array([rec.objective - f_star for rec in r.records])
    final = sub[-1]
    stages = np.array([rec.stage for rec in r.records], dtype=float)
    slope = float(np.polyfit(stages, np.log(np.maximum(sub, 1e-16)), 1)[0])
    assert final <= 1e-8
    assert slope <= -0.05
    assert elapsed < 60.0
    print(f"\ncriterion 3 PASS: final subopt {final:.2e} <= 1e-8, "
          f"log-slope {slope:.3f} <= -0.05 ({elapsed:.1f}s)")


def test_criterion_04_rate_bound_holds(quad_problem):
    p, _, f_star = quad_problem
    mu, L, theta, tau = 1.0, 10.0, 0.5, 8
    eta, m = 5e-4, 2000  # eta inside (0, mu*theta/(2 L^2)) = (0, 0.0025)
    gamma = compute_rate_gamma(mu, L, eta, theta, m, tau)
    assert gamma < 1.0, "m was chosen large enough for a contraction"
    h = HyperParams(eta=eta, theta=theta, tau=tau, B=1, m=m, S=50, P=8)
    r = run_cluster(p, h, seed=5)
    sub = np.maximum([rec.objective - f_star for rec in r.records], 1e-18)
    ratios = sub[5:51] / sub[4:50]
    measured = float(np.exp(np.mean(np.log(ratios))))
    assert measured <= gamma
    print(f"\ncriterion 4 PASS: mean contraction {measured:.3f} <= gamma {gamma:.3f}")


def test_criterion_05_dpg_plateau_gap(quad_problem, criterion3_run):
    p, _, f_star = quad_problem
    dvr, _ = criterion3_run
    h = HyperParams(eta=ETA_VALIDATED, theta=0.5, tau=8, B=20, m=QUAD_N // 20, S=50, P=8)
    dpg = run_cluster(p, h, algo="dpg", seed=3)
    dvr_final = max(dvr.records[-1].objective - f_star, 1e-18)
    dpg_final = dpg.records[-1].objective - f_star
    assert dpg_final >= 100.0 * dvr_final
    print(f"\ncriterion 5 PASS: dpg {dpg_final:.2e} >= 100x dvrsgd {dvr_final:.2e}")


def test_criterion_06_bounded_delay_invariant():
    p = make_synthetic("quadratic", 160, 6, seed=21, mu=1.0, smoothness=5.0)
    taus = [1, 8, 32]
    violations = 0
    for run_idx in range(20):
        tau = taus[run_idx % 3]
        h = HyperParams(eta=0.02, theta=0.5, tau=tau, B=5, m=32, S=2, P=16)
        r = run_cluster(p, h, seed=100 + run_idx, collect_trace=True,
                        latency=LatencyModel("adversarial", seed=run_idx))
        violations += check_gate_invariant(r.trace, tau)
        check_one_task_at_a_time(r.trace)
        check_pair_fifo(r.trace)
    assert violations == 0
    print(f"\ncriterion 6 PASS: 0 gate violations across 20 adversarial runs")


def test_criterion_07_snapshot_aggregation_identity():
    p = make_synthetic("l2-logistic", 1000, 12, lam=0.03, seed=22)
    parts = partition(p, 7, "shuffled", seed=23)
    assert len({len(s) for s in parts.subsets}) > 1  # genuinely uneven
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(5):
        w = rng.normal(size=p.dim)
        grads = [mean_gradient(p, w, parts.subsets[q]) for q in range(7)]
        agg = aggregate_local_gradients(grads, parts.weights)
        worst = max(worst, float(np.linalg.norm(agg - full_gradient(p, w))))
    assert worst <= 1e-12
    print(f"\ncriterion 7 PASS: aggregation error {worst:.2e} <= 1e-12 (P=7, N=1000)")


def test_criterion_08_tau_sweep_pull_wait(quad_problem):
    p, _, _ = quad_problem
    waits = []
    for tau in (1, 4, 16, 64):
        h = HyperParams(eta=ETA_VALIDATED, theta=0.5, tau=tau, B=20, m=QUAD_N // 20,
                        S=50, P=8)
        r = run_cluster(p, h, seed=3, grad_tick=0.01,
                        latency=LatencyModel("uniform", lo=1.0, hi=5.0, seed=9))
        waits.append(r.records[-1].comm_total)
    assert all(a >= b for a, b in zip(waits, waits[1:])), waits
    print(f"\ncriterion 8 PASS: pull-wait nonincreasing over tau 1->4->16->64: "
          + " -> ".join(f"{w:.0f}" for w in waits))


def test_criterion_09_corollary_bound(quad_problem, criterion3_run):
    p, w_star, f_star = quad_problem
    r, _ = criterion3_run
    assert len(r.snapshots) == len(r.records)
    for rec, snap in zip(r.records, r.snapshots):
        dist_sq = float(np.sum((snap.anchor - w_star) ** 2))
        # 1e-12 slack: both sides sit at float-eps noise once converged
        assert dist_sq <= 2.0 * (rec.objective - f_star) / p.mu + 1e-12
    print(f"\ncriterion 9 PASS: ||w~s - w*||^2 <= 2(F-F*)/mu at all {len(r.records)} stages")


def test_criterion_10_protocol_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        msg = rand_message(rng)
        frame = encode(msg)
        assert decode(frame) == msg
    rejected = 0
    for _ in range(200):
        frame = encode(rand_message(rng))
        cut = int(rng.integers(0, len(frame)))
        try:
            decode(frame[:cut])
        except DecodeError:
            rejected += 1
    assert rejected == 200
    print("\ncriterion 10 PASS: 10^4 fuzzed round-trips identical; truncations rejected")
