import numpy as np
import pytest

from dvrsgd.losses import full_gradient, make_synthetic, mean_gradient, sample_gradient
from dvrsgd.vrgrad import Snapshot, draw_batch, make_snapshot, vr_gradient
from helpers import quad_solution


@pytest.fixture(scope="module")
def problem():
    return make_synthetic("l2-logistic", 50, 6, lam=0.05, seed=0)


def test_anchor_cancellation_is_exact(problem):
    snap = make_snapshot(problem, np.linspace(-1, 1, problem.dim), stage=0)
    for batch in ([0], [3, 7, 1], list(range(problem.n))):
        g = vr_gradient(problem, snap.anchor, snap, batch)
        assert np.array_equal(g, snap.anchor_grad)


def test_full_batch_equals_full_gradient(problem):
    rng = np.random.default_rng(1)
    w = rng.normal(size=problem.dim)
    snap = make_snapshot(problem, rng.normal(size=problem.dim), stage=0)
    g = vr_gradient(problem, w, snap, np.arange(problem.n))
    assert np.linalg.norm(g - full_gradient(problem, w)) <= 1e-12


def test_unbiasedness_by_enumeration():
    p = make_synthetic("l2-logistic", 200, 5, lam=0.02, seed=2)
    rng = np.random.default_rng(3)
    snap = make_snapshot(p, rng.normal(size=p.dim), stage=0)
    for _ in range(10):
        w = rng.normal(size=p.dim)
        mean = np.zeros(p.dim)
        for i in range(p.n):
            mean += vr_gradient(p, w, snap, [i])
        mean /= p.n
        assert np.linalg.norm(mean - full_gradient(p, w)) <= 1e-12


def test_variance_shrinkage_near_optimum():
    p = make_synthetic("quadratic", 100, 8, seed=4, mu=1.0, smoothness=5.0)
    w_star, _ = quad_solution(p)
    rng = np.random.default_rng(5)
    w = w_star + 1e-3 * rng.normal(size=p.dim)
    anchor = w_star + 1e-3 * rng.normal(size=p.dim)
    snap = make_snapshot(p, anchor, stage=0)
    vr = np.array([vr_gradient(p, w, snap, [i]) for i in range(p.n)])
    plain = np.array([mean_gradient(p, w, [i]) for i in range(p.n)])
    var = lambda g: float(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1)))
    assert var(vr) < var(plain)


def test_plain_gradient_special_cases(problem):
    rng = np.random.default_rng(6)
    w = rng.normal(size=problem.dim)
    assert np.array_equal(mean_gradient(problem, w, [4]), sample_gradient(problem, w, 4))
    assert np.array_equal(mean_gradient(problem, w, np.arange(problem.n)),
                          full_gradient(problem, w))
    # anchored at w the per-sample corrections cancel, leaving anchor_grad:
    # seeding the snapshot with the plain gradient makes vr reduce to plain
    batch = [2, 9, 11]
    g = mean_gradient(problem, w, batch)
    snap = Snapshot(anchor=w.copy(), anchor_grad=g, stage=0)
    assert np.array_equal(vr_gradient(problem, w, snap, batch), g)


def test_empty_batch_rejected(problem):
    w = np.zeros(problem.dim)
    snap = make_snapshot(problem, w, stage=0)
    with pytest.raises(ValueError):
        vr_gradient(problem, w, snap, [])
    with pytest.raises(ValueError):
        mean_gradient(problem, w, [])


def test_draw_batch():
    rng = np.random.default_rng(7)
    pool = np.arange(10, 30)
    got = draw_batch(rng, pool, 5)
    assert got.shape == (5,)
    assert len(set(got.tolist())) == 5
    assert all(10 <= v < 30 for v in got)
    a = draw_batch(np.random.default_rng(8), pool, 5)
    b = draw_batch(np.random.default_rng(8), pool, 5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        draw_batch(rng, pool, 21)
    with pytest.raises(ValueError):
        draw_batch(rng, pool, 0)


def test_snapshot_validation():
    with pytest.raises(ValueError):
        Snapshot(anchor=np.zeros(3), anchor_grad=np.zeros(4), stage=0)
    with pytest.raises(ValueError):
        Snapshot(anchor=np.zeros(3), anchor_grad=np.zeros(3), stage=-1)
