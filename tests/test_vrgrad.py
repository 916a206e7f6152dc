import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrsgd.losses import full_gradient, make_synthetic, mean_gradient, sample_gradient
from dvrsgd.vrgrad import (BatchStream, Snapshot, draw_batch, draw_batches, make_snapshot,
                           vr_gradient)
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


def _choice_batches(rng, pool, size, count):
    """``count`` batches drawn the way ``draw_batch`` is specified."""
    return [pool[np.sort(rng.choice(pool.shape[0], size, replace=False))] for _ in range(count)]


@st.composite
def block_draws(draw):
    """(pool, size, count, seed): small pools of any batch size, and pools on
    both sides of NumPy's tail-shuffle cutoff (n > 10000, size > n // 50)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 400))
        size = draw(st.integers(1, n))
        count = draw(st.integers(0, 70))
    else:
        n = draw(st.sampled_from([10000, 10001, 12000]))
        size = draw(st.sampled_from([1, n // 50, n // 50 + 1, 2 * n // 3]))
        count = draw(st.integers(0, 3))
    pool = np.arange(n, dtype=np.int64) * 3 + 7
    if draw(st.booleans()):
        pool = np.random.default_rng(n).permutation(pool)
    return pool, size, count, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(block_draws())
def test_draw_batches_are_successive_choice_draws(case):
    pool, size, count, seed = case
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _choice_batches(want_rng, pool, size, count)
    got = draw_batches(got_rng, pool, size, count)
    assert got.shape == (count, size) and got.dtype == pool.dtype
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_draw_batch_keeps_pool_order():
    pool = np.array([40, 10, 30, 20])
    got = draw_batch(np.random.default_rng(3), pool, 4)
    assert got.tolist() == pool.tolist()


def test_batch_stream_is_the_draw_batch_sequence_across_blocks():
    pool = np.random.default_rng(1).permutation(np.arange(100, 350))
    stream = BatchStream(np.random.default_rng(5), pool, 20)
    rng = np.random.default_rng(5)
    for _ in range(300):  # the one-draw-at-a-time start, then several blocks
        assert np.array_equal(stream.next(), draw_batch(rng, pool, 20))


def test_batch_stream_draws_nothing_until_asked():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    BatchStream(rng, np.arange(10), 3)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError):
        BatchStream(rng, np.arange(10), 11)
    with pytest.raises(ValueError):
        draw_batches(rng, np.arange(10), 0, 4)


def test_snapshot_validation():
    with pytest.raises(ValueError):
        Snapshot(anchor=np.zeros(3), anchor_grad=np.zeros(4), stage=0)
    with pytest.raises(ValueError):
        Snapshot(anchor=np.zeros(3), anchor_grad=np.zeros(3), stage=-1)
