import numpy as np
import pytest

from dvrsgd.losses import (Problem, Sample, _ordered_sum, full_gradient, loss_sum,
                           make_synthetic, objective, sample_gradient, sample_loss)
from helpers import finite_difference_gradient, logistic_newton, quad_solution

ALL_KINDS = [
    make_synthetic("quadratic", 40, 6, seed=0, mu=1.0, smoothness=5.0),
    make_synthetic("l2-logistic", 40, 5, lam=0.05, seed=1),
    make_synthetic("multiclass-logistic", 40, 4, num_classes=3, lam=0.02, seed=2),
]


def test_sample_invariants():
    s = Sample([0, 2, 5], [1.0, -2.0, 0.5], 1)
    dense = np.zeros(6)
    dense[s.indices] = s.values
    assert np.array_equal(dense, [1.0, 0.0, -2.0, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        Sample([2, 1], [1.0, 1.0], 0)  # not strictly increasing
    with pytest.raises(ValueError):
        Sample([0, 0], [1.0, 1.0], 0)


def test_multiclass_gradient_at_zero():
    # softmax at w=0 is uniform: block j of grad f_i is (1/K - I(j=y)) * x_i
    p = make_synthetic("multiclass-logistic", 10, 4, num_classes=3, lam=0.0, seed=3)
    w = np.zeros(p.dim)
    for i in range(p.n):
        g = sample_gradient(p, w, i).reshape(p.num_classes, p.num_features)
        x, y = p.features[i], p.targets[i]
        for j in range(p.num_classes):
            coef = 1.0 / p.num_classes - (1.0 if j == y else 0.0)
            assert np.allclose(g[j], coef * x, atol=1e-15)


def test_quadratic_zero_residual_gradient():
    p = make_synthetic("quadratic", 20, 5, seed=4, mu=1.0, smoothness=4.0)
    # strip the ridge so the gradient is purely the residual term
    p0 = Problem("quadratic", p.features, p.targets, lam=0.0)
    a = p0.features[7]
    w = p0.targets[7] * a / float(a @ a)  # a.w == b exactly up to rounding
    g = sample_gradient(p0, w, 7)
    assert np.linalg.norm(g) < 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for p in ALL_KINDS:
        for _ in range(17):  # ~50 (w, i) pairs across the three kinds
            w = rng.normal(size=p.dim)
            i = int(rng.integers(p.n))
            g = sample_gradient(p, w, i)
            fd = finite_difference_gradient(lambda v: sample_loss(p, v, i), w)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_full_gradient_is_ordered_mean_bitwise():
    rng = np.random.default_rng(1)
    for p in ALL_KINDS:
        w = rng.normal(size=p.dim)
        acc = sample_gradient(p, w, 0)
        for i in range(1, p.n):
            acc = acc + sample_gradient(p, w, i)
        assert np.array_equal(full_gradient(p, w), acc / p.n)


def test_full_gradient_single_sample():
    p = make_synthetic("l2-logistic", 1, 4, lam=0.1, seed=5)
    w = np.arange(4.0)
    assert np.array_equal(full_gradient(p, w), sample_gradient(p, w, 0))


def test_objective_at_zero_is_log_k():
    for k in (2, 3, 7):
        p = make_synthetic("multiclass-logistic", 30, 5, num_classes=k, lam=0.0, seed=6)
        assert objective(p, np.zeros(p.dim)) == pytest.approx(np.log(k), rel=1e-12)


def test_objective_stable_for_large_logits():
    p = make_synthetic("multiclass-logistic", 20, 5, num_classes=3, lam=0.0, seed=7)
    w = np.full(p.dim, 500.0)
    assert np.isfinite(objective(p, w))
    p2 = make_synthetic("l2-logistic", 20, 5, lam=0.0, seed=7)
    assert np.isfinite(objective(p2, np.full(p2.dim, 1000.0)))


def test_quadratic_objective_and_gradient_at_solution():
    p = make_synthetic("quadratic", 200, 12, seed=8, mu=1.0, smoothness=10.0)
    w_star, f_star = quad_solution(p)
    assert np.linalg.norm(full_gradient(p, w_star)) <= 1e-10
    assert objective(p, w_star) == pytest.approx(f_star, abs=1e-12)


def test_logistic_objective_dominates_optimum():
    p = make_synthetic("l2-logistic", 80, 5, lam=0.1, seed=9)
    w_star = logistic_newton(p)
    f_star = objective(p, w_star)
    rng = np.random.default_rng(10)
    for _ in range(100):
        assert objective(p, rng.normal(size=p.dim)) >= f_star


def test_quadratic_smoothness_and_strong_convexity():
    p = make_synthetic("quadratic", 60, 8, seed=11, mu=1.0, smoothness=6.0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        x, y = rng.normal(size=p.dim), rng.normal(size=p.dim)
        gap = np.linalg.norm(x - y)
        assert np.linalg.norm(full_gradient(p, x) - full_gradient(p, y)) <= p.smoothness * gap * (1 + 1e-12)
        lower = objective(p, y) + full_gradient(p, y) @ (x - y) + 0.5 * p.mu * gap**2
        assert objective(p, x) >= lower - 1e-9


def test_make_synthetic_deterministic():
    for kind in ("quadratic", "l2-logistic", "multiclass-logistic"):
        a = make_synthetic(kind, 25, 4, num_classes=3, lam=0.01, seed=13)
        b = make_synthetic(kind, 25, 4, num_classes=3, lam=0.01, seed=13)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


def test_make_synthetic_records_constants():
    q = make_synthetic("quadratic", 30, 6, seed=14, mu=1.0, smoothness=10.0)
    assert q.mu == 1.0 and q.smoothness == 10.0
    # per-sample smoothness is the row norm squared plus the ridge
    row_l = np.einsum("nd,nd->n", q.features, q.features) + q.lam
    assert np.allclose(row_l, 10.0)
    # the ridge alone must carry the strong convexity: feature rank < d
    assert np.linalg.matrix_rank(q.features) < q.num_features
    lg = make_synthetic("l2-logistic", 30, 6, lam=0.01, seed=15)
    assert lg.mu == 0.01 >= 0.01


def test_make_synthetic_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_synthetic("quadratic", 0, 5)
    with pytest.raises(ValueError):
        make_synthetic("l2-logistic", 10, 0)
    with pytest.raises(ValueError):
        make_synthetic("nope", 10, 5)


def test_parameter_validation():
    p = ALL_KINDS[0]
    with pytest.raises(ValueError):
        sample_gradient(p, np.zeros(p.dim), p.n)  # index out of range
    bad = np.zeros(p.dim)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        objective(p, bad)
    with pytest.raises(ValueError):
        full_gradient(p, np.zeros(p.dim + 1))


def test_loss_sum_matches_objective():
    p = ALL_KINDS[1]
    w = np.random.default_rng(16).normal(size=p.dim)
    assert loss_sum(p, w, np.arange(p.n)) / p.n == pytest.approx(objective(p, w), rel=1e-15)


@pytest.mark.parametrize("n,d", [(1, 5), (2, 2), (20, 50), (300, 2), (300, 3), (64, 17),
                                 (2000, 1000), (5000, 200), (7, 1), (300, 1), (1000, 1)])
def test_ordered_sum_matches_row_loop_bitwise(n, d):
    # rows scaled over 40 orders of magnitude, so any other summation order
    # shows in the low bits
    rng = np.random.default_rng(n * 10007 + d)
    rows = rng.normal(size=(n, d)) * np.exp(rng.uniform(-20.0, 20.0, size=(n, 1)))
    acc = rows[0].copy()
    for k in range(1, n):
        acc += rows[k]
    for block in (rows, np.asfortranarray(rows)):
        assert np.array_equal(_ordered_sum(block), acc)
