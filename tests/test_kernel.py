"""The gradient and loss kernel against one-shot references, bit for bit.

``mean_gradient``, ``loss_sum`` and a worker's evaluation pass walk their
index set in blocks of rows through reused buffers, and every call evaluates a
stack of parameter points at once.  The references below build every
per-sample row at once, for one point at a time, and sum them in index order,
so any change of operation or summation order shows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrsgd import losses
from dvrsgd.losses import (KINDS, full_gradient, loss_sum, make_synthetic, mean_gradient,
                           objective)
from dvrsgd.server import aggregate_local_gradients
from dvrsgd.vrgrad import Snapshot, vr_gradient


def reference_rows(problem, w, idx):
    X = problem.features[idx]
    if problem.kind == "quadratic":
        r = np.einsum("nd,d->n", X, w) - problem.targets[idx]
        return r[:, None] * X + problem.lam * w[None, :]
    if problem.kind == "l2-logistic":
        s = 2.0 * problem.targets[idx] - 1.0
        margin = s * np.einsum("nd,d->n", X, w)
        coef = -s * losses._sigmoid(-margin)
        return coef[:, None] * X + problem.lam * w[None, :]
    k = problem.num_classes
    W = w.reshape(k, problem.num_features)
    Z = np.einsum("nd,kd->nk", X, W)
    Z -= Z.max(axis=1)[:, None]
    P = np.exp(Z)
    P /= P.sum(axis=1)[:, None]
    P[np.arange(idx.size), problem.targets[idx]] -= 1.0
    rows = np.einsum("nk,nd->nkd", P, X) + problem.lam * W[None, :, :]
    return rows.reshape(idx.size, problem.dim)


def reference_loss_rows(problem, w, idx):
    X = problem.features[idx]
    reg = 0.5 * problem.lam * float(np.einsum("d,d->", w, w))
    if problem.kind == "quadratic":
        r = np.einsum("nd,d->n", X, w) - problem.targets[idx]
        return 0.5 * r * r + reg
    if problem.kind == "l2-logistic":
        s = 2.0 * problem.targets[idx] - 1.0
        margin = s * np.einsum("nd,d->n", X, w)
        return np.log1p(np.exp(-np.abs(margin))) + np.maximum(-margin, 0.0) + reg
    W = w.reshape(problem.num_classes, problem.num_features)
    Z = np.einsum("nd,kd->nk", X, W)
    zmax = Z.max(axis=1)
    lse = zmax + np.log(np.exp(Z - zmax[:, None]).sum(axis=1))
    return lse - Z[np.arange(idx.size), problem.targets[idx]] + reg


def reference_loss_sum(problem, w, idx):
    rows = reference_loss_rows(problem, w, np.asarray(idx, dtype=np.int64))
    acc = float(rows[0])
    for r in rows[1:]:
        acc += float(r)
    return acc


def reference_sum(rows):
    acc = rows[0].copy()
    for k in range(1, rows.shape[0]):
        acc += rows[k]
    return acc


def reference_mean(problem, w, idx):
    idx = np.asarray(idx, dtype=np.int64)
    return reference_sum(reference_rows(problem, w, idx)) / idx.size


# (kind, num_features, num_classes): dims 7, 30 and 5 * 40 = 200
SHAPES = [("quadratic", 7, 1), ("l2-logistic", 30, 2), ("multiclass-logistic", 40, 5)]


def _problem(kind, d, k, n):
    if kind == "quadratic":
        return make_synthetic(kind, n, d, seed=n, mu=1.0, smoothness=5.0)
    return make_synthetic(kind, n, d, num_classes=k, lam=0.03, seed=n)


# 1 << 17 is the kernel's own block size; the small ones put many block
# boundaries (and, at dim 200, one-row blocks) into small problems
@pytest.mark.parametrize("block_elems", [1 << 17, 1000, 64])
@pytest.mark.parametrize("kind,d,k", SHAPES)
def test_kernel_matches_one_shot_reference_bitwise(monkeypatch, block_elems, kind, d, k):
    monkeypatch.setattr(losses, "_BLOCK_ELEMS", block_elems, raising=False)
    dim = d * k if kind == "multiclass-logistic" else d
    block = max(1, block_elems // dim)
    sizes = sorted({1, max(1, block - 1), block, block + 1, 2 * block + 1})
    p = _problem(kind, d, k, 2 * block + 1)
    rng = np.random.default_rng(block_elems + dim)
    w = rng.normal(size=p.dim) * 0.5
    anchor = rng.normal(size=p.dim) * 0.5

    full = full_gradient(p, w)
    assert np.array_equal(full, reference_mean(p, w, np.arange(p.n)))
    snap = Snapshot(anchor, full_gradient(p, anchor), stage=3)
    assert np.array_equal(snap.anchor_grad, reference_mean(p, anchor, np.arange(p.n)))

    for size in sizes:
        # unsorted, and once with repeats, as a caller may pass them
        for idx in (rng.permutation(p.n)[:size], rng.integers(0, p.n, size=size)):
            want = reference_mean(p, w, idx)
            assert np.array_equal(mean_gradient(p, w, idx), want)
            grad, total = losses._evaluate(p, w, idx)  # a worker's evaluation pass
            assert np.array_equal(grad, want)
            assert total == loss_sum(p, w, idx) == reference_loss_sum(p, w, idx)
            diff = reference_rows(p, w, idx) - reference_rows(p, anchor, idx)
            want_vr = reference_sum(diff) / idx.size + snap.anchor_grad
            assert np.array_equal(vr_gradient(p, w, snap, idx), want_vr)


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(2 if kind == "quadratic" else 1, 40))
    k = draw(st.integers(2, 40)) if kind == "multiclass-logistic" else 2
    if kind == "quadratic":
        p = make_synthetic(kind, n, d, seed=n + d, mu=1.0, smoothness=5.0)
    else:
        lam = draw(st.sampled_from([0.0, 1e-6, 0.03, 2.0]))
        p = make_synthetic(kind, n, d, num_classes=k, lam=lam, seed=n + d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, anchor = (rng.normal(size=p.dim) * 10.0 ** draw(st.integers(-20, 3)) for _ in range(2))
    # unsorted, with repeats, down to one sample
    batch = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return p, w, anchor, np.array(batch, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_stacked_points_match_one_point_reference_bitwise(case):
    p, w, anchor, idx = case
    snap = Snapshot(anchor, full_gradient(p, anchor), stage=1)
    assert np.array_equal(snap.anchor_grad, reference_mean(p, anchor, np.arange(p.n)))
    assert np.array_equal(mean_gradient(p, w, idx), reference_mean(p, w, idx))
    diff = reference_rows(p, w, idx) - reference_rows(p, anchor, idx)
    assert np.array_equal(vr_gradient(p, w, snap, idx),
                          reference_sum(diff) / idx.size + snap.anchor_grad)


@pytest.mark.parametrize("kind,d,k", SHAPES)
def test_loss_sum_matches_float_loop_bitwise(kind, d, k):
    rng = np.random.default_rng(d)
    for n in (1, 2, 3, 17, 1250):
        p = _problem(kind, d, k, n)
        idx = rng.integers(0, n, size=n)
        for scale in (1e-12, 1.0, 1e6):
            w = rng.normal(size=p.dim) * scale
            assert loss_sum(p, w, idx) == reference_loss_sum(p, w, idx)


@settings(deadline=None)
@given(kernel_cases())
def test_evaluation_pass_matches_references_bitwise_property(case):
    p, w, _, idx = case
    grad, total = losses._evaluate(p, w, idx)
    assert np.array_equal(grad, reference_mean(p, w, idx))
    assert total == reference_loss_sum(p, w, idx)


@pytest.mark.parametrize("P", [1, 2, 256])
@pytest.mark.parametrize("d", [1, 32, 2000])
def test_aggregate_matches_worker_order_loop_bitwise(P, d):
    rng = np.random.default_rng(P * d)
    grads = [rng.normal(size=d) * 10.0 ** rng.integers(-8, 8) for _ in range(P)]
    weights = rng.random(P) + 0.5
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    want = weights[0] * grads[0]
    for q in range(1, P):
        want += weights[q] * grads[q]
    assert np.array_equal(aggregate_local_gradients(grads, weights), want)


def test_full_gradient_memory_is_bounded():
    # one-shot rows would be n * K * d * 8 B = 80 MB, twice over
    p = make_synthetic("multiclass-logistic", 5000, 200, num_classes=10, lam=0.01, seed=5)
    w = np.random.default_rng(6).normal(size=p.dim) * 0.1
    full_gradient(p, w)  # first call outside the trace: lazy NumPy set-up
    tracemalloc.start()
    try:
        full_gradient(p, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"full_gradient peaked at {peak / 2**20:.1f} MB"


def test_objective_memory_is_bounded():
    # a copy of every row summed would be n * d * 8 B = 8 MB, and more besides
    p = make_synthetic("multiclass-logistic", 5000, 200, num_classes=10, lam=0.01, seed=5)
    w = np.random.default_rng(6).normal(size=p.dim) * 0.1
    objective(p, w)  # first call outside the trace: lazy NumPy set-up
    tracemalloc.start()
    try:
        objective(p, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"objective peaked at {peak / 2**20:.1f} MB"
