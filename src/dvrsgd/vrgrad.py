"""Variance-reduced gradient estimates anchored to a stage snapshot.

The estimator for a mini-batch Bt is

    (1/|Bt|) * sum_{i in Bt} [grad f_i(w) - grad f_i(anchor)] + anchor_grad

which is unbiased for grad F(w) and whose variance vanishes as both w and the
anchor approach the optimum.
"""

from dataclasses import dataclass

import numpy as np

from .losses import (Problem, _check_indices, _check_param, _gradient_rows, _ordered_sum,
                     full_gradient)

__all__ = ["Snapshot", "make_snapshot", "vr_gradient", "draw_batch"]


@dataclass(frozen=True)
class Snapshot:
    """Stage anchor: parameters and the full gradient evaluated at them."""

    anchor: np.ndarray
    anchor_grad: np.ndarray
    stage: int

    def __post_init__(self):
        if self.stage < 0:
            raise ValueError("stage must be >= 0")
        if self.anchor.shape != self.anchor_grad.shape:
            raise ValueError("anchor and anchor_grad must have equal shape")


def make_snapshot(problem: Problem, w, stage: int) -> Snapshot:
    """Snapshot at w with anchor_grad computed by ``full_gradient``."""
    w = _check_param(problem, w)
    return Snapshot(anchor=w.copy(), anchor_grad=full_gradient(problem, w), stage=stage)


def vr_gradient(problem: Problem, w, snapshot: Snapshot, batch) -> np.ndarray:
    """Variance-reduced mini-batch gradient at w, corrected by the snapshot."""
    w = _check_param(problem, w)
    idx = _check_indices(problem, batch)
    buf = _gradient_rows(problem, np.array((w, snapshot.anchor)), idx,
                         np.empty((2, idx.size, problem.dim)))
    diff = buf[0]
    diff -= buf[1]
    return _ordered_sum(diff) / idx.size + snapshot.anchor_grad


def draw_batch(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """Sample ``size`` distinct entries of ``pool`` uniformly, returned sorted.

    Every mini-batch in the package (serial and distributed alike) comes from
    this helper, so equal generator states yield equal batch sequences.
    """
    if size < 1 or size > pool.shape[0]:
        raise ValueError(f"batch size {size} invalid for pool of {pool.shape[0]}")
    picked = rng.choice(pool.shape[0], size=size, replace=False)
    picked.sort()
    return pool[picked]
