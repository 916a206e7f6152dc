"""Variance-reduced gradient estimates anchored to a stage snapshot.

The estimator for a mini-batch Bt is

    (1/|Bt|) * sum_{i in Bt} [grad f_i(w) - grad f_i(anchor)] + anchor_grad

which is unbiased for grad F(w) and whose variance vanishes as both w and the
anchor approach the optimum.  Each mini-batch Bt is drawn uniformly without
replacement by ``draw_batch``, or by ``draw_batches`` many at a time with the
same result; a worker's ``BatchStream`` serves the ``draw_batch`` sequence
from ``draw_batches`` blocks of one size, the stream's expected length.

The public functions check their inputs: ``vr_gradient`` rejects a w of the
wrong shape or with a non-finite entry and an empty or out-of-range batch,
and the samplers reject a batch size outside 1..len(pool).  ``_vr_gradient``,
the kernel behind ``vr_gradient``, checks nothing; a worker calls it on every
update and trusts the boundaries its inputs passed: the worker checks its
partition once when it is built, the server never stores (and so never sends)
a non-finite w, and the snapshot anchor is a w the server sent.
"""

from dataclasses import dataclass

import numpy as np

from .losses import Problem, _check_indices, _check_param, _ordered_sum, _per_sample

__all__ = ["Snapshot", "vr_gradient", "draw_batch", "draw_batches", "BatchStream"]

# NumPy's choice(n, size, replace=False) runs Floyd's algorithm unless
# n > _FLOYD_MAX_POOL and size > n // 50
_FLOYD_MAX_POOL = 10000

# A BatchStream's block size bounds.  A block of 8-row batches from a 32-row
# pool costs about 25 us plus 0.6 us a row, against 8 us a choice call: a
# P=256 worker (11-41 batches, 24 expected) makes one or two calls and holds
# at most 24 rows, and a long stream pays the fixed cost once per 64 batches.
_MIN_BLOCK = 8
_BLOCK = 64


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


def vr_gradient(problem: Problem, w, snapshot: Snapshot, batch) -> np.ndarray:
    """Variance-reduced mini-batch gradient at w, corrected by the snapshot."""
    return _vr_gradient(problem, _check_param(problem, w), snapshot,
                        _check_indices(problem, batch))


def _vr_gradient(problem: Problem, w: np.ndarray, snapshot: Snapshot,
                 idx: np.ndarray) -> np.ndarray:
    """``vr_gradient`` without its input checks: w is a float64 vector and
    idx a nonempty int64 array of in-range sample indices.  A w whose length
    differs from the anchor's still raises, in ``np.array``."""
    buf = _per_sample(problem, np.array((w, snapshot.anchor)), idx,
                      np.empty((2, idx.size, problem.dim)))
    diff = buf[0]
    diff -= buf[1]
    return _ordered_sum(diff) / idx.size + snapshot.anchor_grad


def draw_batch(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` distinct entries of ``pool`` uniformly, in pool order.

    Every mini-batch in the package (serial and distributed alike) is this
    draw, made here or ``draw_batches`` rows at a time, so equal generator
    states yield equal batch sequences.
    """
    _check_batch_size(pool, size)
    picked = rng.choice(pool.shape[0], size=size, replace=False)
    picked.sort()
    return pool[picked]


def draw_batches(rng: np.random.Generator, pool: np.ndarray, size: int,
                 count: int) -> np.ndarray:
    """``count`` successive ``draw_batch(rng, pool, size)`` results as the rows
    of one array, leaving ``rng`` in the state those calls leave.

    ``choice(n, size, replace=False)`` runs Floyd's algorithm (Bentley and
    Floyd, CACM 1987): for t = 0..size-1 it draws v_t on [0, n-size+t] and
    picks v_t, or n-size+t if an earlier pick equals v_t.  It then shuffles,
    drawing on [0, i] for i = size-1..1; ``draw_batch`` sorts the picks, so
    those draws only advance the generator.  One ``integers`` call with those
    bounds, tiled ``count`` times, makes the same Lemire draws in the same
    order.  Where NumPy tail-shuffles an arange instead (n > 10000 and
    size > n // 50), this calls ``draw_batch`` once per row.
    """
    _check_batch_size(pool, size)
    n = pool.shape[0]
    if n > _FLOYD_MAX_POOL and size > n // 50:
        return np.array([draw_batch(rng, pool, size) for _ in range(count)],
                        dtype=pool.dtype).reshape(count, size)
    first = n - size  # Floyd's step t falls back to first + t
    # exclusive bounds of one choice call's draws: Floyd's, then the shuffle's
    bounds = np.concatenate((np.arange(first + 1, n + 1), np.arange(size, 1, -1)))
    draws = rng.integers(0, bounds, (count, bounds.size))[:, :size]
    # Step t collides when its draw repeats an earlier draw of its row, or
    # equals first + u for an earlier step u that collided.  Sorting the
    # (draw, step) keys finds the repeats, and picking first + step for them
    # is exact unless the second case occurs; that leaves a repeated pick in
    # the sorted row, and such rows are redone step by step.
    keys = draws * size
    keys += np.arange(size)
    keys.sort(axis=1)
    values, steps = np.divmod(keys, size)
    repeat = np.zeros(keys.shape, dtype=bool)
    np.equal(values[:, 1:], values[:, :-1], out=repeat[:, 1:])
    steps += first
    picks = np.where(repeat, steps, values)
    picks.sort(axis=1)
    clash = picks[:, 1:] == picks[:, :-1]
    if clash.any():
        for row in np.flatnonzero(clash.any(axis=1)).tolist():
            picks[row] = _floyd(draws[row].tolist(), first)
    return pool[picks]


def _floyd(draws: list, first: int) -> list:
    """Floyd's picks from one row of draws, sorted."""
    picked = set()
    for fallback, v in enumerate(draws, first):
        picked.add(fallback if v in picked else v)
    return sorted(picked)


def _check_batch_size(pool: np.ndarray, size: int):
    if size < 1 or size > pool.shape[0]:
        raise ValueError(f"batch size {size} invalid for pool of {pool.shape[0]}")


class BatchStream:
    """The ``draw_batch(rng, pool, size)`` sequence, drawn by ``draw_batches``
    a block at a time.  ``expected`` is the number of batches the stream is
    likely to serve: every block holds that many rows, at least ``_MIN_BLOCK``
    and at most ``_BLOCK``.  The length only sets the block size, never the
    batches.  Nothing is drawn before the first ``next``."""

    __slots__ = ("rng", "pool", "size", "_count", "_block", "_next")

    def __init__(self, rng: np.random.Generator, pool: np.ndarray, size: int,
                 expected: int = _BLOCK):
        _check_batch_size(pool, size)
        self.rng = rng
        self.pool = pool
        self.size = size
        self._count = min(_BLOCK, max(_MIN_BLOCK, expected))
        self._block = ()
        self._next = 0  # rows of the block served so far

    def next(self) -> np.ndarray:
        if self._next == len(self._block):
            self._block = draw_batches(self.rng, self.pool, self.size, self._count)
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]
