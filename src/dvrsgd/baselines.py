"""Every cluster algorithm as one row of (worker gradient rule, server update
rule, pull-gate bound) on the shared scheduler/server/worker skeleton:

    dvrsgd    vr gradient, hybrid update, gate tau        (the main algorithm)
    dsvrg     vr gradient, hybrid update at theta = 0, gate tau  (asynchronous SVRG)
    dpg       plain gradient, convex combination, gate tau
    vrdpg     vr gradient, convex combination, gate tau
    downpour  plain gradient, Adagrad step, unbounded gate
    ssp       plain gradient, per-stage decaying SGD step, gate 2*P

``serial_svrg`` is the single-machine reference; it shares ``vr_gradient``
and the batch sampler with the workers, so that a one-worker zero-delay
cluster run can be compared against it trajectory-for-trajectory.
"""

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .losses import Problem, full_gradient
from .server import HyperParams
from .vrgrad import Snapshot, draw_batches, vr_gradient
from .protocol import update_stage
from .worker import sampling_stream

__all__ = ["BASELINES", "AlgoConfig", "serial_svrg", "svrg_stages", "apply_hybrid",
           "dpg_update", "algo_config"]

ADAGRAD_EPS0 = 1e-8
SSP_DECAY = 0.95
SSP_STALENESS = 2


def svrg_stages(problem: Problem, eta: float, m: int, S: int, seed: int = 0, *,
                anchor: str = "random", B: int = 1) -> Iterator[np.ndarray]:
    """Single-machine SVRG; yields each anchor w~0, ..., w~S as it is formed.

    ``anchor`` selects the next stage anchor: "random" picks w^t for a uniform
    t in {0,..,m-1} (the classic variant), "last" uses the final inner iterate
    (what the distributed stage-end rule does).
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if anchor not in ("random", "last"):
        raise ValueError("anchor must be 'random' or 'last'")
    rng = sampling_stream(seed, 0)
    pool = np.arange(problem.n)
    w = np.zeros(problem.dim)
    yield w
    for stage in range(S):
        snap = Snapshot(anchor=w, anchor_grad=full_gradient(problem, w), stage=stage)
        candidates = [w]  # w^0 .. w^{m-1}
        # the stage's m batches as one block, so rng.integers(m) below
        # still follows exactly m draw_batch draws
        for t, batch in enumerate(draw_batches(rng, pool, B, m)):
            w = w - eta * vr_gradient(problem, w, snap, batch)
            if t < m - 1:
                candidates.append(w)
        if anchor == "random" and m > 0:
            w = candidates[int(rng.integers(m))]
        yield w


def serial_svrg(problem: Problem, eta: float, m: int, S: int, seed: int = 0, *,
                anchor: str = "random", B: int = 1) -> list[np.ndarray]:
    """The anchor trajectory [w~0, ..., w~S] of ``svrg_stages``."""
    return list(svrg_stages(problem, eta, m, S, seed, anchor=anchor, B=B))


def apply_hybrid(w, w_hat, delta, eta: float, theta: float) -> np.ndarray:
    """Hybrid update w <- (1-theta)*(w - eta*delta) + theta*w_bar, w_bar = w_hat - eta*delta."""
    step = eta * delta
    return (1.0 - theta) * (w - step) + theta * (w_hat - step)


def dpg_update(w: np.ndarray, w_hat: np.ndarray, theta: float) -> np.ndarray:
    """Delayed proximal gradient step: convex combination of w and w_hat."""
    return (1.0 - theta) * w + theta * w_hat


@dataclass(frozen=True)
class AlgoConfig:
    """Wiring for one cluster algorithm."""

    gradient: str                      # worker rule: "vr" | "plain"
    rule: Callable                     # (hyper, dim) -> server update rule
    gate: Callable                     # hyper -> delay bound (None = unbounded)


def _rule_hybrid(hyper: HyperParams, dim: int):
    eta, theta = hyper.eta, hyper.theta

    def rule(server, push, w_hat):
        return apply_hybrid(server.w, w_hat, push.delta, eta, theta)
    return rule


def _rule_convex(hyper: HyperParams, dim: int):
    if not 0.0 < hyper.theta <= 1.0:
        raise ValueError("the convex update needs theta in (0, 1]")
    eta, theta = hyper.eta, hyper.theta

    def rule(server, push, w_hat):
        return dpg_update(server.w, w_hat - eta * push.delta, theta)
    return rule


def _rule_adagrad(hyper: HyperParams, dim: int):
    """Per-coordinate Adagrad step: acc = ADAGRAD_EPS0 + sum of g*g, w -= eta*g/sqrt(acc)."""
    eta, acc = hyper.eta, np.full(dim, ADAGRAD_EPS0)

    def rule(server, push, w_hat):
        nonlocal acc
        g = push.delta
        acc = acc + g * g
        return server.w - eta * g / np.sqrt(acc)
    return rule


def _rule_decaying(hyper: HyperParams, dim: int):
    """Plain SGD step whose rate decays by SSP_DECAY per stage."""
    eta, m = hyper.eta, hyper.m

    def rule(server, push, w_hat):
        return server.w - eta * SSP_DECAY ** (update_stage(push.task, m) - 1) * push.delta
    return rule


BASELINES: dict[str, AlgoConfig] = {
    "dvrsgd": AlgoConfig("vr", _rule_hybrid, lambda hyper: hyper.tau),
    "dsvrg": AlgoConfig("vr", lambda hyper, dim: _rule_hybrid(replace(hyper, theta=0.0), dim),
                        lambda hyper: hyper.tau),
    "dpg": AlgoConfig("plain", _rule_convex, lambda hyper: hyper.tau),
    "vrdpg": AlgoConfig("vr", _rule_convex, lambda hyper: hyper.tau),
    "downpour": AlgoConfig("plain", _rule_adagrad, lambda hyper: None),
    "ssp": AlgoConfig("plain", _rule_decaying, lambda hyper: SSP_STALENESS * hyper.P),
}


def algo_config(name: str) -> AlgoConfig:
    try:
        return BASELINES[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from "
                         f"{sorted(BASELINES)} or 'svrg'")
