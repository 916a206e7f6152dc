"""Reference optimizers sharing the scheduler/server/worker skeleton.

Cluster algorithms are configured as (worker gradient rule, server update
rule, pull-gate bound):

    dvrsgd    vr gradient, hybrid update, gate tau        (the main algorithm)
    dsvrg     dvrsgd with theta forced to 0               (asynchronous SVRG)
    dpg       plain gradient, convex combination, gate tau
    vrdpg     vr gradient, convex combination, gate tau
    downpour  plain gradient, Adagrad step, unbounded gate
    ssp       plain gradient, per-stage decaying SGD step, gate 2*P

``serial_svrg`` is the single-machine reference; it shares ``vr_gradient``
and the batch sampler with the workers, so that a one-worker zero-delay
cluster run can be compared against it trajectory-for-trajectory.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .losses import Problem, full_gradient
from .server import HyperParams
from .vrgrad import Snapshot, draw_batches, vr_gradient
from .protocol import update_stage
from .worker import sampling_stream

__all__ = ["BASELINES", "AlgoConfig", "serial_svrg", "dpg_update", "DownpourAdagrad",
           "DecayingSgd", "algo_config"]

ADAGRAD_EPS0 = 1e-8
SSP_DECAY = 0.95
SSP_STALENESS = 2


def serial_svrg(problem: Problem, eta: float, m: int, S: int, seed: int = 0, *,
                anchor: str = "random", B: int = 1) -> list[np.ndarray]:
    """Single-machine SVRG; returns the anchor trajectory [w~0, ..., w~S].

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
    trajectory = [np.zeros(problem.dim)]
    for stage in range(1, S + 1):
        snap = Snapshot(anchor=trajectory[-1],
                        anchor_grad=full_gradient(problem, trajectory[-1]),
                        stage=stage - 1)
        w = snap.anchor
        candidates = [w]  # w^0 .. w^{m-1}
        # the stage's m batches as one block, so rng.integers(m) below
        # still follows exactly m draw_batch draws
        for t, batch in enumerate(draw_batches(rng, pool, B, m)):
            w = w - eta * vr_gradient(problem, w, snap, batch)
            if t < m - 1:
                candidates.append(w)
        if anchor == "random" and m > 0:
            w = candidates[int(rng.integers(m))]
        trajectory.append(w)
    return trajectory


def dpg_update(w: np.ndarray, w_hat: np.ndarray, theta: float) -> np.ndarray:
    """Delayed proximal gradient step: convex combination of w and w_hat."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return (1.0 - theta) * w + theta * w_hat


class DownpourAdagrad:
    """Per-coordinate adaptive server step; no delay bound.

    acc_j starts at eps0; each push does acc_j += g_j^2 then
    w_j -= eta * g_j / sqrt(acc_j).
    """

    def __init__(self, eta: float, dim: int, eps0: float = ADAGRAD_EPS0):
        self.eta = eta
        self.acc = np.full(dim, eps0)

    def __call__(self, server, push) -> np.ndarray:
        g = push.delta
        self.acc = self.acc + g * g
        return server.w - self.eta * g / np.sqrt(self.acc)


class DecayingSgd:
    """Plain SGD server step whose rate decays by a fixed factor per stage."""

    def __init__(self, eta0: float, m: int, decay: float = SSP_DECAY):
        self.eta0 = eta0
        self.m = m
        self.decay = decay

    def rate(self, stage: int) -> float:
        return self.eta0 * self.decay ** (stage - 1)

    def __call__(self, server, push) -> np.ndarray:
        eta = self.rate(update_stage(push.task, self.m))
        return server.w - eta * push.delta


@dataclass(frozen=True)
class AlgoConfig:
    """Wiring for one cluster algorithm."""

    name: str
    gradient: str                      # worker rule: "vr" | "plain"
    rule: Callable | None              # (hyper, dim) -> server update rule, None = hybrid
    gate: Callable                     # hyper -> delay bound (None = unbounded)
    theta_override: float | None = None


def _gate_tau(hyper: HyperParams):
    return hyper.tau


def _gate_none(hyper: HyperParams):
    return None


def _gate_ssp(hyper: HyperParams):
    return SSP_STALENESS * hyper.P


def _rule_convex(hyper: HyperParams, dim: int):
    def rule(server, push):
        return dpg_update(server.w, push.w_bar, hyper.theta)
    return rule


def _rule_adagrad(hyper: HyperParams, dim: int):
    return DownpourAdagrad(hyper.eta, dim)


def _rule_ssp(hyper: HyperParams, dim: int):
    return DecayingSgd(hyper.eta, hyper.m)


BASELINES: dict[str, AlgoConfig] = {
    "dvrsgd": AlgoConfig("dvrsgd", "vr", None, _gate_tau),
    "dsvrg": AlgoConfig("dsvrg", "vr", None, _gate_tau, theta_override=0.0),
    "dpg": AlgoConfig("dpg", "plain", _rule_convex, _gate_tau),
    "vrdpg": AlgoConfig("vrdpg", "vr", _rule_convex, _gate_tau),
    "downpour": AlgoConfig("downpour", "plain", _rule_adagrad, _gate_none),
    "ssp": AlgoConfig("ssp", "plain", _rule_ssp, _gate_ssp),
}


def algo_config(name: str) -> AlgoConfig:
    try:
        return BASELINES[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from "
                         f"{sorted(BASELINES)} or 'svrg'")
