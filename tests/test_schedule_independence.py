"""Schedule independence at tau = 0.

At tau = 0 the gate answers the pull for update task t only once updates
1..t-1 have applied, so updates apply in timestamp order whatever the
schedule, and each worker, receiving its tasks in timestamp order, draws its
k-th batch for its k-th update.  The parameter trajectory and the objective
column therefore depend on the config and seed alone: every latency kind and
the socket transport must give the same bytes, at every worker count.
"""

import numpy as np
import pytest

from dvrsgd.harness import run_cluster, run_cluster_socket
from dvrsgd.losses import make_synthetic
from dvrsgd.server import HyperParams
from dvrsgd.transport import LatencyModel

LATENCY = {"constant": dict(value=1.0), "uniform": dict(lo=0.0, hi=5.0),
           "exponential": dict(mean=2.0), "adversarial": {}}


@pytest.fixture(scope="module")
def problem():
    return make_synthetic("quadratic", 400, 10, seed=31, mu=1.0, smoothness=10.0)


def outcome(result) -> tuple[bytes, bytes]:
    """The final w and the objective column, as bytes."""
    return (result.final_w.tobytes(),
            np.array([r.objective for r in result.records]).tobytes())


@pytest.mark.parametrize("P", [2, 8])
@pytest.mark.parametrize("algo", ["dvrsgd", "dsvrg", "dpg", "vrdpg"])
def test_every_schedule_gives_the_same_bytes_at_tau_zero(problem, algo, P):
    assert sorted(LATENCY) == sorted(LatencyModel.KINDS)
    h = HyperParams(eta=0.02, theta=0.5, tau=0, B=5, m=40, S=4, P=P)
    runs = {kind: run_cluster(problem, h, algo=algo, seed=5, collect_trace=False,
                              latency=LatencyModel(kind, seed=P, **kwargs))
            for kind, kwargs in LATENCY.items()}
    roles = ["scheduler", "server", *(f"worker:{p}" for p in range(P))]
    runs["socket"] = run_cluster_socket(problem, h, {r: ("127.0.0.1", 0) for r in roles},
                                        algo=algo, seed=5, timeout=30.0)
    assert all(len(r.records) == h.S + 1 for r in runs.values())
    expect = outcome(runs["constant"])
    assert {name: outcome(r) == expect for name, r in runs.items()} == dict.fromkeys(runs, True)


def test_schedules_differ_once_tau_allows_stale_pulls(problem):
    # the control: the same schedules at tau = 4 give different trajectories
    h = HyperParams(eta=0.02, theta=0.5, tau=4, B=5, m=40, S=4, P=8)
    finals = {outcome(run_cluster(problem, h, seed=5, collect_trace=False,
                                  latency=LatencyModel(kind, seed=8, **kwargs)))[0]
              for kind, kwargs in LATENCY.items()}
    assert len(finals) == len(LATENCY)
