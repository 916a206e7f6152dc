"""Schedule independence at tau = 0, and snapshot aggregation under any schedule.

At tau = 0 the gate answers the pull for update task t only once updates
1..t-1 have applied, so updates apply in timestamp order whatever the
schedule, and each worker, receiving its tasks in timestamp order, draws its
k-th batch for its k-th update.  The parameter trajectory and the objective
column therefore depend on the config and seed alone: every latency kind and
the socket transport must give the same bytes, at every worker count.

At any tau, every algorithm must end with one snapshot per stage whose
gradient aggregates the workers' local gradients at that stage's anchor, even
when a plain-gradient run's evaluation rounds overlap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrsgd import harness
from dvrsgd.baselines import BASELINES
from dvrsgd.data import partition
from dvrsgd.harness import run_cluster, run_cluster_socket
from dvrsgd.losses import make_synthetic, mean_gradient
from dvrsgd.server import HyperParams, aggregate_local_gradients
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


# the algorithms whose gate is tau; downpour and ssp gate on no bound and on
# a multiple of P
TAU_GATED = ["dvrsgd", "dsvrg", "dpg", "vrdpg"]


@pytest.mark.parametrize("P", [2, 8])
@pytest.mark.parametrize("algo", TAU_GATED)
def test_every_schedule_gives_the_same_bytes_at_tau_zero(problem, algo, P):
    assert sorted(LATENCY) == sorted(LatencyModel.KINDS)
    h = HyperParams(eta=0.02, theta=0.5, tau=0, B=5, m=40, S=4, P=P)
    runs = {kind: run_cluster(problem, h, algo=algo, seed=5,
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
    finals = {outcome(run_cluster(problem, h, seed=5,
                                  latency=LatencyModel(kind, seed=8, **kwargs)))[0]
              for kind, kwargs in LATENCY.items()}
    assert len(finals) == len(LATENCY)


def check_snapshots(problem, hyper, result):
    """One snapshot per stage 0..S, each holding, bit for bit, the aggregate
    of the partitions' mean gradients at its anchor."""
    parts = partition(problem, hyper.P)
    assert [snap.stage for snap in result.snapshots] == list(range(hyper.S + 1))
    for snap in result.snapshots:
        grads = [mean_gradient(problem, snap.anchor, parts.subsets[p])
                 for p in range(hyper.P)]
        assert np.array_equal(snap.anchor_grad, aggregate_local_gradients(grads, parts.weights))


@pytest.mark.parametrize("algo", ["dpg", "downpour", "ssp"])
def test_overlapping_evaluation_rounds_keep_every_push(algo):
    # plain-gradient workers never wait for a snapshot: under this schedule a
    # stage's first evaluation pull is answered before every worker has
    # pushed for the stage before
    problem = make_synthetic("quadratic", 64, 4, seed=0, mu=1.0, smoothness=10.0)
    h = HyperParams(eta=0.02, theta=0.5, tau=2, B=1, m=2, S=6, P=8)
    result = run_cluster(problem, h, algo=algo, seed=0,
                         latency=LatencyModel("adversarial", seed=0))
    check_snapshots(problem, h, result)


@pytest.mark.parametrize("algo", ["dpg", "downpour", "ssp", "dvrsgd"])
def test_only_vr_workers_keep_a_snapshot(monkeypatch, algo):
    # plain-gradient workers never read one, and under this schedule they
    # would pair a stage's gradient with the next stage's anchor and label
    build, built = harness._build_nodes, []
    monkeypatch.setattr(harness, "_build_nodes",
                        lambda *args, **kw: built.append(build(*args, **kw)) or built[-1])
    problem = make_synthetic("quadratic", 64, 4, seed=0, mu=1.0, smoothness=10.0)
    h = HyperParams(eta=0.02, theta=0.5, tau=2, B=1, m=2, S=6, P=8)
    result = run_cluster(problem, h, algo=algo, seed=0,
                         latency=LatencyModel("adversarial", seed=0))
    check_snapshots(problem, h, result)
    (_, _, workers), = built
    if algo == "dvrsgd":
        assert all(wk.snapshot.stage == h.S for wk in workers)
    else:
        assert all(wk.snapshot is None for wk in workers)


class Replay:
    """A latency source that replays ``delays``, then answers 0.0."""

    def __init__(self, delays):
        self._delays = iter(delays)

    def sample(self) -> float:
        return next(self._delays, 0.0)


@settings(deadline=None)
@given(algo=st.sampled_from(sorted(BASELINES)), P=st.integers(1, 4), m=st.integers(1, 3),
       S=st.integers(1, 3), tau=st.integers(0, 3), seed=st.integers(0, 2**16),
       delays=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.just(60.0)),
                       min_size=10, max_size=80))
def test_any_schedule_ends_with_every_stage_and_its_snapshot(problem, algo, P, m, S, tau, seed,
                                                             delays):
    h = HyperParams(eta=0.02, theta=0.5, tau=tau, B=5, m=m, S=S, P=P)
    result = run_cluster(problem, h, algo=algo, seed=seed,
                         latency=Replay(delays))
    assert len(result.records) == S + 1 and not result.stopped_early
    check_snapshots(problem, h, result)
    if tau == 0 and algo in TAU_GATED:
        steady = run_cluster(problem, h, algo=algo, seed=seed)
        assert outcome(result) == outcome(steady)
