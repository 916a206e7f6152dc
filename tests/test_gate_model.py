"""The threshold-heap pull gate against the sort-and-scan gate it replaced.

``SortAndScanServer`` keeps the earlier gate as a reference model: every
buffered pull is re-sorted by (timestamp, arrival) and re-checked after each
applied update, and every answered pull is remembered.  Random interleavings
of pulls and out-of-order update finishes must make both servers send the
same responses, in the same order, with the same number of pulls buffered.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrsgd.baselines import algo_config
from dvrsgd.protocol import PullRequest, Stop, TaskId, TaskKind
from dvrsgd.server import HyperParams, ParamServer, ProtocolError


class SortAndScanServer(ParamServer):
    """Reference gate: a full sort and scan of the buffered pulls per update."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.answered = set()

    def _eligible(self, task) -> bool:
        if task.kind == TaskKind.UPDATE:
            if self.gate_bound is None:
                return True
            return self.finished.watermark >= task.timestamp - self.gate_bound - 1
        return self.finished.watermark >= task.timestamp - 1

    def gate_pull(self, req):
        key = (req.worker, req.task.timestamp, req.task.kind)
        if key in self.answered or \
                any(r.worker == req.worker and r.task == req.task for _, _, r in self.pending_pulls):
            raise ProtocolError(f"duplicate pull from worker {req.worker} for {req.task}")
        if req.task.kind == TaskKind.UPDATE and req.task.timestamp in self.finished:
            raise ProtocolError(f"pull for already-finished task {req.task}")
        # the per-worker record that ParamServer._respond reads
        self._last_pull[req.worker] = [self._order_key(req.task), None]
        if self._eligible(req.task):
            self._respond(req)
            return True
        self._arrival += 1
        self.pending_pulls.append((self._arrival, f"worker:{req.worker}", req))
        return False

    def _respond(self, req):
        self.answered.add((req.worker, req.task.timestamp, req.task.kind))
        super()._respond(req)

    def _rescan_pending(self):
        self.pending_pulls.sort(key=lambda e: (e[2].task.timestamp, e[0]))
        kept = []
        for entry in self.pending_pulls:
            if self._eligible(entry[2].task):
                self._respond(entry[2])
            else:
                kept.append(entry)
        self.pending_pulls = kept


@st.composite
def gate_scripts(draw):
    """(P, bound, m, script): each worker pulls distinct tasks in task order."""
    P = draw(st.integers(1, 3))
    T = draw(st.integers(1, 12))
    bound = draw(st.sampled_from([0, 1, 3, None]))
    m = draw(st.integers(1, 5))
    queues = []
    for worker in range(P):
        keys = draw(st.lists(st.tuples(st.integers(1, T + 1), st.sampled_from([0, 1])),
                             unique=True, max_size=8))
        queues.append([("pull", worker, t, TaskKind.EVALUATION if rank == 0 else TaskKind.UPDATE)
                       for t, rank in sorted(keys)])
    queues.append([("finish", t) for t in draw(st.permutations(range(1, T + 1)))])
    queues = [q for q in queues if q]
    script = []
    while queues:
        i = draw(st.integers(0, len(queues) - 1))
        script.append(queues[i].pop(0))
        if not queues[i]:
            queues.pop(i)
    return P, bound, m, script


def recording_server(cls, P, bound, m):
    hyper = HyperParams(eta=0.1, theta=0.5, tau=bound or 0, B=1, m=m, S=1, P=P)
    server = cls(2, hyper, np.full(P, 1.0 / P), gate_bound=bound,
                 update_rule=algo_config("dvrsgd").rule(hyper, 2))
    sent = []
    server.send = lambda dst, msg: sent.append((dst, msg))
    return server, sent


def step(server, op):
    """Apply one script step; returns its result or the ProtocolError type."""
    try:
        if op[0] == "pull":
            _, worker, t, kind = op
            return server.gate_pull(PullRequest(worker, TaskId(t, kind)))
        # an update finishing: what apply_update does once its push checks
        # out, with no pull or push behind it, so finishes come in any order
        t = op[1]
        server.w = np.array([t, -t], dtype=float)
        server.finished.mark(t)
        server._rescan_pending()
    except ProtocolError:
        return ProtocolError
    return None


@settings(max_examples=300, deadline=None)
@given(gate_scripts())
def test_threshold_heap_matches_sort_and_scan(case):
    P, bound, m, script = case
    heap, heap_sent = recording_server(ParamServer, P, bound, m)
    ref, ref_sent = recording_server(SortAndScanServer, P, bound, m)
    for op in script:
        assert step(heap, op) == step(ref, op), op
        assert heap_sent == ref_sent
        assert len(heap.pending_pulls) == len(ref.pending_pulls)
    heap.handle("scheduler", Stop())
    assert heap.pending_pulls == []
