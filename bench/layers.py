"""Per-layer instrumentation of one traced run, and the metrics it yields.

Each row of ``PATCHES`` names a callable where its caller looks it up and the
span it records.  Layers are the package's modules; ``sim.*`` and
``socket.*`` spans belong to the two halves of ``dvrsgd.transport``.
``socket.wait`` is the main thread idling until the cluster finishes, so it
is subtracted from its parent but counts toward no layer.
"""

import time

import numpy as np

import dvrsgd.protocol as protocol
import dvrsgd.scheduler as scheduler
import dvrsgd.worker as worker
from dvrsgd import harness
from dvrsgd.protocol import PullRequest, PullResponse
from dvrsgd.scheduler import SchedulerNode
from dvrsgd.server import ParamServer
from dvrsgd.transport import SimCluster, SocketCluster
from dvrsgd.worker import WorkerNode

from spans import Tracer, self_times

__all__ = ["PATCHES", "LAYERS", "originals", "Probe", "layer_metrics", "percentile_top"]

PATCHES = [
    (worker, "mean_gradient", "losses.mean_gradient"),
    (worker, "loss_sum", "losses.loss_sum"),
    (worker, "vr_gradient", "vrgrad.vr_gradient"),
    (worker, "draw_batch", "vrgrad.draw_batch"),
    (WorkerNode, "handle", "worker.handle"),
    (ParamServer, "handle", "server.handle"),
    (ParamServer, "gate_pull", "server.gate_pull"),
    (ParamServer, "apply_update", "server.apply_update"),
    (ParamServer, "stage_end", "server.stage_end"),
    (SchedulerNode, "handle", "scheduler.handle"),
    (scheduler, "plan_stage", "scheduler.plan_stage"),
    (SimCluster, "send", "sim.send"),
    (SimCluster, "schedule", "sim.schedule"),
    (SimCluster, "run_until_quiescent", "sim.loop"),
    (protocol, "encode", "protocol.encode"),
    (protocol, "decode", "protocol.decode"),
    (SocketCluster, "send", "socket.send"),
    (SocketCluster, "wait", "socket.wait"),
    (harness, "run_cluster", "harness.run"),
    (harness, "run_cluster_socket", "harness.run"),
]

LAYERS = {"losses": "losses", "vrgrad": "vrgrad", "worker": "worker", "server": "server",
          "scheduler": "scheduler", "sim": "transport.sim", "protocol": "protocol",
          "socket": "transport.socket", "harness": "harness"}
IDLE_SPANS = {"socket.wait"}


def originals() -> list:
    """The objects every patch site holds now, for checking a restore."""
    return [vars(owner)[attr] for owner, attr, _ in PATCHES] + [vars(SchedulerNode)["on_start"]]


class Probe:
    """Counters gathered at the patched boundaries, outside the spans."""

    def __init__(self, tracer: Tracer, socket: bool):
        self.deferred = 0
        self.depths: list[int] = []
        self.frame_sizes: list[int] = []  # appended from several threads
        self.rtts: list[float] = []
        self._pull_sent: dict = {}
        hooks = {
            "server.gate_pull": dict(after=self._gate),
            "server.handle": dict(after=self._depth),
            "protocol.encode": dict(after=self._encoded),
        }
        if socket:
            hooks["socket.send"] = dict(before=self._send)
            hooks["worker.handle"] = dict(before=self._receive)
        for owner, attr, name in PATCHES:
            tracer.patch(owner, attr, name, **hooks.get(name, {}))

    def _gate(self, args, answered):
        if answered is False:
            self.deferred += 1

    def _depth(self, args, _):
        self.depths.append(len(args[0].pending_pulls))

    def _encoded(self, args, frame):
        self.frame_sizes.append(len(frame))

    def _send(self, args):
        msg = args[3]
        if isinstance(msg, PullRequest):
            self._pull_sent[(msg.worker, msg.task)] = time.perf_counter()

    def _receive(self, args):
        node, msg = args[0], args[2]
        if isinstance(msg, PullResponse):
            sent = self._pull_sent.pop((node.worker_id, msg.task), None)
            if sent is not None:
                self.rtts.append(time.perf_counter() - sent)


def percentile_top(samples) -> tuple[float, float, float]:
    """(median, highest percentile with at least 10 samples beyond it, that
    percentile), by nearest rank; zeros when there are too few samples."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.shape[0]
    if n == 0:
        return 0.0, 0.0, 0.0
    median = float(np.median(xs))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return median, float(xs[int(np.ceil(pct / 100.0 * n)) - 1]), pct
    return median, 0.0, 0.0


def layer_metrics(tracer: Tracer, probe: Probe, rep, updates: int, socket: bool) -> dict:
    """Per-layer values of one traced run, keyed by metric name."""
    self_s, calls = self_times(tracer.spans)
    s = lambda name: self_s.get(name, 0.0)
    c = lambda name: calls.get(name, 0)
    per_call = lambda name: s(name) / c(name) * 1e6 if c(name) else 0.0
    layer = dict.fromkeys(LAYERS.values(), 0.0)
    for name, value in self_s.items():
        if name not in IDLE_SPANS:
            layer[LAYERS[name.split(".", 1)[0]]] += value
    events = c("sim.send") + c("sim.schedule")
    transport_sim = s("sim.loop") + s("sim.send") + s("sim.schedule")
    median, top, pct = percentile_top(probe.rtts)
    encoded = sum(probe.frame_sizes)
    out = {
        "stages_to_target": rep.stages_to_target,
        "ticks_to_target": 0.0 if socket else rep.ticks_to_target,
        "losses.mean_gradient.calls": c("losses.mean_gradient"),
        "losses.mean_gradient.self_s": s("losses.mean_gradient"),
        "losses.loss_sum.calls": c("losses.loss_sum"),
        "losses.loss_sum.self_s": s("losses.loss_sum"),
        "vrgrad.vr_gradient.calls": c("vrgrad.vr_gradient"),
        "vrgrad.vr_gradient.self_s": s("vrgrad.vr_gradient"),
        "vrgrad.vr_gradient.us_per_call": per_call("vrgrad.vr_gradient"),
        "vrgrad.draw_batch.self_s": s("vrgrad.draw_batch"),
        "server.gate_pull.calls": c("server.gate_pull"),
        "server.gate_pull.self_s": s("server.gate_pull"),
        "server.apply_update.calls": c("server.apply_update"),
        "server.apply_update.self_s": s("server.apply_update"),
        "server.apply_update.us_per_call": per_call("server.apply_update"),
        "server.stage_end.self_s": s("server.stage_end"),
        "server.pulls_deferred": probe.deferred,
        "server.deferred_ratio": probe.deferred / c("server.gate_pull") if c("server.gate_pull") else 0.0,
        "server.pending_depth_max": max(probe.depths, default=0),
        "server.pending_depth_mean": float(np.mean(probe.depths)) if probe.depths else 0.0,
        "worker.handle.self_s": s("worker.handle"),
        "worker.pull_wait": rep.pull_wait,
        "worker.compute_ticks": rep.compute_ticks,
        "scheduler.handle.self_s": s("scheduler.handle"),
        "scheduler.plan_stage.self_s": s("scheduler.plan_stage"),
        "sim.events": events,
        "sim.messages": c("sim.send"),
        "sim.send.self_s": s("sim.send"),
        "sim.loop.self_s": s("sim.loop"),
        "sim.us_per_event": transport_sim / events * 1e6 if events else 0.0,
        "protocol.encode.calls": c("protocol.encode"),
        "protocol.encode.self_s": s("protocol.encode"),
        "protocol.encode.bytes": encoded,
        "protocol.decode.calls": c("protocol.decode"),
        "protocol.decode.self_s": s("protocol.decode"),
        "protocol.bytes_per_update": encoded / updates,
        "socket.send.self_s": s("socket.send"),
        "socket.frames": c("socket.send"),
        "socket.pull_rtt_ms_p50": median * 1e3,
        "socket.pull_rtt_ms_ptop": top * 1e3,
        "socket.pull_rtt_ptop_pct": pct,
        "socket.pull_rtt_samples": len(probe.rtts),
        "trace.spans": len(tracer.spans),
    }
    out.update({f"layer.{name}.self_s": value for name, value in layer.items()})
    return out
