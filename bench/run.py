"""dvrsgd benchmark: run one workload, check its output, print its metrics.

    python3 bench/run.py --workload quad-p8-sim --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory, never from an installed copy.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records where
and how the numbers were made.  ``--trace 0`` reports the end-to-end metrics
of untraced runs, scaled to a reference host speed (``host_factor``); the
raw wall-clock medians go in the provenance line.  ``--trace 1`` reports the
per-layer metrics of a separate traced run.  Metric names and units come from ``BENCHMARK.json``; see
``bench/README.md`` for what each one means.
"""

import argparse
import gc
import heapq
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import socket
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# host_loop_s() and handoff_loop_s() at the reference speed: every end-to-end
# timing is scaled to it
HOST_LOOP_REFERENCE_S = 0.050
HANDOFF_LOOP_REFERENCE_S = 0.030
# the untraced runs of an invocation cycle through this many problem instances
# of its seed, so that one instance's schedule does not set the medians
INSTANCES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP pools at nproc for this process; call before numpy loads."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def load_program():
    """Import dvrsgd from ROOT/src and the test oracles from ROOT/tests."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dvrsgd
    if Path(dvrsgd.__file__).resolve().parent != src / "dvrsgd":
        raise ImportError(f"dvrsgd came from {dvrsgd.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("dvrsgd_test_helpers",
                                                  ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return helpers


def host_loop_s(reps: int = 10000) -> float:
    """Wall seconds of a fixed loop that uses no dvrsgd code.

    The loop mixes what the program spends its time on: small NumPy
    mat-vecs, a heap and interpreter work.  Timed next to a run, it tells how
    fast the host was just then, so a run's timings can be scaled to the
    reference speed; a change to dvrsgd cannot move it.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 20 * 50).reshape(20, 50)
    x, heap = np.ones(50), []
    t = time.perf_counter()
    for i in range(reps):
        g = a.T @ (a @ x) / 20.0
        heapq.heappush(heap, (float(g[i % 50]), i))
        if len(heap) > 64:
            heapq.heappop(heap)
        x[i % 50] = sum(v for v, _ in heap[:8]) * 1e-3
    return time.perf_counter() - t


def handoff_loop_s(rounds: int = 2000) -> float:
    """Wall seconds of ``rounds`` small-message round trips between two
    threads over a local socket pair.

    A socket run hands the interpreter between its node threads all the
    time, so it slows more than ``host_loop_s`` when the other CPU is taken;
    this loop slows with it.
    """
    a, b = socket.socketpair()

    def echo():
        while data := b.recv(64):
            b.sendall(data)

    peer = threading.Thread(target=echo, name="bench-handoff")
    peer.start()
    try:
        t = time.perf_counter()
        for _ in range(rounds):
            a.sendall(b"x" * 32)
            a.recv(64)
        return time.perf_counter() - t
    finally:
        a.shutdown(socket.SHUT_WR)
        peer.join()
        a.close()
        b.close()


def host_factor(threads: bool) -> float:
    """How many times slower than the reference speed the host is just now.

    ``threads``: the run to scale hands work between threads (socket mode);
    take the geometric mean with the thread hand-off loop.
    """
    factor = host_loop_s() / HOST_LOOP_REFERENCE_S
    if threads:
        factor = math.sqrt(factor * handoff_loop_s() / HANDOFF_LOOP_REFERENCE_S)
    return factor


def git_commit() -> str | None:
    """HEAD of ROOT's git checkout, read from its files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runs:
    """Attempts of one workload in one invocation, with their failures."""

    def __init__(self, wl, helpers, tmpdir: str):
        self.wl, self.helpers, self.tmpdir = wl, helpers, tmpdir
        self.attempted = 0
        self.failed = 0
        self.replay_digests = {}

    def fail(self, why: str):
        self.failed += 1
        print(f"bench: {self.wl.name}: {why}", file=sys.stderr)

    def attempt(self, seed: int, instance: int = 0, *, traced: bool = False,
                canonical: bool = False):
        """One checked run; returns (rep, per-layer metrics or None), or None on failure.

        A ``canonical`` sim run must write the progress CSV whose digest the
        workload pins; every other sim run of a problem instance must replay
        the instance's first run byte for byte.
        """
        from layers import Probe, layer_metrics
        from spans import Tracer
        from workloads import CheckFailed, run_once

        self.attempted += 1
        tracer = Tracer()
        probe = Probe(tracer, self.wl.socket) if traced else None
        host_before = host_factor(self.wl.socket)
        try:
            rep = run_once(self.wl, seed, self.helpers, self.tmpdir, tracer, instance)
        except CheckFailed as exc:
            self.fail(f"seed {seed}: wrong output: {exc}")
            return None
        except Exception:  # a raising or hung run is a counted failure, not the end
            self.fail(f"seed {seed} raised:\n{traceback.format_exc()}")
            return None
        finally:
            # the nodes and their transport form reference cycles; free them
            # now so that peak memory is one run's, not a count of runs
            gc.collect()
        rep.host_factor = (host_before + host_factor(self.wl.socket)) / 2
        if not self.wl.socket:
            if canonical:
                digest = self.wl.digest
            else:
                digest = self.replay_digests.setdefault(instance, rep.digest)
            if rep.digest != digest:
                self.fail(f"seed {seed}: progress CSV sha256 {rep.digest}, expected {digest}")
                return None
        layer = layer_metrics(tracer, probe, rep, self.wl.updates, self.wl.socket) \
            if traced else None
        return rep, layer

    def repeat(self, seed: int, seconds: float, modes=(False,), instances: int = 1) -> list:
        """Checked runs of ``seed`` for about ``seconds``, at least one per mode.

        ``modes`` cycles untraced (False) and traced (True) runs, so that both
        kinds sample the same stretch of machine speed.  The runs also cycle
        through ``instances`` problem instances of the seed.
        """
        done, durations = [], []
        end = time.perf_counter() + seconds
        for i, traced in enumerate(itertools.cycle(modes)):
            t = time.perf_counter()
            if len(durations) >= len(modes) and t + statistics.median(durations) / 2 > end:
                return done
            out = self.attempt(seed, i % instances, traced=traced)
            durations.append(time.perf_counter() - t)
            if out is not None:
                done.append(out)


def end_to_end(wl, reps, scaled: bool = True) -> dict:
    """Medians over ``reps``, timed at the reference speed unless not ``scaled``."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med = lambda values: statistics.median(values) if values else 0.0
    f = (lambda r: r.host_factor) if scaled else (lambda r: 1.0)
    return {
        "updates_per_s": med([wl.updates * f(r) / r.run_s for r, _ in reps]),
        "time_to_target_s": med([r.time_to_target_s / f(r) for r, _ in reps]),
        "setup_s": med([r.setup_s / f(r) for r, _ in reps]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, seed: int, untraced, traced) -> dict:
    from dvrsgd.baselines import serial_svrg
    from workloads import input_seeds

    names = traced[0][1].keys() if traced else ()
    out = {name: statistics.median([layer[name] for _, layer in traced]) for name in names}
    run_s = lambda reps: statistics.median([r.run_s for r, _ in reps])
    out["trace.overhead_frac"] = run_s(traced) / run_s(untraced) - 1.0 \
        if traced and untraced else 0.0
    out["serial_svrg_s"] = 0.0
    if wl.serial_reference:
        problem_seed, cluster_seed, _ = input_seeds(seed)
        problem = wl.problem(problem_seed)
        times = []
        for _ in range(3):
            t = time.perf_counter()
            serial_svrg(problem, wl.eta, wl.m, wl.S, seed=cluster_seed, B=wl.B)
            times.append(time.perf_counter() - t)
        out["serial_svrg_s"] = statistics.median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the tracer and exit")
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    caps = cap_threads(nproc)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        helpers = load_program()
    except (OSError, ImportError, ValueError) as exc:
        print(f"bench: cannot load the program under {ROOT}: {exc!r}", file=sys.stderr)
        return 2
    import numpy as np
    from selftest import self_test
    from workloads import CANONICAL_SEED, WORKLOADS, input_seeds

    if args.self_test:
        self_test()
        print("bench: self-test passed")
        return 0
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        runs = Runs(wl, helpers, tmpdir)
        self_test()
        # warm-up, and the pinned-digest oracle on the canonical seed (sim only)
        runs.attempt(CANONICAL_SEED, canonical=True)
        if args.trace == 0:
            reps = runs.repeat(args.seed, args.seconds, instances=INSTANCES)
            metrics = end_to_end(wl, reps)
            unscaled = end_to_end(wl, reps, scaled=False)
            unscaled["host_factor"] = statistics.median([r.host_factor for r, _ in reps]) \
                if reps else 0.0
            listed = spec["end_to_end"]
        else:
            from layers import originals
            before = originals()
            reps = runs.repeat(args.seed, args.seconds, modes=(False, True))
            untraced = [r for r in reps if r[1] is None]
            traced = [r for r in reps if r[1] is not None]
            if any(a is not b for a, b in zip(originals(), before)):
                runs.fail("a traced name was not restored")
            metrics = per_layer(wl, args.seed, untraced, traced)
            listed = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in listed}
    extra, missing = set(metrics) - set(units), set(units) - set(metrics)
    # with every run failed there may be nothing to report; the zeros that
    # stand in are flagged by "correct": false
    if extra or (missing and runs.failed == 0):
        print(f"bench: metrics {sorted(extra | missing)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    provenance = {
        "workload": wl.name, "seed": args.seed, "derived_seeds": [
            list(input_seeds(args.seed, i)) for i in range(INSTANCES if args.trace == 0 else 1)],
        "canonical_seed": CANONICAL_SEED, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(), "thread_caps": caps,
    }
    if args.trace == 0:
        provenance["wall_clock"] = unscaled
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
