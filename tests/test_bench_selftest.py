import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    # the self-test patches the package names the benchmark traces
    # (gate_pull, apply_update, ...), so renaming one fails here too
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_bench_patch_site_is_on_the_call_path(monkeypatch):
    # A traced run reads 0 for a patched name that the program no longer
    # calls, so a site that left the call path would go unnoticed.  Count
    # every site of bench/layers.py's PATCHES through a small sim dvrsgd run,
    # a small sim dpg run (plain-gradient updates) and a small socket run,
    # patched before each run builds its cluster, as the bench does.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from layers import PATCHES

    from dvrsgd import harness
    from dvrsgd.losses import make_synthetic
    from dvrsgd.server import HyperParams
    from dvrsgd.transport import LatencyModel

    calls = {}

    def counting(site, fn):
        def counted(*args, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, attr, _ in PATCHES:
        site = f"{owner.__name__}.{attr}"
        calls[site] = 0
        monkeypatch.setattr(owner, attr, counting(site, vars(owner)[attr]))
    problem = make_synthetic("quadratic", 64, 4, seed=1)
    hyper = HyperParams(eta=0.01, tau=2, B=4, m=8, S=2, P=2)
    for algo in ("dvrsgd", "dpg"):
        harness.run_cluster(problem, hyper, algo=algo, grad_tick=0.01,
                            latency=LatencyModel("uniform", lo=1.0, hi=5.0, seed=2))
    roles = ["scheduler", "server", "worker:0", "worker:1"]
    harness.run_cluster_socket(problem, hyper, {r: ("127.0.0.1", 0) for r in roles},
                               timeout=10.0)
    # the worker's evaluation pass calls losses._evaluate, not loss_sum, which
    # it imports only for the bench to patch (ROADMAP, benchmark v2)
    assert [site for site, n in calls.items() if n == 0] == ["dvrsgd.worker.loss_sum"]
