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
