"""The sim-mode oracle: byte-identical progress CSVs for a fixed config and seed.

Every sim workload of the benchmark (``bench/workloads.py``) runs once at its
canonical seed, untraced, and the sha256 of its progress CSV must equal the
digest pinned beside the workload there.
"""

import sys
from pathlib import Path

import pytest

import helpers

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import CANONICAL_SEED, WORKLOADS, run_once  # noqa: E402

SIM_WORKLOADS = [wl for wl in WORKLOADS.values() if not wl.socket]


@pytest.mark.parametrize("wl", SIM_WORKLOADS, ids=[wl.name for wl in SIM_WORKLOADS])
def test_sim_progress_csv_matches_pinned_digest(wl, tmp_path):
    rep = run_once(wl, CANONICAL_SEED, helpers, str(tmp_path), Tracer())
    assert rep.digest == wl.digest
