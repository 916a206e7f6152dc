"""The sim-mode oracle: byte-identical progress CSVs for a fixed config and seed.

Every sim workload of the benchmark (``bench/workloads.py``) runs once at its
canonical seed, untraced, and the sha256 of its progress CSV must equal the
digest pinned beside the workload there.

``MATRIX`` pins the same digest for every cluster algorithm on small
problems of each loss kind, under uniform and adversarial latency, and on a
schedule whose plain-gradient evaluation rounds overlap.  The serial ``svrg``
path stamps real seconds, so only its ``stage,objective`` columns are pinned.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import helpers
from dvrsgd.harness import ExperimentConfig, run_experiment

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


ALGOS = ("dvrsgd", "dsvrg", "dpg", "vrdpg", "downpour", "ssp")
PROBLEMS = {
    "quadratic": dict(kind="quadratic", n=200, d=5, eta=0.02),
    "l2-logistic": dict(kind="l2-logistic", n=150, d=5, lam=0.01, eta=0.1),
    "multiclass-logistic": dict(kind="multiclass-logistic", n=120, d=4, k=3, lam=0.01,
                                eta=0.1),
}
LATENCIES = {
    "uniform": dict(latency="uniform", lo=1.0, hi=5.0, transport_seed=3),
    "adversarial": dict(latency="adversarial", transport_seed=3),
}
# plain-gradient evaluation rounds overlap under this schedule
OVERLAP = dict(kind="quadratic", n=64, d=4, eta=0.02, P=8, tau=2, B=1, m=2, S=6,
               latency="adversarial", transport_seed=0, grad_tick=0.0, seed=0)


def case_config(algo, **fields) -> ExperimentConfig:
    base = dict(algo=algo, seed=5, problem_seed=2, theta=0.5, tau=2, B=4, m=10, S=4, P=3,
                grad_tick=0.01)
    return ExperimentConfig(**{**base, **fields})


CASES = {f"{algo}-{kind}-{lat}": case_config(algo, **problem, **latency)
         for algo in ALGOS for kind, problem in PROBLEMS.items()
         for lat, latency in LATENCIES.items()}
CASES.update({f"{algo}-overlap": case_config(algo, **OVERLAP) for algo in ALGOS})
CASES.update({f"svrg-{kind}": case_config("svrg", P=1, tau=0, **problem)
              for kind, problem in PROBLEMS.items()})


def case_digest(cfg: ExperimentConfig, tmp_path) -> str:
    """sha256 of the run's progress CSV; of its stage and objective columns
    alone for ``svrg``, whose time columns are real seconds."""
    out = tmp_path / "progress.csv"
    run_experiment(cfg, out=str(out))
    lines = out.read_text().splitlines(keepends=True)
    if cfg.algo == "svrg":
        lines = [",".join(line.split(",")[:2]) + "\n" for line in lines]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


MATRIX = {
    "downpour-l2-logistic-adversarial":
        "b9f286a848ae0de8efe3152c4b5d830141d9df5a061c8272d304840fe3fe8620",
    "downpour-l2-logistic-uniform":
        "bf4199f2632f8d88415b8011dab19a16835845e0687f15c8acc22fde1a6a8b6e",
    "downpour-multiclass-logistic-adversarial":
        "7e1adcaee02d53aad5058822fb46120159ee42a770e86202058bed00612a7a95",
    "downpour-multiclass-logistic-uniform":
        "357054fba364163034bf81a4d16ff31d61b840376e827ab37e3f6a2afb31a305",
    "downpour-overlap":
        "4e454104c50c6d8e79541eec34e0dde858779cc0f057f678ded61bb1d3c206cd",
    "downpour-quadratic-adversarial":
        "bf51fc95a686c9de5c7ba1b7ebed56386b32c9c306b49971b0dddd3dcfbe032a",
    "downpour-quadratic-uniform":
        "af40a83c15c863613bb29559758cda666a08b93d94e69de770f01e463f300166",
    "dpg-l2-logistic-adversarial":
        "9f4dc88d6c4fa2589f2896a3e4ff734ccf8e03fbcf5a55fedf0b8a150ca80b02",
    "dpg-l2-logistic-uniform":
        "5bba4bb3a63eb64f507ce19eae98720c458cfde12d5d29fc127c56f0f5d75f54",
    "dpg-multiclass-logistic-adversarial":
        "e7dd6803b02befa9a146437dfe71b4f269962b20706abfa7498300ecfc43f050",
    "dpg-multiclass-logistic-uniform":
        "aefd73f7a860d8aeedb30cffc5064702f28b71c1609a904261d0c4fcb194950c",
    "dpg-overlap":
        "fed44f480746002b5d2c847455ee44eed9c4d2ef48a7de5fb79af42ddd1ef1aa",
    "dpg-quadratic-adversarial":
        "cacd70f549dd3e8fae08284428be1ee10a4f5faf94207c3b5dbe396e7e8e1d82",
    "dpg-quadratic-uniform":
        "70c93d96c1019f0aa8fa8c7dfa14b5c1214effa3d71577dd99d62a77d3093d73",
    "dsvrg-l2-logistic-adversarial":
        "7dc74870a900570211b19df65fec3de40bcd2d771ed74a9bc998254e6659916e",
    "dsvrg-l2-logistic-uniform":
        "ea4def973fbe1c4335569b6c0597139cdaebf8535ea56d3c748ba40e822e4058",
    "dsvrg-multiclass-logistic-adversarial":
        "dd71b1b9e88a8c801d992a9341c7251950957069776bf4f7d59a37466de1568f",
    "dsvrg-multiclass-logistic-uniform":
        "f9a9ab366ee7f25b1d422a0819286cffe41a0e8e0093922576f7b4260d227a44",
    "dsvrg-overlap":
        "5ac093b2fa25f719f4627e8146b9aeb19e77161f93f27e44a486b95fffc7a6fe",
    "dsvrg-quadratic-adversarial":
        "959220fdeb100fc14832486b21bd2f1079acd38623330b39f299858464480a77",
    "dsvrg-quadratic-uniform":
        "90fd443044d65c64cdf319aeb66745159a9cb673485d25caa7d8b7623e9b9ef8",
    "dvrsgd-l2-logistic-adversarial":
        "46c2ef4caf8da32fed39a6a40d5238ef7937cb411c5e355a8694fbf0476e3c16",
    "dvrsgd-l2-logistic-uniform":
        "6db6e00773584c547ffc63993b399f1a959ae0386bac45e74b420ee1dfef8a97",
    "dvrsgd-multiclass-logistic-adversarial":
        "2142a0f93c1dd72ec972cfa21058ea5f3a1be8134f1208a157794a67971c4bed",
    "dvrsgd-multiclass-logistic-uniform":
        "77a1dcf1f9d535d2d0e4e8fa417b61e9031924fe346ae60df2e70e3ff4e5ccf5",
    "dvrsgd-overlap":
        "e2860b82431464d1af247f6e80f0723cb2390d0508d7c4c8ff57f9c870fccefe",
    "dvrsgd-quadratic-adversarial":
        "6c394f8053e750b9dc225baf8c0a1d8b66058f8abbed652945065772e940fd87",
    "dvrsgd-quadratic-uniform":
        "cef439c98eaf2ec0ad43149bcf3191332579087f9bddb9da2aa1b773c4be5584",
    "ssp-l2-logistic-adversarial":
        "e8aa5af14e0aea238f6cf21600592103fb48a772e380ce961cee91d7665adecc",
    "ssp-l2-logistic-uniform":
        "f21555701fff05de714247a209f4a98a0811e83b2e108c44cc15338f03933780",
    "ssp-multiclass-logistic-adversarial":
        "303259d063fcb20052d7a79475a09158e972726e02d1717b61b00f858f948d12",
    "ssp-multiclass-logistic-uniform":
        "c5c6096c04b6e517d7e3ecf96d7aff9b3433b7e96e74973d45c0304e9a099956",
    "ssp-overlap":
        "36e65cb90eafbe927f38f00382d0ed88a4b59e2ae15c92c60abaa440acb921bf",
    "ssp-quadratic-adversarial":
        "53217b992a30d8cff72183c91247cc4f01a645eb029f36f151f5e587e23ef22f",
    "ssp-quadratic-uniform":
        "e4b621b8a577483a2c44e08cb47b66895064f8a1b3f5664e816c12cf28232551",
    "svrg-l2-logistic":
        "16345d20b6678d4fcf86e23e025a855621d07c15e70cd9eddf657d2012db51c7",
    "svrg-multiclass-logistic":
        "d7124ac75627db00691b8feed6f5fd5cc52bab950a7c336d194e3ef61826f8f7",
    "svrg-quadratic":
        "91e754ff332b26d39547396aac61b9d4a24dd5ba655d4f2b29ddac6bd44d9681",
    "vrdpg-l2-logistic-adversarial":
        "4ea5aeeea0df23a7b2756b7cf02944387922e0088b5c64f2c185a57321c8b7c6",
    "vrdpg-l2-logistic-uniform":
        "7120f8bde286f97a78c18890bfedcb251992b789ad7e48ea361ecd76e57b8e01",
    "vrdpg-multiclass-logistic-adversarial":
        "43431a6c7c24acb6fd083137d973720d5ae817e87983305a1d3bdaea5057f5b4",
    "vrdpg-multiclass-logistic-uniform":
        "68ef091d2528820458602238b71a2e8c59d5b197f5eb95f203635a80be56590d",
    "vrdpg-overlap":
        "d782376e4c67e76a58d64cfb1e2645ec68ac8a4d504635e4928cc1858bd73f47",
    "vrdpg-quadratic-adversarial":
        "8ce457a8924c15439abc631ed4a8289c51061f3a2edbdfcb7afcd7a5f632091a",
    "vrdpg-quadratic-uniform":
        "c71ac4e93a874299fd8b9e667ef311730127e42f484196dcbf05e27d93e274cf",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix_progress_csv_matches_pinned_digest(case, tmp_path):
    assert case_digest(CASES[case], tmp_path) == MATRIX[case]
