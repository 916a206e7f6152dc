import dataclasses
import gc
import hashlib
import os
import socket
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from dvrsgd import baselines, harness
from dvrsgd.baselines import BASELINES, algo_config, serial_svrg
from dvrsgd.data import load_libsvm, partition, write_libsvm
from dvrsgd.harness import (ExperimentConfig, main, run_cluster, run_cluster_socket,
                            run_experiment, sweep)
from dvrsgd.losses import make_synthetic, objective
from dvrsgd.server import HyperParams, ParamServer
from dvrsgd.transport import LatencyModel, SocketCluster, TransportError
from dvrsgd.worker import WorkerNode

README = Path(__file__).resolve().parents[1] / "README.md"


def small_config(tmp_path, **kw):
    cfg = ExperimentConfig(algo="dvrsgd", seed=3, out=str(tmp_path / "run.csv"),
                           source="synthetic", kind="l2-logistic", n=60, d=5,
                           lam=0.01, problem_seed=1, eta=0.1, theta=0.5, tau=2,
                           B=5, m=10, S=3, P=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_config_file_round_trip(tmp_path):
    cfg = small_config(tmp_path, target_objective=0.125, m=None,
                       latency="uniform", lo=1.0, hi=5.0, transport_seed=9,
                       endpoints={"scheduler": ("127.0.0.1", 7001),
                                  "server": ("127.0.0.1", 7002),
                                  "worker:0": ("127.0.0.1", 7003)})
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg


def every_field_config():
    return ExperimentConfig(
        algo="dpg", seed=5, out="other.csv", target_objective=0.25, stop="target",
        stop_param=1e-6, source="libsvm", kind="l2-logistic", n=12, d=3, k=4, lam=0.5,
        problem_seed=8, mu=2.0, smoothness=3.5, path="data.svm", dim=9, eta=0.3,
        theta=0.25, tau=4, B=2, m=7, S=6, P=3, strategy="shuffled", partition_seed=11,
        mode="socket", latency="exponential", value=0.5, lo=0.75, hi=2.5, mean=1.5,
        transport_seed=13, grad_tick=0.125, timeout=9.5,
        endpoints={"scheduler": ("127.0.0.1", 7001), "worker:1": ("10.0.0.2", 7003)})


def test_config_file_round_trip_every_field(tmp_path):
    cfg = every_field_config()
    for f in dataclasses.fields(ExperimentConfig):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        assert getattr(cfg, f.name) != default, f.name
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg


def test_config_file_round_trip_percent_signs(tmp_path):
    cfg = dataclasses.replace(every_field_config(), out="a%b.csv", path="100%%/x%(d)s.svm",
                              endpoints={"worker:0": ("fe80::1%lo", 7003)})
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert "out = a%%b.csv" in path.read_text()
    assert ExperimentConfig.from_file(path) == cfg


@pytest.mark.parametrize("cfg,digest", [
    (ExperimentConfig(), "ac8ab80372fbf68b10d42fe04767bbe8dacb9c211b4c7a31b46f1ef9f802cc93"),
    (every_field_config(), "d88b491ce4960ccc70b9d5e0211efc7f238d89a0eaab244c47a37775d0ccaf35"),
], ids=["defaults", "every-field"])
def test_config_file_bytes_pinned(tmp_path, cfg, digest):
    # files without "%" keep the bytes they had before "%" was escaped
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def readme_ini():
    return README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_example_config_loads(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_ini())
    cfg = ExperimentConfig.from_file(path)
    assert cfg.validate() == []
    assert (cfg.algo, cfg.tau, cfg.B, cfg.m, cfg.grad_tick) == ("dvrsgd", 8, 20, None, 0.01)
    assert cfg.endpoints["worker:0"] == ("127.0.0.1", 7102)


@pytest.mark.parametrize("name", ["hyper.tua", "experiment.tau", "problem.problem_seed",
                                  "hyperparams"])
def test_config_rejects_unknown_keys(tmp_path, name):
    section, _, key = name.partition(".")
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n" + (f"{key} = 8\n" if key else ""))
    with pytest.raises(ValueError, match=name):
        ExperimentConfig.from_file(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


def test_readme_lists_exactly_the_latency_kinds_and_algorithms():
    comments = {}
    for line in readme_ini().splitlines():
        key, _, rest = line.partition("=")
        comments[key.strip()] = rest.partition(";")[2].replace("|", " ").split()
    assert sorted(comments["latency"]) == sorted(LatencyModel.KINDS)
    assert sorted(comments["algo"]) == sorted([*BASELINES, "svrg"])


SOCKET = dict(mode="socket", endpoints={r: ("127.0.0.1", 0) for r in
                                        ("scheduler", "server", "worker:0", "worker:1")})


def worker_charging(grad_tick):
    return WorkerNode(0, make_synthetic("quadratic", 4, 2), [0], HyperParams(eta=0.1),
                      grad_tick=grad_tick)


@pytest.mark.parametrize("fields,owner", [
    (dict(latency="trace"), lambda: LatencyModel("trace")),
    (dict(stop="targt"), lambda: ExperimentConfig(stop="targt").stop_rule()),
    (dict(stop="target"), lambda: ExperimentConfig(stop="target").stop_rule()),
    (dict(B=0, m=None), lambda: HyperParams(eta=0.1, B=0)),
    (dict(m=0), lambda: HyperParams(eta=0.1, m=0)),
    (dict(eta=-1.0), lambda: HyperParams(eta=-1.0)),
    (dict(theta=2.0), lambda: HyperParams(eta=0.1, theta=2.0)),
    (dict(latency="uniform", lo=-5.0, hi=-1.0), lambda: LatencyModel("uniform", lo=-5.0, hi=-1.0)),
    (dict(latency="constant", value=-3.0), lambda: LatencyModel("constant", value=-3.0)),
    (dict(latency="constant", value=float("nan")),
     lambda: LatencyModel("constant", value=float("nan"))),
    (dict(latency="exponential", mean=-1.0), lambda: LatencyModel("exponential", mean=-1.0)),
    (dict(latency="uniform", lo=5.0, hi=1.0), lambda: LatencyModel("uniform", lo=5.0, hi=1.0)),
    (dict(grad_tick=-0.5), lambda: worker_charging(-0.5)),
    (dict(grad_tick=float("inf")), lambda: worker_charging(float("inf"))),
    (dict(eta=float("inf")), lambda: HyperParams(eta=float("inf"))),
    *[(dict(SOCKET, timeout=t), lambda t=t: SocketCluster({}, timeout=t))
      for t in (float("nan"), -1.0, 0.0, float("inf"))],
    *[(dict(algo=algo, theta=0.0),
       lambda algo=algo: algo_config(algo).rule(HyperParams(eta=0.1, theta=0.0), 1))
      for algo in ("dpg", "vrdpg")],
    # the synthetic source's generator and partition, as the run builds them
    (dict(kind="quadratc"), lambda: make_synthetic("quadratc", 60, 5)),
    (dict(kind="quadratic", d=1), lambda: make_synthetic("quadratic", 60, 1)),
    (dict(kind="quadratic", mu=20.0), lambda: make_synthetic("quadratic", 60, 5, mu=20.0)),
    (dict(P=500), lambda: partition(make_synthetic("l2-logistic", 60, 5), 500)),
    (dict(strategy="shuffeld"),
     lambda: partition(make_synthetic("l2-logistic", 60, 5), 2, "shuffeld")),
    (dict(lam=-1.0), lambda: make_synthetic("l2-logistic", 60, 5, lam=-1.0)),
], ids=["latency-trace", "stop-typo", "stop-target-no-target", "B-0-m-unset", "m-0",
        "eta-negative", "theta-above-1", "latency-uniform-negative", "latency-constant-negative",
        "latency-nan", "latency-exponential-negative", "latency-lo-above-hi",
        "grad-tick-negative", "grad-tick-infinite", "eta-infinite", "timeout-nan",
        "timeout-negative", "timeout-0", "timeout-infinite", "dpg-theta-0", "vrdpg-theta-0",
        "kind-typo", "quadratic-d-1", "quadratic-mu-above-smoothness", "P-above-n",
        "strategy-typo", "lam-negative"])
def test_validate_reports_the_owning_constructors_error(tmp_path, capsys, fields, owner):
    with pytest.raises(ValueError) as exc:
        owner()
    # the error names a field the config sets
    assert any(name in str(exc.value) for name in fields)
    cfg = small_config(tmp_path, **fields)
    assert cfg.validate() == [str(exc.value)]
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: invalid config:\n  {exc.value}\n"
    assert not Path(cfg.out).exists()


@pytest.mark.parametrize("algo", ["dpg", "vrdpg"])
def test_convex_rule_at_theta_zero_exits_before_any_listener_binds(tmp_path, capsys,
                                                                   monkeypatch, algo):
    # a config error, reported as one, not as the server role's failure mid-run
    def start(self):
        raise AssertionError("a listener was bound")

    monkeypatch.setattr(SocketCluster, "start", start)
    path = tmp_path / "exp.ini"
    small_config(tmp_path, algo=algo, theta=0.0, **SOCKET).to_file(path)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: invalid config:\n  the convex update needs theta in (0, 1]\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("stop,message", [
    ("targt", "unknown stopping rule 'targt'"),
    ("target", "stop=target needs target_objective"),
], ids=["typo", "no-target"])
def test_stop_rule_rejects_unknown_name_and_missing_target(stop, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(stop=stop).stop_rule()


def test_config_validation_lists_all_errors(tmp_path):
    cfg = small_config(tmp_path, algo="bogus", eta=-1.0, mode="carrier-pigeon")
    errors = cfg.validate()
    assert len(errors) >= 3
    with pytest.raises(ValueError) as exc:
        run_experiment(cfg)
    assert "bogus" in str(exc.value)


def test_run_experiment_writes_csv(tmp_path):
    cfg = small_config(tmp_path)
    records = run_experiment(cfg)
    lines = Path(cfg.out).read_text().splitlines()
    assert lines[0] == "stage,objective,wall_time,comp_time,comm_time"
    assert len(lines) == len(records) + 1 == 5  # stages 0..3
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == pytest.approx(np.log(2), rel=1e-12)


def test_deterministic_runs_identical_csv(tmp_path):
    cfg = small_config(tmp_path, latency="uniform", lo=1.0, hi=5.0, transport_seed=4)
    run_experiment(cfg, out=str(tmp_path / "a.csv"))
    run_experiment(cfg, out=str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_zero_stages_header_only(tmp_path):
    cfg = small_config(tmp_path, S=0)
    run_experiment(cfg)
    assert Path(cfg.out).read_text() == "stage,objective,wall_time,comp_time,comm_time\n"


def test_serial_svrg_algo_path(tmp_path):
    cfg = small_config(tmp_path, algo="svrg", P=1, tau=0, B=1)
    records = run_experiment(cfg)
    assert len(records) == 4
    assert records[-1].objective < records[0].objective


def test_serial_svrg_algo_path_draws_batches_of_B(tmp_path):
    cfg = small_config(tmp_path, algo="svrg", n=200, d=5, B=5, m=None, S=3)
    records = run_experiment(cfg)
    problem = cfg.build_problem()
    want = serial_svrg(problem, cfg.eta, cfg.build_hyper(problem.n).m, cfg.S, seed=cfg.seed,
                       B=cfg.B)
    assert [r.objective for r in records] == [objective(problem, w) for w in want]


def test_serial_svrg_stops_after_the_first_record_its_rule_accepts(tmp_path):
    # the objective first reaches 0.6 at stage 10 of 20
    cfg = ExperimentConfig(algo="svrg", n=60, d=5, kind="l2-logistic", lam=0.01, eta=0.1,
                           B=5, m=10, S=20, stop="target", target_objective=0.6,
                           out=str(tmp_path / "run.csv"))
    result = harness._check(cfg, {})()
    assert [r.objective <= 0.6 for r in result.records] == [False] * 10 + [True]
    assert result.stopped_early
    # the records are the first ones of the run that does not stop
    full = run_experiment(dataclasses.replace(cfg, stop="fixed"))
    assert len(full) == 21
    assert [r.objective for r in full[:11]] == [r.objective for r in result.records]
    # as in a scheduler, a stop at the last stage is not an early one
    result = harness._check(dataclasses.replace(cfg, S=10), {})()
    assert len(result.records) == 11 and not result.stopped_early


def test_serial_svrg_stamps_each_stage_when_its_anchor_exists(tmp_path, monkeypatch):
    # a clock that reads the inner steps taken so far: stage s ends after s*m
    steps, vr_gradient = [0], baselines.vr_gradient

    def counted(*args):
        steps[0] += 1
        return vr_gradient(*args)

    monkeypatch.setattr(baselines, "vr_gradient", counted)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(steps[0]))
    records = run_experiment(small_config(tmp_path, algo="svrg", P=1, tau=0, m=10, S=3))
    assert [r.wall_time for r in records] == [0.0, 10.0, 20.0, 30.0]


def test_sweep_theta_zero_matches_dsvrg(tmp_path):
    cfg = small_config(tmp_path, target_objective=0.5)
    out_dir = tmp_path / "sweep"
    summary = sweep(cfg, "theta", ["0.0", "0.5"], out_dir=str(out_dir), gnuplot=True)
    rows = Path(summary).read_text().splitlines()
    assert rows[0] == "value,stages_to_target,total_time,comp_time,comm_time"
    assert len(rows) == 3
    # one point per summary row, labelled by its value, for any axis
    assert (out_dir / "sweep_theta.gp").read_text() == (
        'set datafile separator ","\nset key top right\nset xlabel "theta"\n'
        'set ylabel "time"\n'
        'plot "sweep_theta_summary.csv" skip 1 using 0:3:xtic(1) with linespoints '
        'title "total", '
        '"sweep_theta_summary.csv" skip 1 using 0:4:xtic(1) with linespoints '
        'title "comp", '
        '"sweep_theta_summary.csv" skip 1 using 0:5:xtic(1) with linespoints '
        'title "comm"\n')
    # the theta=0 run reproduces a dsvrg run with the same seed
    import dataclasses
    dsvrg_cfg = dataclasses.replace(cfg, algo="dsvrg", out=str(tmp_path / "dsvrg.csv"))
    run_experiment(dsvrg_cfg)
    assert ((out_dir / "theta_0.0.csv").read_text().splitlines()[1:]
            == (tmp_path / "dsvrg.csv").read_text().splitlines()[1:])


def test_sweep_workers_emits_all_rows(tmp_path):
    # the worker count is the field P; each file has the bytes that the
    # former ``workers`` axis wrote for it
    cfg = small_config(tmp_path, target_objective=1e-4, n=64, B=4)
    summary = sweep(cfg, "P", [1, 2, 4], out_dir=str(tmp_path / "ws"))
    rows = Path(summary).read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "2", "4"]
    digests = {v: hashlib.sha256((tmp_path / "ws" / f"P_{v}.csv").read_bytes()).hexdigest()
               for v in (1, 2, 4)}
    assert digests == {
        1: "5be74b798d024cb4474f351c8ca209d736a8462b05d045cd6545346f72202e95",
        2: "94167d77220c6ba52d329612aadea537867aa54230cd00789de6870269130c84",
        4: "ec1ce2c14decc4ae614dd8f8e9ab2c00e85a7733ffb24ce34f7cef3a5f3d483c",
    }


def test_cli_sweep_over_algorithms_writes_one_csv_each(tmp_path, capsys):
    ini, out_dir = tmp_path / "exp.ini", tmp_path / "algos"
    small_config(tmp_path).to_file(ini)
    assert main(["sweep", "--config", str(ini), "--axis", "algo", "--values",
                 "dvrsgd,dpg,ssp", "--out-dir", str(out_dir), "--gnuplot"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "algo_dpg.csv", "algo_dvrsgd.csv", "algo_ssp.csv", "sweep_algo.gp",
        "sweep_algo_summary.csv"]
    for algo in ("dvrsgd", "dpg", "ssp"):
        run_experiment(small_config(tmp_path, algo=algo))
        assert (out_dir / f"algo_{algo}.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
    capsys.readouterr()


# sweeps over the 40-sample, 6-feature libsvm file a.svm: a partition it cannot
# be split into, a ridge or a dim it cannot be loaded with, fails validate() as
# it does for a synthetic source
LIBSVM_SWEEPS = [("strategy", ["contiguous", "shuffeld"]), ("P", ["2", "50"]),
                 ("dim", ["100", "2"]), ("lam", ["0.05", "-1"])]


# "uniform" parses, validates and would run first; "unifrom" fails validate(),
# and so does a libsvm path that cannot be opened or parsed after one that can,
# and a problem or partition that cannot be made after one that can
@pytest.mark.parametrize("axis,values", [("P", ["two"]), ("tau", ["1", "1.5"]),
                                         ("endpoints", ["x"]),
                                         ("latency", ["uniform", "unifrom"]),
                                         ("path", ["a.svm", "missing.svm"]),
                                         ("kind", ["quadratic", "quadratc"]),
                                         ("d", ["5", "1"]),
                                         ("mu", ["1.0", "20.0"]),
                                         ("P", ["2", "500"]),
                                         *LIBSVM_SWEEPS,
                                         ("lam", ["0.1", "-1"]),
                                         ("path", ["a.svm", "bad.svm"])])
def test_sweep_rejects_a_value_before_running_any(tmp_path, monkeypatch, axis, values):
    cfg = small_config(tmp_path)
    if axis in ("d", "mu"):  # the bounds of the quadratic generator
        cfg.kind = "quadratic"
    if axis == "path" or (axis, values) in LIBSVM_SWEEPS:
        monkeypatch.chdir(tmp_path)
        write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), "a.svm")
        sample, *rest = Path("a.svm").read_text().splitlines(True)
        Path("bad.svm").write_text(sample.replace(":", ":x", 1) + "".join(rest))  # "1:x0.3..."
        cfg.source, cfg.path = "libsvm", "a.svm"
    with pytest.raises(ValueError):
        sweep(cfg, axis, values, out_dir=str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()


def test_validate_names_a_libsvm_path_that_cannot_be_read(tmp_path, capsys):
    write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), tmp_path / "a.svm")
    cfg = small_config(tmp_path, source="libsvm", path=str(tmp_path / "a.svm"))
    assert cfg.validate() == []
    for path, cause in ((tmp_path / "missing.svm", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        cfg.path = str(path)
        assert cfg.validate() == [f"path {str(path)!r} cannot be read: {cause}"]
    # a synthetic source never reads its path
    assert small_config(tmp_path, path=str(tmp_path / "missing.svm")).validate() == []
    # the sweep exits 1 before it runs the readable path
    cfg.path = str(tmp_path / "a.svm")
    cfg.to_file(tmp_path / "exp.ini")
    out = tmp_path / "paths"
    assert main(["sweep", "--config", str(tmp_path / "exp.ini"), "--axis", "path",
                 "--values", f"{tmp_path / 'a.svm'},{tmp_path / 'missing.svm'}",
                 "--out-dir", str(out)]) == 1
    assert "missing.svm' cannot be read: No such file or directory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields,error", [
    (dict(n=40, P=4, B=20), "mini-batch size 20 exceeds partition size 10 of worker 0"),
    # subsets of 11, 11, 10 and 10 samples: worker 2 is the first too small
    (dict(n=42, P=4, B=11), "mini-batch size 11 exceeds partition size 10 of worker 2"),
    (dict(n=42, P=4, B=12), "mini-batch size 12 exceeds partition size 11 of worker 0"),
    # the 40 samples of a.svm, counted
    (dict(source="libsvm", P=4, B=11), "mini-batch size 11 exceeds partition size 10 of worker 0"),
    # serial svrg draws worker 0's batch stream from all N samples
    (dict(algo="svrg", n=40, B=41), "mini-batch size 41 exceeds partition size 40 of worker 0"),
], ids=["even-split", "uneven-split-floor", "uneven-split-ceil", "libsvm", "svrg"])
def test_validate_rejects_a_mini_batch_larger_than_a_partition(tmp_path, fields, error):
    write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), tmp_path / "a.svm")
    cfg = small_config(tmp_path, path=str(tmp_path / "a.svm"), **fields)
    assert cfg.validate() == [error]
    if cfg.algo != "svrg":  # the workers the run builds raise the same error
        problem = cfg.build_problem()
        with pytest.raises(ValueError, match=f"^{error}$"):
            run_cluster(problem, cfg.build_hyper(problem.n), algo=cfg.algo)
    # a sweep whose first value would run writes no file
    with pytest.raises(ValueError, match=error):
        sweep(cfg, "B", ["2", str(cfg.B)], out_dir=str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()


def test_validate_names_every_role_missing_from_endpoints(tmp_path, capsys):
    cfg = small_config(tmp_path, **SOCKET)  # endpoints for P=2
    assert cfg.validate() == []
    cfg.P = 4
    assert cfg.validate() == ["[endpoints] has no address for worker:2, worker:3"]
    cfg.endpoints = {r: a for r, a in SOCKET["endpoints"].items() if r != "server"}
    assert cfg.validate() == ["[endpoints] has no address for server, worker:2, worker:3"]
    cfg.endpoints = {}
    assert cfg.validate() == ["[endpoints] has no address for scheduler, server, "
                              "worker:0, worker:1, worker:2, worker:3"]
    assert dataclasses.replace(cfg, algo="svrg").validate() == []  # it opens no socket
    # a bad timeout is listed beside the missing roles
    assert dataclasses.replace(cfg, timeout=0.0).validate() == [
        "[endpoints] has no address for scheduler, server, worker:0, worker:1, worker:2, "
        "worker:3", "timeout must be finite and > 0, got 0.0"]
    # the sweep exits 1 before it runs P=2
    small_config(tmp_path, **SOCKET).to_file(tmp_path / "exp.ini")
    out = tmp_path / "workers"
    assert main(["sweep", "--config", str(tmp_path / "exp.ini"), "--axis", "P",
                 "--values", "2,4", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: invalid config:\n  [endpoints] has no address for worker:2, worker:3\n"
    assert not out.exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ValueError):
        sweep(small_config(tmp_path), "voltage", [1, 2])


def test_sweep_tau_under_latency_reduces_pull_wait(tmp_path):
    cfg = small_config(tmp_path, kind="quadratic", n=400, d=8, mu=1.0,
                       smoothness=10.0, eta=0.01, B=10, m=None, S=10, P=4,
                       latency="uniform", lo=1.0, hi=5.0, transport_seed=2,
                       grad_tick=0.01)
    summary = sweep(cfg, "tau", [1, 4, 16], out_dir=str(tmp_path / "taus"))
    rows = [line.split(",") for line in Path(summary).read_text().splitlines()[1:]]
    comm = [float(r[4]) for r in rows]
    assert comm[0] >= comm[1] >= comm[2]


def test_uneven_shuffled_partitions_full_run():
    from dvrsgd.losses import objective
    p = make_synthetic("l2-logistic", 101, 6, lam=0.02, seed=9)
    h = HyperParams(eta=0.1, theta=0.5, tau=3, B=5, m=12, S=4, P=4)
    from dvrsgd.transport import LatencyModel
    r = run_cluster(p, h, seed=10, partition_strategy="shuffled", partition_seed=11,
                    latency=LatencyModel("uniform", lo=0.5, hi=2.0, seed=12))
    parts = partition(p, h.P, "shuffled", seed=11)
    assert sorted(len(s) for s in parts.subsets) == [25, 25, 25, 26]
    for rec, snap in zip(r.records, r.snapshots):
        assert rec.objective == pytest.approx(objective(p, snap.anchor), abs=1e-12)
    assert r.records[-1].objective < r.records[0].objective


def test_cli_run_and_sweep(tmp_path, capsys):
    cfg = small_config(tmp_path)
    ini = tmp_path / "exp.ini"
    cfg.to_file(ini)
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "cli.csv")]) == 0
    assert (tmp_path / "cli.csv").exists()
    assert main(["sweep", "--config", str(ini), "--axis", "tau", "--values", "0,2",
                 "--out-dir", str(tmp_path / "cli-sweep")]) == 0
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()


def test_python_m_dvrsgd_runs_the_cli_without_warnings(tmp_path):
    cfg = small_config(tmp_path)
    ini = tmp_path / "exp.ini"
    cfg.to_file(ini)
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "dvrsgd", "run", "--config", str(ini)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"wrote 4 stage records to {cfg.out}\n"
    run_experiment(cfg, out=str(tmp_path / "in-process.csv"))
    assert Path(cfg.out).read_bytes() == (tmp_path / "in-process.csv").read_bytes()


@pytest.mark.parametrize("dim", [None, 9])
def test_libsvm_source_runs_through_the_harness(tmp_path, dim):
    path = tmp_path / "train.svm"
    write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), path)
    cfg = small_config(tmp_path, source="libsvm", path=str(path), dim=dim, lam=0.05)
    records = run_experiment(cfg)
    problem = load_libsvm(path, lam=0.05, dim=dim)
    assert problem.num_features == (6 if dim is None else 9)
    want = run_cluster(problem, cfg.build_hyper(problem.n), algo=cfg.algo, seed=cfg.seed)
    assert len(records) == cfg.S + 1
    assert records == want.records


@pytest.mark.parametrize("fields", [dict(target_objective=0.6)], ids=["target-objective"])
def test_stop_target_from_a_config_ends_the_run_early(tmp_path, fields):
    records = run_experiment(small_config(tmp_path, S=20, stop="target", **fields))
    assert len(records) < 21
    assert records[-1].objective <= 0.6 < records[-2].objective


def test_stop_reldecrease_from_a_config_ends_the_run_early(tmp_path):
    rtol = 1e-2
    records = run_experiment(small_config(tmp_path, S=20, stop="reldecrease", stop_param=rtol))
    assert len(records) < 21
    objectives = [r.objective for r in records]
    # the last stage is the first to improve by less than rtol relatively
    gains = [(a - b) / a for a, b in zip(objectives, objectives[1:])]
    assert gains[-1] <= rtol and min(gains[:-1]) > rtol


def test_cli_algo_override(tmp_path):
    cfg = small_config(tmp_path)
    ini = tmp_path / "exp.ini"
    cfg.to_file(ini)
    out = tmp_path / "ov.csv"
    assert main(["run", "--config", str(ini), "--algo", "dsvrg", "--out", str(out)]) == 0
    assert out.exists()


def test_socket_matches_sim_single_worker(tmp_path):
    # forced schedule: P=1, tau=0, zero latency; both transports must agree bitwise
    p = make_synthetic("l2-logistic", 60, 5, lam=0.01, seed=2)
    h = HyperParams(eta=0.1, theta=0.5, tau=0, B=1, m=20, S=2, P=1)
    sim = run_cluster(p, h, seed=4)
    addrs = {"scheduler": ("127.0.0.1", 0), "server": ("127.0.0.1", 0),
             "worker:0": ("127.0.0.1", 0)}
    sock = run_cluster_socket(p, h, addrs, seed=4, timeout=30.0)
    assert np.array_equal(sim.final_w, sock.final_w)
    assert [r.objective for r in sim.records] == [r.objective for r in sock.records]


def test_run_experiment_socket_mode_matches_sim(tmp_path):
    # P=1, tau=0 at zero latency: both modes run the same schedule
    sim = small_config(tmp_path, P=1, tau=0, out=str(tmp_path / "sim.csv"))
    sock = dataclasses.replace(sim, mode="socket", out=str(tmp_path / "socket.csv"),
                               endpoints={r: ("127.0.0.1", 0)
                                          for r in ("scheduler", "server", "worker:0")})
    assert [r.objective for r in run_experiment(sim)] == \
        [r.objective for r in run_experiment(sock)]
    assert len(Path(sock.out).read_text().splitlines()) == sim.S + 2


def test_endpoint_env_override(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, endpoints={"server": ("127.0.0.1", 7001)})
    monkeypatch.setenv("DVRSGD_SERVER", "10.0.0.5:9999")
    assert cfg.resolve_endpoints()["server"] == ("10.0.0.5", 9999)


def test_full_run_trace_replays_identically():
    from dvrsgd.transport import LatencyModel
    p = make_synthetic("l2-logistic", 80, 5, lam=0.02, seed=5)
    h = HyperParams(eta=0.1, theta=0.5, tau=4, B=5, m=16, S=3, P=4)

    def go():
        return run_cluster(p, h, seed=6, collect_trace=True,
                           latency=LatencyModel("uniform", lo=0.5, hi=3.0, seed=7))

    a, b = go(), go()
    assert np.array_equal(a.final_w, b.final_w)
    assert len(a.trace) == len(b.trace)
    for ea, eb in zip(a.trace, b.trace):
        assert (ea.action, ea.time, ea.seq, ea.src, ea.dst) == \
               (eb.action, eb.time, eb.seq, eb.src, eb.dst)
        assert type(ea.msg) is type(eb.msg)


def test_eval_responses_identical_bytes_across_workers():
    from dvrsgd.transport import LatencyModel
    from helpers import eval_responses_by_stage
    p = make_synthetic("l2-logistic", 80, 5, lam=0.02, seed=5)
    h = HyperParams(eta=0.1, theta=0.5, tau=4, B=5, m=16, S=3, P=4)
    r = run_cluster(p, h, seed=6, collect_trace=True,
                    latency=LatencyModel("uniform", lo=0.5, hi=3.0, seed=8))
    by_stage = eval_responses_by_stage(r.trace, h.m)
    assert sorted(by_stage) == [0, 1, 2, 3]
    for stage, ws in by_stage.items():
        assert len(ws) == 4
        for w in ws[1:]:
            assert w.tobytes() == ws[0].tobytes()


def test_socket_multi_worker_completes_final_snapshot():
    # the STOP can race the last EvalPush to the server; the open evaluation
    # round must still aggregate so the snapshot history is complete
    p = make_synthetic("l2-logistic", 60, 4, lam=0.02, seed=3)
    h = HyperParams(eta=0.1, theta=0.5, tau=2, B=4, m=8, S=2, P=3)
    addrs = {name: ("127.0.0.1", 0)
             for name in ("scheduler", "server", "worker:0", "worker:1", "worker:2")}
    r = run_cluster_socket(p, h, addrs, seed=5, timeout=30.0)
    assert [s.stage for s in r.snapshots] == [0, 1, 2]
    assert len(r.records) == 3
    assert np.isfinite(r.final_w).all()


def test_socket_comp_time_counts_real_compute_seconds():
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=40, S=2, P=2)
    addrs = {r: ("127.0.0.1", 0) for r in ("scheduler", "server", "worker:0", "worker:1")}
    r = run_cluster_socket(p, h, addrs, seed=3, timeout=30.0)
    # the CSV's comp_time column is comp_total
    comp = [rec.comp_total for rec in r.records]
    assert len(comp) == 3 and comp[0] > 0.0
    assert comp == sorted(comp)
    for worker in range(2):
        per_worker = [rec.comp_times[worker] for rec in r.records]
        assert per_worker == sorted(per_worker)


@pytest.mark.parametrize("transport", ["sim", "socket"])
def test_finished_run_freed_without_the_cyclic_gc(monkeypatch, transport):
    import dvrsgd.harness as harness_module

    built = []
    original = harness_module._build_nodes

    def recording(*args, **kw):
        nodes = original(*args, **kw)
        built.append(weakref.ref(nodes[2][0]))
        return nodes

    monkeypatch.setattr(harness_module, "_build_nodes", recording)
    p = make_synthetic("quadratic", 40, 3, seed=2)
    h = HyperParams(eta=0.05, theta=0.5, tau=1, B=2, m=5, S=2, P=2)
    addrs = {r: ("127.0.0.1", 0) for r in ("scheduler", "server", "worker:0", "worker:1")}
    gc.disable()
    try:
        if transport == "sim":
            result = run_cluster(p, h, seed=1)
        else:
            result = run_cluster_socket(p, h, addrs, seed=1, timeout=20.0)
        assert len(result.records) == 3
        assert built[0]() is None
    finally:
        gc.enable()


def diverging_run():
    # a step size far past 2/L: w overflows and the server refuses it
    p = make_synthetic("quadratic", 200, 10)
    return p, HyperParams(eta=2.0, theta=0.5, tau=2, B=5, m=40, S=30, P=2)


def test_diverging_run_fails_in_sim():
    p, h = diverging_run()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="w diverged at task"):
        run_cluster(p, h, seed=0)


def test_diverging_run_fails_fast_on_sockets_naming_the_server():
    p, h = diverging_run()
    addrs = {r: ("127.0.0.1", 0) for r in ("scheduler", "server", "worker:0", "worker:1")}
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TransportError, match=r"^server: FloatingPointError.*w diverged"):
        run_cluster_socket(p, h, addrs, seed=0, timeout=20.0)


def test_socket_run_with_a_bad_timeout_fails_before_any_listener_binds(monkeypatch):
    bound = []
    monkeypatch.setattr(socket, "create_server", lambda *a, **kw: bound.append(a))
    p = make_synthetic("quadratic", 20, 3)
    h = HyperParams(eta=0.1, m=5, S=1, P=1)
    addrs = {r: ("127.0.0.1", 0) for r in ("scheduler", "server", "worker:0")}
    with pytest.raises(ValueError, match="timeout must be finite and > 0, got nan"):
        run_cluster_socket(p, h, addrs, timeout=float("nan"))
    assert bound == []


def test_socket_cluster_timeout():
    from dvrsgd.transport import Node, SocketCluster, TransportError

    class Idle(Node):  # never done, so the loop never ends by itself
        def handle(self, src, msg):
            pass

    cluster = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=0.2)
    cluster.register("a", Idle())
    with pytest.raises(TransportError, match="did not finish within 0.2s"):
        cluster.run_until_quiescent()


class SwallowingServer(ParamServer):
    """A server that never answers the 40th pull it releases, so its worker
    waits on it forever and the run drains without finishing."""

    released = 0

    def _respond(self, req):
        self.released += 1
        if self.released != 40:
            super()._respond(req)


# every role is still waiting: the worker on its pull, the rest on its push
STUCK = "not done: scheduler, server, worker:0, worker:1, worker:2, worker:3$"


def test_run_that_drains_without_finishing_raises_naming_the_nodes(monkeypatch):
    monkeypatch.setattr(harness, "ParamServer", SwallowingServer)
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=20, S=4, P=4)
    with pytest.raises(TransportError, match="^run drained before every node could shut "
                       "down; " + STUCK):
        run_cluster(p, h, seed=3)


def test_socket_run_that_never_finishes_names_the_nodes_at_its_timeout(monkeypatch):
    monkeypatch.setattr(harness, "ParamServer", SwallowingServer)
    p = make_synthetic("quadratic", 200, 5, seed=1)
    h = HyperParams(eta=0.01, theta=0.5, tau=2, B=4, m=20, S=4, P=4)
    roles = ["scheduler", "server", *(f"worker:{k}" for k in range(4))]
    with pytest.raises(TransportError, match="^cluster did not finish within 1.0s; " + STUCK):
        run_cluster_socket(p, h, {r: ("127.0.0.1", 0) for r in roles}, seed=3, timeout=1.0)


@pytest.mark.parametrize("text", ["[hyper]\ntau = 1\ntau = 2\n", "tau = 1\n[hyper]\n",
                                  "[experiment]\nout = a%b.csv\n"],
                         ids=["duplicate-key", "key-before-section", "bad-interpolation"])
def test_config_malformed_file_is_a_clean_error(tmp_path, text, capsys):
    path = tmp_path / "malformed.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match="malformed.ini"):
        ExperimentConfig.from_file(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", ["127.0.0.1", "127.0.0.1:x", "127.0.0.1:65536"],
                         ids=["no-port", "bad-port", "port-out-of-range"])
@pytest.mark.parametrize("where", ["file", "env"])
def test_malformed_endpoint_is_a_clean_error_naming_it(tmp_path, monkeypatch, capsys,
                                                        where, value):
    roles = ("scheduler", "server", "worker:0", "worker:1")
    cfg = small_config(tmp_path, mode="socket",
                       endpoints={r: ("127.0.0.1", 0) for r in roles})
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    if where == "file":
        text = path.read_text()
        assert "server = 127.0.0.1:0\n" in text
        path.write_text(text.replace("server = 127.0.0.1:0\n", f"server = {value}\n"))
        source = f"{path}: [endpoints] server"
    else:
        monkeypatch.setenv("DVRSGD_SCHEDULER", value)
        source = "DVRSGD_SCHEDULER"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    # the file is read before the check, the environment by the check
    error = f"{source}: expected host:port, got {value!r}"
    if where == "env":
        error = f"invalid config:\n  {error}"
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "x.csv").exists()


def test_config_file_round_trip_numpy_scalars(tmp_path):
    cfg = small_config(tmp_path, eta=np.float64(0.1), theta=np.float32(0.25),
                       lam=np.float64(1e-3), tau=np.int64(4), S=np.int32(7))
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert "np." not in path.read_text()
    back = ExperimentConfig.from_file(path)
    assert back == cfg
    assert all(type(getattr(back, f)) is float for f in ("eta", "theta", "lam"))


DIVERGING = dict(kind="quadratic", eta=50.0, S=30)


@pytest.mark.parametrize("fields, error", [
    # a file that cannot be loaded fails the config's check, which loads it
    (dict(source="libsvm", path="bad.svm", B=1),
     "invalid config:\n  line 2: bad feature token '2:abc'"),
    (dict(source="libsvm", path="ok.svm", B=1, dim=1),
     "invalid config:\n  ok.svm: dim 1 smaller than max feature index 2"),
    (DIVERGING, "w diverged at task 191"),
    (dict(DIVERGING, algo="svrg"), "objective overflowed; loss formulation is broken"),
], ids=["bad-token", "dim-too-small", "diverging-dvrsgd", "diverging-svrg"])
def test_run_errors_exit_1_with_an_error_line(tmp_path, monkeypatch, capsys, fields, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.svm").write_text("0 1:1.0\n1 2:abc\n")
    (tmp_path / "ok.svm").write_text("0 1:1.0\n1 2:1.0\n")
    small_config(tmp_path, **fields).to_file("exp.ini")
    assert main(["run", "--config", "exp.ini"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_python_m_dvrsgd_diverging_run_prints_only_its_error_line(tmp_path):
    small_config(tmp_path, **DIVERGING).to_file(tmp_path / "exp.ini")
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "dvrsgd", "run", "--config", "exp.ini"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    # no NumPy overflow warning comes before it
    assert (done.returncode, done.stdout, done.stderr) == \
        (1, "", "error: w diverged at task 191\n")


@pytest.mark.parametrize("source,axis,values", [("synthetic", "problem_seed", ["1", "2"]),
                                                ("libsvm", "path", ["a.svm", "b.svm"])],
                         ids=["synthetic", "libsvm"])
def test_a_run_builds_its_problem_once_and_a_sweep_once_per_problem(tmp_path, monkeypatch,
                                                                     source, axis, values):
    # the check's problem is the one the run runs, and sweep values whose
    # [problem] sections are equal share one problem
    built, build_problem = [], ExperimentConfig.build_problem

    def counted(self):
        built.append(getattr(self, axis))
        return build_problem(self)

    monkeypatch.setattr(ExperimentConfig, "build_problem", counted)
    monkeypatch.chdir(tmp_path)
    for name in ("a.svm", "b.svm"):
        write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), name)
    cfg = small_config(tmp_path, source=source, path="a.svm")
    run_experiment(cfg)
    assert built == [getattr(cfg, axis)]
    built.clear()
    sweep(cfg, "P", ["1", "2", "4"], out_dir="ps")
    assert built == [getattr(cfg, axis)]
    built.clear()
    sweep(cfg, axis, values, out_dir="problems")
    assert built == [type(getattr(cfg, axis))(v) for v in values]


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_run_builds_each_part_once_and_a_sweep_once_per_value(tmp_path, monkeypatch, mode):
    built = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kw):
            built.append(name)
            return original(*args, **kw)

        monkeypatch.setattr(owner, name, counted)

    parts = ["stop_rule", "build_problem", "build_hyper", "build_cluster"]
    for name in parts:
        count(ExperimentConfig, name)
    count(harness, "_build_nodes")
    cfg = small_config(tmp_path, **(SOCKET if mode == "socket" else {}))
    run_experiment(cfg)
    assert built == [*parts, "_build_nodes"]
    built.clear()
    sweep(cfg, "P", ["1", "2"], out_dir=str(tmp_path / "ps"))
    # the two values share the problem
    assert built == [*parts, "_build_nodes", "stop_rule", *parts[2:], "_build_nodes"]


# fields that the run never reads: a socket run measures compute time and
# draws no latency, and serial svrg reads no [transport] field
UNREAD = dict(latency="trace", grad_tick=-1.0)


@pytest.mark.parametrize("fields", [dict(algo="svrg"), SOCKET,
                                    dict(algo="svrg", mode="carrier-pigeon", timeout=0.0)],
                         ids=["svrg", "socket", "svrg-any-transport"])
def test_fields_the_run_never_reads_are_not_checked(tmp_path, fields):
    cfg = small_config(tmp_path, **UNREAD, **fields)
    assert cfg.validate() == []
    assert len(run_experiment(cfg)) == cfg.S + 1
    # a cluster run in sim mode reads both
    assert dataclasses.replace(cfg, algo="dvrsgd", mode="sim").validate() == [
        "unknown latency kind 'trace'", "grad_tick must be finite and >= 0, got -1.0"]


def test_validate_reports_a_bad_endpoint_override(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, **SOCKET)
    monkeypatch.setenv("DVRSGD_WORKER_0", "nonsense")
    assert cfg.validate() == ["DVRSGD_WORKER_0: expected host:port, got 'nonsense'"]
    # and so are a missing role and a bad timeout
    assert dataclasses.replace(cfg, P=3, timeout=-1.0).validate() == [
        "DVRSGD_WORKER_0: expected host:port, got 'nonsense'",
        "[endpoints] has no address for worker:2", "timeout must be finite and > 0, got -1.0"]
    # sim mode and serial svrg dial no endpoint
    assert dataclasses.replace(cfg, mode="sim").validate() == []
    assert dataclasses.replace(cfg, algo="svrg").validate() == []


def test_sweep_over_paths_writes_one_file_per_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("data")
    for name in ("data/a.svm", "data/b.svm", "data_a.svm"):
        write_libsvm(make_synthetic("l2-logistic", 40, 6, lam=0.05, seed=4), name)
    small_config(tmp_path, source="libsvm", path="data/a.svm").to_file("exp.ini")
    assert main(["sweep", "--config", "exp.ini", "--axis", "path",
                 "--values", "data/a.svm,data/b.svm", "--out-dir", "out"]) == 0
    assert sorted(os.listdir("out")) == ["path_data_a.svm.csv", "path_data_b.svm.csv",
                                         "sweep_path_summary.csv"]
    # two values that name one file are rejected before either runs
    assert main(["sweep", "--config", "exp.ini", "--axis", "path",
                 "--values", "data/a.svm,data_a.svm", "--out-dir", "clash"]) == 1
    assert capsys.readouterr().err == "error: two sweep values would both write " \
                                      "path_data_a.svm.csv\n"
    assert not os.path.exists("clash")


@pytest.mark.parametrize("fields, error", [
    (dict(source="hdfs"), "unknown problem source 'hdfs'"),
    (dict(source="libsvm", path=None), "libsvm source needs a path"),
], ids=["unknown-source", "libsvm-without-path"])
def test_validate_names_a_problem_source_it_cannot_build(tmp_path, fields, error):
    assert small_config(tmp_path, **fields).validate() == [error]


def test_cli_run_seed_overrides_the_configured_seed(tmp_path):
    small_config(tmp_path).to_file(tmp_path / "exp.ini")
    assert main(["run", "--config", str(tmp_path / "exp.ini"), "--seed", "5",
                 "--out", str(tmp_path / "cli.csv")]) == 0
    run_experiment(small_config(tmp_path, seed=5), out=tmp_path / "seed5.csv")
    run_experiment(small_config(tmp_path), out=tmp_path / "seed3.csv")
    cli = (tmp_path / "cli.csv").read_bytes()
    assert cli == (tmp_path / "seed5.csv").read_bytes() != (tmp_path / "seed3.csv").read_bytes()
