import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from dvrsgd.baselines import BASELINES
from dvrsgd.harness import (ExperimentConfig, main, run_cluster, run_cluster_socket,
                            run_experiment, sweep)
from dvrsgd.losses import make_synthetic
from dvrsgd.server import HyperParams
from dvrsgd.transport import LatencyModel

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


@pytest.mark.parametrize("fields,owner", [
    (dict(latency="trace"), lambda: LatencyModel("trace")),
    (dict(stop="targt"), lambda: ExperimentConfig(stop="targt").stop_rule()),
    (dict(stop="target"), lambda: ExperimentConfig(stop="target").stop_rule()),
    (dict(B=0, m=None), lambda: HyperParams(eta=0.1, B=0)),
    (dict(m=0), lambda: HyperParams(eta=0.1, m=0)),
    (dict(eta=-1.0), lambda: HyperParams(eta=-1.0)),
    (dict(theta=2.0), lambda: HyperParams(eta=0.1, theta=2.0)),
], ids=["latency-trace", "stop-typo", "stop-target-no-target", "B-0-m-unset", "m-0",
        "eta-negative", "theta-above-1"])
def test_validate_reports_the_owning_constructors_error(tmp_path, capsys, fields, owner):
    with pytest.raises(ValueError) as exc:
        owner()
    cfg = small_config(tmp_path, **fields)
    assert cfg.validate() == [str(exc.value)]
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: invalid config:\n  {exc.value}\n"
    assert not Path(cfg.out).exists()


@pytest.mark.parametrize("stop,message", [
    ("targt", "unknown stopping rule 'targt'"),
    ("target", "stop=target needs stop_param or target_objective"),
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


def test_sweep_theta_zero_matches_dsvrg(tmp_path):
    cfg = small_config(tmp_path, target_objective=0.5)
    out_dir = tmp_path / "sweep"
    summary = sweep(cfg, "theta", ["0.0", "0.5"], out_dir=str(out_dir), gnuplot=True)
    rows = Path(summary).read_text().splitlines()
    assert rows[0] == "value,stages_to_target,total_time,comp_time,comm_time"
    assert len(rows) == 3
    assert (out_dir / "sweep_theta.gp").exists()
    # the theta=0 run reproduces a dsvrg run with the same seed
    import dataclasses
    dsvrg_cfg = dataclasses.replace(cfg, algo="dsvrg", out=str(tmp_path / "dsvrg.csv"))
    run_experiment(dsvrg_cfg)
    assert ((out_dir / "theta_0.0.csv").read_text().splitlines()[1:]
            == (tmp_path / "dsvrg.csv").read_text().splitlines()[1:])


def test_sweep_workers_emits_all_rows(tmp_path):
    cfg = small_config(tmp_path, target_objective=1e-4, n=64, B=4)
    summary = sweep(cfg, "workers", [1, 2, 4], out_dir=str(tmp_path / "ws"))
    rows = Path(summary).read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "2", "4"]


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
                    latency=LatencyModel("uniform", lo=0.5, hi=2.0, seed=12),
                    collect_trace=False)
    assert sorted(r.partitioning.counts.tolist()) == [25, 25, 25, 26]
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
    sim = run_cluster(p, h, seed=4, collect_trace=False)
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
        return run_cluster(p, h, seed=6,
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
    r = run_cluster(p, h, seed=6, latency=LatencyModel("uniform", lo=0.5, hi=3.0, seed=8))
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


def test_socket_cluster_timeout():
    from dvrsgd.transport import Node, SocketCluster, TransportError

    class Idle(Node):  # never done, so the loop never ends by itself
        def handle(self, src, msg):
            pass

    cluster = SocketCluster({"a": ("127.0.0.1", 0)}, timeout=0.2)
    cluster.register("a", Idle())
    with pytest.raises(TransportError, match="did not finish within 0.2s"):
        cluster.run_until_quiescent()


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
    assert capsys.readouterr().err == f"error: {source}: expected host:port, got {value!r}\n"
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
