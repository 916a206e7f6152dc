import numpy as np
import pytest

from dvrsgd.data import DataFormatError, load_libsvm, partition, write_libsvm
from dvrsgd.losses import Problem, full_gradient, make_synthetic, mean_gradient


def test_parse_basic_line(tmp_path):
    f = tmp_path / "toy.svm"
    f.write_text("1 1:0.5 3:-2.0\n0 2:1.25\n")
    p = load_libsvm(f)
    assert p.n == 2 and p.num_features == 3
    assert np.array_equal(p.features[0], [0.5, 0.0, -2.0])
    assert np.array_equal(p.features[1], [0.0, 1.25, 0.0])
    # labels remapped in first-seen order: 1 -> 0, 0 -> 1
    assert p.targets.tolist() == [0, 1]


def test_plus_minus_labels_remapped(tmp_path):
    f = tmp_path / "pm.svm"
    f.write_text("-1 1:1.0\n+1 1:2.0\n-1 2:3.0\n")
    p = load_libsvm(f)
    assert p.num_classes == 2
    assert p.kind == "l2-logistic"
    assert p.targets.tolist() == [0, 1, 0]


def test_round_trip_synthetic(tmp_path):
    # seed chosen so labels appear in first-seen order 0,1 (remap is identity)
    p = make_synthetic("l2-logistic", 50, 6, lam=0.05, seed=4)
    assert p.targets[0] == 0
    f = tmp_path / "round.svm"
    write_libsvm(p, f)
    q = load_libsvm(f, lam=0.05)
    assert q.n == p.n and q.num_features == p.num_features
    assert np.array_equal(q.features, p.features)
    assert np.array_equal(q.targets, p.targets)


def test_malformed_line_reports_number(tmp_path):
    f = tmp_path / "bad.svm"
    f.write_text("1 1:0.5\n1 7:oops\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_libsvm(f)
    f.write_text("1 0:0.5\n")
    with pytest.raises(DataFormatError, match="1-based"):
        load_libsvm(f)
    f.write_text("1 2:0.5 2:0.6\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_libsvm(f)
    f.write_text("0 1:1.0\n1 1:0.5 3:-2.0 2:0.25\n")
    with pytest.raises(DataFormatError, match="line 2: feature indices must be strictly "
                                              "increasing"):
        load_libsvm(f)


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.svm"
    f.write_text("")
    with pytest.raises(DataFormatError):
        load_libsvm(f)


def test_dim_override(tmp_path):
    f = tmp_path / "dim.svm"
    f.write_text("0 1:1.0\n1 2:1.0\n")
    assert load_libsvm(f).num_features == 2
    assert load_libsvm(f, dim=10).num_features == 10
    with pytest.raises(DataFormatError):
        load_libsvm(f, dim=1)


def test_partition_even_split():
    p = make_synthetic("l2-logistic", 10, 3, seed=0)
    parts = partition(p, 2)
    assert [len(s) for s in parts.subsets] == [5, 5]
    assert parts.weights.tolist() == [0.5, 0.5]
    assert np.array_equal(parts.subsets[0], np.arange(5))


def test_partition_remainder_to_early_workers():
    p = make_synthetic("l2-logistic", 10, 3, seed=0)
    parts = partition(p, 3)
    assert [len(s) for s in parts.subsets] == [4, 3, 3]


def test_partition_shuffled_deterministic():
    p = make_synthetic("l2-logistic", 24, 3, seed=0)
    a = partition(p, 5, "shuffled", seed=3)
    b = partition(p, 5, "shuffled", seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a.subsets, b.subsets))
    c = partition(p, 5, "shuffled", seed=4)
    assert not all(np.array_equal(x, y) for x, y in zip(a.subsets, c.subsets))


def test_partition_disjoint_cover_randomized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 200))
        P = int(rng.integers(1, n + 1))
        p = make_synthetic("quadratic", n, 3, seed=int(rng.integers(1000)),
                           mu=1.0, smoothness=2.0)
        strategy = "shuffled" if rng.random() < 0.5 else "contiguous"
        parts = partition(p, P, strategy, seed=int(rng.integers(1000)))
        union = np.concatenate(parts.subsets)
        assert sorted(union.tolist()) == list(range(n))
        assert len(parts.subsets) == P
        assert abs(parts.weights.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("strategy", ["contiguous", "shuffled"])
@pytest.mark.parametrize("n, P", [(1, 1), (7, 3), (50, 50), (101, 8), (8192, 256)])
def test_partition_subsets_are_the_assignment_scans(strategy, n, P):
    # each subset is the ascending scan of the sample -> worker map it defines
    parts = partition(make_synthetic("quadratic", n, 2, seed=1), P, strategy, seed=9)
    assignments = np.full(n, -1)
    for q, subset in enumerate(parts.subsets):
        assignments[subset] = q
    for q in range(P):
        assert np.array_equal(parts.subsets[q], np.nonzero(assignments == q)[0])


def test_partition_rejects_more_workers_than_samples():
    p = make_synthetic("l2-logistic", 4, 3, seed=0)
    with pytest.raises(ValueError):
        partition(p, 5)
    with pytest.raises(ValueError):
        partition(p, 2, "zigzag")


def test_weighted_aggregate_identity():
    p = make_synthetic("multiclass-logistic", 90, 5, num_classes=3, lam=0.01, seed=6)
    parts = partition(p, 7, "shuffled", seed=7)
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = rng.normal(size=p.dim)
        agg = np.zeros(p.dim)
        for q in range(7):
            agg += parts.weights[q] * mean_gradient(p, w, parts.subsets[q])
        assert np.linalg.norm(agg - full_gradient(p, w)) <= 1e-12


def test_bad_label_reports_its_line(tmp_path):
    f = tmp_path / "label.svm"
    f.write_text("1 1:0.5\nyes 1:0.5\n")
    with pytest.raises(DataFormatError, match="^line 2: bad label 'yes'$"):
        load_libsvm(f)


def test_file_without_features_has_no_dimension(tmp_path):
    f = tmp_path / "labels.svm"
    f.write_text("0\n1\n")
    with pytest.raises(DataFormatError, match="could not infer a feature dimension$"):
        load_libsvm(f)


def test_write_libsvm_writes_quadratic_targets_as_floats(tmp_path):
    p = Problem("quadratic", [[1.5, 0.0], [0.0, 2.0]], [0.1, -3.0])
    write_libsvm(p, tmp_path / "quad.svm")
    assert (tmp_path / "quad.svm").read_text() == "0.10000000000000001 1:1.5\n-3 2:2\n"
