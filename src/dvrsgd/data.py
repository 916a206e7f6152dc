"""Dataset ingestion, partitioning, and LibSVM text I/O.

LibSVM lines are ``<label> <idx>:<val> ...`` with 1-based feature indices.
Labels are remapped to contiguous {0,..,K-1} in first-seen order and the
feature dimension defaults to the largest index in the file (override with
``dim`` when train/validation splits must agree).

A malformed file raises ``DataFormatError``, a ``ValueError`` naming the bad
line or the file. A config's check loads and partitions the data that its run
then runs on, so these errors fail the check before any run starts.
"""

from dataclasses import dataclass, field

import numpy as np

from .losses import Problem

__all__ = ["DataFormatError", "load_libsvm", "write_libsvm", "Partitioning", "partition",
           "check_batch_size"]


class DataFormatError(ValueError):
    pass


def _parse_line(line: str, lineno: int) -> tuple[float, list[int], list[float]]:
    """``(label, indices, values)`` of one sample, indices 0-based."""
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad label {parts[0]!r}")
    indices = []
    values = []
    for tok in parts[1:]:
        try:
            idx_s, val_s = tok.split(":", 1)
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad feature token {tok!r}")
        if idx < 1:
            raise DataFormatError(f"line {lineno}: feature indices are 1-based, got {idx}")
        if indices and idx - 1 <= indices[-1]:
            raise DataFormatError(f"line {lineno}: feature indices must be strictly increasing")
        indices.append(idx - 1)
        values.append(val)
    return label, indices, values


def load_libsvm(path, *, lam: float = 0.0, dim: int | None = None) -> Problem:
    """Load a LibSVM-format classification file into a Problem.

    K = number of distinct labels; binary files become ``l2-logistic``
    (parameter length d), others ``multiclass-logistic`` (length K*d).
    """
    samples = []
    label_map: dict[float, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, indices, values = _parse_line(line, lineno)
            if label not in label_map:
                label_map[label] = len(label_map)
            samples.append((label, indices, values))
    if not samples:
        raise DataFormatError(f"{path}: no samples")
    max_dim = max((indices[-1] + 1 for _, indices, _ in samples if indices), default=0)
    if dim is None:
        dim = max_dim
    elif dim < max_dim:
        raise DataFormatError(f"{path}: dim {dim} smaller than max feature index {max_dim}")
    if dim < 1:
        raise DataFormatError(f"{path}: could not infer a feature dimension")
    X = np.zeros((len(samples), dim))
    y = np.empty(len(samples), dtype=np.int64)
    for i, (label, indices, values) in enumerate(samples):
        X[i, indices] = values
        y[i] = label_map[label]
    k = len(label_map)
    kind = "l2-logistic" if k == 2 else "multiclass-logistic"
    return Problem(kind, X, y, lam=lam, num_classes=k,
                   mu=(lam if lam > 0 else None))


def write_libsvm(problem: Problem, path):
    """Write a problem back out in LibSVM text form (zeros skipped)."""
    with open(path, "w") as fh:
        for i in range(problem.n):
            row = problem.features[i]
            nz = np.nonzero(row)[0]
            feats = " ".join(f"{j + 1}:{row[j]:.17g}" for j in nz)
            if problem.kind == "quadratic":
                label = f"{problem.targets[i]:.17g}"
            else:
                label = str(int(problem.targets[i]))
            fh.write(f"{label} {feats}\n".rstrip() + "\n")


@dataclass(frozen=True)
class Partitioning:
    """Disjoint cover of sample indices: one subset D_p per worker."""

    weights: np.ndarray         # q_p = n_p / N
    subsets: tuple = field(repr=False)  # D_p as ascending sample indices


def check_batch_size(B: int, size: int, worker: int):
    """Raise unless worker ``worker``'s ``size`` samples hold a mini-batch of ``B``."""
    if B > size:
        raise ValueError(f"mini-batch size {B} exceeds partition size {size} of worker {worker}")


def partition(problem: Problem, P: int, strategy: str = "contiguous", *,
              seed: int = 0) -> Partitioning:
    """Split the samples into P disjoint subsets.

    ``contiguous`` deals blocks in index order; ``shuffled`` permutes with the
    seed first.  Remainder samples go to the lowest-id workers, so sizes are
    ceil(N/P) then floor(N/P).
    """
    n = problem.n
    if P < 1 or P > n:
        raise ValueError(f"need 1 <= P <= N, got P={P}, N={n}")
    if strategy not in ("contiguous", "shuffled"):
        raise ValueError(f"unknown partition strategy {strategy!r}")
    order = np.arange(n)
    if strategy == "shuffled":
        order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, P)
    counts = np.array([base + (1 if p < extra else 0) for p in range(P)], dtype=np.int64)
    subsets = []
    start = 0
    for c in counts:
        subsets.append(np.sort(order[start:start + c]))
        start += c
    return Partitioning(weights=counts / n, subsets=tuple(subsets))
