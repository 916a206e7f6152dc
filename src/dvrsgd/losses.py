"""Finite-sum objectives F(w) = (1/N) sum_i f_i(w) with per-sample gradients.

Three problem kinds are supported:

* ``quadratic``            f_i(w) = 0.5*(a_i.w - b_i)^2 + 0.5*lam*|w|^2
* ``l2-logistic``          binary logistic loss with labels {0,1} plus ridge
* ``multiclass-logistic``  K-class softmax cross-entropy plus ridge

The ridge term is folded into every f_i, so the finite-sum form is preserved
and each f_i keeps its own smoothness constant.  Multiclass parameters are
stored as one flat vector of length K*d (class-major blocks), so the whole
system moves a single dense parameter vector regardless of problem kind.

Reduction order matters here: ``mean_gradient``/``loss_sum`` accumulate
per-sample contributions strictly in index order, and every inner product is
evaluated with non-optimized ``np.einsum``.  This makes single-sample and
batched evaluations bitwise identical, which the rest of the package (and its
tests) rely on.

The kernel (``_per_sample``) takes a stack of parameter points, (s, dim), and
gathers the rows of X and forms their inner products (the logits) once per
call for all of them: ``vr_gradient`` passes [w; anchor], the block walker a
stack of one.  From the logits come each point's gradient rows and, if asked,
the first point's loss rows: one formula for each, per kind.  Each point's
rows have the bits of a one-point call: its inner products come from the same
non-optimized einsum loop over the feature axis, the softmax max and sum
reduce each length-K row alone, and every other step is elementwise.

``_evaluate`` is the one block walker, behind ``mean_gradient``, ``loss_sum``
and a worker's evaluation task, which takes both from one pass.  It walks the
index set in blocks of about ``_BLOCK_ELEMS`` doubles, writing each block's
rows into buffers reused for the whole call, behind the running sums in their
first row.  Summing [running sum, next gradient rows] adds the rows one at a
time in index order, and ``np.add.accumulate`` over [running sum, next
losses] adds strictly left to right, so both results have the bits of summing
every row at once, and memory stays at one block however many samples there
are.
"""

import numpy as np

__all__ = [
    "Sample",
    "Problem",
    "sample_loss",
    "loss_sum",
    "objective",
    "sample_gradient",
    "mean_gradient",
    "full_gradient",
    "make_synthetic",
]

KINDS = ("quadratic", "l2-logistic", "multiclass-logistic")

# doubles per block of gradient rows (1 MB): large enough to amortise the
# per-call NumPy overhead, small enough to stay in cache and out of fresh pages
_BLOCK_ELEMS = 1 << 17


class Sample:
    """One training sample in sparse form: (indices, values, label).

    Feature indices must be strictly increasing; ``label`` is a class index
    for logistic problems and a real target for quadratic ones.
    """

    __slots__ = ("indices", "values", "label")

    def __init__(self, indices, values, label):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must have equal length")
        if indices.size and (np.any(np.diff(indices) <= 0) or indices[0] < 0):
            raise ValueError("feature indices must be nonnegative and strictly increasing")
        self.indices = indices
        self.values = values
        self.label = label


class Problem:
    """Immutable finite-sum problem over a dense feature matrix.

    Attributes
    ----------
    kind : one of KINDS
    features : (N, d) float64 matrix, one sample per row
    targets : (N,) labels (int for logistic kinds, float for quadratic)
    lam : ridge coefficient lam >= 0
    num_classes : K (1 for quadratic, 2 for binary logistic)
    mu, smoothness : strong-convexity / max per-sample smoothness constants
        when known (exact for quadratic, bounds for logistic), else None
    """

    def __init__(self, kind, features, targets, lam=0.0, num_classes=None,
                 mu=None, smoothness=None):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) matrix")
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.kind = kind
        self.features = features
        self.lam = float(lam)
        if kind == "quadratic":
            self.targets = np.asarray(targets, dtype=np.float64)
            self.num_classes = 1
        else:
            self.targets = np.asarray(targets, dtype=np.int64)
            k = int(self.targets.max()) + 1 if num_classes is None else int(num_classes)
            if np.any(self.targets < 0) or np.any(self.targets >= k):
                raise ValueError("labels must lie in {0,..,K-1}")
            if kind == "l2-logistic" and k != 2:
                raise ValueError("l2-logistic requires binary labels")
            self.num_classes = k
        if self.targets.shape[0] != features.shape[0]:
            raise ValueError("targets length must match sample count")
        self.mu = mu
        self.smoothness = smoothness
        features.setflags(write=False)
        self.targets.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        """Length of the parameter vector this problem optimizes."""
        if self.kind == "multiclass-logistic":
            return self.num_classes * self.num_features
        return self.num_features


def _check_param(problem: Problem, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (problem.dim,):
        raise ValueError(f"parameter vector must have shape ({problem.dim},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("parameter vector contains non-finite entries")
    return w


def _check_indices(problem: Problem, idx) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("sample index set must be a nonempty 1-D sequence")
    if idx.min() < 0 or idx.max() >= problem.n:
        raise ValueError("sample index out of range")
    return idx


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # evaluated piecewise so exp never sees positive arguments
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _per_sample(problem: Problem, points: np.ndarray, idx: np.ndarray,
                grads: np.ndarray | None = None,
                losses: np.ndarray | None = None) -> np.ndarray | None:
    """Per-sample terms for every index, ridge included, from one gather of
    the rows and one inner product per point: the gradients grad f_i(w) for
    every point w in the (s, dim) stack ``points`` into ``grads``, a
    C-contiguous (s, idx.size, dim) array, and the losses f_i(points[0]) into
    ``losses``, an (idx.size,) array.  Either may be None; returns ``grads``."""
    X = problem.features.take(idx, axis=0)  # features[idx], with less call overhead
    if problem.kind == "multiclass-logistic":
        k, d = problem.num_classes, problem.num_features
        Z = np.einsum("nd,kd->nk", X, points.reshape(-1, d)).reshape(idx.size, -1, k)
        zmax = Z.max(axis=2)
        if losses is not None:
            picked = Z[np.arange(idx.size), 0, problem.targets[idx]]  # before the shift
        Z -= zmax[..., None]
        P = np.exp(Z)
        total = P.sum(axis=2)
        if losses is not None:
            # log-sum-exp minus the label's logit
            np.log(total[:, 0], out=losses)
            losses += zmax[:, 0]
            losses -= picked
        if grads is not None:
            P /= total[..., None]
            P[np.arange(idx.size), :, problem.targets[idx]] -= 1.0
            rows = grads.reshape(points.shape[0], idx.size, k, d)
            for j in range(points.shape[0]):
                np.einsum("nk,nd->nkd", P[:, j], X, out=rows[j])
    else:
        z = np.einsum("nd,sd->sn", X, points)
        if problem.kind == "quadratic":
            coef = z - problem.targets[idx]
            if losses is not None:
                np.multiply(0.5 * coef[0], coef[0], out=losses)
        else:
            s = 2.0 * problem.targets[idx] - 1.0
            margin = s * z
            if losses is not None:
                # log(1 + exp(-margin)) without overflow
                np.log1p(np.exp(-np.abs(margin[0])), out=losses)
                losses += np.maximum(-margin[0], 0.0)
            if grads is not None:
                coef = -s * _sigmoid(-margin)
        if grads is not None:
            np.multiply(coef[..., None], X, out=grads)
    if losses is not None:
        losses += 0.5 * problem.lam * float(np.einsum("d,d->", points[0], points[0]))
    if grads is not None:
        grads += (problem.lam * points)[:, None, :]
    return grads


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows, added one row at a time in index order.

    An axis-0 ``np.add.reduce`` over a C-contiguous block with more than one
    column adds whole rows in order, so it gives the loop's bits; over one
    column NumPy sums pairwise, so that case (and any strided block) loops.
    """
    if rows.ndim == 2 and rows.shape[1] > 1 and rows.flags.c_contiguous:
        return np.add.reduce(rows, axis=0)
    acc = rows[0].copy()
    for k in range(1, rows.shape[0]):
        acc += rows[k]
    return acc


def _evaluate(problem: Problem, w: np.ndarray, idx: np.ndarray, *, grad: bool = True,
              loss: bool = True) -> tuple[np.ndarray | None, float | None]:
    """(mean of grad f_i(w), sum of f_i(w)) over ``idx``, each None unless
    asked for, from one walk over idx in blocks, both accumulated in index
    order.  It checks nothing: w is a float64 vector and idx a nonempty int64
    array of in-range sample indices (the ``vrgrad`` docstring says why a
    worker's inputs need no check).  A w of the wrong length still raises."""
    # a block's gathered features, and its gradient rows if asked for, fill
    # about _BLOCK_ELEMS doubles
    block = max(1, _BLOCK_ELEMS // (problem.dim if grad else problem.num_features))
    rows = min(block, idx.size) + 1
    grads = np.empty((rows, problem.dim)) if grad else None
    losses = np.empty(rows) if loss else None
    # the first block fills rows 0..; every later one fills rows 1.. behind
    # the running sums in row 0, so both sums continue in index order
    start = 0
    for lo in range(0, idx.size, block):
        part = idx[lo:lo + block]
        stop = start + part.size
        _per_sample(problem, w[None], part,
                    None if grads is None else grads[None, start:stop],
                    None if losses is None else losses[start:stop])
        if grads is not None:
            grads[0] = _ordered_sum(grads[:stop])
        if losses is not None:
            # accumulate adds strictly left to right (np.sum would add pairwise)
            losses[0] = np.add.accumulate(losses[:stop])[-1]
        start = 1
    return (None if grads is None else grads[0] / idx.size,
            None if losses is None else float(losses[0]))


def sample_loss(problem: Problem, w, i: int) -> float:
    """f_i(w), the loss of sample i including the ridge term."""
    return loss_sum(problem, w, [i])


def loss_sum(problem: Problem, w, indices) -> float:
    """Sum of f_i(w) over the given indices, accumulated in index order."""
    return _evaluate(problem, _check_param(problem, w), _check_indices(problem, indices),
                     grad=False)[1]


def objective(problem: Problem, w) -> float:
    """F(w) = (1/N) sum_i f_i(w)."""
    value = loss_sum(problem, w, np.arange(problem.n)) / problem.n
    if not np.isfinite(value):
        raise FloatingPointError("objective overflowed; loss formulation is broken")
    return value


def sample_gradient(problem: Problem, w, i: int) -> np.ndarray:
    """grad f_i(w), including the ridge term when lam > 0."""
    return mean_gradient(problem, w, [i])


def mean_gradient(problem: Problem, w, indices) -> np.ndarray:
    """Mean of grad f_i(w) over ``indices``, accumulated in index order."""
    return _evaluate(problem, _check_param(problem, w), _check_indices(problem, indices),
                     loss=False)[0]


def full_gradient(problem: Problem, w) -> np.ndarray:
    """grad F(w): the exact index-ordered mean of all sample gradients."""
    return mean_gradient(problem, w, np.arange(problem.n))


def make_synthetic(kind, n, d, *, num_classes=2, lam=0.0, seed=0,
                   mu=1.0, smoothness=10.0) -> Problem:
    """Generate a reproducible synthetic problem of the given kind.

    quadratic:
        ``mu`` and ``smoothness`` are exact by construction: rows share the
        squared norm smoothness-mu and span a rank-deficient subspace, so the
        ridge (set to mu) alone carries the strong convexity, and the largest
        per-sample smoothness constant is exactly ``smoothness``.  ``lam`` is
        ignored for this kind.
    l2-logistic / multiclass-logistic:
        gaussian features, labels drawn from a planted linear model; records
        mu = lam (lower bound) and the standard curvature upper bound
        lam + c * max_i |x_i|^2 with c = 1/4 (binary) or 1/2 (softmax).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)

    if kind == "quadratic":
        if d < 2:
            raise ValueError("quadratic generator needs d >= 2")
        if not smoothness > mu > 0:
            raise ValueError("need smoothness > mu > 0")
        A = rng.normal(size=(n, d))
        A[:, -1] = 0.0  # rank <= d-1, so min curvature comes from the ridge alone
        A *= np.sqrt(smoothness - mu) / np.linalg.norm(A, axis=1, keepdims=True)
        b = rng.normal(size=n)
        return Problem("quadratic", A, b, lam=mu, mu=float(mu), smoothness=float(smoothness))

    X = rng.normal(size=(n, d)) / np.sqrt(d)
    row_norm_sq = float(np.max(np.einsum("nd,nd->n", X, X)))
    if kind == "l2-logistic":
        w_true = rng.normal(size=d) * 3.0
        y = (rng.random(n) < _sigmoid(X @ w_true)).astype(np.int64)
        return Problem("l2-logistic", X, y, lam=lam, num_classes=2,
                       mu=(lam if lam > 0 else None),
                       smoothness=lam + 0.25 * row_norm_sq)

    k = int(num_classes)
    if k < 2:
        raise ValueError("multiclass generator needs num_classes >= 2")
    W_true = rng.normal(size=(k, d)) * 2.0
    Z = X @ W_true.T
    P = np.exp(Z - Z.max(axis=1)[:, None])
    P /= P.sum(axis=1)[:, None]
    y = (P.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1).astype(np.int64)
    y = np.minimum(y, k - 1)
    return Problem("multiclass-logistic", X, y, lam=lam, num_classes=k,
                   mu=(lam if lam > 0 else None),
                   smoothness=lam + 0.5 * row_norm_sq)
