"""Shared test oracles and transport-trace invariant checkers.

The oracles here deliberately avoid the package's own gradient/objective
paths: the quadratic solution comes from a direct linear solve, and logistic
optima from a test-local Newton iteration.
"""

import numpy as np

from dvrsgd.protocol import PullRequest, PullResponse, TaskKind, UpdatePush


def quad_solution(problem):
    """(w*, F(w*)) for a quadratic problem by direct linear solve."""
    A, b = problem.features, problem.targets
    d = A.shape[1]
    H = A.T @ A / problem.n + problem.lam * np.eye(d)
    c = A.T @ b / problem.n
    w_star = np.linalg.solve(H, c)
    f_star = 0.5 * float(b @ b) / problem.n - 0.5 * float(c @ w_star)
    return w_star, f_star


def logistic_newton(problem, iters=100):
    """w* for an l2-logistic problem by a test-local Newton iteration."""
    X, y, lam = problem.features, problem.targets, problem.lam
    n, d = X.shape
    s = 2.0 * y - 1.0
    w = np.zeros(d)
    for _ in range(iters):
        z = X @ w
        p = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (p - y) / n + lam * w
        r = p * (1.0 - p)
        H = (X * r[:, None]).T @ X / n + lam * np.eye(d)
        step = np.linalg.solve(H, grad)
        w = w - step
        if np.linalg.norm(grad) < 1e-13:
            break
    return w


def finite_difference_gradient(f, w, h=1e-6):
    """Central-difference gradient of the scalar function f at w."""
    g = np.zeros_like(w)
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


# -- transport trace checkers -------------------------------------------------

def check_gate_invariant(trace, gate_bound):
    """Every answered pull satisfied the delay-gate rule at answer time."""
    finished = set()
    violations = 0
    for ev in trace:
        if ev.action == "deliver" and ev.dst == "server" and isinstance(ev.msg, UpdatePush):
            finished.add(ev.msg.task.timestamp)
        if ev.action == "send" and ev.src == "server" and isinstance(ev.msg, PullResponse):
            t = ev.msg.task.timestamp
            if ev.msg.task.kind == TaskKind.UPDATE:
                need = range(1, t - gate_bound) if gate_bound is not None else range(0)
            else:
                need = range(1, t)
            if any(u not in finished for u in need):
                violations += 1
    return violations


def check_one_task_at_a_time(trace):
    """No worker ever has two outstanding pull requests."""
    outstanding = set()
    for ev in trace:
        if ev.action == "send" and isinstance(ev.msg, PullRequest):
            assert ev.msg.worker not in outstanding, \
                f"worker {ev.msg.worker} issued a second pull while one is pending"
            outstanding.add(ev.msg.worker)
        if ev.action == "deliver" and isinstance(ev.msg, PullResponse):
            outstanding.discard(int(ev.dst.split(":")[1]))


def check_pair_fifo(trace):
    """Per (src, dst) pair, messages are delivered in send order."""
    sends, delivers = {}, {}
    for ev in trace:
        book = sends if ev.action == "send" else delivers
        book.setdefault((ev.src, ev.dst), []).append(ev.seq)
    for pair, seqs in sends.items():
        assert delivers.get(pair, []) == seqs, f"FIFO violated on {pair}"


def eval_responses_by_stage(trace, m):
    """Map stage -> list of w arrays sent in evaluation pull responses."""
    out = {}
    for ev in trace:
        if ev.action == "send" and ev.src == "server" and isinstance(ev.msg, PullResponse) \
                and ev.msg.task.kind == TaskKind.EVALUATION:
            stage = (ev.msg.task.timestamp - 1) // m
            out.setdefault(stage, []).append(ev.msg.w)
    return out
