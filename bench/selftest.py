"""Self-test of the benchmark's tracer: self time on a synthetic span tree,
parent links of nested traced calls, and restore of every patched name."""

import types

import dvrsgd.protocol as protocol
from dvrsgd.protocol import Stop

from layers import Probe, originals
from spans import Tracer, self_times

__all__ = ["SelfTestError", "self_test"]


class SelfTestError(Exception):
    pass


def _check(ok: bool, what: str):
    if not ok:
        raise SelfTestError(what)


def self_test():
    # a(0..10) has children b(1..4), b(5..6) and c(9.5..11); b(1..4) has c(2..3).
    # The last child sticks out of its parent and is clipped to 9.5..10.
    tree = [(1, None, "a", 0.0, 10.0), (2, 1, "b", 1.0, 4.0), (3, 2, "c", 2.0, 3.0),
            (4, 1, "b", 5.0, 6.0), (5, 1, "c", 9.5, 11.0)]
    self_s, calls = self_times(tree)
    _check(self_s == {"a": 10.0 - (3.0 + 1.0 + 0.5), "b": 2.0 + 1.0, "c": 1.0 + 1.5},
           f"self time != span minus children: {self_s}")
    _check(calls == {"a": 1, "b": 2, "c": 2}, f"call counts wrong: {calls}")
    # overlapping children are covered once
    self_s, _ = self_times([(1, None, "p", 0.0, 4.0), (2, 1, "q", 1.0, 3.0),
                            (3, 1, "q", 2.0, 3.5)])
    _check(self_s["p"] == 1.5, f"overlapping children counted twice: {self_s}")

    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    tracer = Tracer()
    tracer.patch(ns, "inner", "t.inner")
    tracer.patch(ns, "outer", "t.outer")
    _check(ns.outer(1) == 4, "traced call changed its result")
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    _check(inner_parent == outer_id and outer_parent is None, "nested span has the wrong parent")
    tracer.restore()

    before = originals()
    tracer = Tracer()
    Probe(tracer, socket=True)
    _check(all(a is not b for a, b in zip(originals()[:-1], before)), "a patch did not take")
    protocol.encode(Stop())
    _check([s[2] for s in tracer.spans] == ["protocol.encode"], "patched name not traced")
    tracer.restore()
    _check(all(a is b for a, b in zip(originals(), before)), "an original was not restored")
