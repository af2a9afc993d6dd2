"""Spans around splitconf's public callables, recorded from outside the package.

The tracer replaces each traced callable by a wrapper, in every splitconf
module that bound the callable at import (``from .clifford import
build_P`` makes a second binding that patching ``clifford`` alone would
miss), and on the class for methods.  ``uninstall`` puts every original
back.

Two kinds of wrapper:

* span wrappers store one span per call (id, parent id, operation id,
  layer, start, end) in flat arrays that are written out at the end;
* leaf wrappers, used for the scalar operations and ``is_exact`` that
  run millions of times per verify pass, keep only a count and a time
  total.  They call nothing traced, so their time is all self time and
  is charged to the enclosing span as child time.

A span's self time is its duration minus the time its child spans
cover; it is accumulated as calls end, so reading it needs no second
pass over the spans.
"""

import sys
import time
from array import array

import numpy as np

CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.layers = []
        self._layer_index = {}
        self.count = []
        self.self_s = []
        self.total_s = []
        self.extra = {}
        self.step_results = []
        # One open frame per active span: [span id, time covered by children].
        self._stack = [[-1, 0.0]]
        self._next_id = [0]
        self.op = [0]
        self.span_id = array("q")
        self.parent_id = array("q")
        self.op_id = array("q")
        self.layer_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._patches = []

    def _layer(self, name):
        idx = self._layer_index.get(name)
        if idx is None:
            idx = len(self.layers)
            self._layer_index[name] = idx
            self.layers.append(name)
            self.count.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    def bump(self, key, n=1):
        """Add to a plain counter that belongs to no span."""
        self.extra[key] = self.extra.get(key, 0) + n

    def span_wrapper(self, layer, fn, after=None):
        """Wrap fn so that every call stores a span; after(result) runs untimed."""
        idx = self._layer(layer)
        stack, next_id, op = self._stack, self._next_id, self.op
        count, self_s, total_s = self.count, self.self_s, self.total_s
        s_id, s_par, s_op, s_layer = self.span_id, self.parent_id, self.op_id, self.layer_id
        s_start, s_end = self.start, self.end
        clock = CLOCK

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                count[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur - frame[1]
                s_id.append(sid)
                s_par.append(parent[0])
                s_op.append(op[0])
                s_layer.append(idx)
                s_start.append(t0)
                s_end.append(t1)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_wrapper(self, layer, fn):
        """Wrap a callable that calls nothing traced: count and time only."""
        idx = self._layer(layer)
        stack, count, self_s, total_s = self._stack, self.count, self.self_s, self.total_s
        clock = CLOCK

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                stack[-1][1] += dur
                count[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make):
        """Replace module.attr, and every other splitconf binding of the same object."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in sorted(sys.modules.items()):
            if (name == "splitconf" or name.startswith("splitconf.")) and \
                    mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)
        return wrapped

    def patch_method(self, cls, attr, make):
        self._set(cls, attr, make(cls.__dict__[attr]))

    def patch_value(self, owner, attr, value):
        self._set(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """{layer: (calls, self seconds, total seconds)} since the last reset."""
        return {
            name: (self.count[i], self.self_s[i], self.total_s[i])
            for i, name in enumerate(self.layers)
        }

    def reset_totals(self):
        for i in range(len(self.layers)):
            self.count[i] = 0
            self.self_s[i] = 0.0
            self.total_s[i] = 0.0
        self.extra.clear()
        self.step_results.clear()

    def at_infinity(self):
        """(step results at infinity, step results), for a tracer that is not installed."""
        from splitconf.conformal import AT_INFINITY, q_or_infinity

        n = sum(q_or_infinity(v) is AT_INFINITY for v in self.step_results)
        return (
            self.extra.get("conformal.at_infinity.count", 0) + n,
            self.extra.get("conformal.at_infinity.base", 0) + len(self.step_results),
        )

    def write(self, path):
        """Write every stored span, with the layer names, as one .npz file."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            op_id=np.frombuffer(self.op_id, dtype=np.int64),
            layer_id=np.frombuffer(self.layer_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(tracer):
    """Wrap every traced layer of an imported splitconf; returns the tracer."""
    from splitconf import algebra, cli, clifford, conformal, group, matrices, realrep, report

    leaf, span = tracer.leaf_wrapper, tracer.span_wrapper

    # algebra: scalar products and sums (both operand orders), exactness tests.
    S = algebra.TensorScalar
    tracer.patch_method(S, "__mul__", lambda f: leaf("algebra.scalar_mul", f))
    tracer.patch_method(S, "__rmul__", lambda f: leaf("algebra.scalar_mul", f))
    tracer.patch_method(S, "__add__", lambda f: leaf("algebra.scalar_add", f))
    tracer.patch_function(algebra, "is_exact", lambda f: leaf("algebra.is_exact", f))

    # matrices: the 4x4 product, entrywise linear combinations, traces, exponentials.
    M = matrices.TensorMatrix
    tracer.patch_method(M, "__matmul__", lambda f: span("matrices.matmul", f))
    for attr in ("scale", "__add__", "__sub__"):
        tracer.patch_method(M, attr, lambda f: span("matrices.scale_add", f))
    tracer.patch_function(matrices, "trace_product", lambda f: span("matrices.trace_product", f))
    tracer.patch_function(matrices, "exp_nilpotent", lambda f: span("matrices.exp_nilpotent", f))

    for attr in ("build_P", "extract_coords", "inner_product"):
        tracer.patch_function(clifford, attr, lambda f, a=attr: span("clifford." + a, f))

    for attr in ("generator", "act_on_P", "so6_matrix", "compose_so6"):
        tracer.patch_function(group, attr, lambda f, a=attr: span("group." + a, f))

    # conformal: step results at infinity, against all step results.  The
    # six-vectors step_vector returns are judged once tracing is off
    # (see at_infinity), since judging them calls traced is_exact.
    at_inf = conformal.AT_INFINITY

    def after_translation(result):
        tracer.bump("conformal.at_infinity.base")
        if result is at_inf:
            tracer.bump("conformal.at_infinity.count")

    tracer.patch_function(
        conformal, "step_vector",
        lambda f: span("conformal.step_vector", f, tracer.step_results.append))
    tracer.patch_function(
        conformal, "apply_conformal_translation",
        lambda f: span("conformal.apply_conformal_translation", f, after_translation))
    tracer.patch_function(conformal, "mobius_oracle", lambda f: span("conformal.mobius_oracle", f))

    for attr in ("realify_matrix", "exp_real_generator"):
        tracer.patch_function(realrep, attr, lambda f, a=attr: span("realrep." + a, f))

    # report: one count per recorded check, and one per failed check.
    R = report.Report
    add, add_comparison = R.__dict__["add"], R.__dict__["add_comparison"]

    def counted_add(self, check_id, ok, *rest, **kw):
        tracer.bump("report.checks.count")
        if not ok:
            tracer.bump("report.fail.count")
        return add(self, check_id, ok, *rest, **kw)

    def counted_comparison(self, *args, **kw):
        tracer.bump("report.checks.count")
        return add_comparison(self, *args, **kw)

    tracer.patch_method(R, "add", lambda f: counted_add)
    tracer.patch_method(R, "add_comparison", lambda f: counted_comparison)

    # cli: main, and each suite as cmd_verify finds it in SUITES.
    tracer.patch_value(cli, "SUITES", tuple(
        (name, span("cli.suite." + name, fn)) for name, fn in cli.SUITES))
    tracer.patch_function(cli, "main", lambda f: span("cli.main", f))
    return tracer
