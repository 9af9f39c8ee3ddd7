"""In-memory tracing of the twobridge layers, from outside the package.

Tracer.install() wraps public functions and methods of the package.  A
wrapped function is replaced in every twobridge module that holds it, so
calls through ``from .x import f`` are traced too.  Public functions
record one span per call (name, start, end, parent span, trace id); the
hot kernels only bump counters, and series multiplication also sums its
time.  Self time of a span is its duration minus the time its child
spans cover; kernels are not spans, so their time stays in the self time
of the span that called them.  uninstall() restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute or "Class.method") of the wrapped callables
SPANS = {
    "cli.main": [("twobridge.cli", "main")],
    "verify.run_example": [("twobridge.verify", "run_example")],
    "deformations.build_family": [("twobridge.deformations", "build_family")],
    "deformations.universality_certificate": [("twobridge.deformations", "universality_certificate")],
    "deformations.trace_axioms": [("twobridge.deformations", "trace_axioms")],
    "groupring.fox_derivative": [("twobridge.groupring", "fox_derivative")],
    "homology.boundary2": [("twobridge.homology", "boundary2")],
    "homology.l_function": [("twobridge.homology", "l_function")],
    "homology.twisted_alexander": [("twobridge.homology", "twisted_alexander")],
    "homology.torsion_criterion": [("twobridge.homology", "torsion_criterion")],
    "homology.ad_cohomology": [("twobridge.homology", "ad_cohomology")],
    "laurent": [
        ("twobridge.laurent", "divide_exact"),
        ("twobridge.laurent", "laurent_gcd"),
        ("twobridge.laurent", "eq_up_to_unit"),
    ],
    "padics.newton": [("twobridge.padics", "sqrt_positive"), ("twobridge.padics", "hensel_root")],
    "padics.gcd_normal_form": [("twobridge.padics", "gcd_normal_form")],
    "riley.riley_polynomial": [("twobridge.riley", "riley_polynomial")],
    "riley.substitute_second": [("twobridge.riley", "BivariatePoly.substitute_second")],
    "riley.char_points": [("twobridge.riley", "char_points")],
    "riley.relation_holds": [("twobridge.riley", "relation_holds")],
}

# kernel name -> wrapped callables; counted (and, for series_mul, timed)
KERNELS = {
    "padics.series_mul": [("twobridge.padics", "PadicSeries.__mul__"), ("twobridge.padics", "PadicSeries.__rmul__")],
    "padics.series_add": [("twobridge.padics", "PadicSeries.__add__"), ("twobridge.padics", "PadicSeries.__radd__")],
    "padics.ring_new": [("twobridge.padics", "Zp.__init__"), ("twobridge.padics", "ZpT.__init__")],
    "matrices.mat2_mul": [("twobridge.matrices", "Mat2.__mul__")],
    "matrices.word_matrix": [("twobridge.matrices", "word_matrix")],
    "deformations.rep_eval": [("twobridge.deformations", "Representation.__call__")],
    "riley.eval_modp": [("twobridge.riley", "BivariatePoly.eval_modp")],
    "riley.bivariate_mul": [("twobridge.riley", "BivariatePoly.__mul__"), ("twobridge.riley", "BivariatePoly.__rmul__")],
}
TIMED_KERNELS = {"padics.series_mul"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.trace_id = None
        self.counts: dict[str, int] = defaultdict(int)
        self._self_s: dict[str, float] = defaultdict(float)  # since the last take_times()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # --- wrappers -------------------------------------------------------

    def _span(self, name, fn):
        clock, stack, spans, self_s, counts = time.perf_counter, self._stack, self.spans, self._self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[sid] = (sid, parent, self.trace_id, name, start, end)
                self_s[name] += end - start - frame[1]
                counts[name + ".calls"] += 1

        return wrapper

    def _kernel(self, name, fn):
        clock, depth, counts, self_s = time.perf_counter, self._depth, self.counts, self._self_s
        timed = name in TIMED_KERNELS
        extra = {
            "padics.series_mul": self._count_products,
            "matrices.word_matrix": self._count_letters,
            "deformations.rep_eval": self._count_hits,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[name]:  # a kernel calling itself (series times scalar) counts once
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if extra:
                extra(args)
            depth[name] += 1
            start = clock() if timed else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                if timed:
                    self_s[name] += clock() - start

        return wrapper

    def _count_products(self, args):
        # computed, not counted: the schoolbook product of two series of
        # degree D makes (D+1)(D+2)/2 coefficient products, a scalar D+1
        D = args[0].ring.D
        both = type(args[1]) is type(args[0])
        self.counts["padics.series_mul.coeff_products"] += (D + 1) * (D + 2) // 2 if both else D + 1

    def _count_letters(self, args):  # word_matrix(assign, word, one, zero)
        self.counts["matrices.word_matrix.letters"] += len(args[1])

    def _count_hits(self, args):  # Representation.__call__(self, word)
        self.counts["deformations.rep_eval.hits"] += args[1] in args[0]._cache

    # --- install / uninstall ----------------------------------------------

    def _patch(self, module, attr, make):
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "twobridge" or name.startswith("twobridge."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        for name, targets in KERNELS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._kernel(name, fn))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take_times(self) -> dict[str, float]:
        """Self seconds per span name (and timed kernel) since the last call."""
        out = dict(self._self_s)
        self._self_s.clear()
        return out
