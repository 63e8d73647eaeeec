"""Span tracer that times periodlab's layers from outside the package.

Each traced function is replaced, at every module attribute of the package
that is bound to it, by a wrapper that records one span per call: name,
start, end, index of the enclosing span, group and whether it raised.  The
group names the suite or the point the call served, so all spans of one
suite or one point share it.  Class methods are wrapped in place on their
class.  The integrand handed to ``quad_ray`` is wrapped as well, to count
evaluations without a span each.

Spans stay in memory and are written out once, when the traced process
ends; ``layer_metrics`` turns them into per-layer calls, self and total
times.  Self time is a span's duration minus the time covered by its
direct children.  Total time of a name counts only spans that have no
enclosing span of the same name, so nested constructors are not counted
twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute) for every function wrapped at its module
# attribute; the wrapper is also bound wherever another package module
# imported the same function object by name.
FUNCTIONS = (
    ("kernel.quad_ray", "periodlab.kernel", "quad_ray"),
    ("kernel.quad_polyline", "periodlab.kernel", "quad_polyline"),
    ("kernel.xi_fd", "periodlab.kernel", "xi_fd"),
    ("kernel.laplace_fd", "periodlab.kernel", "laplace_fd"),
    ("eichler.eichler_integral", "periodlab.eichler", "eichler_integral"),
    ("eichler.period_polynomial", "periodlab.eichler", "period_polynomial"),
    ("qforms.construct", "periodlab.qforms", "eisenstein"),
    ("qforms.construct", "periodlab.qforms", "delta"),
    ("qforms.construct", "periodlab.qforms", "cusp_form"),
    ("qforms.construct", "periodlab.qforms", "weakly_holomorphic_m10"),
    ("qforms.evaluate", "periodlab.qforms", "evaluate"),
    ("regint.reg_integral_to_icusp", "periodlab.regint", "reg_integral_to_icusp"),
    ("lfun.l_completed", "periodlab.lfun", "l_completed"),
    ("special.upper_incomplete_gamma", "periodlab.special", "upper_incomplete_gamma"),
    ("special.exp_e1", "periodlab.special", "exp_e1"),
    ("special.gamma_upper_negint_continued", "periodlab.special", "gamma_upper_negint_continued"),
    ("special.cal_M", "periodlab.special", "cal_M"),
    ("mockcore.F_f2", "periodlab.mockcore", "F_f2"),
    ("mockcore.r_f2", "periodlab.mockcore", "r_f2"),
    ("mockcore.tilde_r_f2", "periodlab.mockcore", "tilde_r_f2"),
    ("poincare.truncated_poincare", "periodlab.poincare", "truncated_poincare"),
    ("cli.run_suite", "periodlab.cli", "run_suite"),
)

# (span name, module, class, method) wrapped in place on the class.
METHODS = (
    ("eichler.F", "periodlab.eichler", "EichlerIntegral", "evaluate"),
    ("eichler.EichlerIntegral", "periodlab.eichler", "EichlerIntegral", "__init__"),
    ("regint.decaying_eval", "periodlab.regint", "ExponentialQExpansion", "decaying_eval"),
    ("reports.to_dict", "periodlab.reports", "RelationReport", "to_dict"),
)

INTEGRAND_EVALS = "kernel.quad_ray.integrand_evals"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, group, raised)
        self.counts = Counter()
        self.group = "setup"
        self._stack = []

    def wrap(self, name, fn, suffix_arg=False, count_integrand=False):
        """Return ``fn`` wrapped so that each call records one span.

        ``suffix_arg`` appends the call's first positional argument to the
        span name (``cli.run_suite.<suite>``); ``count_integrand`` wraps the
        first argument, the integrand, to count its evaluations.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0]}" if suffix_arg else name
            if count_integrand:
                args = (_counting(args[0], counts),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.group, raised)

        return traced

    def install(self):
        """Wrap every traced function and method of the imported package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "periodlab" or n.startswith("periodlab.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:  # a layer the package no longer has reads 0
                continue
            wrapped = self.wrap(
                name,
                original,
                suffix_arg=name == "cli.run_suite",
                count_integrand=name == "kernel.quad_ray",
            )
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.wrap(name, vars(cls)[attr]))

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def _counting(integrand, counts):
    def counted(w):
        counts[INTEGRAND_EVALS] += 1
        return integrand(w)

    return counted


def probe_costs(n: int = 20000) -> tuple:
    """Seconds one traced call and one counted integrand evaluation add.

    Measured on a no-op, so they estimate the tracer's own cost.
    """
    tracer = Tracer()
    noop = lambda w=None: None
    traced = tracer.wrap("probe", noop)
    counted = _counting(noop, tracer.counts)
    times = []
    for fn in (noop, traced, counted):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(0)
        times.append(time.perf_counter() - t0)
    return max(times[1] - times[0], 0.0) / n, max(times[2] - times[0], 0.0) / n


def layer_metrics(spans, counts) -> dict:
    """Aggregate spans into ``<name>.calls``, ``.raised``, ``.self_s`` and ``.total_s``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _group, _raised in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = Counter()
    for idx, (name, start, end, parent, _group, raised) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.raised"] += int(raised)
        out[f"{name}.self_s"] += dur - child_time[idx]
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            out[f"{name}.total_s"] += dur
    out.update(counts)
    return dict(out)
