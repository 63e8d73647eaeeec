"""One fresh benchmark process: set up, run one workload's work, write a result.

``run.py`` starts this script once per measured run and once per extra
set-up sample, as ``python3 -s -B child.py SPEC.json``.  The spec names the
package source directory, the workload's inputs and where to write.  The
script imports periodlab from that source, builds the inputs, and then
either stops (a set-up sample) or runs the workload:

* ``verify``: calls ``periodlab.cli.main(["verify", <suite>, ...])`` once per
  suite, as a user's ``periodlab verify`` does, writing each report to the
  path the spec gives.  A suite that raises or exits is recorded and the
  next suite still runs.
* ``objects``: for each point, computes F(z), F2(z) by quadrature and F2(z)
  termwise, and records the cross-route residual against ``tol_tight``.

With ``trace`` set, the package is wrapped by ``tracer.Tracer`` right after
import and the spans are written to ``trace_out`` at exit.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback


def _env_info(mp) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mp.__version__,
        "mpmath_backend": mp.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_verify(spec, cli, tracer) -> dict:
    suites = []
    verify_s = 0.0
    for suite, out_path in zip(spec["suites"], spec["report_paths"]):
        if tracer is not None:
            tracer.group = suite
        argv = ["verify", suite, "--form", spec["form"], "--digits", str(spec["digits"]), "--out", out_path]
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # record and go on with the next suite
            code = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        verify_s += elapsed
        suites.append({"suite": suite, "exit": code, "error": error, "ms": elapsed * 1000})
    return {"verify_s": verify_s, "suites": suites, "units_ms": [s["ms"] for s in suites]}


def _run_objects(spec, mp, periodlab, ctx, form, tracer) -> dict:
    from periodlab.reports import residual_scale

    F = periodlab.eichler_integral(form, ctx)
    digest = hashlib.sha256()
    checks, units_ms = [], []
    verify_s = 0.0
    for i, (x, y) in enumerate(spec["points"]):
        if tracer is not None:
            tracer.group = f"point-{i}"
        z = mp.mpc(x, y)
        t0 = time.perf_counter()
        try:
            fz = F(z)
            quad = periodlab.F_f2(form, z, ctx)
            term = periodlab.F_f2(form, z, ctx, method="termwise")
        except Exception:  # a failed point counts as a failed check
            elapsed = time.perf_counter() - t0
            checks.append({"error": traceback.format_exc(limit=3)})
        else:
            elapsed = time.perf_counter() - t0
            with mp.workdps(ctx.work_dps):
                residual = abs(quad - term) / residual_scale(quad, term)
            checks.append({"residual": mp.nstr(residual, 15), "tolerance": mp.nstr(ctx.tol_tight, 15)})
            digest.update(f"{fz!r} {quad!r} {term!r}\n".encode())
        verify_s += elapsed
        units_ms.append(elapsed * 1000)
    return {"verify_s": verify_s, "checks": checks, "units_ms": units_ms, "digest": digest.hexdigest()}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mpmath as mp
    import periodlab
    import periodlab.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # set-up: build the inputs (and, for objects, warm every object once)
    ctx = form = None
    for ctor, args in spec["inputs"]:
        form = getattr(periodlab, ctor)(*args)
    if spec["kind"] == "objects":
        ctx = periodlab.PrecisionContext(digits=spec["digits"])
        F = periodlab.eichler_integral(form, ctx)
        periodlab.period_polynomial(form, ctx)
        w = mp.mpc(*spec["warmup"])
        F(w)
        periodlab.F_f2(form, w, ctx)
        periodlab.F_f2(form, w, ctx, method="termwise")
    result = {"setup_s": time.monotonic() - spec["spawn_t"], "env": _env_info(mp)}

    if not spec["setup_only"]:
        if spec["kind"] == "verify":
            result.update(_run_verify(spec, cli, tracer))
        else:
            result.update(_run_objects(spec, mp, periodlab, ctx, form, tracer))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        from tracer import INTEGRAND_EVALS, probe_costs

        span_cost, count_cost = probe_costs()
        overhead = span_cost * len(tracer.spans) + count_cost * tracer.counts[INTEGRAND_EVALS]
        tracer.dump(spec["trace_out"], {"overhead_s": overhead})
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
