"""periodlab benchmark: cold ``verify`` runs and a warm, seeded object sweep.

Run from the root of a periodlab checkout:

    python3 perfbench/run.py --workload verify-mock --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --selfcheck               # tracer self-checks

Every measured run is a fresh single-threaded process (``child.py``) that
imports the package from ``src/`` of the checkout; nothing is installed and
``$PERIODLAB_CACHE`` is unset.  Runs repeat until ``--seconds`` have passed
(at least one).  Set-up is timed in extra fresh processes as well, and
``setup_s`` is the median of all samples.

Outputs are checked here, not trusted: each report entry passes when its
``max_residual`` is at most its ``tolerance``, read by position, and a
suite that wrote no report counts every identity it should have produced
as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The exit code is 1 when any check fails, 2 when the
checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from decimal import Decimal, InvalidOperation
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.dont_write_bytecode = True  # leave no __pycache__ behind
sys.path.insert(0, str(HERE))
from tracer import INTEGRAND_EVALS, layer_metrics  # noqa: E402

RUN_DEADLINE_S = 170  # every run must end well inside 180 s
# Set-up is timed in extra processes until there are this many samples and
# this much set-up time in total, so that a 0.2 s set-up has a steady median.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0

# Identities each suite reports for one form; a suite that exits without a
# report counts all of them as failed.
SUITE_IDENTITIES = {"superm": 1, "perstar": 4, "poincare": 7, "special": 8}

OBJECT_POINTS = 40  # p75 then has ten points beyond it
OBJECT_RE = (-0.5, 0.5)
OBJECT_IM = (0.3, 2.5)

WORKLOADS = {
    # cold CLI path: Eichler integrals inside quad_ray integrands (F2, r2)
    "verify-mock": {
        "kind": "verify",
        "suites": ["superm"],
        "inputs": [["delta", [64]]],
    },
    # cold CLI path: regint's wh-10 q-series quadrature, Poincare descent,
    # Whittaker seeds; the Eichler/mockcore bypass
    "verify-starred": {
        "kind": "verify",
        "suites": ["perstar", "poincare", "special"],
        "inputs": [["delta", [64]], ["weakly_holomorphic_m10", [170]]],
    },
    # warm library calls at seeded points: F, F2 by quadrature and termwise
    "objects-warm": {
        "kind": "objects",
        "inputs": [["cusp_form", [16, 64]]],
        "warmup": ["0.25", "0.5"],
    },
}
VERIFY_FORM = "delta"
DIGITS = 50

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "process_s": "s",
    "point_ms.p50": "ms",
    "point_ms.p75": "ms",
    "peak_rss_mb": "MB",
    "min_headroom_digits": "digits",
}

# per-layer metrics reported by a traced run, with units
PER_LAYER = {}
for _name, _kinds in (
    ("kernel.quad_ray", ("calls", "self_s", "raised")),
    ("kernel.xi_fd", ("calls", "total_s")),
    ("kernel.laplace_fd", ("total_s",)),
    ("eichler.F", ("calls", "self_s")),
    ("eichler.period_polynomial", ("calls", "total_s")),
    ("qforms.construct", ("total_s",)),
    ("qforms.evaluate", ("calls", "self_s", "raised")),
    ("regint.decaying_eval", ("calls", "self_s")),
    ("regint.reg_integral_to_icusp", ("calls", "total_s")),
    ("lfun.l_completed", ("calls", "total_s")),
    ("special.upper_incomplete_gamma", ("calls", "self_s")),
    ("special.exp_e1", ("calls", "self_s")),
    ("special.gamma_upper_negint_continued", ("calls", "self_s")),
    ("special.cal_M", ("calls", "self_s")),
    ("mockcore.F_f2", ("calls", "total_s")),
    ("mockcore.r_f2", ("calls", "total_s")),
    ("mockcore.tilde_r_f2", ("calls", "total_s")),
    ("poincare.truncated_poincare", ("calls", "total_s")),
    ("cli.run_suite.superm", ("total_s",)),
    ("cli.run_suite.perstar", ("total_s",)),
    ("cli.run_suite.poincare", ("total_s",)),
    ("cli.run_suite.special", ("total_s",)),
    ("reports.to_dict", ("total_s",)),
):
    for _kind in _kinds:
        PER_LAYER[f"{_name}.{_kind}"] = "s" if _kind.endswith("_s") else "count"
PER_LAYER.update(
    {
        INTEGRAND_EVALS: "count",
        "kernel.quad_ray.evals_per_call": "count",
        "eichler.F.us_per_call": "us",
        "eichler.cache_hit_ratio": "ratio",
        "trace.verify_s": "s",
        "trace.overhead_s": "s",
    }
)


class Gate:
    """Tally of checks: each is attempted, passes or fails, with its headroom."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.headroom = []  # log10(tolerance / residual) per check with numbers
        self.problems = []

    def check(self, what: str, residual: str, tolerance: str) -> None:
        self.attempted += 1
        try:
            res, tol = Decimal(residual), Decimal(tolerance)
            ok = res.is_finite() and tol.is_finite() and res <= tol
        except InvalidOperation:
            ok = False
        if ok:
            floor = Decimal(10) ** -(DIGITS + 30)  # a residual of exactly 0
            self.headroom.append(float(tol.log10() - max(res, floor).log10()))
        else:
            self.failed += 1
            self.problems.append(f"{what}: residual {residual} vs tolerance {tolerance}")

    def fail(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(what)


def object_points(seed: int, block: int) -> list:
    """OBJECT_POINTS points drawn as a Latin hypercube over Re z and Im z.

    Each of OBJECT_POINTS strips of the Im z range and of the Re z range
    holds exactly one point, so the cost mix stays the same from seed to
    seed: the cost of F2 by quadrature depends mostly on Im z.
    """
    rng = random.Random(f"objects-warm/{seed}/{block}")

    def strata(lo, hi):
        cells = list(range(OBJECT_POINTS))
        rng.shuffle(cells)
        return [lo + (hi - lo) * (c + rng.random()) / OBJECT_POINTS for c in cells]

    return [list(p) for p in zip(strata(*OBJECT_RE), strata(*OBJECT_IM))]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "PERIODLAB_CACHE"}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, tmp: Path, deadline: float, *, setup_only=False, trace=False, points=None) -> dict:
    """Run one child for ``workload``; return its result with ``process_s`` and the spec."""
    wl = WORKLOADS[workload]
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp))
    spec = {
        "src": str(SRC),
        "kind": wl["kind"],
        "inputs": wl["inputs"],
        "setup_only": setup_only,
        "trace": trace,
        "digits": DIGITS,
        "result_out": str(work / "result.json"),
        "trace_out": str(work / "trace.json"),
    }
    if wl["kind"] == "verify":
        spec["form"] = VERIFY_FORM
        spec["suites"] = wl["suites"]
        spec["report_paths"] = [str(work / f"{s}.json") for s in wl["suites"]]
    else:
        spec["warmup"] = wl["warmup"]
        spec["points"] = points or []
    spec_path = work / "spec.json"
    timeout = max(deadline - time.monotonic(), 1)
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        spec["spawn_t"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, "-s", "-B", str(HERE / "child.py"), str(spec_path)],
            cwd=work,
            env=child_env(),
            stdout=out,
            stderr=err,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    process_s = time.monotonic() - spec["spawn_t"]
    result_path = Path(spec["result_out"])
    if code != 0 or not result_path.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"failed": f"child exited {code}: {tail}", "spec": spec}
    result = json.loads(result_path.read_text())
    result.update(process_s=process_s, spec=spec)
    return result


def gate_result(result: dict, gate: Gate) -> None:
    """Check one measured child's outputs into ``gate``."""
    spec = result["spec"]
    if "failed" in result:
        n = sum(SUITE_IDENTITIES[s] for s in spec["suites"]) if spec["kind"] == "verify" else len(spec["points"])
        gate.fail(result["failed"], n)
        return
    if spec["kind"] == "objects":
        for i, chk in enumerate(result["checks"]):
            if "error" in chk:
                gate.fail(f"point {i}: {chk['error']}")
            else:
                gate.check(f"point {i} F2 quadrature vs termwise", chk["residual"], chk["tolerance"])
        return
    for suite_res, path in zip(result["suites"], spec["report_paths"]):
        suite = suite_res["suite"]
        expected = SUITE_IDENTITIES[suite]
        entries = []
        if suite_res["exit"] in (0, 1) and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                entries = json.load(fh)["reports"]
        else:
            gate.fail(f"{suite}: exit {suite_res['exit']}, no report {suite_res['error'] or ''}", expected)
            continue
        for pos, entry in enumerate(entries):
            gate.check(f"{suite}[{pos}] {entry.get('identity')}", entry["max_residual"], entry["tolerance"])
        if len(entries) < expected:
            gate.fail(f"{suite}: {len(entries)} reports, expected {expected}", expected - len(entries))


def median_and_p75(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def run_e2e(workload: str, seed: int, seconds: float, tmp: Path) -> tuple:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    objects = WORKLOADS[workload]["kind"] == "objects"
    gate = Gate()
    measured = []
    while not measured or time.monotonic() - start < seconds:
        res = spawn(workload, tmp, deadline, points=object_points(seed, len(measured)) if objects else None)
        gate_result(res, gate)
        measured.append(res)
        if "failed" in res:
            break
    ok = [r for r in measured if "failed" not in r]
    setups = [r["setup_s"] for r in ok]
    while ok and (len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS):
        res = spawn(workload, tmp, deadline, setup_only=True)
        if "failed" in res:
            gate.fail(f"set-up sample: {res['failed']}")
            break
        setups.append(res["setup_s"])
    metrics = {}
    if ok:
        units = [u for r in ok for u in r["units_ms"]]
        p50, p75 = median_and_p75(units)
        values = {
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(r["verify_s"] for r in ok),
            "process_s": statistics.median(r["process_s"] for r in ok),
            "point_ms.p50": p50,
            "point_ms.p75": p75,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in ok) / 1024,
            "min_headroom_digits": min(gate.headroom) if gate.headroom else None,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    info = {"env": ok[0]["env"] if ok else None, "runs": len(measured), "units": sum(len(r.get("units_ms", ())) for r in ok)}
    return gate, metrics, info


def direct_f_calls(workload: str, n_points: int):
    """EichlerIntegral evaluations made outside quad_ray integrands, if known."""
    if workload == "verify-mock":
        return 0
    if workload == "objects-warm":
        return n_points + 1  # F(z) at each point and at the warm-up point
    return None


def single_run(workload: str, seed: int, tmp: Path, trace: bool = True) -> tuple:
    """One child, traced or not; returns (gate, result, layer metrics)."""
    points = object_points(seed, 0) if WORKLOADS[workload]["kind"] == "objects" else None
    res = spawn(workload, tmp, time.monotonic() + RUN_DEADLINE_S, trace=trace, points=points)
    gate = Gate()
    gate_result(res, gate)
    if "failed" in res or not trace:
        return gate, res, {}
    with open(res["spec"]["trace_out"], encoding="utf-8") as fh:
        dump = json.load(fh)
    layers = layer_metrics(dump["spans"], dump["counts"])
    quad_calls = layers.get("kernel.quad_ray.calls", 0)
    f_calls = layers.get("eichler.F.calls", 0)
    evals = layers.get(INTEGRAND_EVALS, 0)
    layers["kernel.quad_ray.evals_per_call"] = evals / quad_calls if quad_calls else 0
    layers["eichler.F.us_per_call"] = 1e6 * layers.get("eichler.F.self_s", 0) / f_calls if f_calls else 0
    built = layers.get("eichler.EichlerIntegral.calls", 0)
    asked = layers.get("eichler.eichler_integral.calls", 0)
    layers["eichler.cache_hit_ratio"] = 1 - built / asked if asked else 0
    layers["trace.verify_s"] = res["verify_s"]
    layers["trace.overhead_s"] = dump["overhead_s"]
    direct = direct_f_calls(workload, len(points or ()))
    if direct is not None and f_calls != evals + direct:
        gate.fail(f"tracer: eichler.F.calls {f_calls} != integrand evaluations {evals} + {direct} direct calls")
    return gate, res, layers


def run_trace(workload: str, seed: int, tmp: Path) -> tuple:
    gate, res, layers = single_run(workload, seed, tmp)
    metrics = {}
    if layers:
        metrics = {k: {"value": layers.get(k, 0), "unit": unit} for k, unit in PER_LAYER.items()}
    return gate, metrics, {"env": res.get("env")}


def outputs_of(res: dict):
    """Report bytes of a verify child, or the value digest of an objects child."""
    spec = res["spec"]
    if spec["kind"] == "objects":
        return res.get("digest")
    return [Path(p).read_bytes() if os.path.exists(p) else None for p in spec["report_paths"]]


def selfcheck(workloads: list, seed: int, tmp: Path) -> int:
    """Traced and untraced outputs agree byte for byte; counts repeat exactly."""
    problems = []
    for wl in workloads:
        g0, plain, _ = single_run(wl, seed, tmp, trace=False)
        g1, first, counts1 = single_run(wl, seed, tmp)
        g2, second, counts2 = single_run(wl, seed, tmp)
        for g in (g0, g1, g2):
            problems += [f"{wl}: {p}" for p in g.problems]
        if "failed" in plain or "failed" in first or "failed" in second:
            continue
        if outputs_of(plain) != outputs_of(first):
            problems.append(f"{wl}: traced and untraced outputs differ")
        counted = sorted(k for k in counts1 if k.endswith((".calls", ".raised", ".integrand_evals")))
        diff = [k for k in counted if counts1[k] != counts2.get(k)]
        if diff:
            problems.append(f"{wl}: counts differ between traced runs: {diff}")
        print(
            f"{wl}: outputs identical, {len(counted)} counts repeat, "
            f"quad_ray integrand evaluations {counts1.get(INTEGRAND_EVALS, 0)}, "
            f"eichler.F calls {counts1.get('eichler.F.calls', 0)}, "
            f"tracing cost {first['verify_s'] - plain['verify_s']:.3f} s measured, "
            f"{counts1['trace.overhead_s']:.3f} s estimated"
        )
    for p in problems:
        print(f"SELFCHECK FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


def print_table(workload: str, gate: Gate, metrics: dict, info: dict) -> None:
    print(f"# {workload}: {json.dumps(info)}")
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_frac':<42} {frac:>14.6g} ratio ({gate.failed}/{gate.attempted})")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<42} {value:>14} {m['unit']}")
    for p in gate.problems:
        print(f"  FAILED {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true", help="check the tracer against untraced runs")
    args = ap.parse_args(argv)

    if not (SRC / "periodlab" / "__init__.py").is_file():
        print(f"no periodlab source under {SRC}; run from the root of a periodlab checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.selfcheck:
            return selfcheck(names, args.seed, tmp)
        total = Gate()
        combined = {}
        for wl in names:
            if args.trace:
                gate, metrics, info = run_trace(wl, args.seed, tmp)
            else:
                gate, metrics, info = run_e2e(wl, args.seed, args.seconds, tmp)
            print_table(wl, gate, metrics, info)
            total.attempted += gate.attempted
            total.failed += gate.failed
            prefix = f"{wl}." if len(names) > 1 else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
        correct = total.failed == 0 and total.attempted > 0 and bool(combined)
        print(json.dumps({"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": combined}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
