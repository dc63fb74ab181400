"""hermflow benchmark: the README verification checks, end to end.

    python3 bench/run.py --workload {checks,galerkin,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all     # every workload, one table

Run from the root of a source checkout; the package is imported from
`src/` (no install step). Each check is a fresh `python -m hermflow.cli`
process, run one after another in a closed loop by a single client. Grid
commands get `--workers min(2, nproc)` and BLAS/OpenMP pools are pinned to
one thread, so the load never uses more threads than the machine has.

Untraced (`--trace 0`): a few fresh imports of `hermflow.cli` time the
set-up, then whole passes over the workload repeat until `--seconds` have
passed (at least one). Reported: `wall_s` (sum over the checks of each
check process's median wall time, start to exit), `setup_s` (median
import), `peak_rss_mb` (highest per-process peak, from each child's own
rusage), `pass_ratio` (checks passed / attempted; a ratio of failures would
read 0) and `error_share` (worst seed-independent README error as a share
of its README bound).

Traced (`--trace 1`): one untraced pass, then the same argv once more per
check, each in a fresh process under `bench/tracer.py`, which calls
`cli.run(argv)` with every layer wrapped. Reported: the per-layer metrics,
and the tracing overhead (traced minus untraced wall time).

A check fails on a nonzero exit, on its README pass condition, or when its
summary line or any artifact differs in bytes from an earlier repetition of
the same check in the run. The last stdout line is the result object;
details (per check, machine and environment) go to the lines above it and
to `.bench_runs/<workload>/result.json`; the traced run also writes its
spans to `.bench_runs/<workload>/trace.jsonl`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
    "error_share": "1",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("HERMFLOW_OUTDIR", None)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float = 0.0


def run_child(argv: List[str], cwd: str, stem: str, timeout: float) -> Proc:
    """Run argv to completion with stdout/stderr in `<stem>.out/.err`; the
    peak RSS is the child's own (wait4), not the cumulative children max."""
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)


def digest(summary_line: str, outdir: str) -> Dict[str, str]:
    """sha256 of the summary line and of every artifact file."""
    out = {"<stdout>": hashlib.sha256(summary_line.encode()).hexdigest()}
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


@dataclass
class Result:
    check: workloads.Check
    proc: Proc
    verdict: workloads.Verdict
    digest: Dict[str, str]
    artifact_bytes: int
    spans: Optional[list] = None
    cache_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.verdict.problems


def run_pass(checks: List[workloads.Check], pass_dir: str, deadline: float,
             traced: bool = False) -> List[Result]:
    os.makedirs(pass_dir, exist_ok=True)
    results = []
    for check in checks:
        stem = os.path.join(pass_dir, check.id)
        argv = list(check.argv) + ["--outdir", check.id]
        if traced:
            cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), stem + ".spans.json", "--"]
        else:
            cmd = [sys.executable, "-m", "hermflow.cli"]
        proc = run_child(cmd + argv, pass_dir, stem, deadline - time.monotonic())
        with open(stem + ".out", errors="replace") as fh:
            stdout = fh.read()
        verdict = workloads.judge(check, proc.rc, stdout, pass_dir)
        outdir = os.path.join(pass_dir, check.id)
        lines = stdout.strip().splitlines()
        res = Result(
            check, proc, verdict,
            digest(lines[-1] if lines else "", outdir),
            sum(os.path.getsize(os.path.join(b, f)) for b, _, fs in os.walk(outdir) for f in fs),
        )
        if traced:
            try:
                with open(stem + ".spans.json") as fh:
                    blob = json.load(fh)
                res.spans = tracer.load_spans(blob["spans"])
                res.cache_bytes = blob["cache_bytes"]
            except (OSError, ValueError, KeyError) as exc:
                verdict.problems.append(f"no trace: {exc!r}")
                res.spans = []
        results.append(res)
        print(f"  {check.id:<14} rc={proc.rc:<3} {proc.wall_s:8.3f} s {proc.cpu_s:8.3f} cpu-s "
              f"{proc.rss_mb:8.1f} MB  "
              + ("ok" if res.ok else "FAIL: " + "; ".join(verdict.problems)), flush=True)
    return results


def enforce_identity(passes: List[List[Result]]) -> None:
    """Byte-identity contract: every repetition of a check must reproduce
    the first one's summary line and artifacts."""
    first: Dict[str, Dict[str, str]] = {}
    for results in passes:
        for r in results:
            want = first.setdefault(r.check.id, r.digest)
            if r.digest != want:
                changed = sorted(k for k in set(want) | set(r.digest) if want.get(k) != r.digest.get(k))
                r.verdict.problems.append(f"bytes differ from the first repetition: {changed}")


def setup_samples(n: int, work_dir: str, deadline: float) -> List[float]:
    """Fresh-process wall time of `import hermflow.cli`, n samples."""
    cmd = [sys.executable, "-c", "import hermflow.cli"]
    times = []
    for i in range(n):
        p = run_child(cmd, work_dir, os.path.join(work_dir, f"setup{i}"), deadline - time.monotonic())
        if p.rc != 0:
            raise RuntimeError(f"import hermflow.cli failed (exit {p.rc})")
        times.append(p.wall_s)
    return times


def environment(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = child_env()
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: env.get(v) for v in THREAD_VARS},
        "workers": workers,
        "seed": seed,
        "client": "closed loop, 1 client, serial",
    }


# -- metrics ------------------------------------------------------------------------


def e2e_metrics(passes: List[List[Result]], setup: List[float]) -> Dict[str, float]:
    """Each check's wall time and peak RSS is its median over the passes;
    `wall_s` sums those over the checks, `peak_rss_mb` takes the largest."""
    flat = [r for p in passes for r in p]
    shares = [s for r in flat for s in r.verdict.shares.values()]
    per_check: Dict[str, List[Proc]] = {}
    for r in flat:
        per_check.setdefault(r.check.id, []).append(r.proc)
    return {
        "wall_s": sum(statistics.median(p.wall_s for p in ps) for ps in per_check.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(p.rss_mb for p in ps) for ps in per_check.values()),
        "pass_ratio": sum(r.ok for r in flat) / len(flat),
        "error_share": max(shares) if shares else 0.0,
    }


def all_check_ids() -> List[str]:
    return [c.id for make in workloads.WORKLOADS.values() for c in make(0, 1)]


# Every span adds 1 to `<prefix>.calls` and its self time to `<prefix>.self_s`
# where such a metric exists; the prefix is the span name unless listed here.
SPAN_PREFIXES = {
    "grid.to_grid": ("grid.to_grid", "grid.fft"),
    "grid.to_spectral": ("grid.fft",),
}
# spans whose measured quantity (see tracer.MEASURES) sums into a metric
SPAN_INFO = {
    "grid.to_grid": "grid.fft.bytes",
    "grid.to_spectral": "grid.fft.bytes",
    "kernel.kernel_values": "kernel.kernel_values.radii",
    "dynamics.solve_ivp": "dynamics.solve_ivp.nfev",
}

PER_LAYER_FIXED = [
    "import.self_s",
    "cli.artifact.bytes",
    "rational_linalg.rref.calls",
    "rational_linalg.rref.distinct",
    "rational_linalg.rref.distinct_ratio",
    "rational_linalg.rref.self_s",
    "polynomial.mul.calls",
    "polynomial.mul.self_s",
    "polynomial.derive.self_s",
    "polynomial.evaluate_grid.self_s",
    "operators.eigenfunction.calls",
    "moments.moment_of_poly.calls",
    "solenoidal.divfree_kernel.calls",
    "kernel.kernel_values.radii",
    "kernel.kernel_values.self_s",
    "kernel.envelope_fit.self_s",
    "grid.fft.calls",
    "grid.fft.bytes",
    "grid.to_grid.self_s",
    "grid.pair_fields.calls",
    "grid.pair_fields.self_s",
    "grid.synth_duals.self_s",
    "grid.weighted_transform.self_s",
    "grid.interaction_tensor.self_s",
    "grid.cache.bytes",
    "dynamics.semigroup_verify.self_s",
    "dynamics.nse_galerkin.self_s",
    "dynamics.solve_ivp.nfev",
    "dynamics.classify_zero.self_s",
    "dynamics.nodal_extract.self_s",
    "trace.spans",
    "trace.wall_s",
    "trace.overhead_s",
] + [f"{layer}.self_s" for layer in tracer.LAYERS] + list(workloads.FIGURES)


def per_layer_names() -> List[str]:
    return PER_LAYER_FIXED + [f"cli.{cid}.wall_s" for cid in all_check_ids()]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio") or name in workloads.FIGURES:
        return "1"
    return "count"


def layer_metrics(traced: List[Result], untraced_wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass. Self times, calls and counted
    quantities sum over the workload's checks; the cache footprint is the
    largest at any check's end."""
    m = {name: 0.0 for name in per_layer_names()}
    for r in traced:
        own = tracer.self_times(r.spans)
        distinct = set()
        for s in r.spans:
            layer = s.name.split(".", 1)[0]
            if layer in tracer.LAYERS:
                m[f"{layer}.self_s"] += own[s.id]
            for prefix in SPAN_PREFIXES.get(s.name, (s.name,)):
                for suffix, value in (("calls", 1), ("self_s", own[s.id])):
                    if f"{prefix}.{suffix}" in m:
                        m[f"{prefix}.{suffix}"] += value
            if s.name in SPAN_INFO:
                m[SPAN_INFO[s.name]] += s.info
            elif s.name == "rational_linalg.rref":
                distinct.add(s.info)
            elif s.name == "cli.run":
                key = f"cli.{r.check.id}.wall_s"
                m[key] = m.get(key, 0.0) + s.end - s.start
        m["rational_linalg.rref.distinct"] += len(distinct)
        m["cli.artifact.bytes"] += r.artifact_bytes
        m["grid.cache.bytes"] = max(m["grid.cache.bytes"], r.cache_bytes)
        m["trace.spans"] += len(r.spans)
        m["trace.wall_s"] += r.proc.wall_s
        for name, value in r.verdict.figures.items():
            m[name] = max(m[name], value)
    calls = m["rational_linalg.rref.calls"]
    m["rational_linalg.rref.distinct_ratio"] = m["rational_linalg.rref.distinct"] / calls if calls else 0.0
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall
    return m


def write_trace(path: str, traced: List[Result]) -> None:
    with open(path, "w") as fh:
        for r in traced:
            for s in r.spans:
                fh.write(json.dumps({"check": r.check.id, **s._asdict()}) + "\n")


# -- driver -------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    workers = min(2, nproc())
    checks = workloads.WORKLOADS[name](seed, workers)
    work = os.path.join(RUNS, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env_info = environment(seed, workers)
    print(json.dumps({"workload": name, "environment": env_info}, sort_keys=True), flush=True)
    # compile the package's bytecode once, outside every timed region
    setup_samples(1, work, deadline)

    passes: List[List[Result]] = []
    setup: List[float] = []
    if not trace:
        setup = setup_samples(SETUP_SAMPLES, work, deadline)
    while True:
        t0 = time.monotonic()
        print(f"pass {len(passes)} (untraced)", flush=True)
        passes.append(run_pass(checks, os.path.join(work, f"pass{len(passes)}"), deadline))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - t_start
        if trace or elapsed >= seconds or elapsed + took > RUN_LIMIT_S * 0.8:
            break
    traced: List[Result] = []
    if trace:
        print("traced pass", flush=True)
        traced = run_pass(checks, os.path.join(work, "traced"), deadline, traced=True)
    enforce_identity(passes + [traced])

    flat = [r for p in passes + [traced] for r in p]
    failed = sum(not r.ok for r in flat)
    if trace:
        untraced_wall = sum(r.proc.wall_s for r in passes[0])
        metrics = layer_metrics(traced, untraced_wall)
        write_trace(os.path.join(work, "trace.jsonl"), traced)
    else:
        metrics = e2e_metrics(passes, setup)
    unit = unit_of if trace else E2E_UNITS.__getitem__
    result = {
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        checks_run = [
            {"pass": i if i < len(passes) else "traced", "check": r.check.id, "rc": r.proc.rc,
             "wall_s": r.proc.wall_s, "cpu_s": r.proc.cpu_s, "rss_mb": r.proc.rss_mb,
             "problems": r.verdict.problems}
            for i, p in enumerate(passes + [traced]) for r in p
        ]
        json.dump({"workload": name, "environment": env_info, "setup_samples": setup,
                   "checks": checks_run, **result}, fh, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hermflow", "cli.py")):
        print(f"bench: no hermflow source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
