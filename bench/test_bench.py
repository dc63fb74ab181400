"""Tests of the benchmark itself (not of hermflow):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


def test_benchmark_json_matches_what_the_run_reports():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == {n: run.unit_of(n) for n in run.per_layer_names()}


# every metric the benchmark's issue names, with its direction; fail_ratio is
# reported as pass_ratio (a metric must never read 0) and the accuracy
# figures are per-layer (they depend on the seed or exist on one workload)
NAMED_E2E = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower",
             "pass_ratio": "higher", "error_share": "lower"}
NAMED_LAYER = [
    "import.self_s", "cli.artifact.bytes", "rational_linalg.rref.calls",
    "rational_linalg.rref.self_s", "rational_linalg.rref.distinct_ratio",
    "polynomial.mul.calls", "polynomial.mul.self_s", "polynomial.derive.self_s",
    "polynomial.evaluate_grid.self_s", "operators.eigenfunction.calls", "operators.self_s",
    "moments.moment_of_poly.calls", "moments.self_s", "solenoidal.divfree_kernel.calls",
    "solenoidal.self_s", "kernel.kernel_values.radii", "kernel.kernel_values.self_s",
    "kernel.envelope_fit.self_s", "grid.fft.calls", "grid.fft.bytes", "grid.to_grid.self_s",
    "grid.pair_fields.calls", "grid.pair_fields.self_s", "grid.synth_duals.self_s",
    "grid.weighted_transform.self_s", "grid.interaction_tensor.self_s", "grid.cache.bytes",
    "dynamics.semigroup_verify.self_s", "dynamics.nse_galerkin.self_s",
    "dynamics.solve_ivp.nfev", "dynamics.classify_zero.self_s", "dynamics.nodal_extract.self_s",
    "trace.overhead_s", "rate_rel_err", "duhamel_residual", "tensor_max_error", "fit_d0_rel_dev",
]


def test_every_named_metric_and_workload_is_declared():
    assert {w["name"] for w in SPEC["workloads"]} == {"checks", "galerkin", "verify"}
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    for name, better in NAMED_E2E.items():
        assert e2e[name]["better"] == better and e2e[name]["unit"]
    layer = {m["name"]: m for m in SPEC["per_layer"]}
    for name in NAMED_LAYER + [f"cli.{c}.wall_s" for c in run.all_check_ids()]:
        assert layer[name]["unit"] and layer[name]["better"] in ("lower", "higher"), name


# -- correctness gate ----------------------------------------------------------------


def _check(workload: str, cid: str) -> workloads.Check:
    return next(c for c in workloads.WORKLOADS[workload](0, 2) if c.id == cid)


def _line(**fields) -> str:
    return json.dumps({"ok": True, **fields}) + "\n"


def test_passing_summary_lines_pass():
    v = workloads.judge(_check("verify", "verify-m1"), 0,
                        _line(max_rel_rate_err=2e-5, truncated=False), ".")
    assert v.problems == [] and v.shares == {"max_rel_rate_err": 2e-5 / 1e-3}
    v = workloads.judge(_check("galerkin", "evolve"), 0,
                        _line(duhamel_residual=1e-10, stokes_dev=1e-12, truncated=False), ".")
    assert v.problems == [] and v.shares == {}  # seeded residuals stay out of error_share


@pytest.mark.parametrize(
    "workload, cid, rc, stdout",
    [
        ("verify", "verify-m1", 0, _line(max_rel_rate_err=1.5e-3, truncated=False)),
        ("verify", "verify-m2", 0, _line(max_rel_rate_err=1e-3, truncated=False)),
        ("verify", "verify-m2", 0, _line(max_rel_rate_err=1e-5, truncated=True)),
        ("galerkin", "evolve", 0, _line(duhamel_residual=2e-6, stokes_dev=0.0, truncated=False)),
        ("galerkin", "evolve", 0, _line(duhamel_residual=0.0, stokes_dev=2e-9, truncated=False)),
        ("checks", "nodal", 0, _line(distances=[0.3, 0.2, 0.2, 0.1, 0.01], verdict="PASS")),
        ("checks", "nodal", 0, _line(distances=[0.3, 0.2, 0.15, 0.1, 0.06], verdict="PASS")),
        ("checks", "classify", 0, _line(all_exact=False)),
        ("checks", "basis", 0, json.dumps({"ok": False, "count_formula_ok": True})),
        ("checks", "basis", 2, _line(count_formula_ok=True)),
        ("checks", "basis", 0, "not json\n"),
        ("checks", "basis", 0, ""),
    ],
)
def test_doctored_summary_line_is_a_failure(workload, cid, rc, stdout):
    assert workloads.judge(_check(workload, cid), rc, stdout, ".").problems


def _result(cid: str, problems=(), digest=None, wall=1.0, rss=10.0, shares=None) -> run.Result:
    v = workloads.Verdict(problems=list(problems), shares=shares or {})
    check = workloads.Check(cid, (), lambda s, d, v: None)
    return run.Result(check, run.Proc(0, wall, rss), v, digest or {"<stdout>": "a"}, 0)


def test_failures_count_against_pass_ratio():
    passes = [[_result("a", shares={"x": 0.5}), _result("b", problems=["bad"], rss=30.0)]]
    m = run.e2e_metrics(passes, [0.3, 0.1, 0.2])
    assert m == {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 30.0,
                 "pass_ratio": 0.5, "error_share": 0.5}


def test_differing_bytes_across_repetitions_fail():
    first = [_result("a"), _result("b")]
    second = [_result("a"), _result("b", digest={"<stdout>": "a", "x.json": "z"})]
    run.enforce_identity([first, second])
    assert [r.ok for r in first + second] == [True, True, True, False]


# -- self time -------------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a, as a worker thread's span does
        Span(3, "a.leaf", 2.0, 3.0, 1),
        Span(4, "b.leaf", 5.0, 7.0, 2),  # runs past its parent's end: clipped
        Span(5, "other", 20.0, 21.0, None),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0})


def test_tracer_records_parents_across_threads():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("leaf", lambda x: x + 1)

    def outer():
        t = threading.Thread(target=leaf, args=(1,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        return leaf(2)

    assert tr.wrap("outer", outer)() == 3
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    (out,) = by_name["outer"]
    assert out.parent is None
    assert [s.parent for s in by_name["leaf"]] == [out.id, out.id]


# -- exact counters repeat -----------------------------------------------------------------

SMALL = [
    ("tensor", ("d-tensor", "--n", "16", "--workers", "2")),
    ("galerkin", ("evolve", "--model", "nse", "--K", "1", "--data", "demo:small",
                  "--n", "16", "--tau", "1", "--workers", "2")),
    ("zero", ("classify", "--terms",
              '[{"x": [2, 0, 0], "t": 0, "c": 1}, {"x": [0, 0, 0], "t": 1, "c": 1}]')),
    ("table", ("kernel", "--m", "2", "--r-max", "6")),
]

COUNTS = [
    "rational_linalg.rref.calls", "rational_linalg.rref.distinct", "polynomial.mul.calls",
    "operators.eigenfunction.calls", "moments.moment_of_poly.calls",
    "solenoidal.divfree_kernel.calls", "kernel.kernel_values.radii", "grid.fft.calls",
    "grid.fft.bytes", "grid.pair_fields.calls", "grid.cache.bytes", "dynamics.solve_ivp.nfev",
    "cli.artifact.bytes", "trace.spans",
]


def test_two_traced_runs_give_identical_counts(tmp_path):
    checks = [workloads.Check(cid, argv, lambda s, d, v: None) for cid, argv in SMALL]
    counts = []
    for rep in range(2):
        results = run.run_pass(checks, str(tmp_path / f"rep{rep}"),
                               time.monotonic() + 120, traced=True)
        assert all(r.ok for r in results), [r.verdict.problems for r in results]
        m = run.layer_metrics(results, 0.0)
        counts.append({k: m[k] for k in COUNTS})
    assert counts[0] == counts[1]
    c = counts[0]
    for key in ("rational_linalg.rref.calls", "kernel.kernel_values.radii", "grid.fft.calls",
                "grid.cache.bytes", "dynamics.solve_ivp.nfev", "polynomial.mul.calls"):
        assert c[key] > 0, key
    assert c["grid.fft.bytes"] % (16**3 * 16) == 0


def test_a_call_that_raises_keeps_its_span():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    (s,) = tr.spans
    assert s.name == "boom" and s.end >= s.start and tr._stack() == []
